import numpy as np
import pytest

from massart_online.core import (
    BanditConfig,
    ConfigError,
    HalfspaceConfig,
    derive_bandit_params,
    derive_halfspace_params,
    load_config_file,
    seeded_rng,
    spawn_streams,
)


def test_seeded_rng_reproducible():
    a = seeded_rng(0).random(100)
    b = seeded_rng(0).random(100)
    assert np.array_equal(a, b)


def test_seeded_rng_distinct_seeds():
    a = seeded_rng(0).random(100)
    b = seeded_rng(1).random(100)
    assert not np.array_equal(a, b)


def test_spawn_streams_independent_and_reproducible():
    a1, a2 = spawn_streams(7, 2)
    b1, b2 = spawn_streams(7, 2)
    assert np.array_equal(a1.random(50), b1.random(50))
    assert np.array_equal(a2.random(50), b2.random(50))


def test_halfspace_params_clamped_case():
    p = derive_halfspace_params(0.1, 0.2, 10**4, 0)
    # raw epsilon 0.5 clamps to (1 - 0.2)/2 - 1e-6
    assert p["epsilon"] == pytest.approx(0.399999)
    assert p["epsilon_clamped"]
    assert p["delta_tilde"] == pytest.approx(0.400001)
    assert p["tau"] == pytest.approx(0.399999 * 0.2 / 4)


def test_halfspace_params_unclamped_case():
    p = derive_halfspace_params(0.25, 0.5, 10**8, 0)
    assert p["epsilon"] == pytest.approx(0.02)
    assert not p["epsilon_clamped"]
    assert p["delta_tilde"] == pytest.approx(0.48)
    assert p["tau"] == pytest.approx(0.0025)


def test_halfspace_params_noiseless_limit():
    p = derive_halfspace_params(0.0, 1.0, 10**12, 0)
    assert p["epsilon"] == pytest.approx(1e-3)
    assert p["delta_tilde"] == pytest.approx(1.0, abs=2e-3)
    assert p["tau"] < 3e-4


@pytest.mark.parametrize("eta", [0.5, 0.7, -0.01])
def test_halfspace_params_rejects_bad_eta(eta):
    with pytest.raises(ConfigError):
        derive_halfspace_params(eta, 0.2, 1000, 0)


@pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
def test_halfspace_params_rejects_bad_gamma(gamma):
    with pytest.raises(ConfigError):
        derive_halfspace_params(0.1, gamma, 1000, 0)


def test_halfspace_params_invariants_random_configs():
    rng = seeded_rng(3)
    for _ in range(200):
        eta = rng.uniform(0.0, 0.49)
        gamma = rng.uniform(0.01, 1.0)
        t_horizon = int(rng.integers(1, 10**7))
        zeta = rng.uniform(0.0, 2.0)
        p = derive_halfspace_params(eta, gamma, t_horizon, zeta)
        assert 0 < p["epsilon"] < (1 - 2 * eta) / 2
        assert p["tau"] <= p["epsilon"] * gamma / 2
        assert 0 < p["delta_tilde"] < 1
        assert p["step_size"] > 0


def test_bandit_params_example():
    p = derive_bandit_params(0.2, 0.5, 1, 2, 10**6)
    assert p["lambda_cap"] == pytest.approx(50.0)
    assert p["q"] == pytest.approx(0.2)
    assert p["rho"] == 0.1
    assert not p["q_clamped"]


def test_bandit_params_q_clamp():
    p = derive_bandit_params(0.01, 0.01, 1, 10, 100)
    assert p["q"] == 1.0
    assert p["q_clamped"]


def test_bandit_params_invariants_random_configs():
    rng = seeded_rng(4)
    for _ in range(200):
        gamma = rng.uniform(0.01, 1.0)
        delta = rng.uniform(0.01, 2.0)
        cap = rng.uniform(0.1, 3.0)
        k = int(rng.integers(2, 9))
        t_horizon = int(rng.integers(1, 10**7))
        p = derive_bandit_params(gamma, delta, cap, k, t_horizon)
        assert p["rho"] == gamma / 2
        assert 0 < p["q"] <= 1
        assert p["lambda_cap"] > 0
        assert p["step_size"] > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma=0, delta=1, reward_cap=1, k=2, t_horizon=10),
        dict(gamma=1, delta=0, reward_cap=1, k=2, t_horizon=10),
        dict(gamma=1, delta=1, reward_cap=0, k=2, t_horizon=10),
        dict(gamma=1, delta=1, reward_cap=1, k=1, t_horizon=10),
    ],
)
def test_bandit_params_rejections(kwargs):
    with pytest.raises(ConfigError):
        derive_bandit_params(**kwargs)


def test_halfspace_config_carries_derived_fields():
    cfg = HalfspaceConfig(d=5, t_horizon=10**4, eta=0.1, gamma=0.2)
    assert cfg.epsilon == pytest.approx(0.399999)
    assert cfg.step_size > 0
    with pytest.raises(Exception):
        cfg.eta = 0.3  # frozen


def test_bandit_config_validates_environment():
    with pytest.raises(ConfigError):
        BanditConfig(d=3, k=3, t_horizon=100, gamma=0.2, delta=0.5, environment="massart2")
    with pytest.raises(ConfigError):
        BanditConfig(d=3, k=3, t_horizon=100, gamma=0.2, delta=0.5, environment="reduction2")


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"d": 6, "eta": 0.2, "adversary": "boundary"}')
    cfg = load_config_file(path)
    assert cfg == {"d": 6, "eta": 0.2, "adversary": "boundary"}


def test_load_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"d": 6, "bogus": 1}')
    with pytest.raises(ConfigError):
        load_config_file(path)
