from types import SimpleNamespace

import numpy as np
import pytest

from massart_online.core import HalfspaceConfig, seeded_rng
from massart_online.learner_halfspace import HalfspaceLearner


def _config(**overrides):
    base = dict(d=2, t_horizon=1000, eta=0.1, gamma=0.2, seed=0)
    base.update(overrides)
    return HalfspaceConfig(**base)


def test_initial_iterate_is_first_basis_vector():
    learner = HalfspaceLearner(_config(d=5))
    assert learner.w == pytest.approx(np.eye(5)[0])


@pytest.mark.parametrize(
    "x,expected", [(np.array([0.5, 0.1]), 1), (np.array([0.0, 0.7]), 1), (np.array([-0.5, 0.0]), -1)]
)
def test_predict_signs(x, expected):
    learner = HalfspaceLearner(_config())
    assert learner.predict(x) == expected


def test_observe_full_update_hand_example():
    # duck-typed config pins tau=0.1, delta_tilde=0.4, step=0.2 exactly
    stub = SimpleNamespace(d=2, t_horizon=10, tau=0.1, delta_tilde=0.4, step_size=0.2)
    learner = HalfspaceLearner(stub)
    x = np.array([0.5, 0.0])
    score, value = learner.observe(x, -1)
    # value = 0.5*(0.4*0.5 + 0.5) / 0.5 = 0.7; subgrad = 0.5*(0.4*1 + 1) * x /
    # 0.5 = (0.7, 0); w' = (1 - 0.2*0.7, 0)
    assert score == 0.5 and value == pytest.approx(0.7)
    assert learner.w == pytest.approx(np.array([0.86, 0.0]))
    assert learner.mistakes == 1
    assert learner.round == 1


def test_update_happens_even_when_prediction_correct():
    # non-collinear point, so the projected step cannot undo the move
    learner = HalfspaceLearner(_config())
    x = np.array([0.4, 0.3])
    assert learner.predict(x) == 1
    before = learner.w.copy()
    _, value = learner.observe(x, 1)
    assert learner.mistakes == 0
    assert value < 0
    assert not np.allclose(learner.w, before)


def test_zero_point_changes_nothing_but_the_round():
    learner = HalfspaceLearner(_config())
    before = learner.w.copy()
    _, value = learner.observe(np.zeros(2), 1)
    assert value == 0.0
    assert learner.w.tobytes() == before.tobytes()
    assert learner.round == 1


def test_recomputed_prediction_matches_prediction_before_observe():
    rng = seeded_rng(0)
    learner = HalfspaceLearner(_config(d=4, t_horizon=300))
    for _ in range(300):
        x = rng.uniform(-0.5, 0.5, 4)
        y = 1 if rng.random() < 0.5 else -1
        logged = learner.predict(x)
        assert learner.predict(x) == logged  # stateless recomputation
        learner.observe(x, y)
        assert learner.mistakes <= learner.round


def test_observe_returns_the_score_before_the_update():
    rng = seeded_rng(3)
    learner = HalfspaceLearner(_config(d=5, t_horizon=300))
    for _ in range(300):
        x = rng.uniform(-0.5, 0.5, 5)
        w_before = learner.w.copy()
        score, value = learner.observe(x, 1 if rng.random() < 0.5 else -1)
        assert type(score) is float and type(value) is float
        assert score.hex() == float(w_before.dot(x)).hex()


def test_dimension_mismatch_raises():
    learner = HalfspaceLearner(_config(d=3))
    with pytest.raises(ValueError):
        learner.predict(np.zeros(5))
    with pytest.raises(ValueError):
        learner.observe(np.zeros(5), 1)


def test_full_run_seed42_identical_mistake_counts():
    from massart_online.harness import run_halfspace_experiment

    cfg = _config(d=4, t_horizon=500, seed=42)
    first = run_halfspace_experiment(cfg)["total_mistakes"]
    second = run_halfspace_experiment(cfg)["total_mistakes"]
    assert first == second


def test_horizon_guard():
    learner = HalfspaceLearner(_config(t_horizon=2))
    x = np.array([0.5, 0.0])
    learner.observe(x, 1)
    learner.observe(x, 1)
    with pytest.raises(RuntimeError):
        learner.observe(x, 1)


def test_iterate_stays_in_ball():
    rng = seeded_rng(1)
    learner = HalfspaceLearner(_config(d=3, t_horizon=500))
    for _ in range(500):
        x = rng.uniform(-1, 1, 3)
        x /= max(np.linalg.norm(x), 1.0)
        learner.observe(x, 1 if rng.random() < 0.5 else -1)
        assert np.linalg.norm(learner.w) <= 1.0 + 1e-12


def test_transcript_determinism():
    def run():
        rng = seeded_rng(7)
        learner = HalfspaceLearner(_config(d=3, t_horizon=200))
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, 3)
            learner.observe(x, 1 if rng.random() < 0.5 else -1)
        return learner.mistakes, learner.w.copy()

    m1, w1 = run()
    m2, w2 = run()
    assert m1 == m2
    assert np.array_equal(w1, w2)
