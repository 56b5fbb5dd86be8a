"""Property test of the config boundary: any flat mapping of config values
either raises ConfigError or runs to a finite, strict-JSON report, whether it
goes through the config reader or straight into the config class."""

import json
import math
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from massart_online.core import (
    ADVERSARIES,
    CONFIG_KEYS,
    ENVIRONMENTS,
    BLOCK,
    MAX_BLOCK_DOUBLES,
    BanditConfig,
    ConfigError,
    HalfspaceConfig,
    bandit_config_from,
    halfspace_config_from,
)
from massart_online.harness import report_json, run_bandit_experiment, run_halfspace_experiment

# d and k values past the block bound: each must fail when the config is built
PAST_THE_BOUND = (10**9, 2**70, 10**400)
assert min(PAST_THE_BOUND) * BLOCK > MAX_BLOCK_DOUBLES

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# JSON strings that float() or int() would parse
NUMERIC_STRING = st.one_of(st.floats(allow_nan=False).map(repr), st.integers(-3, 64).map(str))
# values no number field takes: JSON null, and an integer too large for a double
NOT_A_FLOAT = st.sampled_from([None, 10**400])
# any double at all, booleans, numeric strings, null and a huge integer
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), NUMERIC_STRING, NOT_A_FLOAT
)


def _integer_key(low, high, *extra):
    # integers, floats with and without a fraction, booleans, numeric strings
    # and null
    return st.one_of(
        st.integers(low, high), st.floats(low, high), st.booleans(), NON_FINITE, NUMERIC_STRING,
        st.sampled_from((None,) + extra),
    )


# a d or k that builds is at most 64 and t_horizon at most 50, so that no draw
# allocates a huge array or runs more than 50 rounds; d and k past the block
# bound must be rejected, and a t_horizon of 10**400 overflows the schedule
VALUES = {
    "d": _integer_key(-2, 64, *PAST_THE_BOUND),
    "t_horizon": _integer_key(-2, 50, 10**400),
    "k": _integer_key(-1, 64, *PAST_THE_BOUND),
    "seed": _integer_key(-3, 2**70, 10**400),
    "eta": ANY_FLOAT,
    "gamma": ANY_FLOAT,
    "zeta": ANY_FLOAT,
    "delta": ANY_FLOAT,
    "reward_cap": ANY_FLOAT,
    "adversary": st.sampled_from(ADVERSARIES + ("bogus",)),
    "environment": st.sampled_from(ENVIRONMENTS + ("bogus",)),
}
assert set(VALUES) == set(CONFIG_KEYS)


# the defaults the config readers give the required fields
READ_DEFAULTS = {"d": 10, "k": 3, "eta": 0.1, "gamma": 0.2, "delta": 0.5}


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the report")


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(bandit=st.booleans(), mapping=st.fixed_dictionaries({}, optional=VALUES))
# shapes the bandit environments cannot draw: (k-1)*gamma > 2 under monotone_k
# and reduction2, and delta*(k-1) > reward_cap under monotone_k
@example(bandit=True, mapping={"gamma": 1.5})
@example(bandit=True, mapping={"delta": 0.6})
@example(bandit=True, mapping={"environment": "reduction2", "k": 2, "gamma": 2.5})
def test_any_mapping_is_rejected_or_runs_to_a_finite_report(bandit, mapping):
    mapping.setdefault("t_horizon", 50)
    if bandit:
        cls, build, run = BanditConfig, bandit_config_from, run_bandit_experiment
    else:
        cls, build, run = HalfspaceConfig, halfspace_config_from, run_halfspace_experiment
    # the same values straight into the class, the fields the reader would
    # default filled with the reader's defaults; the class alone decides
    init = {f.name for f in fields(cls) if f.init}
    kw = {name: value for name, value in {**READ_DEFAULTS, **mapping}.items() if name in init}
    try:
        direct = cls(**kw)
    except ConfigError:
        direct = None
    try:
        config = build(mapping)
    except ConfigError:
        assert direct is None
        return
    assert not any(kw.get(key) in PAST_THE_BOUND for key in ("d", "k"))
    assert direct == config
    report = run(config)
    text = report_json(report)
    json.loads(text, parse_constant=_reject_constant)
    # a key that was read was a JSON number, and an integer key was taken
    # as given, never truncated
    for key, value in mapping.items():
        if key in report["config"] and key not in ("adversary", "environment"):
            assert not isinstance(value, (bool, str))
    for key in ("d", "t_horizon", "k", "seed"):
        if key in mapping and key in report["config"]:
            assert mapping[key] == report["config"][key]


HALFSPACE = dict(d=2, t_horizon=10, eta=0.1, gamma=0.2)
BANDIT = dict(d=2, k=3, t_horizon=10, gamma=0.2, delta=0.5)


@pytest.mark.parametrize(
    "cls,base,override",
    [
        (HalfspaceConfig, HALFSPACE, dict(d=2.5)),
        (HalfspaceConfig, HALFSPACE, dict(seed=1.5)),
        (HalfspaceConfig, HALFSPACE, dict(eta="0.1")),
        (HalfspaceConfig, HALFSPACE, dict(t_horizon=10**400)),
        (HalfspaceConfig, HALFSPACE, dict(eta=None)),
        (HalfspaceConfig, HALFSPACE, dict(eta=10**400)),
        (HalfspaceConfig, HALFSPACE, dict(d=True)),
        (BanditConfig, BANDIT, dict(k=2.5)),
        (BanditConfig, BANDIT, dict(delta="0.5")),
        (BanditConfig, BANDIT, dict(seed=None)),
        (HalfspaceConfig, HALFSPACE, dict(d=10**400)),
        (BanditConfig, BANDIT, dict(k=2**70)),
        (BanditConfig, BANDIT, dict(d=10**9)),
        (BanditConfig, dict(BANDIT, environment="sorted_k"), dict(k=12)),
    ],
    ids=["d_fraction", "seed_fraction", "eta_string", "t_horizon_huge", "eta_none",
         "eta_huge", "d_bool", "k_fraction", "delta_string", "seed_none", "d_huge",
         "k_huge", "d_billion", "sorted_k_past_the_score_range"],
)
def test_config_class_rejects_bad_value(cls, base, override):
    with pytest.raises(ConfigError):
        cls(**dict(base, **override))


@pytest.mark.parametrize(
    "build,mapping",
    [
        (halfspace_config_from, {"t_horizn": 5, "gama": 0.9}),
        (bandit_config_from, {"enviroment": "sorted_k"}),
        (halfspace_config_from, {"domain_radius": 0.5}),
        (bandit_config_from, {"domain_radius": 1.0}),
        (bandit_config_from, {"t_horizon": 5, 7: 1}),
    ],
    ids=["misspelled_halfspace", "misspelled_bandit", "domain_radius_halfspace",
         "domain_radius_bandit", "non_string_key"],
)
def test_config_reader_rejects_unknown_keys(build, mapping):
    with pytest.raises(ConfigError, match="unknown config keys"):
        build(mapping)


def test_config_reader_takes_the_other_class_keys():
    # one mapping serves both readers, so a key of the other class is no error
    both = {"t_horizon": 5, "eta": 0.2, "zeta": 0.5, "adversary": "boundary", "k": 2,
            "delta": 0.8, "reward_cap": 1.0, "environment": "reduction2"}
    assert halfspace_config_from(both).adversary == "boundary"
    assert bandit_config_from(both).environment == "reduction2"


def test_config_class_casts_integral_numbers():
    # an integral float in an int field runs as that int, and a number in a
    # float field is reported as a float
    config = BanditConfig(**dict(BANDIT, k=2.0, d=3.0, gamma=1, delta=1, reward_cap=2))
    assert (config.k, config.d, config.gamma) == (2, 3, 1.0)
    assert type(config.k) is int and type(config.gamma) is float
    report = run_bandit_experiment(config)
    assert report["config"]["k"] == 2 and report["config"]["delta"] == 1.0
    halfspace = HalfspaceConfig(**dict(HALFSPACE, eta=0, seed=4.0))
    echoed = json.loads(report_json(run_halfspace_experiment(halfspace)))["config"]
    assert echoed["eta"] == 0.0 and type(echoed["eta"]) is float
    assert type(halfspace.eta) is float and type(halfspace.seed) is int


@pytest.mark.parametrize(
    "shape,name",
    [
        (dict(environment="monotone_k", k=3, delta=0.5), "delta"),
        (dict(environment="sorted_k", k=5, gamma=0.5, delta=0.5), "gamma"),
        (dict(environment="monotone_k", k=5, gamma=0.5, delta=0.25), "gamma"),
        (dict(environment="reduction2", k=2, gamma=2.0, delta=0.8), "gamma"),
    ],
    ids=["monotone_delta", "sorted_gamma", "monotone_gamma", "reduction2_gamma"],
)
def test_bandit_shape_at_the_edge_runs_and_one_ulp_past_it_is_rejected(shape, name):
    # the config and the environment test the same inequality: a shape
    # exactly at the edge builds and draws, one ulp past it never builds
    base = {**dict(d=3, t_horizon=300, gamma=0.2, reward_cap=1.0), **shape}
    report = run_bandit_experiment(BanditConfig(**base))
    assert math.isfinite(report["total_reward"])
    with pytest.raises(ConfigError):
        BanditConfig(**dict(base, **{name: math.nextafter(base[name], math.inf)}))
