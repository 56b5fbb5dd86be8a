"""Property test of the config boundary: any flat mapping of config values
either raises ConfigError or runs to a finite, strict-JSON report."""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from massart_online.core import (
    ADVERSARIES,
    CONFIG_KEYS,
    ENVIRONMENTS,
    ConfigError,
    bandit_config_from,
    halfspace_config_from,
)
from massart_online.harness import report_json, run_bandit_experiment, run_halfspace_experiment

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# JSON strings that float() or int() would parse
NUMERIC_STRING = st.one_of(st.floats(allow_nan=False).map(repr), st.integers(-3, 64).map(str))
# any double at all, booleans, and numeric strings
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), NUMERIC_STRING
)


def _integer_key(low, high):
    # integers, floats with and without a fraction, booleans and numeric strings
    return st.one_of(
        st.integers(low, high), st.floats(low, high), st.booleans(), NON_FINITE, NUMERIC_STRING
    )


# d, k and t_horizon are capped so that no draw allocates a huge array or
# runs more than 50 rounds
VALUES = {
    "d": _integer_key(-2, 64),
    "t_horizon": _integer_key(-2, 50),
    "k": _integer_key(-1, 64),
    "seed": _integer_key(-3, 2**70),
    "eta": ANY_FLOAT,
    "gamma": ANY_FLOAT,
    "zeta": ANY_FLOAT,
    "delta": ANY_FLOAT,
    "reward_cap": ANY_FLOAT,
    "domain_radius": ANY_FLOAT,
    "adversary": st.sampled_from(ADVERSARIES + ("bogus",)),
    "environment": st.sampled_from(ENVIRONMENTS + ("bogus",)),
}
assert set(VALUES) == set(CONFIG_KEYS)


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
def test_any_mapping_is_rejected_or_runs_to_a_finite_report(bandit, mapping):
    mapping.setdefault("t_horizon", 50)
    if bandit:
        build, run = bandit_config_from, run_bandit_experiment
    else:
        build, run = halfspace_config_from, run_halfspace_experiment
    try:
        report = run(build(mapping))
    except ConfigError:
        return
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
