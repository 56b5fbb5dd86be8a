"""Experiment configuration and the deterministic RNG contract.

Vectors (weights, points, rewards) are plain numpy arrays, a halfspace round
is an (x, y) tuple and arm indices are 0-based everywhere. The config
dataclasses cast and check every value on every path, are immutable after
construction and carry all derived schedule parameters, so a config plus a
seed fully determines an experiment transcript.
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import optimizer

# epsilon is clamped this far below (1 - 2*eta)/2 so the shrunken margin
# delta_tilde = 1 - 2*eta - epsilon stays strictly positive.
EPSILON_CLAMP_MARGIN = 1e-6

# Nonzero float config values, given or derived, must lie in this magnitude
# range: runs and reports sum them over T rounds, square them and invert
# them, which overflows or underflows doubles well before 1e+-308.
FLOAT_MAGNITUDE = (1e-100, 1e100)

# rounds per block of an oblivious stream
BLOCK = 256

# one block array holds BLOCK * d * k doubles (k = 1 for a halfspace run); 2**24
# of them (128 MiB) is far above the shapes in use (d = 20, k <= 12: 61440) and
# makes a huge d or k a config error, not a failed allocation at round 1
MAX_BLOCK_DOUBLES = 2**24

ADVERSARIES = ("iid", "boundary", "adaptive")
ENVIRONMENTS = ("massart2", "sorted_k", "monotone_k", "reduction2")
BANDIT_ENVIRONMENTS = ("sorted_k", "monotone_k", "reduction2")

class ConfigError(ValueError):
    """Invalid experiment configuration."""


def seeded_rng(seed):
    """Deterministic random stream; identical seeds reproduce identical draws."""
    return np.random.default_rng(seed)


def spawn_streams(seed, n):
    """n independent child streams, deterministic in (seed, n)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def derive_halfspace_params(eta, gamma, t_horizon, zeta=0.0):
    """Schedule for the noisy-halfspace learner from (eta, gamma, T, zeta).

    epsilon follows T^(-1/(4+2*zeta))/gamma, clamped strictly below
    (1-2*eta)/2; tau = epsilon^(1+zeta)*gamma/4; the step size uses the
    unit ball's diameter 2 and gradient bound 1/tau.
    """
    if not 0 <= eta < 0.5:
        raise ConfigError(f"eta must be in [0, 0.5), got {eta}")
    if not 0 < gamma <= 1:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    if t_horizon < 1:
        raise ConfigError(f"t_horizon must be at least 1, got {t_horizon}")
    if zeta < 0:
        raise ConfigError(f"zeta must be nonnegative, got {zeta}")
    cap = (1.0 - 2.0 * eta) / 2.0 - EPSILON_CLAMP_MARGIN
    if cap <= 0:
        raise ConfigError(f"eta={eta} is too close to 1/2, no usable signal")
    raw = t_horizon ** (-1.0 / (4.0 + 2.0 * zeta)) / gamma
    epsilon = min(raw, cap)
    delta_tilde = 1.0 - 2.0 * eta - epsilon
    tau = epsilon ** (1.0 + zeta) * gamma / 4.0
    if tau == 0:
        raise ConfigError(f"tau underflows to 0 at zeta={zeta}, gamma={gamma}")
    step = optimizer.step_size(1.0 / tau, t_horizon)
    return {
        "epsilon": epsilon,
        "delta_tilde": delta_tilde,
        "tau": tau,
        "step_size": step,
        "epsilon_clamped": raw > cap,
    }


def derive_bandit_params(gamma, delta, reward_cap, k, t_horizon):
    """Schedule for the k-arm learner from (gamma, delta, reward cap, k, T).

    rho = gamma/2; lambda_cap = (1/gamma) * T^(1/6) * (cap/(k*delta))^(1/3);
    q = min(1, cap/(gamma*lambda_cap*delta)). The gradient bound folds the
    1/q loss scaling into 2*cap*k*max(lambda_cap, 1/rho).
    """
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if reward_cap <= 0:
        raise ConfigError(f"reward_cap must be positive, got {reward_cap}")
    if k < 2:
        raise ConfigError(f"k must be at least 2, got {k}")
    if t_horizon < 1:
        raise ConfigError(f"t_horizon must be at least 1, got {t_horizon}")
    rho = gamma / 2.0
    lambda_cap = (1.0 / gamma) * t_horizon ** (1.0 / 6.0) * (reward_cap / (k * delta)) ** (1.0 / 3.0)
    q_raw = reward_cap / (gamma * lambda_cap * delta)
    q = min(1.0, q_raw)
    grad_bound = (1.0 / q) * 2.0 * reward_cap * k * max(lambda_cap, 1.0 / rho)
    step = optimizer.step_size(grad_bound, t_horizon)
    return {
        "rho": rho,
        "lambda_cap": lambda_cap,
        "q": q,
        "step_size": step,
        "q_clamped": q_raw > 1.0,
    }


def check_score_range(k, gamma):
    """k arm scores with pairwise gaps >= gamma fit in [-1, 1] only if
    (k-1)*gamma <= 2, which at k = 2 is reduction2's point margin gamma/2 <= 1."""
    if (k - 1) * gamma > 2.0:
        raise ConfigError(f"(k-1)*gamma = {(k - 1) * gamma} exceeds the score range 2")


def monotone_noise(delta, k, reward_cap):
    """Half-width of monotone_k's uniform reward noise: the widest that keeps
    rank-linear rewards with margin delta inside [0, reward_cap]."""
    noise = (reward_cap - delta * (k - 1)) / 2.0
    if noise < 0:
        raise ConfigError(f"delta*(k-1) = {delta * (k - 1)} exceeds reward_cap {reward_cap}")
    return noise


def _check_numbers(config):
    """Every float field set so far, given or derived, is finite and 0 or
    inside FLOAT_MAGNITUDE; the seed is nonnegative."""
    low, high = FLOAT_MAGNITUDE
    for f in fields(config):
        value = getattr(config, f.name, None)
        if not isinstance(value, float) or value == 0:
            continue
        if not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        if not low <= abs(value) <= high:
            raise ConfigError(f"{f.name}={value} is outside the magnitude range [{low}, {high}]")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")


def _cast(name, kind, value):
    """value as kind (int or float); a bool, a string or, for an int, a float
    with a fraction is refused, where int() or float() would silently take
    true as 1, parse "0.3" or truncate 2.7."""
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, (bool, str)) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {noun}, got {value!r}") from exc


def _settle(config, derive, *names):
    """Cast each int / float init field of config by its annotation, check the
    numbers, d and the block size, then set the schedule derive(*values of
    names) returns and check the numbers again; every failure is a ConfigError."""
    for f in fields(config):
        if f.init and f.type in (int, float):
            object.__setattr__(config, f.name, _cast(f.name, f.type, getattr(config, f.name)))
    _check_numbers(config)
    if config.d < 1:
        raise ConfigError(f"d must be at least 1, got {config.d}")
    if BLOCK * config.d * getattr(config, "k", 1) > MAX_BLOCK_DOUBLES:
        raise ConfigError(f"d * k exceeds {MAX_BLOCK_DOUBLES // BLOCK}, the most one block holds")
    try:
        derived = derive(*(getattr(config, name) for name in names))
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    for name, value in derived.items():
        object.__setattr__(config, name, value)
    _check_numbers(config)


@dataclass(frozen=True)
class HalfspaceConfig:
    """Full configuration of one halfspace run, derived schedule included."""

    d: int
    t_horizon: int
    eta: float
    gamma: float
    zeta: float = 0.0
    seed: int = 0
    adversary: str = "iid"
    epsilon: float = field(init=False)
    delta_tilde: float = field(init=False)
    tau: float = field(init=False)
    step_size: float = field(init=False)
    epsilon_clamped: bool = field(init=False)

    def __post_init__(self):
        if self.adversary not in ADVERSARIES:
            raise ConfigError(f"adversary must be one of {ADVERSARIES}, got {self.adversary!r}")
        _settle(self, derive_halfspace_params, "eta", "gamma", "t_horizon", "zeta")


@dataclass(frozen=True)
class BanditConfig:
    """Full configuration of one k-arm run, derived schedule included."""

    d: int
    k: int
    t_horizon: int
    gamma: float
    delta: float
    reward_cap: float = 1.0
    seed: int = 0
    environment: str = "monotone_k"
    rho: float = field(init=False)
    lambda_cap: float = field(init=False)
    q: float = field(init=False)
    step_size: float = field(init=False)
    q_clamped: bool = field(init=False)

    def __post_init__(self):
        if self.environment not in BANDIT_ENVIRONMENTS:
            raise ConfigError(
                f"environment must be one of {BANDIT_ENVIRONMENTS}, got {self.environment!r}"
            )
        _settle(self, derive_bandit_params, "gamma", "delta", "reward_cap", "k", "t_horizon")
        check_score_range(self.k, self.gamma)
        if self.environment == "monotone_k":
            monotone_noise(self.delta, self.k, self.reward_cap)
        if self.environment == "reduction2":
            if self.k != 2:
                raise ConfigError("reduction2 is a 2-arm environment, set k=2")
            if not 0 < self.delta <= 1:
                raise ConfigError("reduction2 needs delta in (0, 1]")
            if self.reward_cap < 1:
                raise ConfigError("reduction2 emits rewards in {0, 1}, set reward_cap >= 1")


# every key a config file or the CLI may set: the init fields of both classes
CONFIG_KEYS = tuple(
    dict.fromkeys(f.name for cls in (HalfspaceConfig, BanditConfig) for f in fields(cls) if f.init)
)

# what a config reader gives a required field the mapping leaves out
_READ_DEFAULTS = {"d": 10, "k": 3, "t_horizon": 10000, "eta": 0.1, "gamma": 0.2, "delta": 0.5}


def config_dict(config):
    """Flat field dict of a config dataclass, derived values included."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def load_config_file(path):
    """Read a flat JSON key/value config file and validate its keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a flat JSON object")
    _check_keys(raw)
    return raw


def _check_keys(mapping):
    unknown = sorted(str(key) for key in mapping if key not in CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _config_from(cls, mapping):
    # each init field of cls from the mapping; one it leaves out takes the
    # reader's default, or else the class's. A key of neither class is an
    # error; one of the other class is not, so one mapping serves both.
    _check_keys(mapping)
    values = {**_READ_DEFAULTS, **mapping}
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.init and f.name in values})


def halfspace_config_from(mapping):
    """Build a HalfspaceConfig from a flat config mapping (BanditConfig keys ignored)."""
    return _config_from(HalfspaceConfig, mapping)


def bandit_config_from(mapping):
    """Build a BanditConfig from a flat config mapping (HalfspaceConfig keys ignored)."""
    return _config_from(BanditConfig, mapping)
