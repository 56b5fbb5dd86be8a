"""Online halfspace learning under Massart label noise, plus the derived
k-arm contextual bandit learner for monotone rewards."""

from .core import (
    BanditConfig,
    ConfigError,
    HalfspaceConfig,
    derive_bandit_params,
    derive_halfspace_params,
    seeded_rng,
)
from .harness import (
    EnvironmentViolation,
    run_bandit_experiment,
    run_halfspace_experiment,
)
from .learner_bandit import BanditLearner
from .learner_halfspace import HalfspaceLearner

__version__ = "0.1.0"

__all__ = [
    "BanditConfig",
    "BanditLearner",
    "ConfigError",
    "EnvironmentViolation",
    "HalfspaceConfig",
    "HalfspaceLearner",
    "derive_bandit_params",
    "derive_halfspace_params",
    "run_bandit_experiment",
    "run_halfspace_experiment",
    "seeded_rng",
]
