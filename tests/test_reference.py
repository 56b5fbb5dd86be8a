"""Whole runs of the package against tests/reference.py, one round at a time.

Each round starts the reference from the package's own iterate and point, so
a last-bit difference cannot compound: the check reads the algorithm, not
the transcript bytes that the goldens pin.
"""

import numpy as np
import pytest

from massart_online.core import HalfspaceConfig
from massart_online.harness import run_halfspace_experiment
from massart_online.learner_halfspace import HalfspaceLearner
from reference import halfspace_step


@pytest.mark.parametrize("eta", [0.0, 0.1])
@pytest.mark.parametrize("adversary", ["iid", "boundary", "adaptive"])
def test_halfspace_rounds_match_the_reference_step(adversary, eta, monkeypatch):
    config = HalfspaceConfig(
        d=10, t_horizon=300, eta=eta, gamma=0.2, seed=0, adversary=adversary
    )
    original = HalfspaceLearner.observe
    floored = projected = mistakes = 0

    def checked(self, x, y):
        nonlocal floored, projected, mistakes
        w_t, before = self.w.copy(), self.mistakes
        score, value = original(self, x, y)
        mistake, ref_value, w_next = halfspace_step(
            w_t, x, y, config.tau, config.delta_tilde, config.step_size
        )
        assert (self.mistakes - before == 1) == mistake
        assert abs(value - ref_value) <= 1e-12
        assert np.max(np.abs(self.w - w_next)) <= 1e-12
        floored += abs(score) < config.tau
        # a step that ends on the sphere was projected there
        projected += abs(np.linalg.norm(w_next) - 1.0) <= 1e-12
        mistakes += mistake
        return score, value

    monkeypatch.setattr(HalfspaceLearner, "observe", checked)
    report = run_halfspace_experiment(config)
    assert report["total_mistakes"] == mistakes
    # every run reaches both the projection and the tau floor of the
    # denominator
    assert projected > 0 and floored > 0
