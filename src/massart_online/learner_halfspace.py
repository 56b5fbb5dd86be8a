"""Online halfspace learner: predict by sign, then take a projected gradient
step on the margin-reweighted surrogate loss, every round, mistake or not."""

import numpy as np

from .losses import reweighted_margin_loss, sign_of
from .optimizer import ogd_update


class HalfspaceLearner:
    """Single-run learner state; one instance per experiment run."""

    def __init__(self, config):
        self.config = config
        self.w = np.zeros(config.d)
        self.w[0] = 1.0
        self.round = 0
        self.mistakes = 0

    def predict(self, x):
        """Label sign_of(w . x); deterministic, so callers may recompute freely."""
        return sign_of(float(self.w.dot(x)))

    def observe(self, x, y):
        """Counts the mistake of sign_of(w . x), then updates on the
        reweighted loss at the current iterate, which is also the loss's
        reference vector, so the one score w . x serves all three. Returns
        that score, taken before the update, and the round's loss value."""
        config = self.config
        if self.round >= config.t_horizon:
            raise RuntimeError(f"horizon {config.t_horizon} already exhausted")
        score = float(self.w.dot(x))
        if sign_of(score) != y:
            self.mistakes += 1
        value, coef = reweighted_margin_loss(score, score, y, config.tau, config.delta_tilde)
        self.w = ogd_update(self.w, coef * x, config.step_size)
        self.round += 1
        return score, value
