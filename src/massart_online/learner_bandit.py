"""k-arm learner: greedy argmax action, an exploration coin, debiased fake
rewards on exploration rounds, and a projected gradient step on the scaled
arm-gap loss."""

from typing import NamedTuple

import numpy as np

from .losses import arm_gap_loss
from .optimizer import ogd_update


def select_action(w, context, rng):
    """(arm, score): the argmax arm of w . x_i over the columns x_i of the
    (d, k) context, lowest index on ties, and its score w . x_arm from the
    one product w @ context; a uniform arm and 0.0 when w == 0."""
    k = context.shape[1]
    if k == 0:
        raise ValueError("empty context")
    scores = (w @ context).tolist()
    # max keeps the first of equal maxima, as argmax does
    best = max(scores)
    # a zero w scores 0.0 on every arm, so only then is w itself looked at
    if best == 0.0 and not w.any():
        return int(rng.integers(k)), 0.0
    return scores.index(best), best


def fake_rewards(k, reward_cap, beta, r_beta):
    """Debiasing surrogate for a single observed arm, as a list of k floats.

    Entry beta is (k-1)*r_beta, every other entry is reward_cap - r_beta;
    averaging the induced gap vectors over beta recovers the true gaps, so
    entries may exceed reward_cap by design.
    """
    if not 0 <= beta < k:
        raise ValueError(f"beta={beta} out of range for k={k}")
    fake = [reward_cap - r_beta] * k
    fake[beta] = (k - 1) * r_beta
    return fake


class BanditFeedback(NamedTuple):
    """What one round produced, for logging and reward accounting."""

    observed_reward: float
    played_arm: int
    explored: bool
    greedy_arm: int
    score: float
    loss_value: float


class BanditLearner:
    """Single-run learner state; rng drives the coin, the explore arm, and
    the uniform fallback when the iterate is exactly zero."""

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        self.w = np.zeros(config.d)
        self.w[0] = 1.0
        self.round = 0
        self.cumulative_reward = 0.0
        self.exploration_count = 0

    def play_round(self, context, reward_oracle):
        """One full round on a (d, k) context; reward_oracle(arm) is called
        exactly once.

        HEADS (probability q): play a uniform arm beta, build the fake reward
        vector from its reward, and step on (1/q) times the arm-gap loss with
        the current iterate as reference vector. TAILS: play the greedy arm;
        the loss is zero and w stays, since e1 starts on the unit ball and
        every HEADS step projects onto it.
        """
        config = self.config
        if self.round >= config.t_horizon:
            raise RuntimeError(f"horizon {config.t_horizon} already exhausted")
        w = self.w
        alpha, score = select_action(w, context, self.rng)
        explored = self.rng.random() < config.q
        if explored:
            k = context.shape[1]
            played = int(self.rng.integers(k))
            observed = float(reward_oracle(played))
            surrogate = fake_rewards(k, config.reward_cap, played, observed)
            evaluated = arm_gap_loss(
                w, context, w, surrogate, alpha, config.delta, config.rho, config.lambda_cap
            )
            loss_value = evaluated.value / config.q
            self.w = ogd_update(w, evaluated.subgrad / config.q, config.step_size)
            self.exploration_count += 1
        else:
            played = alpha
            observed = float(reward_oracle(alpha))
            loss_value = 0.0
        self.round += 1
        self.cumulative_reward += observed
        return BanditFeedback(observed, played, explored, alpha, score, loss_value)
