"""Whole runs of the package against tests/reference.py, one round at a time.

Each round starts the reference from the package's own iterate and point, so
a last-bit difference cannot compound: the check reads the algorithm, not
the transcript bytes that the goldens pin. A property test then feeds the
halfspace learner sequences no adversary draws and checks two facts that
hold for every sequence.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from massart_online.core import BanditConfig, HalfspaceConfig
from massart_online.harness import run_bandit_experiment, run_halfspace_experiment
from massart_online.learner_bandit import BanditLearner
from massart_online.learner_halfspace import HalfspaceLearner
from massart_online.losses import reweighted_margin_loss
from reference import bandit_step, halfspace_step


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


@pytest.mark.parametrize(
    "shape",
    [
        dict(k=3, gamma=0.2, delta=0.5, environment="sorted_k"),
        dict(k=3, gamma=0.2, delta=0.5, environment="monotone_k"),
        dict(k=2, gamma=0.4, delta=0.8, environment="reduction2"),
    ],
    ids=lambda shape: shape["environment"],
)
def test_bandit_rounds_match_the_reference_step(shape, monkeypatch):
    # the golden shapes at T=300
    config = BanditConfig(d=6, t_horizon=300, reward_cap=1.0, seed=0, **shape)
    original = BanditLearner.play_round
    heads = tails = projected = 0

    def checked(self, context, reward_oracle):
        nonlocal heads, tails, projected
        w_t = self.w.copy()
        feedback = original(self, context, reward_oracle)
        greedy, ref_value, w_next = bandit_step(
            w_t, context, feedback.played_arm, feedback.explored,
            feedback.observed_reward, config,
        )
        scores = np.sort(w_t @ context)
        if scores[-1] - scores[-2] > 1e-9:
            assert feedback.greedy_arm == greedy
        assert abs(feedback.loss_value - ref_value) <= 1e-12
        assert np.max(np.abs(self.w - w_next)) <= 1e-12
        heads += feedback.explored
        tails += not feedback.explored
        # a HEADS step that ends on the sphere was projected there
        projected += feedback.explored and abs(np.linalg.norm(w_next) - 1.0) <= 1e-12
        return feedback

    monkeypatch.setattr(BanditLearner, "play_round", checked)
    report = run_bandit_experiment(config)
    assert report["exploration_count"] == heads
    assert heads > 0 and tails > 0 and projected > 0


def _into_ball(coords):
    x = np.array(coords)
    return x / max(1.0, float(np.linalg.norm(x)))


@st.composite
def _sequences(draw):
    """A schedule, T <= 300 rounds drawn from a pool of points in the unit
    ball (the zero point first) with arbitrary labels, and a unit comparator."""
    d = draw(st.integers(1, 8))
    t_horizon = draw(st.integers(1, 300))
    config = HalfspaceConfig(
        d=d,
        t_horizon=t_horizon,
        eta=draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.45))),
        gamma=draw(st.floats(0.01, 1.0)),
        zeta=draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0))),
    )
    coords = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    pool = [np.zeros(d)] + [_into_ball(c) for c in draw(st.lists(coords, min_size=1, max_size=11))]
    rounds = draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.sampled_from((-1, 1))),
            min_size=t_horizon,
            max_size=t_horizon,
        )
    )
    u = np.array(draw(coords))
    u_norm = float(np.linalg.norm(u))
    u = u / u_norm if u_norm > 0 else np.eye(d)[0]
    return config, [(pool[i], y) for i, y in rounds], u


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_sequences())
def test_any_sequence_keeps_the_mistake_identity_and_the_regret_certificate(drawn):
    # off the tau floor, a round's loss is its mistake indicator less
    # (1 - delta_tilde)/2; and OGD's regret against any unit u is at most
    # D*G*sqrt(T), with diameter D = 2 and gradient bound G = 1/tau. That
    # bound is loose at T <= 300, so each round also checks the one-step
    # inequality it sums from, <g, w_t - u> <= (|w_t - u|^2 - |w_t+1 - u|^2)
    # / (2*step) + step*|g|^2/2, which a step of the wrong sign or length breaks
    config, rounds, u = drawn
    tau, delta_tilde, step = config.tau, config.delta_tilde, config.step_size
    learner = HalfspaceLearner(config)
    learner_loss = comparator_loss = 0.0
    for x, y in rounds:
        w_t, before = learner.w.copy(), learner.mistakes
        score, value = learner.observe(x, y)
        if abs(score) >= tau:
            assert abs(value + (1.0 - delta_tilde) / 2 - (learner.mistakes - before)) <= 1e-12
        g = reweighted_margin_loss(score, score, y, tau, delta_tilde)[1] * x
        linear = float(g.dot(w_t - u))
        dist_t, dist_next = float(np.sum((w_t - u) ** 2)), float(np.sum((learner.w - u) ** 2))
        g_sq = float(g.dot(g))
        scale = abs(linear) + (dist_t + dist_next) / (2 * step) + step * g_sq / 2
        assert linear <= (dist_t - dist_next) / (2 * step) + step * g_sq / 2 + 1e-12 * (1 + scale)
        learner_loss += value
        comparator_loss += reweighted_margin_loss(
            float(u.dot(x)), float(w_t.dot(x)), y, tau, delta_tilde
        )[0]
    assert learner_loss - comparator_loss <= 2.0 * math.sqrt(config.t_horizon) / tau + 1e-9
