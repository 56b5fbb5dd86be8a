import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from massart_online.core import BanditConfig, seeded_rng
from massart_online.environments import (
    BLOCK,
    HiddenTarget,
    ReductionEnvironment,
    iid_points,
    massart_labels,
    random_unit,
)
from massart_online.harness import _audit_context
from massart_online.learner_bandit import BanditLearner, fake_rewards, select_action
from massart_online.optimizer import norm
from massart_online.oracles import (
    check_argmax_scale_invariance,
    check_debiasing,
    check_exploration_frequency,
    check_fake_gap_identity,
)


class FixedRng:
    """Scripted rng stand-in: .random() pops coin values, .integers() pops arms."""

    def __init__(self, coins=(), arms=()):
        self.coins = list(coins)
        self.arms = list(arms)

    def random(self):
        return self.coins.pop(0)

    def integers(self, k):
        return self.arms.pop(0)


def _config(**overrides):
    base = dict(d=2, k=2, t_horizon=100, gamma=0.2, delta=0.5, reward_cap=1.0, seed=0)
    base.update(overrides)
    return BanditConfig(**base)


def test_select_action_argmax():
    w, ctx = np.array([1.0, 0.0]), np.array([[0.9, 0.1], [0.0, 0.0]])
    assert select_action(w, w.dot(ctx).tolist(), seeded_rng(0))[0] == 0


def test_select_action_tie_lowest_index():
    w, ctx = np.array([1.0, 0.0]), np.array([[0.4, 0.4, 0.1], [0.0, 0.0, 0.0]])
    assert select_action(w, w.dot(ctx).tolist(), seeded_rng(0))[0] == 0


def test_select_action_returns_the_argmax_score_of_its_one_product():
    rng = seeded_rng(9)
    for _ in range(500):
        w = rng.normal(size=10)
        ctx = rng.uniform(-1.0, 1.0, (10, 3))
        arm, score = select_action(w, w.dot(ctx).tolist(), rng)
        scores = w @ ctx
        assert arm == int(scores.argmax())
        assert type(score) is float
        assert np.float64(score).tobytes() == np.float64(scores[arm]).tobytes()


@pytest.mark.parametrize("k", range(2, 13))
def test_select_action_matches_argmax_bytes(k):
    # the arm and score bytes that argmax gives on the same product: random
    # contexts, contexts with a tied copy of the best column, and contexts
    # whose scores are all +0.0 or -0.0
    rng = seeded_rng(60 + k)
    for trial in range(300):
        w = rng.normal(size=4)
        ctx = rng.uniform(-1.0, 1.0, (4, k))
        if trial % 3 == 1:
            ctx[:, rng.integers(k)] = ctx[:, int((w @ ctx).argmax())]
        elif trial % 3 == 2:
            w = np.array([rng.choice([-1.0, 1.0]), 0.0, 0.0, 0.0])
            ctx = rng.choice([0.0, -0.0], (4, k))
        arm, score = select_action(w, w.dot(ctx).tolist(), rng)
        scores = w @ ctx
        assert arm == int(scores.argmax())
        assert np.float64(score).tobytes() == scores[arm].tobytes()


def test_select_action_zero_weight_scores_zero():
    w, ctx = np.zeros(2), np.array([[0.5, -0.5], [0.1, 0.2]])
    arm, score = select_action(w, w.dot(ctx).tolist(), seeded_rng(0))
    assert arm in (0, 1)
    assert np.float64(score).tobytes() == np.float64(0.0).tobytes()


def test_select_action_zero_weight_uniform():
    rng = seeded_rng(0)
    ctx = np.array([[0.5, -0.5, 0.1], [0.0, 0.0, 0.2]])
    k = 3
    n = 10_000
    counts = np.zeros(k)
    for _ in range(n):
        counts[select_action(np.zeros(2), np.zeros(2).dot(ctx).tolist(), rng)[0]] += 1
    sigma = math.sqrt((1 / k) * (1 - 1 / k) / n)
    assert np.all(np.abs(counts / n - 1 / k) <= 3 * sigma)


def test_select_action_empty_context():
    w = np.array([1.0])
    with pytest.raises(ValueError):
        select_action(w, w.dot(np.zeros((1, 0))).tolist(), seeded_rng(0))


def test_scale_invariance_oracle():
    assert check_argmax_scale_invariance(seed=1, n=300).passed


@pytest.mark.parametrize(
    "k,cap,beta,r_beta,expected",
    [
        (3, 1.0, 1, 0.4, [0.6, 0.8, 0.6]),
        (2, 1.0, 0, 0.0, [0.0, 1.0]),
        (2, 1.0, 0, 1.0, [1.0, 0.0]),
    ],
)
def test_fake_rewards_values(k, cap, beta, r_beta, expected):
    fake = fake_rewards(k, cap, beta, r_beta)
    assert type(fake) is list and all(type(r) is float for r in fake)
    assert fake == pytest.approx(expected)


def test_fake_rewards_rejects_bad_beta():
    with pytest.raises(ValueError):
        fake_rewards(3, 1.0, 3, 0.5)
    with pytest.raises(ValueError):
        fake_rewards(3, 1.0, -1, 0.5)


def test_fake_gap_identity_oracle():
    assert check_fake_gap_identity(seed=2, n=200).passed


def test_debiasing_enumeration_oracle():
    assert check_debiasing(seed=3, n=150).passed


def test_reduce_classification_examples():
    # each round of the 2-arm reduction is a labeled iid point (x, y) of the
    # halfspace stream: context (x, -x) byte for byte, rewards ((1+y)/2, (1-y)/2)
    target = HiddenTarget(w_star=random_unit(seeded_rng(50), 4), gamma=0.2, delta=0.8)
    rng_env, rng_ref = seeded_rng(51), seeded_rng(51)
    env = ReductionEnvironment(target, 2, rng_env, partial(_audit_context, target=target, k=2))
    points, labels = [], []
    for _ in range(2):  # two blocks, so the second block is checked too
        block = iid_points(env.point_target, rng_ref, BLOCK)
        points.extend(block)
        labels.extend(massart_labels(env.point_target, block, rng_ref))
    assert set(labels) == {-1, 1}
    for x, y in zip(points, labels):
        ctx, rewards = env.next_round()
        assert ctx.shape == (4, 2)
        assert ctx[:, 0].tobytes() == x.tobytes()
        assert ctx[:, 1].tobytes() == (-x).tobytes()
        assert rewards.tolist() == ([1.0, 0.0] if y == 1 else [0.0, 1.0])


def test_q_zero_regime_never_moves():
    # force q = 0 through a stub config: pure exploitation, frozen weights
    stub = SimpleNamespace(
        d=2, k=2, t_horizon=50, gamma=0.2, delta=0.5, reward_cap=1.0,
        q=0.0, rho=0.1, lambda_cap=1.0, step_size=0.1,
    )
    learner = BanditLearner(stub, seeded_rng(0))
    ctx = np.array([[0.5, -0.5], [0.1, 0.2]])
    w0 = learner.w.copy()
    for _ in range(50):
        fb = learner.play_round(ctx, lambda arm: 0.7)
        assert not fb.explored
        assert fb.played_arm == fb.greedy_arm
    assert np.array_equal(learner.w, w0)
    assert learner.exploration_count == 0
    assert learner.cumulative_reward == pytest.approx(50 * 0.7)


def test_tails_round_leaves_w_alone():
    # the TAILS loss is zero and the iterate is already on the unit ball, so
    # w keeps its bytes, even where its computed norm is 1 + 1 ulp and a
    # projection would move it
    rng = seeded_rng(10)
    w = next(v for v in (u / norm(u) for u in rng.normal(size=(100, 6))) if norm(v) > 1.0)
    assert norm(w) == math.nextafter(1.0, 2.0)
    stub = SimpleNamespace(
        d=6, k=3, t_horizon=5, gamma=0.2, delta=0.5, reward_cap=1.0,
        q=0.0, rho=0.1, lambda_cap=1.0, step_size=0.1,
    )
    learner = BanditLearner(stub, seeded_rng(0))
    learner.w = w.copy()
    ctx = rng.uniform(-0.4, 0.4, (6, 3))
    for _ in range(5):
        assert not learner.play_round(ctx, lambda arm: 0.7).explored
        assert learner.w.tobytes() == w.tobytes()


def test_play_round_score_is_select_actions_score():
    config = _config(d=6, k=3, t_horizon=300)
    learner = BanditLearner(config, seeded_rng(11))
    env_rng = seeded_rng(12)
    for _ in range(300):
        ctx = env_rng.uniform(-0.4, 0.4, (6, 3))
        scores = learner.w @ ctx
        fb = learner.play_round(ctx, lambda arm: 0.5)
        assert fb.greedy_arm == int(scores.argmax())
        assert np.float64(fb.score).tobytes() == np.float64(scores[fb.greedy_arm]).tobytes()


def test_q_one_regime_explores_uniformly():
    rng = seeded_rng(4)
    config = _config(d=3, k=3, t_horizon=4000, gamma=0.01, delta=0.01)  # q clamps to 1
    assert config.q == 1.0
    learner = BanditLearner(config, rng)
    ctx = np.array([[0.5, 0.0, -0.5], [0.1, 0.2, 0.0], [0.0, 0.0, 0.1]])
    counts = np.zeros(3)
    for _ in range(4000):
        fb = learner.play_round(ctx, lambda arm: 0.3)
        assert fb.explored
        counts[fb.played_arm] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / 4000)
    assert np.all(np.abs(counts / 4000 - 1 / 3) <= 3 * sigma)


def test_hand_traced_heads_round():
    # d=2, k=2, w=e1, pinned coin HEADS and explore arm 0
    stub = SimpleNamespace(
        d=2, k=2, t_horizon=10, gamma=0.2, delta=0.5, reward_cap=1.0,
        q=1.0, rho=0.1, lambda_cap=1.0, step_size=0.01,
    )
    learner = BanditLearner(stub, FixedRng(coins=[0.0], arms=[0]))
    ctx = np.array([[0.6, 0.1], [0.0, 0.0]])
    rewards = np.array([1.0, 0.0])
    fb = learner.play_round(ctx, lambda arm: rewards[arm])
    assert fb.greedy_arm == 0  # argmax w . x
    assert fb.explored and fb.played_arm == 0
    assert fb.observed_reward == 1.0
    assert fb.score == pytest.approx(0.6)
    # fake rewards (1, 0); y_2 = 1; z_2 = (0.5, 0) + 0.1*(1, 0) = (0.6, 0)
    # loss = 0.5*(0.5*0.6 - 0.6)/0.6 = -0.25, scaled by 1/q = 1
    assert fb.loss_value == pytest.approx(-0.25)
    # subgrad = 0.5*(0.5 - 1)/0.6 * z = (-0.25, 0); w' = w - 0.01*subgrad
    assert learner.w == pytest.approx(np.array([1.0 + 0.01 * 0.25, 0.0]) / np.linalg.norm([1.0 + 0.01 * 0.25, 0.0]))
    assert learner.round == 1


def test_feedback_invariants_and_reward_range():
    rng = seeded_rng(5)
    config = _config(d=3, k=3, t_horizon=500, gamma=0.2)
    learner = BanditLearner(config, rng)
    env_rng = seeded_rng(6)
    for t in range(500):
        cols = env_rng.uniform(-0.5, 0.5, (3, 3))
        rewards = env_rng.uniform(0.0, 1.0, 3)
        fb = learner.play_round(cols, lambda arm: rewards[arm])
        assert fb.observed_reward == rewards[fb.played_arm]
        if not fb.explored:
            assert fb.played_arm == fb.greedy_arm
        assert learner.exploration_count <= learner.round
        assert 0 <= learner.cumulative_reward <= config.reward_cap * learner.round


def test_exploration_frequency_oracle():
    assert check_exploration_frequency(seed=7, n_rounds=3000).passed


def test_horizon_guard():
    config = _config(t_horizon=1)
    learner = BanditLearner(config, seeded_rng(0))
    ctx = np.array([[0.5, -0.5], [0.0, 0.0]])
    learner.play_round(ctx, lambda arm: 0.5)
    with pytest.raises(RuntimeError):
        learner.play_round(ctx, lambda arm: 0.5)


def test_reward_oracle_called_exactly_once_per_round():
    calls = []
    config = _config(t_horizon=200)
    learner = BanditLearner(config, seeded_rng(8))
    ctx = np.array([[0.5, -0.5], [0.0, 0.0]])
    for t in range(200):
        learner.play_round(ctx, lambda arm: calls.append(arm) or 0.5)
    assert len(calls) == 200
