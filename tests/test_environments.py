import math
from functools import partial

import numpy as np
import pytest

from massart_online.core import ConfigError, seeded_rng
from massart_online.environments import (
    BLOCK,
    HiddenTarget,
    MarginStream,
    MonotoneRewardEnvironment,
    ReductionEnvironment,
    SortedRewardEnvironment,
    adversary_round,
    context_block,
    gen_context,
    iid_points,
    make_bandit_environment,
    massart_label,
    massart_labels,
    monotone_rewards,
    random_unit,
    sorted_rewards,
)
from massart_online.harness import _audit_context, _audit_point
from massart_online.losses import sign_of


def _target(d=2, rng=None, **kw):
    rng = rng or seeded_rng(0)
    return HiddenTarget(w_star=random_unit(rng, d), **kw)


def _stream(target, rng, adversary="iid"):
    # a MarginStream whose iid blocks the harness's audit checks, as in a run
    return MarginStream(adversary, target, rng, partial(_audit_point, target=target))


def _context_audit(target, k):
    # the harness's block audit of a bandit environment's contexts and rewards
    return partial(_audit_context, target=target, k=k)


def _boundary_points(target, learner_w, rng, n):
    # n points of the boundary adversary, drawn as a run draws them
    stream = _stream(target, rng, "boundary")
    return [adversary_round(stream, learner_w)[0] for _ in range(n)]


def _score_ranks(target, ctx, n=1):
    # (n, k) copies of the ascending-score rank of each column of ctx
    return np.tile((target.w_star @ ctx).argsort().argsort(), (n, 1))


def test_hidden_target_requires_unit_vector():
    with pytest.raises(ValueError):
        HiddenTarget(w_star=np.array([0.5, 0.0]))


def test_unknown_adversary_raises_config_error():
    target = HiddenTarget(w_star=np.array([1.0, 0.0]), gamma=0.5)
    for name in ("bogus", "iid_uniform_margin", ""):
        with pytest.raises(ConfigError):
            stream = _stream(target, seeded_rng(0), name)
            adversary_round(stream, np.array([0.0, 1.0]))


def test_boundary_with_a_zero_iterate_draws_an_iid_point():
    # nothing to hug: the round is an iid margin point, labeled as usual
    d = 5
    target = _target(d=d, rng=seeded_rng(46), eta=0.2, gamma=0.3)
    stream = _stream(target, seeded_rng(47), "boundary")
    reference = seeded_rng(47)
    for _ in range(20):
        x, y = adversary_round(stream, np.zeros(d))
        _audit_point(x, y, target)
        assert y in (-1, 1)
        assert x.tobytes() == iid_points(target, reference, 1)[0].tobytes()
        massart_label(target, x, target.eta, reference)  # keeps the reference in step


def test_unknown_bandit_environment_raises_config_error():
    target = _target(d=3, gamma=0.2, delta=0.3)
    rng = seeded_rng(0)
    for name in ("massart2", "bogus", ""):
        with pytest.raises(ConfigError, match="unknown bandit environment"):
            make_bandit_environment(name, target, 3, rng, _context_audit(target, 3))


def test_iid_points_respect_ball_and_margin():
    rng = seeded_rng(1)
    target = HiddenTarget(w_star=np.array([1.0, 0.0]), gamma=0.5)
    for x in iid_points(target, rng, 500):
        assert np.linalg.norm(x) <= 1.0 + 1e-12
        assert abs(x[0]) >= 0.5 - 1e-12


def test_boundary_point_with_orthogonal_learner():
    # learner orthogonal to the target: both constraints can be met exactly
    rng = seeded_rng(2)
    target = HiddenTarget(w_star=np.array([1.0, 0.0]), gamma=0.5)
    learner_w = np.array([0.0, 1.0])
    for x in _boundary_points(target, learner_w, rng, 200):
        assert abs(x[0]) >= 0.5 - 1e-12
        assert abs(float(learner_w @ x)) <= 1e-12
        assert np.linalg.norm(x) <= 1.0 + 1e-12


def test_boundary_point_with_aligned_learner():
    # learner parallel to the target: zero learner-margin is infeasible, the
    # construction must still deliver the promised target margin
    rng = seeded_rng(3)
    target = HiddenTarget(w_star=np.array([1.0, 0.0]), gamma=0.5)
    learner_w = np.array([1.0, 0.0])
    for x in _boundary_points(target, learner_w, rng, 200):
        assert abs(x[0]) >= 0.5 - 1e-12
        assert np.linalg.norm(x) <= 1.0 + 1e-12


def test_boundary_hugging_minimizes_learner_margin_in_high_dim():
    rng = seeded_rng(4)
    d = 8
    target = _target(d=d, rng=rng, gamma=0.3)
    learner_w = random_unit(rng, d) * 0.7
    for x in _boundary_points(target, learner_w, rng, 200):
        assert abs(float(target.w_star @ x)) >= 0.3 - 1e-12
        assert abs(float(learner_w @ x)) <= 1e-10
        assert np.linalg.norm(x) <= 1.0 + 1e-12


def test_extreme_margin_only_target_points():
    rng = seeded_rng(5)
    target = HiddenTarget(w_star=np.array([0.0, 1.0]), gamma=1.0)
    for x in iid_points(target, rng, 50):
        assert abs(abs(float(target.w_star @ x)) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_infeasible_margin_rejected():
    target = HiddenTarget(w_star=np.array([1.0, 0.0]), gamma=1.5)
    with pytest.raises(ConfigError):
        iid_points(target, seeded_rng(0), 1)
    for name in ("iid", "boundary", "adaptive"):
        with pytest.raises(ConfigError):
            adversary_round(_stream(target, seeded_rng(0), name), np.array([0.0, 1.0]))


def test_massart_label_noiseless():
    rng = seeded_rng(6)
    target = HiddenTarget(w_star=np.array([1.0, 0.0]), eta=0.3)
    x = np.array([0.4, 0.1])
    for _ in range(100):
        assert massart_label(target, x, 0.0, rng) == 1


def test_massart_label_flip_rate_three_sigma():
    rng = seeded_rng(7)
    target = HiddenTarget(w_star=np.array([1.0, 0.0]), eta=0.1)
    x = np.array([0.4, 0.0])
    n = 100_000
    flips = sum(massart_label(target, x, 0.1, rng) == -1 for _ in range(n))
    sigma = math.sqrt(0.1 * 0.9 / n)
    assert abs(flips / n - 0.1) <= 3 * sigma


def test_massart_label_rejects_rate_above_cap():
    target = HiddenTarget(w_star=np.array([1.0, 0.0]), eta=0.1)
    with pytest.raises(ValueError):
        massart_label(target, np.array([0.5, 0.0]), 0.2, seeded_rng(0))


@pytest.mark.parametrize("name", ["iid", "boundary", "adaptive"])
def test_disagreement_rate_capped_for_all_strategies(name):
    rng = seeded_rng(8)
    d = 4
    target = _target(d=d, rng=rng, eta=0.15, gamma=0.2)
    learner_w = random_unit(rng, d)
    n = 20_000
    disagree = 0
    stream = _stream(target, rng, name)
    for _ in range(n):
        x, y = adversary_round(stream, learner_w)
        disagree += y != sign_of(float(target.w_star @ x))
    sigma = math.sqrt(0.15 * 0.85 / n)
    assert disagree / n <= 0.15 + 3 * sigma


def test_adaptive_adversary_never_flips_when_already_wrong():
    rng = seeded_rng(9)
    d = 3
    target = _target(d=d, rng=rng, eta=0.5 - 1e-3, gamma=0.2)
    learner_w = random_unit(rng, d)
    stream = _stream(target, rng, "adaptive")
    for _ in range(2000):
        x, y = adversary_round(stream, learner_w)
        pred = sign_of(float(learner_w @ x))
        clean = sign_of(float(target.w_star @ x))
        if pred != clean:
            assert y == clean  # no flip wasted where the learner errs anyway


def test_gen_context_gaps_and_ball():
    rng = seeded_rng(10)
    target = _target(d=5, rng=rng, gamma=0.2)
    for _ in range(300):
        ctx = gen_context(target, 4, rng)
        scores = np.sort(target.w_star @ ctx)
        assert np.min(np.diff(scores)) >= 0.2 - 1e-12
        assert np.max(np.linalg.norm(ctx, axis=0)) <= 1.0 + 1e-12


def _gen_context_array_form(target, k, rng):
    # the whole-array arithmetic gen_context used before its per-arm terms
    # moved to floats; both must produce the same bytes from the same draws
    w_star, gamma = target.w_star, target.gamma
    slack = max(0.0, 2.0 / (k - 1) - gamma)
    gaps = gamma + rng.uniform(0.0, slack / 2.0, size=k - 1)
    lo = rng.uniform(-1.0, 1.0 - float(gaps.sum()))
    scores = lo + np.concatenate(([0.0], np.cumsum(gaps)))
    noise = rng.standard_normal((w_star.shape[0], k))
    noise -= np.outer(w_star, w_star @ noise)
    norms = np.linalg.norm(noise, axis=0)
    norms[norms < 1e-12] = 1.0
    scale = rng.random(k) * np.sqrt(np.maximum(0.0, 1.0 - scores**2)) / norms
    columns = np.outer(w_star, scores) + noise * scale
    return columns[:, rng.permutation(k)]


@pytest.mark.parametrize("d,k,gamma", [(10, 3, 0.2), (10, 2, 1.0), (4, 5, 0.3), (7, 10, 0.05)])
def test_gen_context_matches_array_form_bytes(d, k, gamma):
    target = _target(d=d, rng=seeded_rng(30), gamma=gamma)
    rng_a, rng_b = seeded_rng(31), seeded_rng(31)
    for _ in range(200):
        got = gen_context(target, k, rng_a)
        assert got.tobytes() == _gen_context_array_form(target, k, rng_b).tobytes()


def test_gen_context_three_arms_wide_margin():
    rng = seeded_rng(11)
    target = _target(d=3, rng=rng, gamma=0.5)
    ctx = gen_context(target, 3, rng)
    scores = np.sort(target.w_star @ ctx)
    assert np.min(np.diff(scores)) >= 0.5 - 1e-12


def test_gen_context_permutes_arm_order():
    rng = seeded_rng(12)
    target = _target(d=3, rng=rng, gamma=0.2)
    orders = set()
    for _ in range(50):
        ctx = gen_context(target, 3, rng)
        orders.add(tuple(np.argsort(target.w_star @ ctx)))
    assert len(orders) > 1


def test_gen_context_infeasible_geometry():
    rng = seeded_rng(13)
    target = _target(d=3, rng=rng, gamma=0.6)
    with pytest.raises(ConfigError):
        gen_context(target, 5, rng)  # 4 * 0.6 > 2


def test_sorted_rewards_respect_ranking():
    rng = seeded_rng(14)
    target = _target(d=4, rng=rng, gamma=0.2, reward_cap=2.0)
    contexts, ranks = context_block(target, 4, rng, 200)
    for ctx, r in zip(contexts, sorted_rewards(target, ranks, rng)):
        scores = target.w_star @ ctx
        assert np.all((r >= 0) & (r <= 2.0))
        for i in range(4):
            for j in range(4):
                assert (r[i] - r[j]) * (scores[i] - scores[j]) >= 0


def test_equal_rewards_sorted_for_any_context():
    rng = seeded_rng(30)
    target = _target(d=3, rng=rng, gamma=0.3)
    ctx = gen_context(target, 3, rng)
    scores = target.w_star @ ctx
    r = np.full(3, 0.4)
    assert all(
        (r[i] - r[j]) * (scores[i] - scores[j]) >= 0 for i in range(3) for j in range(3)
    )


def test_sorted_predicate_violated_by_swap():
    rng = seeded_rng(15)
    target = _target(d=3, rng=rng, gamma=0.3)
    ctx = gen_context(target, 3, rng)
    monotone = _target(d=3, rng=seeded_rng(15), gamma=0.3, delta=0.3)
    r = monotone_rewards(monotone, _score_ranks(target, ctx), rng)[0]
    scores = target.w_star @ ctx
    order = np.argsort(scores)
    swapped = r.copy()
    swapped[order[0]], swapped[order[-1]] = r[order[-1]], r[order[0]]
    products = [
        (swapped[i] - swapped[j]) * (scores[i] - scores[j])
        for i in range(3)
        for j in range(3)
        if i != j
    ]
    assert min(products) < 0


def test_monotone_rewards_noiseless_two_arms():
    # delta*(k-1) = cap leaves no room for noise: the exact base rewards
    rng = seeded_rng(16)
    target = _target(d=2, rng=rng, gamma=0.4, delta=0.5, reward_cap=0.5)
    ctx = gen_context(target, 2, rng)
    r = monotone_rewards(target, _score_ranks(target, ctx), rng)[0]
    scores = target.w_star @ ctx
    hi, lo = (0, 1) if scores[0] > scores[1] else (1, 0)
    assert r[hi] == 0.5
    assert r[lo] == 0.0


@pytest.mark.parametrize("k,delta,cap", [(3, 0.5, 1.0), (5, 0.25, 1.0), (4, 0.25, 0.75)])
def test_monotone_rewards_zero_width_exact_base_draws_nothing(k, delta, cap):
    # the monotone_k shape of c07 and of the golden run is (3, 0.5, 1.0)
    target = _target(d=4, rng=seeded_rng(23), gamma=0.2, delta=delta, reward_cap=cap)
    ranks = seeded_rng(24).permuted(np.tile(np.arange(k), (50, 1)), axis=1)
    rng = seeded_rng(25)
    state = rng.bit_generator.state
    r = monotone_rewards(target, ranks, rng)
    assert rng.bit_generator.state == state
    assert r.tobytes() == (cap / 2.0 + delta * (ranks - (k - 1) / 2.0)).tobytes()


def test_monotone_rewards_infeasible_margin():
    rng = seeded_rng(17)
    target = _target(d=3, rng=rng, gamma=0.2, delta=0.6, reward_cap=1.0)
    with pytest.raises(ConfigError):  # 0.6*2 > 1
        MonotoneRewardEnvironment(target, 3, rng, _context_audit(target, 3)).next_round()


def test_monotone_rewards_margin_just_past_the_cap_rejected():
    # delta*(k-1) exceeds cap by less than 1e-12: no noise width fits
    target = _target(d=3, rng=seeded_rng(26), gamma=0.2, delta=0.5 + 2.5e-13, reward_cap=1.0)
    assert 1.0 < target.delta * 2 <= 1.0 + 1e-12
    with pytest.raises(ConfigError):
        monotone_rewards(target, np.tile(np.arange(3), (4, 1)), seeded_rng(27))


def test_monotone_rewards_noise_would_clip():
    # the noise is the widest that stays inside [0, cap]: the draws reach
    # both ends of the range and never pass them
    rng = seeded_rng(18)
    target = _target(d=3, rng=rng, gamma=0.2, delta=0.3, reward_cap=1.0)
    r = monotone_rewards(target, np.tile(np.arange(3), (5000, 1)), rng)
    assert r.min() >= 0.0 and r.max() <= 1.0
    assert r.min() <= 0.01 and r.max() >= 0.99
    assert np.abs(r - (0.5 + 0.3 * (np.arange(3) - 1.0))).max() <= 0.2


def test_monotone_margin_monte_carlo():
    # empirical conditional mean gap >= delta - 3 sigma for every ordered pair
    rng = seeded_rng(19)
    k, delta, cap = 3, 0.3, 2.0
    noise = (cap - delta * (k - 1)) / 2.0
    target = _target(d=4, rng=rng, gamma=0.25, delta=delta, reward_cap=cap)
    ctx = gen_context(target, k, rng)
    scores = target.w_star @ ctx
    n = 100_000
    draws = monotone_rewards(target, _score_ranks(target, ctx, n), rng)
    sigma_pair = math.sqrt(2 * noise**2 / 3.0) / math.sqrt(n)
    for i in range(k):
        for j in range(k):
            if scores[i] > scores[j]:
                gap = float(np.mean(draws[:, i] - draws[:, j]))
                assert gap >= delta - 3 * sigma_pair


def test_reduction_environment_margin_and_rewards():
    rng = seeded_rng(20)
    target = _target(d=4, rng=rng, gamma=0.2, delta=0.8, reward_cap=1.0)
    env = ReductionEnvironment(target, 2, rng, _context_audit(target, 2))
    assert env.eta == pytest.approx(0.1)
    for _ in range(300):
        ctx, r = env.next_round()
        scores = target.w_star @ ctx
        assert abs(scores[0] - scores[1]) >= 0.2 - 1e-12
        assert sorted(r.tolist()) == [0.0, 1.0]


def test_reduction_reward_gap_matches_one_minus_two_eta():
    rng = seeded_rng(21)
    delta = 0.8  # eta = 0.1
    target = _target(d=3, rng=rng, gamma=0.3, delta=delta, reward_cap=1.0)
    env = ReductionEnvironment(target, 2, rng, _context_audit(target, 2))
    n = 50_000
    gaps = []
    for _ in range(n):
        ctx, r = env.next_round()
        scores = target.w_star @ ctx
        hi = int(scores[0] < scores[1])
        gaps.append(r[hi] - r[1 - hi])
    mean_gap = float(np.mean(gaps))
    sigma = float(np.std(gaps)) / math.sqrt(n)
    assert abs(mean_gap - delta) <= 3 * sigma


def test_environment_drivers_smoke():
    rng = seeded_rng(22)
    target = _target(d=3, rng=rng, gamma=0.2, delta=0.2, reward_cap=1.0)
    audit = _context_audit(target, 3)
    for env_class in (SortedRewardEnvironment, MonotoneRewardEnvironment):
        env = env_class(target, 3, rng, audit)
        ctx, r = env.next_round()
        assert ctx.shape == (3, 3)
        assert r.shape == (3,)


def _iid_round_per_round_form(target, rng):
    # the per-round arithmetic of an iid point and its label before the stream
    # was drawn in blocks; a one-row block must give the same bytes from the
    # same draws
    w_star = target.w_star
    d = w_star.shape[0]
    while True:
        v = rng.standard_normal(d)
        v_norm = math.sqrt(v.dot(v))
        if v_norm > 1e-12:
            break
    u = v / v_norm * rng.random() ** (1.0 / d)
    s = target.gamma + (1.0 - target.gamma) * rng.random()
    if rng.random() < 0.5:
        s = -s
    perp = u - float(u.dot(w_star)) * w_star
    budget = math.sqrt(max(0.0, 1.0 - s * s))
    pnorm = math.sqrt(perp.dot(perp))
    if pnorm > budget:
        perp = perp * (budget / pnorm) if budget > 0 else np.zeros(d)
    x = s * w_star + perp
    clean = sign_of(float(w_star.dot(x)))
    return x, -clean if rng.random() < target.eta else clean


@pytest.mark.parametrize(
    "d,gamma,axis",
    [(1, 0.5, False), (2, 0.2, False), (5, 1.0, False), (10, 0.05, False), (20, 0.2, False),
     (33, 0.7, False), (3, 1.0, True)],
)
def test_iid_one_row_block_matches_per_round_bytes(d, gamma, axis):
    # axis: w_star is a coordinate vector, so at gamma = 1 the signs of the
    # zero coordinates are part of the bytes
    if axis:
        target = HiddenTarget(w_star=np.eye(d)[-1], eta=0.3, gamma=gamma)
    else:
        target = _target(d=d, rng=seeded_rng(40), eta=0.3, gamma=gamma)
    rng_a, rng_b = seeded_rng(41), seeded_rng(41)
    for _ in range(200):
        x = iid_points(target, rng_a, 1)
        y = massart_labels(target, x, rng_a)
        x_ref, y_ref = _iid_round_per_round_form(target, rng_b)
        assert x[0].tobytes() == x_ref.tobytes()
        assert y == [y_ref]


def test_constructors_draw_nothing():
    # the first round draws the first block, never a constructor
    rng = seeded_rng(45)
    target = _target(d=4, rng=rng, eta=0.1, gamma=0.2, delta=0.3)
    state = rng.bit_generator.state
    _stream(target, rng)
    SortedRewardEnvironment(target, 3, rng, _context_audit(target, 3))
    MonotoneRewardEnvironment(target, 3, rng, _context_audit(target, 3))
    ReductionEnvironment(target, 2, rng, _context_audit(target, 2))
    assert rng.bit_generator.state == state


def test_iid_block_rows_keep_ball_margin_and_flip_rate():
    rng = seeded_rng(42)
    target = _target(d=6, rng=rng, eta=0.1, gamma=0.3)
    blocks = 40
    flips = 0
    for _ in range(blocks):
        x = iid_points(target, rng, BLOCK)
        y = massart_labels(target, x, rng)
        assert x.shape == (BLOCK, 6) and len(y) == BLOCK
        assert np.linalg.norm(x, axis=1).max() <= 1.0 + 1e-12
        scores = x @ target.w_star
        assert np.abs(scores).min() >= 0.3 - 1e-12
        flips += sum(label != sign_of(score) for label, score in zip(y, scores.tolist()))
    n = blocks * BLOCK
    assert abs(flips / n - 0.1) <= 3 * math.sqrt(0.1 * 0.9 / n)


def test_context_block_rows_keep_ball_and_score_gaps():
    rng = seeded_rng(43)
    target = _target(d=5, rng=rng, gamma=0.2)
    contexts, ranks = context_block(target, 4, rng, BLOCK)
    assert contexts.shape == (BLOCK, 5, 4) and ranks.shape == (BLOCK, 4)
    assert np.linalg.norm(contexts, axis=1).max() <= 1.0 + 1e-12
    scores = np.array([target.w_star @ ctx for ctx in contexts])
    assert np.diff(np.sort(scores, axis=1), axis=1).min() >= 0.2 - 1e-12
    assert (scores.argsort(axis=1).argsort(axis=1) == ranks).all()


@pytest.mark.parametrize(
    "name,k,delta",
    [("sorted_k", 4, 0.2), ("monotone_k", 4, 0.2), ("monotone_k", 3, 0.5)],
)
def test_block_environment_rewards_ranked_like_scores(name, k, delta):
    # the audit checks ranges and gaps but not the ranking, so this test does;
    # the rounds cross a block boundary
    rng = seeded_rng(44)
    cap = 1.0
    target = _target(d=5, rng=rng, gamma=0.2, delta=delta, reward_cap=cap)
    env_class = SortedRewardEnvironment if name == "sorted_k" else MonotoneRewardEnvironment
    env = env_class(target, k, rng, _context_audit(target, k))
    noise = (cap - delta * (k - 1)) / 2.0
    base = cap / 2.0 + delta * (np.arange(k) - (k - 1) / 2.0)
    for _ in range(BLOCK + 100):
        ctx, r = env.next_round()
        ranked = r[np.argsort(target.w_star @ ctx)]
        if name == "sorted_k":
            assert np.all(np.diff(ranked) >= 0)
        else:
            assert np.abs(ranked - base).max() <= noise + 1e-12
