"""Adversaries and reward families: margin point streams, the bounded-noise
label channel, and sorted / monotone reward distributions.

Generators promise, by construction: points in the unit ball with
|w_star . x| >= gamma, pairwise context score gaps >= gamma, rewards inside
[0, reward_cap]. The harness re-checks all of it independently.

The streams that never read the learner (iid points, sorted_k, monotone_k,
reduction2) are drawn BLOCK rounds per numpy call and served one row per
round; blocks are always full, so round t's draw depends on the seed and t
only. Each freshly drawn block goes through the audit callable its stream was
built with before the block's first row is served. gen_context is the
one-row case of context_block and consumes the generator in the same order
as one round of a block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ADVERSARIES, BLOCK, ConfigError, check_score_range, monotone_noise
from .losses import sign_of
from .optimizer import norm


@dataclass(frozen=True)
class HiddenTarget:
    """Hidden unit vector plus the environment's promised parameters."""

    w_star: np.ndarray
    eta: float = 0.0
    gamma: float = 0.2
    delta: float = 0.0
    reward_cap: float = 1.0

    def __post_init__(self):
        w_norm = norm(self.w_star)
        if abs(w_norm - 1.0) > 1e-12:
            raise ValueError(f"w_star must be a unit vector, got norm {w_norm}")


def random_unit(rng, d):
    while True:
        v = rng.standard_normal(d)
        v_norm = norm(v)
        if v_norm > 1e-12:
            return v / v_norm


def sample_ball(rng, d):
    """Uniform draw from the d-dimensional unit ball."""
    direction = random_unit(rng, d)
    return direction * rng.random() ** (1.0 / d)


def block_rows(draw, rng, audit):
    """Rounds one at a time, from full blocks: draw(rng, BLOCK) returns one
    block as a tuple of arrays (or lists) whose rows are its rounds, and
    audit(*block) checks the whole block before its first round is served.
    Nothing is drawn before the first round is asked for."""
    while True:
        block = draw(rng, BLOCK)
        audit(*block)
        yield from zip(*block)


def _rowdot(a, b):
    # a[i] . b[i] for each row of the (n, d) array a (b is (n, d), or one (d,)
    # vector for every row); a stacked matmul of 1-D pairs takes the same dot
    # product as a[i].dot(b[i]), bit for bit
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _check_margin(gamma):
    if gamma > 1:
        raise ConfigError(f"margin gamma={gamma} is infeasible in the unit ball")
    if gamma <= 0:
        raise ConfigError("margin gamma must be positive")


def iid_points(target, rng, n):
    """(n, d) iid margin points: uniform ball points with the w_star component
    resampled into +-[gamma, 1], the perpendicular part shrunk back inside the
    ball if needed."""
    _check_margin(target.gamma)
    w_star = target.w_star
    d = w_star.shape[0]
    # uniform ball rows as sample_ball draws them, a near-zero direction redrawn
    v = rng.standard_normal((n, d))
    v_norm = np.sqrt(_rowdot(v, v))
    for i in np.flatnonzero(v_norm <= 1e-12):
        while v_norm[i] <= 1e-12:
            v[i] = rng.standard_normal(d)
            v_norm[i] = norm(v[i])
    radius, s, sign = rng.random((3, n))
    # the power on floats: numpy's array power can differ in the last ulp
    u = v / v_norm[:, None] * np.array([r ** (1.0 / d) for r in radius.tolist()])[:, None]
    # Generator.uniform(gamma, 1.0) without its argument handling
    s = target.gamma + (1.0 - target.gamma) * s
    s = np.where(sign < 0.5, -s, s)
    perp = u - _rowdot(u, w_star)[:, None] * w_star
    budget = np.sqrt(np.maximum(0.0, 1.0 - s * s))
    p_norm = np.sqrt(_rowdot(perp, perp))
    perp *= np.divide(budget, p_norm, out=np.ones(n), where=p_norm > budget)[:, None]
    # no room off the w_star axis: +0.0, not the signed zeros of perp * 0
    perp[budget == 0.0] = 0.0
    return s[:, None] * w_star + perp


def massart_labels(target, points, rng):
    """Clean labels sign_of(w_star . x) of the (n, d) points, each flipped
    with probability target.eta; a list of ints."""
    clean = np.where(_rowdot(points, target.w_star) >= 0, 1, -1)
    flip = rng.random(points.shape[0]) < target.eta
    return np.where(flip, -clean, clean).tolist()


def massart_label(target, x, eta_t, rng):
    """Clean label sign_of(w_star . x), flipped with probability eta_t <= eta.

    Kept per round rather than as the one-row case of massart_labels: the
    boundary and adaptive adversaries label every round with it, and the
    one-row array form costs about six times as much per call."""
    if eta_t < 0 or eta_t > target.eta:
        raise ValueError(f"per-round flip probability {eta_t} exceeds the cap {target.eta}")
    clean = sign_of(float(target.w_star.dot(x)))
    flip = rng.random() < eta_t
    return -clean if flip else clean


def _boundary_point(target, learner_w, rng):
    # margin exactly gamma along w_star while |learner_w . x| is as small as
    # the geometry allows; remaining norm budget filled orthogonally to both
    w_star = target.w_star
    gamma = target.gamma
    d = w_star.shape[0]
    lnorm = norm(learner_w)
    if lnorm == 0.0:
        return iid_points(target, rng, 1)[0]
    wh = learner_w / lnorm
    c = float(w_star.dot(wh))
    p_vec = w_star - c * wh
    p = norm(p_vec)
    # below this, p_vec is cancellation noise and would poison the margin
    p_floor = 1e-5
    if p >= gamma:
        base = (gamma / (p * p)) * p_vec
    elif p > p_floor:
        a = gamma * abs(c) - p * math.sqrt(1.0 - gamma * gamma)
        b = math.sqrt(max(0.0, 1.0 - a * a))
        base = math.copysign(a, c) * wh + (b / p) * p_vec
    else:
        base = math.copysign(gamma, c) * wh
    budget = math.sqrt(max(0.0, 1.0 - float(base.dot(base))))
    if budget > 1e-12 and d > 2:
        noise = rng.standard_normal(d)
        noise -= float(noise.dot(wh)) * wh
        if p > p_floor:
            e2 = p_vec / p
            noise -= float(noise.dot(e2)) * e2
        else:
            noise -= float(noise.dot(w_star)) * w_star
        nnorm = norm(noise)
        if nnorm > 1e-12:
            base = base + noise * (rng.random() * budget / nnorm)
    if rng.random() < 0.5:
        base = -base
    return base


def _labeled_iid(target, rng, n):
    # one block of iid points and their labels
    points = iid_points(target, rng, n)
    return points, massart_labels(target, points, rng)


class MarginStream:
    """One run's halfspace rounds under one adversary, its name and the margin
    checked once: the generator that boundary and adaptive rounds draw from,
    and the iid rounds, served from blocks that audit(points, labels) checks."""

    def __init__(self, adversary, target, rng, audit):
        if adversary not in ADVERSARIES:
            raise ConfigError(f"adversary must be one of {ADVERSARIES}, got {adversary!r}")
        _check_margin(target.gamma)
        self.adversary = adversary
        self.target = target
        self.rng = rng
        self.iid = block_rows(lambda rng, n: _labeled_iid(target, rng, n), rng, audit)


def adversary_round(stream, learner_w):
    """One round's (x, y), point plus label, from the run's MarginStream;
    the adaptive adversary sees the iterate learner_w."""
    adversary = stream.adversary
    if adversary == "iid":
        return next(stream.iid)
    target, rng = stream.target, stream.rng
    x = _boundary_point(target, learner_w, rng)
    if adversary == "adaptive":
        # flip only where it can cause a mistake, staying under the eta cap
        clean = sign_of(float(target.w_star.dot(x)))
        pred = sign_of(float(learner_w.dot(x)))
        eta_t = target.eta if pred == clean else 0.0
        return x, massart_label(target, x, eta_t, rng)
    return x, massart_label(target, x, target.eta, rng)


def context_block(target, k, rng, n):
    """n contexts as an (n, d, k) array, each k unit-ball columns with pairwise
    w_star-score gaps >= gamma, permuted; and the (n, k) ascending-score rank
    of every column, which is the permutation."""
    gamma = target.gamma
    if k < 2:
        raise ConfigError(f"k must be at least 2, got {k}")
    check_score_range(k, gamma)
    w_star = target.w_star
    d = w_star.shape[0]
    slack = max(0.0, 2.0 / (k - 1) - gamma)
    # uniform draws as low + (high - low) * random(), the form Generator.uniform
    # computes; the cumulative sum adds the gaps in order
    gaps = gamma + slack / 2.0 * rng.random((n, k - 1))
    lo = -1.0 + ((1.0 - gaps.sum(axis=1)) + 1.0) * rng.random(n)
    offsets = np.zeros((n, k))
    np.cumsum(gaps, axis=1, out=offsets[:, 1:])
    scores = lo[:, None] + offsets
    noise = rng.standard_normal((n, d, k))
    w_col = w_star[:, None]
    noise -= w_col * (w_star @ noise)[:, None, :]
    norms = np.sqrt((noise * noise).sum(axis=1))
    norms[norms < 1e-12] = 1.0
    scale = rng.random((n, k)) * np.sqrt(np.maximum(0.0, 1.0 - scores * scores)) / norms
    columns = w_col * scores[:, None, :] + noise * scale[:, None, :]
    ranks = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)
    return np.take_along_axis(columns, ranks[:, None, :], axis=2), ranks


def gen_context(target, k, rng):
    """A (d, k) context: k unit-ball columns with pairwise w_star-score gaps
    >= gamma, permuted."""
    return context_block(target, k, rng, 1)[0][0]


def sorted_rewards(target, ranks, rng):
    """(n, k) random rewards in [0, cap], each row ranked exactly like its
    (n, k) score ranks."""
    values = np.sort(rng.uniform(0.0, target.reward_cap, ranks.shape), axis=1)
    return np.take_along_axis(values, ranks, axis=1)


def monotone_rewards(target, ranks, rng):
    """(n, k) rank-linear base rewards with margin delta plus uniform noise,
    for (n, k) ascending-score ranks.

    Base reward for rank i (0-based) is cap/2 + delta*(i - (k-1)/2), so
    adjacent ranks differ by exactly delta in expectation. The noise
    half-width is the widest that keeps rewards inside [0, cap]; where that
    is 0 (delta*(k-1) = cap) nothing is drawn.
    """
    k = ranks.shape[1]
    delta = target.delta
    cap = target.reward_cap
    noise = monotone_noise(delta, k, cap)
    base = cap / 2.0 + delta * (ranks - (k - 1) / 2.0)
    if noise == 0:
        return base
    return base + rng.uniform(-noise, noise, ranks.shape)


class _BlockEnvironment:
    """Serves one round per next_round() call from blocks drawn by the
    subclass's _block(rng, n), each checked by audit(contexts, rewards); the
    first call draws the first block."""

    def __init__(self, target, k, rng, audit):
        self.target = target
        self.k = k
        self._rows = block_rows(self._block, rng, audit)

    def next_round(self):
        return next(self._rows)


class SortedRewardEnvironment(_BlockEnvironment):
    """Contexts from context_block, rewards sampled already sorted."""

    def _block(self, rng, n):
        contexts, ranks = context_block(self.target, self.k, rng, n)
        return contexts, sorted_rewards(self.target, ranks, rng)

    # bound in each class, so that a wrapper patched onto one class sees
    # that environment's rounds only
    next_round = _BlockEnvironment.next_round


class MonotoneRewardEnvironment(_BlockEnvironment):
    """Contexts from context_block, rank-linear rewards with margin delta and
    the widest noise that keeps them inside [0, reward_cap]."""

    def _block(self, rng, n):
        contexts, ranks = context_block(self.target, self.k, rng, n)
        return contexts, monotone_rewards(self.target, ranks, rng)

    next_round = _BlockEnvironment.next_round


def _reduction_block(points, labels):
    # (n, d, 2) contexts (x, -x) and (n, 2) rewards ((1+y)/2, (1-y)/2)
    y = np.array(labels, dtype=float)
    rewards = np.stack(((1.0 + y) / 2.0, (1.0 - y) / 2.0), axis=1)
    return np.stack((points, -points), axis=2), rewards


class ReductionEnvironment(_BlockEnvironment):
    """2-arm view of the noisy halfspace stream (k is 2).

    Contexts are (x, -x) for a margin-gamma/2 point x, rewards are
    ((1+y)/2, (1-y)/2) for the noisy label y, which makes the reward margin
    1 - 2*eta with eta = (1 - delta)/2.
    """

    @property
    def eta(self):
        return (1.0 - self.target.delta) / 2.0

    @property
    def point_target(self):
        # the halfspace stream's target: margin gamma/2, flip rate eta
        return HiddenTarget(w_star=self.target.w_star, eta=self.eta, gamma=self.target.gamma / 2.0)

    def _block(self, rng, n):
        return _reduction_block(*_labeled_iid(self.point_target, rng, n))

    next_round = _BlockEnvironment.next_round


def make_bandit_environment(name, target, k, rng, audit):
    """The named environment on rng; audit(contexts, rewards) checks each block."""
    if name == "sorted_k":
        return SortedRewardEnvironment(target, k, rng, audit)
    if name == "monotone_k":
        return MonotoneRewardEnvironment(target, k, rng, audit)
    if name == "reduction2":
        return ReductionEnvironment(target, k, rng, audit)
    raise ConfigError(f"unknown bandit environment {name!r}")
