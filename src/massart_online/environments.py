"""Adversaries and reward families: margin point streams, the bounded-noise
label channel, and sorted / monotone reward distributions.

Generators promise, by construction: points in the unit ball with
|w_star . x| >= gamma, pairwise context score gaps >= gamma, rewards inside
[0, reward_cap]. The harness re-checks all of it independently.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import ADVERSARIES, ConfigError, LabeledRound
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


def _iid_margin_point(target, rng):
    # uniform ball point with its w_star component resampled into +-[gamma, 1],
    # perpendicular part shrunk back inside the ball if needed
    w_star = target.w_star
    d = w_star.shape[0]
    u = sample_ball(rng, d)
    # Generator.uniform(gamma, 1.0) without its argument handling
    s = target.gamma + (1.0 - target.gamma) * rng.random()
    if rng.random() < 0.5:
        s = -s
    perp = u - float(u.dot(w_star)) * w_star
    budget = math.sqrt(max(0.0, 1.0 - s * s))
    pnorm = norm(perp)
    if pnorm > budget:
        perp = perp * (budget / pnorm) if budget > 0 else np.zeros(d)
    return s * w_star + perp


def _boundary_point(target, learner_w, rng):
    # margin exactly gamma along w_star while |learner_w . x| is as small as
    # the geometry allows; remaining norm budget filled orthogonally to both
    w_star = target.w_star
    gamma = target.gamma
    d = w_star.shape[0]
    lnorm = norm(learner_w) if learner_w is not None else 0.0
    if lnorm == 0.0:
        return _iid_margin_point(target, rng)
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


def gen_margin_example(adversary, target, learner_w, rng):
    """One point of the named adversary (one of core.ADVERSARIES): unit ball,
    |w_star . x| >= gamma."""
    if adversary not in ADVERSARIES:
        raise ConfigError(f"adversary must be one of {ADVERSARIES}, got {adversary!r}")
    if target.gamma > 1:
        raise ConfigError(f"margin gamma={target.gamma} is infeasible in the unit ball")
    if target.gamma <= 0:
        raise ConfigError("margin gamma must be positive")
    if adversary == "iid":
        return _iid_margin_point(target, rng)
    return _boundary_point(target, learner_w, rng)


def massart_label(target, x, eta_t, rng):
    """Clean label sign_of(w_star . x), flipped with probability eta_t <= eta."""
    if eta_t < 0 or eta_t > target.eta:
        raise ValueError(f"per-round flip probability {eta_t} exceeds the cap {target.eta}")
    clean = sign_of(float(target.w_star.dot(x)))
    flip = rng.random() < eta_t
    return -clean if flip else clean


def adversary_round(adversary, target, learner_w, rng):
    """Point plus label for one round; the adaptive adversary sees learner_w."""
    x = gen_margin_example(adversary, target, learner_w, rng)
    if adversary == "adaptive":
        # flip only where it can cause a mistake, staying under the eta cap
        clean = sign_of(float(target.w_star.dot(x)))
        pred = sign_of(float(learner_w.dot(x))) if learner_w is not None else 1
        eta_t = target.eta if pred == clean else 0.0
        return LabeledRound(x, massart_label(target, x, eta_t, rng))
    return LabeledRound(x, massart_label(target, x, target.eta, rng))


def gen_context(target, k, rng):
    """A (d, k) context: k unit-ball columns with pairwise w_star-score gaps
    >= gamma, permuted."""
    gamma = target.gamma
    if k < 2:
        raise ConfigError(f"k must be at least 2, got {k}")
    if (k - 1) * gamma > 2.0 + 1e-12:
        raise ConfigError(f"(k-1)*gamma = {(k - 1) * gamma} exceeds the score range 2")
    w_star = target.w_star
    d = w_star.shape[0]
    slack = max(0.0, 2.0 / (k - 1) - gamma)
    # uniform draws as low + (high - low) * random(), the form Generator.uniform
    # computes; the per-arm arithmetic runs on floats, in the same order
    gaps = gamma + slack / 2.0 * rng.random(k - 1)
    lo = -1.0 + ((1.0 - float(gaps.sum())) + 1.0) * rng.random()
    scores = [lo + offset for offset in accumulate(gaps.tolist(), initial=0.0)]
    noise = rng.standard_normal((d, k))
    w_col = w_star[:, None]
    noise -= w_col * (w_star @ noise)
    norms = [math.sqrt(sq) for sq in (noise * noise).sum(axis=0).tolist()]
    scale = [
        r * math.sqrt(max(0.0, 1.0 - s * s)) / (1.0 if n < 1e-12 else n)
        for r, s, n in zip(rng.random(k).tolist(), scores, norms)
    ]
    columns = w_col * np.array(scores) + noise * np.array(scale)
    return columns[:, rng.permutation(k)]


def sample_sorted_rewards(target, context, rng):
    """Random rewards in [0, cap] ranked exactly like the w_star scores."""
    scores = target.w_star @ context
    ranks = scores.argsort().argsort()
    values = np.sort(rng.uniform(0.0, target.reward_cap, context.shape[1]))
    return values[ranks]


def monotone_noise_cap(k, delta, reward_cap):
    """Largest per-arm noise half-width that keeps rewards inside [0, cap]."""
    return (reward_cap - delta * (k - 1)) / 2.0


def sample_monotone_rewards(target, context, noise_scale, rng):
    """Rank-linear base rewards with margin delta plus bounded uniform noise.

    Base reward for ascending-score rank i (0-based) is
    cap/2 + delta*(i - (k-1)/2), so adjacent ranks differ by exactly delta in
    expectation. noise_scale must be small enough that no clipping is needed.
    """
    k = context.shape[1]
    delta = target.delta
    cap = target.reward_cap
    if delta * (k - 1) > cap + 1e-12:
        raise ConfigError(f"delta*(k-1) = {delta * (k - 1)} exceeds reward_cap {cap}")
    max_noise = monotone_noise_cap(k, delta, cap)
    if noise_scale < 0 or noise_scale > max_noise + 1e-12:
        raise ConfigError(
            f"noise_scale {noise_scale} would clip rewards; cap is {max_noise}"
        )
    scores = target.w_star @ context
    ranks = scores.argsort().argsort()
    base = cap / 2.0 + delta * (ranks - (k - 1) / 2.0)
    if noise_scale == 0:
        return base
    return base + rng.uniform(-noise_scale, noise_scale, k)


class SortedRewardEnvironment:
    """Contexts from gen_context, rewards sampled already sorted."""

    def __init__(self, target, k):
        self.target = target
        self.k = k

    def next_round(self, rng):
        context = gen_context(self.target, self.k, rng)
        return context, sample_sorted_rewards(self.target, context, rng)


class MonotoneRewardEnvironment:
    """Contexts from gen_context, rank-linear rewards with margin delta and
    the widest noise that keeps them inside [0, reward_cap]."""

    def __init__(self, target, k):
        self.target = target
        self.k = k
        self.noise_scale = monotone_noise_cap(k, target.delta, target.reward_cap)

    def next_round(self, rng):
        context = gen_context(self.target, self.k, rng)
        return context, sample_monotone_rewards(self.target, context, self.noise_scale, rng)


def reduce_classification_to_bandit(x, y):
    """2-arm view of a labeled point: (d, 2) context (x, -x), rewards
    ((1+y)/2, (1-y)/2)."""
    x = np.asarray(x, dtype=float)
    context = np.array((x, -x)).T.copy()
    return context, np.array([(1.0 + y) / 2.0, (1.0 - y) / 2.0])


class ReductionEnvironment:
    """2-arm view of the noisy halfspace stream.

    Contexts are (x, -x) for a margin-gamma/2 point x, rewards are
    ((1+y)/2, (1-y)/2) for the noisy label y, which makes the reward margin
    1 - 2*eta with eta = (1 - delta)/2.
    """

    def __init__(self, target):
        self.eta = (1.0 - target.delta) / 2.0
        self.point_target = HiddenTarget(
            w_star=target.w_star,
            eta=self.eta,
            gamma=target.gamma / 2.0,
            delta=target.delta,
            reward_cap=target.reward_cap,
        )

    def next_round(self, rng):
        x = gen_margin_example("iid", self.point_target, None, rng)
        y = massart_label(self.point_target, x, self.eta, rng)
        return reduce_classification_to_bandit(x, y)


def make_bandit_environment(name, target, k):
    if name == "sorted_k":
        return SortedRewardEnvironment(target, k)
    if name == "monotone_k":
        return MonotoneRewardEnvironment(target, k)
    if name == "reduction2":
        if k != 2:
            raise ConfigError("reduction2 is a 2-arm environment")
        return ReductionEnvironment(target)
    raise ConfigError(f"unknown bandit environment {name!r}")
