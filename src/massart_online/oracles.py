"""Structural checks for the losses, the optimizer, and the k-arm learner.

Every check is an independent oracle: brute-force enumeration, fresh
sampling, or a re-derived closed form, never the code path under test.
Checks return CheckResult records; run_all drives the full suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import BanditConfig, seeded_rng
from .environments import HiddenTarget, gen_context, random_unit, sample_ball
from .learner_bandit import BanditLearner, fake_rewards, select_action
from .losses import (
    arm_gap_loss,
    leaky_margin_loss,
    leaky_margin_subgrad,
    leaky_relu,
    reweighted_margin_loss,
    sign_of,
)
from .optimizer import ogd_update, step_size


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


def check_leaky_relu_equivalence(seed=0, n=100_000, rtol=1e-12):
    """Branch definition vs the closed form 0.5*((1-2*lam)*|t| + t).

    The error is measured relative to max(|a|, |b|, |t|): the function is
    1-homogeneous in t with |value| <= |t|, and near lam = 0 or 1 the closed
    form cancels catastrophically, so a pure output-relative measure is not
    attainable for any floating-point evaluation order.
    """
    rng = seeded_rng(seed)
    lams = rng.uniform(0.0, 1.0, n)
    ts = rng.uniform(-50.0, 50.0, n)
    ts[: n // 100] = 0.0  # make sure the kink itself is hit
    worst = 0.0
    for lam, t in zip(lams, ts):
        a = leaky_relu(lam, t)
        b = 0.5 * ((1.0 - 2.0 * lam) * abs(t) + t)
        scale = max(abs(a), abs(b), abs(t))
        if scale > 0:
            worst = max(worst, abs(a - b) / scale)
    return _result(
        "leaky_relu_equivalence", worst <= rtol, f"max relative error {worst:.3e} over {n} draws"
    )


def check_margin_loss_affine_in_y(seed=1, n=10_000, tol=1e-12):
    """The loss is affine in y with slope -t/2, so gap averages pass through it."""
    rng = seeded_rng(seed)
    worst = 0.0
    for _ in range(n):
        delta = rng.uniform(0.0, 1.0)
        t = rng.uniform(-5.0, 5.0)
        y1, y2 = rng.uniform(-3.0, 3.0, 2)
        a, b = rng.uniform(-2.0, 2.0, 2)
        lhs = leaky_margin_loss(delta, t, a * y1 + b * y2)
        rhs = (
            a * leaky_margin_loss(delta, t, y1)
            + b * leaky_margin_loss(delta, t, y2)
            + (1.0 - a - b) * 0.5 * delta * abs(t)
        )
        worst = max(worst, abs(lhs - rhs))
        slope = leaky_margin_loss(delta, t, y2) - leaky_margin_loss(delta, t, y1)
        worst = max(worst, abs(slope - (-t / 2.0) * (y2 - y1)))
    return _result(
        "margin_loss_affine_in_y", worst <= tol, f"max identity error {worst:.3e} over {n} draws"
    )


def _random_gap_params(rng, v_mode, d_max=8, k_max=6):
    """arm_gap_loss keyword arguments for a random instance, and the reward cap."""
    d = int(rng.integers(2, d_max + 1))
    k = int(rng.integers(2, k_max + 1))
    columns = np.column_stack([sample_ball(rng, d) for _ in range(k)])
    cap = rng.uniform(0.5, 2.0)
    rewards = rng.uniform(0.0, cap, k).tolist()
    alpha = int(rng.integers(k))
    if v_mode == "zero":
        v = np.zeros(d)
    elif v_mode == "unit":
        v = random_unit(rng, d)
    else:
        v = random_unit(rng, d) * rng.uniform(0.05, 1.5)
    kw = dict(
        X=columns,
        v=v,
        rewards=rewards,
        alpha=alpha,
        delta=rng.uniform(0.05, 1.0) * cap,
        rho=rng.uniform(0.02, 0.5),
        lambda_cap=rng.uniform(0.5, 40.0),
    )
    return kw, cap


def _reweighted_instance(rng):
    d = int(rng.integers(2, 9))
    x = sample_ball(rng, d)
    y = 1 if rng.random() < 0.5 else -1
    w_ref = sample_ball(rng, d)
    tau = rng.uniform(0.01, 0.3)
    delta_tilde = rng.uniform(0.05, 0.95)
    return d, x, y, w_ref, tau, delta_tilde


def check_subgradient_inequality(seed=2, n=10_000, tol=1e-9):
    """f(u) >= f(w) + g(w).(u - w) - tol for every implemented loss."""
    rng = seeded_rng(seed)
    worst = 0.0
    for i in range(n):
        d, x, y, w_ref, tau, delta_tilde = _reweighted_instance(rng)
        w = sample_ball(rng, d)
        u = sample_ball(rng, d)
        t_ref = float(w_ref @ x)
        fw, coef = reweighted_margin_loss(float(w @ x), t_ref, y, tau, delta_tilde)
        fu, _ = reweighted_margin_loss(float(u @ x), t_ref, y, tau, delta_tilde)
        worst = max(worst, fw + float((coef * x) @ (u - w)) - fu)
        v_mode = "zero" if i % 2 == 0 else "any"
        kw, _ = _random_gap_params(rng, v_mode)
        dd = kw["X"].shape[0]
        w2, u2 = sample_ball(rng, dd), sample_ball(rng, dd)
        gw = arm_gap_loss(w2, **kw)
        gu = arm_gap_loss(u2, **kw)
        worst = max(worst, gw.value + float(gw.subgrad @ (u2 - w2)) - gu.value)
    return _result(
        "subgradient_inequality", worst <= tol, f"max violation {worst:.3e} over {n} pairs"
    )


def check_midpoint_convexity(seed=3, n=10_000, tol=1e-9):
    """f((w+u)/2) <= (f(w)+f(u))/2 + tol for every implemented loss."""
    rng = seeded_rng(seed)
    worst = 0.0
    for i in range(n):
        d, x, y, w_ref, tau, delta_tilde = _reweighted_instance(rng)
        w = sample_ball(rng, d)
        u = sample_ball(rng, d)
        t_ref = float(w_ref @ x)
        mid, _ = reweighted_margin_loss(float((w + u) / 2.0 @ x), t_ref, y, tau, delta_tilde)
        fw, _ = reweighted_margin_loss(float(w @ x), t_ref, y, tau, delta_tilde)
        fu, _ = reweighted_margin_loss(float(u @ x), t_ref, y, tau, delta_tilde)
        avg = (fw + fu) / 2.0
        worst = max(worst, mid - avg)
        v_mode = "zero" if i % 2 == 0 else "any"
        kw, _ = _random_gap_params(rng, v_mode)
        dd = kw["X"].shape[0]
        w2, u2 = sample_ball(rng, dd), sample_ball(rng, dd)
        mid2 = arm_gap_loss((w2 + u2) / 2.0, **kw).value
        avg2 = (arm_gap_loss(w2, **kw).value + arm_gap_loss(u2, **kw).value) / 2.0
        worst = max(worst, mid2 - avg2)
    return _result(
        "midpoint_convexity", worst <= tol, f"max violation {worst:.3e} over {n} pairs"
    )


def check_gap_loss_lipschitz(seed=4, n=10_000, tol=1e-9):
    """|f(w1) - f(w2)| <= 2*cap*k*max(lambda_cap, 1/rho) * ||w1 - w2||.

    The constant is stated for reference vectors that are zero or unit norm
    (the raw |v . z| denominator scales like ||v||), so instances draw v from
    exactly that set.
    """
    rng = seeded_rng(seed)
    worst = 0.0
    for i in range(n):
        v_mode = "zero" if i % 2 == 0 else "unit"
        kw, cap = _random_gap_params(rng, v_mode)
        d, k = kw["X"].shape
        bound = 2.0 * cap * k * max(kw["lambda_cap"], 1.0 / kw["rho"])
        w1, w2 = sample_ball(rng, d), sample_ball(rng, d)
        gap = abs(arm_gap_loss(w1, **kw).value - arm_gap_loss(w2, **kw).value)
        worst = max(worst, gap - bound * float(np.linalg.norm(w1 - w2)))
    return _result(
        "gap_loss_lipschitz", worst <= tol, f"max violation {worst:.3e} over {n} pairs"
    )


def check_shift_sign_preservation(seed=5, n=10_000):
    """Pushing differences rho = gamma/2 along any reference vector cannot
    flip their sign under the hidden target when gaps are at least gamma."""
    rng = seeded_rng(seed)
    bad = 0
    for _ in range(n):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        gamma = rng.uniform(0.05, 2.0 / (k - 1))
        target = HiddenTarget(w_star=random_unit(rng, d), gamma=gamma)
        context = gen_context(target, k, rng)
        alpha = int(rng.integers(k))
        rho = gamma / 2.0
        v = random_unit(rng, d) * rng.uniform(0.05, 2.0)
        vhat = v / np.linalg.norm(v)
        diffs = context[:, [alpha]] - context
        for j in range(k):
            if j == alpha:
                continue
            diff = diffs[:, j]
            z = diff + rho * sign_of(float(diff @ v)) * vhat
            if sign_of(float(target.w_star @ z)) != sign_of(float(target.w_star @ diff)):
                bad += 1
    return _result(
        "shift_sign_preservation", bad == 0, f"{bad} sign flips over {n} contexts"
    )


def check_target_negative_loss(seed=6, n=10_000, tol=1e-12):
    """Exact two-outcome expectation of the shrunken-margin loss at the target
    is at most -(epsilon/2)|w_star . x|."""
    rng = seeded_rng(seed)
    worst = -np.inf
    for _ in range(n):
        d = int(rng.integers(2, 9))
        eta = rng.uniform(0.0, 0.49)
        gamma = rng.uniform(0.05, 1.0)
        target = HiddenTarget(w_star=random_unit(rng, d), eta=eta, gamma=gamma)
        x = sample_ball(rng, d)
        s = float(target.w_star @ x)
        eta_t = rng.uniform(0.0, eta)
        epsilon = rng.uniform(1e-6, (1.0 - 2.0 * eta) / 2.0)
        delta_tilde = 1.0 - 2.0 * eta - epsilon
        clean = sign_of(s)
        expected = (1.0 - eta_t) * leaky_margin_loss(delta_tilde, s, clean) + eta_t * (
            leaky_margin_loss(delta_tilde, s, -clean)
        )
        worst = max(worst, expected - (-(epsilon / 2.0) * abs(s)))
    return _result(
        "target_negative_loss", worst <= tol, f"max excess {worst:.3e} over {n} instances"
    )


def check_reweighted_subgrad_norm(seed=7, n=10_000, tol=1e-12):
    """Subgradient norm stays within (delta_tilde+1)/(2*tau) * ||x||."""
    rng = seeded_rng(seed)
    worst = 0.0
    for _ in range(n):
        d, x, y, w_ref, tau, delta_tilde = _reweighted_instance(rng)
        w = sample_ball(rng, d)
        _, coef = reweighted_margin_loss(float(w @ x), float(w_ref @ x), y, tau, delta_tilde)
        bound = (delta_tilde + 1.0) / (2.0 * tau) * float(np.linalg.norm(x))
        worst = max(worst, float(np.linalg.norm(coef * x)) - bound)
    return _result(
        "reweighted_subgrad_norm", worst <= tol, f"max excess {worst:.3e} over {n} draws"
    )


def check_tau_guard():
    """Nonpositive tau must be rejected."""
    try:
        reweighted_margin_loss(1.0, 1.0, 1, 0.0, 0.4)
    except ValueError:
        return _result("tau_guard", True, "tau=0 rejected with ValueError")
    return _result("tau_guard", False, "tau=0 was accepted")


def check_ogd_feasibility(seed=8, n_runs=50, t_steps=200):
    """Iterates stay inside the unit ball under arbitrary subgradient
    sequences, from starts both inside and outside it."""
    rng = seeded_rng(seed)
    worst = 0.0
    for _ in range(n_runs):
        d = int(rng.integers(1, 9))
        w = random_unit(rng, d) * rng.uniform(0.2, 3.0)
        step = rng.uniform(0.001, 1.0)
        for _ in range(t_steps):
            w = ogd_update(w, rng.standard_normal(d) * rng.uniform(0.0, 5.0), step)
            worst = max(worst, float(np.linalg.norm(w)) - 1.0)
    return _result(
        "ogd_feasibility", worst <= 1e-12, f"max radius excess {worst:.3e}"
    )


def ogd_regret_curve(horizons=(1_000, 10_000, 100_000), d=3):
    """Cumulative regret of projected gradient descent on the fixed convex
    sequence f(w) = |w . e1 - 0.5| over the unit ball (G = 1, D = 2).

    The best fixed point has zero loss, so regret equals cumulative loss.
    """
    regrets = []
    for t_horizon in horizons:
        step = step_size(1.0, t_horizon)
        w = np.zeros(d)
        w[0] = 1.0
        total = 0.0
        grad = np.zeros(d)
        for _ in range(t_horizon):
            t = w[0] - 0.5
            total += abs(t)
            grad[0] = 0.0 if t == 0 else math.copysign(1.0, t)
            w = ogd_update(w, grad, step)
        regrets.append(total)
    return list(horizons), regrets


def check_ogd_regret(horizons=(1_000, 10_000, 100_000), slope_limit=0.6):
    """Regret at most 1.5*G*D*sqrt(T) with a log-log growth slope <= 0.6.

    The tighter constant 1/3 is recorded in the detail but not asserted.
    """
    ts, regrets = ogd_regret_curve(horizons)
    constants = [r / (2.0 * math.sqrt(t)) for t, r in zip(ts, regrets)]
    within = all(c <= 1.5 for c in constants)
    slope = float(np.polyfit(np.log(ts), np.log(regrets), 1)[0])
    passed = within and slope <= slope_limit
    return _result(
        "ogd_regret",
        passed,
        f"slope {slope:.3f}, regret/(GD*sqrt(T)) = "
        + ", ".join(f"{c:.3f}" for c in constants)
        + " (tight 1/3 constant "
        + ("held" if all(c <= 1.0 / 3.0 for c in constants) else "not held")
        + ")",
    )


def check_debiasing(seed=9, n=1_000, tol=1e-9, fake_fn=fake_rewards, d_max=8, k_max=6):
    """Enumerating the explore arm reproduces the true-reward loss exactly.

    For each instance: mean over beta of the loss built from
    fake_fn(k, cap, beta, r[beta]) must equal the loss built from r, in value
    and subgradient; folding in the coin (q * scaled mean + (1-q) * 0) must
    agree as well.
    """
    rng = seeded_rng(seed)
    worst = 0.0
    for i in range(n):
        v_mode = ("zero", "unit", "any")[i % 3]
        kw, cap = _random_gap_params(rng, v_mode, d_max=d_max, k_max=k_max)
        d, k = kw["X"].shape
        w = sample_ball(rng, d)
        direct = arm_gap_loss(w, **kw)
        value_sum = 0.0
        grad_sum = np.zeros(d)
        for beta in range(k):
            surrogate = fake_fn(k, cap, beta, kw["rewards"][beta])
            evaluated = arm_gap_loss(w, **dict(kw, rewards=surrogate))
            value_sum += evaluated.value
            grad_sum += evaluated.subgrad
        mean_value = value_sum / k
        mean_grad = grad_sum / k
        worst = max(worst, abs(mean_value - direct.value))
        worst = max(worst, float(np.max(np.abs(mean_grad - direct.subgrad))))
        q = rng.uniform(0.05, 1.0)
        coin_value = q * (mean_value / q)
        worst = max(worst, abs(coin_value - direct.value))
    return _result(
        "debiasing_enumeration", worst <= tol, f"max deviation {worst:.3e} over {n} instances"
    )


def check_fake_gap_identity(seed=10, n=1_000, tol=1e-12):
    """Averaged fake-reward gaps equal the true gaps arm by arm."""
    rng = seeded_rng(seed)
    worst = 0.0
    for _ in range(n):
        k = int(rng.integers(2, 7))
        cap = rng.uniform(0.5, 2.0)
        rewards = rng.uniform(0.0, cap, k)
        alpha = int(rng.integers(k))
        gap_sum = np.zeros(k)
        for beta in range(k):
            fake = np.array(fake_rewards(k, cap, beta, rewards[beta]))
            gap_sum += fake[alpha] - fake
        worst = max(
            worst, float(np.max(np.abs(gap_sum / k - (rewards[alpha] - rewards))))
        )
    return _result(
        "fake_gap_identity", worst <= tol, f"max deviation {worst:.3e} over {n} instances"
    )


def check_exploration_frequency(seed=11, n_rounds=10_000):
    """Empirical HEADS rate within 3 sigma of q."""
    rng = seeded_rng(seed)
    config = BanditConfig(d=4, k=3, t_horizon=n_rounds, gamma=0.2, delta=0.5, reward_cap=1.0)
    target = HiddenTarget(w_star=random_unit(rng, config.d), gamma=config.gamma)
    learner = BanditLearner(config, seeded_rng(seed + 1))
    explored = 0
    for _ in range(n_rounds):
        context = gen_context(target, config.k, rng)
        rewards = rng.uniform(0.0, config.reward_cap, config.k)
        feedback = learner.play_round(context, lambda arm: rewards[arm])
        explored += feedback.explored
    rate = explored / n_rounds
    sigma = math.sqrt(config.q * (1.0 - config.q) / n_rounds)
    return _result(
        "exploration_frequency",
        abs(rate - config.q) <= 3.0 * sigma,
        f"rate {rate:.4f} vs q {config.q:.4f} (3 sigma = {3 * sigma:.4f})",
    )


def check_argmax_scale_invariance(seed=12, n=2_000):
    """select_action is invariant to positive rescaling of the weights."""
    rng = seeded_rng(seed)
    bad = 0
    for _ in range(n):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        context = np.column_stack([sample_ball(rng, d) for _ in range(k)])
        w = random_unit(rng, d)
        base = select_action(w, w.dot(context).tolist(), rng)[0]
        for scale in (1e-3, 7.0, 1e3):
            scaled = scale * w
            if select_action(scaled, scaled.dot(context).tolist(), rng)[0] != base:
                bad += 1
    return _result("argmax_scale_invariance", bad == 0, f"{bad} mismatches over {n} draws")


def run_all(seed=0, quick=False):
    """Run the full oracle suite; returns (results, all_passed)."""
    scale = 10 if quick else 1
    results = [
        check_leaky_relu_equivalence(seed, n=100_000 // scale),
        check_margin_loss_affine_in_y(seed + 1, n=10_000 // scale),
        check_subgradient_inequality(seed + 2, n=10_000 // scale),
        check_midpoint_convexity(seed + 3, n=10_000 // scale),
        check_gap_loss_lipschitz(seed + 4, n=10_000 // scale),
        check_shift_sign_preservation(seed + 5, n=10_000 // scale),
        check_target_negative_loss(seed + 6, n=10_000 // scale),
        check_reweighted_subgrad_norm(seed + 7, n=10_000 // scale),
        check_tau_guard(),
        check_ogd_feasibility(seed + 8),
        check_ogd_regret(horizons=(100, 1_000, 10_000) if quick else (1_000, 10_000, 100_000)),
        check_debiasing(seed + 9, n=1_000 // scale),
        check_fake_gap_identity(seed + 10, n=1_000 // scale),
        check_exploration_frequency(seed + 11, n_rounds=10_000 // scale),
        check_argmax_scale_invariance(seed + 12, n=2_000 // scale),
    ]
    return results, all(r.passed for r in results)
