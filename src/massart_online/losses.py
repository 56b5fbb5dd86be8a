"""Convex surrogate losses and their subgradients.

Everything here is piecewise linear in the weight vector, so the subgradients
are exact. Kink conventions: prediction signs use sign_of (sign_of(0) = +1),
while loss subgradients at a kink take the minimal-norm choice (slope 0 for
the |t| term).
"""

import math
from typing import NamedTuple

import numpy as np


class LossEval(NamedTuple):
    value: float
    subgrad: np.ndarray


def sign_of(t):
    """Sign with the prediction convention sign_of(0) = +1."""
    return 1 if t >= 0 else -1


def leaky_relu(lam, t):
    """(1-lam)*t for t > 0, lam*t for t < 0, and 0 at t = 0."""
    if t > 0:
        return (1.0 - lam) * t
    if t < 0:
        return lam * t
    return 0.0


def leaky_margin_loss(delta, t, y):
    """0.5*(delta*|t| - y*t).

    For labels y in {-1,+1} this equals leaky_relu with slope (1-delta)/2
    applied to -t*y; real-valued y (reward differences) pass through the same
    formula.
    """
    return 0.5 * (delta * abs(t) - y * t)


def leaky_margin_subgrad(delta, t, y):
    """d/dt of leaky_margin_loss; uses slope 0 for the |t| term at t = 0."""
    if t > 0:
        s = 1.0
    elif t < 0:
        s = -1.0
    else:
        s = 0.0
    return 0.5 * (delta * s - y)


def reweighted_margin_loss(t, t_ref, y, tau, delta_tilde):
    """Per-round loss of w on a point x, from its scores t = w.x and
    t_ref = w_ref.x: the leaky margin loss at t divided by max(|t_ref|, tau).
    Returns (value, coef), two floats.

    w_ref is the current iterate and is treated as a constant, so the
    denominator carries no gradient; the subgradient in w is coef * x, with
    norm at most (delta_tilde+1)/(2*tau) times ||x||.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    denom = max(abs(t_ref), tau)
    return (
        leaky_margin_loss(delta_tilde, t, y) / denom,
        leaky_margin_subgrad(delta_tilde, t, y) / denom,
    )


def arm_gap_loss(w, X, v, rewards, alpha, delta, rho, lambda_cap):
    """Convex loss over arm-score gaps around the chosen arm alpha.

    X holds the k arms as the columns of a (d, k) matrix and v is the
    reference vector. rewards is the list of k floats r the loss is built
    from; when the debiasing surrogate is plugged in its entries may exceed
    the environment cap. With reward gaps y_j = r[alpha] - r[j]: if v has
    norm 0 (v is zero, or so small that its norm underflows) the loss is the
    linear form -lambda_cap * sum_{j != alpha} (w . (x_alpha - x_j)) * y_j.
    Otherwise each difference is pushed distance rho away from v's decision
    boundary,

        z_j = (x_alpha - x_j) + rho * sign((x_alpha - x_j) . v) * v/||v||,

    and the loss is sum_{j != alpha} leaky_margin_loss(delta, w.z_j, y_j)
    divided by |v.z_j|, the halfspace learner's loss on the k-1 rows z_j;
    the construction makes |v.z_j| >= rho*||v|| > 0.

    No row z_j is built: the loss depends on them only through the arm
    scores t_i = w.x_i and u_i = v.x_i, ||v|| and w.v. With gap_j = u_alpha -
    u_j and s_j = sign_of(gap_j),

        w.z_j = (t_alpha - t_j) + (rho/||v||) * s_j * (w.v),
        |v.z_j| = |gap_j| + rho*||v||,

    and with c_j the leaky margin subgradient at w.z_j over |v.z_j|, the
    subgradient sum_j c_j z_j is X @ a + (rho/||v||) * (sum_j c_j s_j) * v,
    where a[alpha] = sum_j c_j and a[j] = -c_j. The zero-norm form is the
    same with c_j = -lambda_cap * y_j and no shift. Every sum runs left to
    right over increasing j. The learner passes its iterate as v, and then
    its explore round takes three BLAS products here: w @ X, v.v and X @ a.
    """
    k = X.shape[1]
    if not 0 <= alpha < k:
        raise ValueError(f"alpha={alpha} out of range for k={k}")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if lambda_cap <= 0:
        raise ValueError("lambda_cap must be positive")
    t = (w @ X).tolist()
    vv = float(v.dot(v))
    vnorm = math.sqrt(vv)
    t_alpha, r_alpha = t[alpha], rewards[alpha]
    a = [0.0] * k
    value = c_sum = 0.0
    if vnorm == 0:
        for j in range(k):
            if j != alpha:
                yj = r_alpha - rewards[j]
                # multiplied in the order of the linear form above
                value += -lambda_cap * (t_alpha - t[j]) * yj
                c = -lambda_cap * yj
                a[j] = -c
                c_sum += c
        a[alpha] = c_sum
        return LossEval(value, X @ np.array(a))
    # the learner's reference vector is its iterate, and then the one product
    # w @ X serves as both scores
    u = t if v is w else (v @ X).tolist()
    scale = rho / vnorm
    wv = vv if v is w else float(w.dot(v))
    shift, floor = scale * wv, rho * vnorm
    u_alpha, signed_sum = u[alpha], 0.0
    for j in range(k):
        if j == alpha:
            continue
        gap = u_alpha - u[j]
        tj, yj, dj = t_alpha - t[j], r_alpha - rewards[j], abs(gap) + floor
        tj = tj + shift if gap >= 0 else tj - shift
        value += leaky_margin_loss(delta, tj, yj) / dj
        c = leaky_margin_subgrad(delta, tj, yj) / dj
        a[j] = -c
        c_sum += c
        signed_sum += c if gap >= 0 else -c
    a[alpha] = c_sum
    return LossEval(value, X @ np.array(a) + (scale * signed_sum) * v)
