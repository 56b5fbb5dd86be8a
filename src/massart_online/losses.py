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


def arm_gap_loss(w, X, v, rewards, alpha, delta, rho, lambda_cap, scores=None):
    """Convex loss over arm-score gaps around the chosen arm alpha.

    X holds the k arms as the columns of a (d, k) matrix, v is the reference
    vector and rewards the list of k floats r (the debiasing surrogate's
    entries may exceed the environment cap); y_j = r[alpha] - r[j]. scores,
    when given, is the list w.dot(X).tolist() that the caller already took;
    left out, the loss takes it itself, with the same bytes. If v has
    norm 0 (zero, or its norm underflows) the loss is the linear form
    -lambda_cap * sum_{j != alpha} (w . (x_alpha - x_j)) * y_j. Otherwise it
    is the halfspace learner's loss on the k-1 rows

        z_j = (x_alpha - x_j) + rho * sign_of((x_alpha - x_j) . v) * v/||v||,

    the sum of reweighted_margin_loss(w.z_j, |v.z_j|, y_j, rho*||v||, delta).
    The shift makes |v.z_j| >= rho*||v||, so the floor never fires; a
    rho*||v|| that underflows to 0 raises its ValueError, which the config
    magnitude bounds keep runs far from.

    No row z_j is built. With t_i = w.x_i, u_i = v.x_i, gap_j = u_alpha - u_j
    and s_j = sign_of(gap_j): w.z_j = (t_alpha - t_j) + (rho/||v||) * s_j *
    (w.v) and |v.z_j| = |gap_j| + rho*||v||; with c_j the loss's coefficient,
    the subgradient sum_j c_j z_j is X.dot(a) + (rho/||v||) * (sum_j c_j s_j) *
    v, where a[alpha] = sum_j c_j and a[j] = -c_j (the zero-norm form has
    c_j = -lambda_cap * y_j and no shift). Every sum runs left to right over
    increasing j. The learner passes its iterate as v and its round's scores,
    so the loss takes two BLAS products of its own: v.v and X.dot(a).
    """
    k = X.shape[1]
    if not 0 <= alpha < k:
        raise ValueError(f"alpha={alpha} out of range for k={k}")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if lambda_cap <= 0:
        raise ValueError("lambda_cap must be positive")
    t = w.dot(X).tolist() if scores is None else scores
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
        return LossEval(value, X.dot(np.array(a)))
    # the learner's reference vector is its iterate, and then the one product
    # w.dot(X) serves as both scores
    u = t if v is w else v.dot(X).tolist()
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
        # dj >= floor, so the loss's max(dj, floor) is dj bit for bit
        value_j, c = reweighted_margin_loss(tj, dj, yj, floor, delta)
        value += value_j
        a[j] = -c
        c_sum += c
        signed_sum += c if gap >= 0 else -c
    a[alpha] = c_sum
    return LossEval(value, X.dot(np.array(a)) + (scale * signed_sum) * v)
