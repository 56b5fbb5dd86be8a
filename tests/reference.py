"""The halfspace and bandit learners' rounds written straight from their
definitions, as a check on the package apart from its bytes.

The package works on scores and float coefficients; these steps build the
vector subgradients (and, for the bandit, the shifted rows z_j), take norms
with np.linalg.norm and project explicitly. The two agree to rounding, not
bit for bit, so a check against them holds on every BLAS kernel and across
deliberate repins.
"""

import numpy as np


def halfspace_step(w, x, y, tau, delta_tilde, step):
    """(mistake, loss value, next iterate) of one round from iterate w on the
    point x with label y.

    The prediction is sign(w . x), with sign(0) = +1. The loss is the leaky
    margin loss 0.5*(delta_tilde*|w . x| - y*(w . x)) divided by
    max(|w_ref . x|, tau), where the reference w_ref is w itself, held
    constant; its subgradient in w takes slope 0 for |.| at 0. The step goes
    against that subgradient and is then projected onto the unit ball.
    """
    t = float(np.dot(w, x))
    mistake = (1 if t >= 0 else -1) != y
    denom = max(abs(t), tau)
    value = 0.5 * (delta_tilde * abs(t) - y * t) / denom
    subgrad = 0.5 * (delta_tilde * np.sign(t) - y) * x / denom
    w_next = w - step * subgrad
    w_norm = np.linalg.norm(w_next)
    if w_norm > 1.0:
        w_next = w_next / w_norm
    return mistake, value, w_next


def bandit_step(w, X, played, explored, observed, config):
    """(greedy arm, loss value, next iterate) of one k-arm round from a
    nonzero iterate w on the (d, k) context X, given the arm played, whether
    the round explored and the reward observed; config gives reward_cap, q,
    delta, rho and step_size.

    The greedy arm is argmax_i w . x_i. A TAILS round has loss 0 and keeps w.
    A HEADS round builds the fake rewards r (r[played] = (k-1)*observed, and
    reward_cap - observed elsewhere), y_j = r[alpha] - r[j] and, with w as
    the reference vector, the rows

        z_j = (x_alpha - x_j) + rho * sign((x_alpha - x_j) . w) * w/||w||,

    with sign(0) = +1. Its loss is (1/q) * sum_{j != alpha} of
    0.5*(delta*|w . z_j| - y_j*(w . z_j)) / |w . z_j|, the denominator held
    constant, and the step goes against that loss's subgradient (slope 0 for
    |.| at 0) and is then projected onto the unit ball.
    """
    alpha = int(np.argmax(w @ X))
    if not explored:
        return alpha, 0.0, w
    k = X.shape[1]
    r = [config.reward_cap - observed] * k
    r[played] = (k - 1) * observed
    w_unit = w / np.linalg.norm(w)
    value, subgrad = 0.0, np.zeros_like(w)
    for j in range(k):
        if j == alpha:
            continue
        diff = X[:, alpha] - X[:, j]
        side = 1.0 if np.dot(diff, w) >= 0 else -1.0
        z = diff + config.rho * side * w_unit
        t, y = float(np.dot(w, z)), r[alpha] - r[j]
        value += 0.5 * (config.delta * abs(t) - y * t) / abs(t)
        subgrad += 0.5 * (config.delta * np.sign(t) - y) * z / abs(t)
    w_next = w - config.step_size * subgrad / config.q
    w_norm = np.linalg.norm(w_next)
    if w_norm > 1.0:
        w_next = w_next / w_norm
    return alpha, value / config.q, w_next
