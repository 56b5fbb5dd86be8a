"""The halfspace learner's round written straight from its definitions, as a
check on the package apart from its bytes.

The package works on the score w . x and a float coefficient of x; this step
builds the vector subgradient, takes the norm with np.linalg.norm and
projects explicitly. The two agree to rounding, not bit for bit, so a check
against it holds on every BLAS kernel and across deliberate repins.
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
