"""Projected online gradient descent over the unit ball with a fixed step size."""

import math

import numpy as np


def step_size(grad_bound, t_horizon):
    """Fixed step 2 / (grad_bound * sqrt(T)) for a known horizon T, where 2 is
    the unit ball's diameter."""
    if grad_bound <= 0:
        raise ValueError("grad_bound must be positive")
    if t_horizon < 1:
        raise ValueError("t_horizon must be at least 1")
    return 2.0 / (grad_bound * math.sqrt(t_horizon))


def norm(v):
    """The float np.linalg.norm(v) returns for a contiguous 1-D v, without its
    costly dispatch."""
    return math.sqrt(v.dot(v))


def float_sum(values):
    """The float np.array(values).sum() returns for a list of floats: below 8
    terms numpy adds them left to right from 0.0, as this loop does; from 8
    on it sums pairwise, so those go to numpy."""
    if len(values) >= 8:
        return float(np.array(values).sum())
    total = 0.0
    for value in values:
        total += value
    return total


def ogd_update(w, subgrad, step):
    """One projected gradient step from w along the ndarray subgrad; returns
    the new iterate, the step's point scaled back onto the unit ball when it
    lands outside."""
    if subgrad.shape != w.shape:
        raise ValueError(
            f"subgradient shape {subgrad.shape} does not match iterate shape {w.shape}"
        )
    w = w - step * subgrad
    w_norm = norm(w)
    if w_norm <= 1.0:
        return w
    return w * (1.0 / w_norm)
