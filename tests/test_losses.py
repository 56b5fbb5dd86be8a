import math

import numpy as np
import pytest

from massart_online import learner_bandit
from massart_online.core import BanditConfig, seeded_rng
from massart_online.harness import run_bandit_experiment
from massart_online.losses import (
    arm_gap_loss,
    leaky_margin_loss,
    leaky_margin_subgrad,
    leaky_relu,
    reweighted_margin_loss,
    sign_of,
)
from massart_online.oracles import (
    check_leaky_relu_equivalence,
    check_margin_loss_affine_in_y,
    check_midpoint_convexity,
    check_reweighted_subgrad_norm,
    check_shift_sign_preservation,
    check_subgradient_inequality,
    check_target_negative_loss,
)


@pytest.mark.parametrize("t,expected", [(3.2, 1), (0.0, 1), (-1e-9, -1)])
def test_sign_of_convention(t, expected):
    assert sign_of(t) == expected


@pytest.mark.parametrize(
    "lam,t,expected",
    [(0.25, 2.0, 1.5), (0.7, 0.0, 0.0), (0.0, 0.0, 0.0), (0.25, -2.0, -0.5)],
)
def test_leaky_relu_values(lam, t, expected):
    assert leaky_relu(lam, t) == pytest.approx(expected, abs=1e-15)


def test_leaky_relu_closed_form_small_sample():
    assert check_leaky_relu_equivalence(seed=5, n=2000).passed


def test_leaky_relu_matches_margin_loss_for_binary_labels():
    rng = seeded_rng(0)
    for _ in range(500):
        delta = rng.uniform(0.0, 1.0)
        t = rng.uniform(-4.0, 4.0)
        y = 1 if rng.random() < 0.5 else -1
        assert leaky_margin_loss(delta, t, y) == pytest.approx(
            leaky_relu((1.0 - delta) / 2.0, -t * y), abs=1e-12
        )


@pytest.mark.parametrize(
    "delta,t,y,expected",
    [(0.5, 2.0, 1, -0.5), (0.3, 0.0, 1, 0.0), (0.3, 0.0, -1, 0.0), (0.5, 2.0, -1, 1.5)],
)
def test_margin_loss_values(delta, t, y, expected):
    assert leaky_margin_loss(delta, t, y) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "delta,t,y,expected",
    [(0.5, 2.0, 1, -0.25), (0.5, 0.0, 1, -0.5), (0.5, -2.0, -1, 0.25)],
)
def test_margin_subgrad_values(delta, t, y, expected):
    assert leaky_margin_subgrad(delta, t, y) == pytest.approx(expected, abs=1e-15)


def test_margin_loss_affine_in_y_small_sample():
    assert check_margin_loss_affine_in_y(seed=6, n=500).passed


def test_margin_subgrad_matches_finite_differences_off_kink():
    # central differences, valid wherever t is bounded away from 0
    rng = seeded_rng(1)
    h = 1e-6
    for _ in range(300):
        delta = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.1, 4.0) * (1 if rng.random() < 0.5 else -1)
        y = rng.uniform(-2.0, 2.0)
        fd = (leaky_margin_loss(delta, t + h, y) - leaky_margin_loss(delta, t - h, y)) / (2 * h)
        assert leaky_margin_subgrad(delta, t, y) == pytest.approx(fd, abs=1e-8)


def test_reweighted_loss_hand_example():
    w = np.array([1.0, 0.0])
    x = np.array([0.5, 0.0])
    t = float(w @ x)
    value, coef = reweighted_margin_loss(t, t, 1, tau=0.1, delta_tilde=0.4)
    assert value == pytest.approx(-0.3)
    assert coef * x == pytest.approx(np.array([-0.3, 0.0]))


def test_reweighted_loss_zero_score_is_zero():
    w = np.array([0.0, 1.0])
    x = np.array([1.0, 0.0])
    t = float(w @ x)
    value, _ = reweighted_margin_loss(t, t, -1, tau=0.1, delta_tilde=0.4)
    assert value == 0.0


def test_reweighted_loss_tau_clamp_fires():
    w = np.array([0.0, 1.0])
    w_ref = np.array([0.0, 1.0])
    x = np.array([1.0, 0.0])  # w_ref . x == 0, denominator falls back to tau
    t = float(np.array([1.0, 0.0]) @ x)
    value, _ = reweighted_margin_loss(t, float(w_ref @ x), 1, tau=0.1, delta_tilde=0.4)
    # value = 0.5*(0.4*1 - 1)/0.1
    assert value == pytest.approx(-3.0)


def _vector_form(w, x, y, w_ref, tau, delta_tilde):
    # the loss as it was computed from the vectors w and w_ref, each score an
    # np.dot product of its own
    denom = max(abs(float(np.dot(w_ref, x))), tau)
    t = float(np.dot(w, x))
    coef = leaky_margin_subgrad(delta_tilde, t, y) / denom
    return leaky_margin_loss(delta_tilde, t, y) / denom, coef * x


def test_reweighted_loss_matches_vector_form_bytes():
    # the score form, fed w.dot(x) as the learner takes it, gives the value
    # and, as coef * x, the subgradient bytes of the vector form, at t = 0
    # and under the tau floor too
    rng = seeded_rng(9)
    for i in range(3000):
        d = int(rng.integers(1, 13))
        w, w_ref, x = rng.uniform(-1.0, 1.0, (3, d))
        if i % 3 == 1:
            w[0], x[1:] = 0.0, 0.0  # t = 0
        if i % 3 == 2:
            w_ref *= 1e-4  # |t_ref| <= 12e-4 < tau
        y = 1 if rng.random() < 0.5 else -1
        tau, delta_tilde = rng.uniform(0.01, 0.3), rng.uniform(0.05, 0.95)
        t, t_ref = float(w.dot(x)), float(w_ref.dot(x))
        assert t == 0.0 or i % 3 != 1
        assert abs(t_ref) < tau or i % 3 != 2
        got, coef = reweighted_margin_loss(t, t_ref, y, tau, delta_tilde)
        value, subgrad = _vector_form(w, x, y, w_ref, tau, delta_tilde)
        assert type(got) is float and type(coef) is float
        assert got.hex() == value.hex()
        assert (coef * x).tobytes() == subgrad.tobytes()


def test_reweighted_loss_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        reweighted_margin_loss(2.0, 2.0, 1, tau=0.0, delta_tilde=0.4)
    with pytest.raises(ValueError):
        reweighted_margin_loss(2.0, 2.0, 1, tau=-0.1, delta_tilde=0.4)


def test_arm_gap_loss_zero_branch_hand_example():
    # columns chosen so x_1 - x_2 = (1, 0)
    kw = dict(
        X=np.array([[0.5, -0.5], [0.0, 0.0]]),
        v=np.zeros(2),
        rewards=[0.7, 0.2],
        alpha=0,
        delta=0.5,
        rho=0.1,
        lambda_cap=1.0,
    )
    for w1 in (1.0, -0.4, 0.0):
        out = arm_gap_loss(np.array([w1, 0.3]), **kw)
        assert out.value == pytest.approx(-0.5 * w1)
    assert arm_gap_loss(np.zeros(2), **kw).subgrad == pytest.approx(np.array([-0.5, 0.0]))


def test_arm_gap_loss_zero_branch_equal_rewards_vanishes():
    rng = seeded_rng(2)
    kw = dict(
        X=rng.uniform(-0.5, 0.5, (3, 4)),
        v=np.zeros(3),
        rewards=[0.3] * 4,
        alpha=2,
        delta=0.5,
        rho=0.1,
        lambda_cap=2.0,
    )
    for _ in range(10):
        w = rng.standard_normal(3)
        assert arm_gap_loss(w, **kw).value == 0.0


def test_arm_gap_loss_underflowing_reference_takes_zero_branch():
    # v is nonzero, but its norm underflows to 0 and cannot divide rho
    kw = dict(
        X=np.array([[0.5, -0.5], [0.0, 0.0]]),
        rewards=[0.7, 0.2],
        alpha=0,
        delta=0.5,
        rho=0.1,
        lambda_cap=1.0,
    )
    w = np.array([1.0, 0.3])
    tiny = arm_gap_loss(w, v=np.full(2, 1e-170), **kw)
    zero = arm_gap_loss(w, v=np.zeros(2), **kw)
    assert tiny.value == zero.value == pytest.approx(-0.5)


def _left_to_right(values):
    # arm_gap_loss sums over the other arms left to right, from 0.0
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _arm_gap_loss_array_form(w, kw):
    # the score arithmetic of arm_gap_loss on whole arrays, for a nonzero v:
    # the scores w @ X and v @ X, ||v|| and w . v stand in for the rows z_j;
    # both must return the same bytes. Also returns the signs s_j and the
    # denominators |v . z_j| of the other arms.
    X, a, v = kw["X"], kw["alpha"], kw["v"]
    mask = np.arange(X.shape[1]) != a
    t = w @ X
    u = t if v is w else v @ X
    vv = float(v.dot(v))
    vnorm = math.sqrt(vv)
    scale = kw["rho"] / vnorm
    rewards = np.array(kw["rewards"])
    y = (rewards[a] - rewards)[mask]
    gap = (u[a] - u)[mask]
    sgn = np.where(gap >= 0, 1.0, -1.0)
    tz = (t[a] - t)[mask] + sgn * (scale * (vv if v is w else float(w.dot(v))))
    den = np.abs(gap) + kw["rho"] * vnorm
    vals = 0.5 * (kw["delta"] * np.abs(tz) - y * tz) / den
    coef = 0.5 * (kw["delta"] * np.sign(tz) - y) / den
    a_coef = np.zeros(X.shape[1])
    a_coef[mask] = -coef
    a_coef[a] = _left_to_right(coef)
    subgrad = X @ a_coef + (scale * _left_to_right(coef * sgn)) * v
    return _left_to_right(vals), subgrad, sgn, den


def _arm_gap_loss_shifted_rows(w, kw):
    # the docstring's definition: build every row z_j and sum the halfspace
    # loss over them, or the linear form when ||v|| is 0
    X, a, v = kw["X"], kw["alpha"], kw["v"]
    vnorm = float(np.linalg.norm(v))
    value, subgrad = 0.0, np.zeros(X.shape[0])
    for j in range(X.shape[1]):
        if j == a:
            continue
        diff = X[:, a] - X[:, j]
        y = kw["rewards"][a] - kw["rewards"][j]
        if vnorm == 0:
            value += -kw["lambda_cap"] * float(w @ diff) * y
            subgrad += -kw["lambda_cap"] * y * diff
            continue
        z = diff + kw["rho"] * sign_of(float(diff @ v)) * v / vnorm
        den = abs(float(v @ z))
        value += leaky_margin_loss(kw["delta"], float(w @ z), y) / den
        subgrad += leaky_margin_subgrad(kw["delta"], float(w @ z), y) / den * z
    return value, subgrad


@pytest.mark.parametrize("d,k", [(10, 3), (10, 2), (3, 6), (5, 12)])
def test_arm_gap_loss_matches_array_form_bytes(d, k):
    rng = seeded_rng(40)
    for _ in range(200):
        kw = dict(
            X=rng.uniform(-0.5, 0.5, (d, k)),
            v=rng.standard_normal(d),
            rewards=rng.uniform(0.0, 2.0, k).tolist(),
            alpha=int(rng.integers(k)),
            delta=0.5,
            rho=0.1,
            lambda_cap=1.0,
        )
        # w = 0 puts every score on the kink, where np.sign(0) = 0
        w = rng.standard_normal(d) if rng.random() < 0.8 else np.zeros(d)
        value, subgrad, _, _ = _arm_gap_loss_array_form(w, kw)
        out = arm_gap_loss(w, **kw)
        assert out.value == value and out.subgrad.tobytes() == subgrad.tobytes()


@pytest.mark.parametrize("k", [2, 3, 9])
def test_arm_gap_loss_iterate_as_reference_matches_array_form_bytes(k):
    # the learner passes its iterate as v, and arm_gap_loss then takes one
    # product for both the scores and the denominators
    rng = seeded_rng(41)
    for _ in range(200):
        w = rng.standard_normal(10)
        kw = dict(
            X=rng.uniform(-0.5, 0.5, (10, k)), v=w, rewards=rng.uniform(0.0, 2.0, k).tolist(),
            alpha=int(rng.integers(k)), delta=0.5, rho=0.1, lambda_cap=1.0,
        )
        value, subgrad, _, _ = _arm_gap_loss_array_form(w, kw)
        out = arm_gap_loss(w, **kw)
        assert out.value == value and out.subgrad.tobytes() == subgrad.tobytes()


@pytest.mark.parametrize("d", range(1, 13))
def test_arm_gap_loss_matches_shifted_rows(d):
    # the score form against the rows z_j it never builds, for every k from
    # 2 to 12 and reference vectors that are zero, underflow to norm 0, are
    # unit, arbitrary, or the iterate itself; w = 0 too
    rng = seeded_rng(42)
    for k in range(2, 13):
        for v_mode in ("zero", "tiny", "unit", "any", "is w"):
            for w_zero in (False, True):
                w = np.zeros(d) if w_zero else rng.uniform(-1.0, 1.0, d)
                v = {
                    "zero": np.zeros(d),
                    "tiny": np.full(d, 1e-170),
                    "unit": rng.standard_normal(d),
                    "any": rng.uniform(-2.0, 2.0, d),
                    "is w": w,
                }[v_mode]
                if v_mode == "unit":
                    v = v / np.linalg.norm(v)
                kw = dict(
                    X=rng.uniform(-0.5, 0.5, (d, k)), v=v,
                    rewards=rng.uniform(0.0, 2.0, k).tolist(),
                    alpha=int(rng.integers(k)), delta=rng.uniform(0.05, 1.0),
                    rho=rng.uniform(0.02, 0.5), lambda_cap=rng.uniform(0.5, 40.0),
                )
                value, subgrad = _arm_gap_loss_shifted_rows(w, kw)
                out = arm_gap_loss(w, **kw)
                assert out.value == pytest.approx(value, rel=1e-12, abs=0.0)
                assert np.max(np.abs(out.subgrad - subgrad)) <= 1e-12


def test_arm_gap_loss_learner_call_has_plus_signs_and_floored_denominators(monkeypatch):
    # the learner passes its iterate as v and its greedy arm as alpha, whose
    # score is the largest entry of the same product w @ X; so every gap is
    # >= 0, every sign is +1 and every denominator is at least rho*||w||
    calls = []

    def checked(w, X, v, rewards, alpha, delta, rho, lambda_cap, scores=None):
        kw = dict(X=X, v=v, rewards=rewards, alpha=alpha, delta=delta, rho=rho,
                  lambda_cap=lambda_cap)
        out = arm_gap_loss(w, **kw, scores=scores)
        scores = (w @ X).tolist()
        assert v is w and alpha == scores.index(max(scores))
        assert type(rewards) is list
        value, subgrad, sgn, den = _arm_gap_loss_array_form(w, kw)
        assert np.all(sgn == 1.0)
        assert np.all(den >= rho * math.sqrt(float(w.dot(w))))
        assert out.value == value and out.subgrad.tobytes() == subgrad.tobytes()
        calls.append(alpha)
        return out

    monkeypatch.setattr(learner_bandit, "arm_gap_loss", checked)
    for environment, k in (("monotone_k", 3), ("sorted_k", 5)):
        config = BanditConfig(
            d=6, k=k, t_horizon=600, gamma=0.1, delta=0.2, reward_cap=1.0, seed=3,
            environment=environment,
        )
        run_bandit_experiment(config)
    assert len(calls) > 300


@pytest.mark.parametrize("d", range(1, 41))
def test_dot_has_the_bytes_of_matmul_on_round_shapes(d):
    # a bandit round takes w.dot(context) and the loss X.dot(a), where the
    # array forms and earlier pins used w @ X and X @ a: both entries must
    # reach the same kernel, for fresh (d, k) arrays and for the (d, k) views
    # of an (n, d, k) block that the environments serve
    rng = seeded_rng(70 + d)
    for k in range(2, 13):
        block = rng.uniform(-1.0, 1.0, (4, d, k))
        for X in (rng.uniform(-1.0, 1.0, (d, k)), *block):
            w = rng.standard_normal(d)
            a = np.array(rng.standard_normal(k).tolist())
            assert w.dot(X).tobytes() == (w @ X).tobytes()
            assert X.dot(a).tobytes() == (X @ a).tobytes()


@pytest.mark.parametrize("k", [2, 3, 5, 12])
def test_arm_gap_loss_given_scores_matches_its_own_bytes(k):
    # the learner hands arm_gap_loss the scores of its round's one product;
    # the loss must return the bytes it gets when it takes them itself, with
    # the iterate as v, another v, and a v of norm 0
    rng = seeded_rng(80 + k)
    for trial in range(300):
        d = int(rng.integers(1, 21))
        w = rng.standard_normal(d)
        v = (w, rng.standard_normal(d), np.zeros(d))[trial % 3]
        kw = dict(
            X=rng.uniform(-0.5, 0.5, (d, k)), v=v, rewards=rng.uniform(0.0, 2.0, k).tolist(),
            alpha=int(rng.integers(k)), delta=0.5, rho=0.1, lambda_cap=1.0,
        )
        given = arm_gap_loss(w, **kw, scores=w.dot(kw["X"]).tolist())
        taken = arm_gap_loss(w, **kw)
        assert given.value.hex() == taken.value.hex()
        assert given.subgrad.tobytes() == taken.subgrad.tobytes()


def test_arm_gap_loss_main_branch_hand_example():
    # x_1 - x_2 = (0.5, 0); v = e1, rho = 0.1 -> z_2 = (0.6, 0)
    out = arm_gap_loss(
        np.array([1.0, 0.0]),
        X=np.array([[0.25, -0.25], [0.0, 0.0]]),
        v=np.array([1.0, 0.0]),
        rewards=[1.0, 0.0],
        alpha=0,
        delta=0.5,
        rho=0.1,
        lambda_cap=1.0,
    )
    assert out.value == pytest.approx(-0.25)
    assert out.subgrad == pytest.approx(np.array([-0.25, 0.0]))


def test_arm_gap_loss_rejects_bad_params():
    X, w, r = np.zeros((2, 2)), np.zeros(2), [0.0, 0.0]
    with pytest.raises(ValueError):
        arm_gap_loss(w, X, w, r, alpha=2, delta=0.5, rho=0.1, lambda_cap=1.0)
    with pytest.raises(ValueError):
        arm_gap_loss(w, X, w, r, alpha=0, delta=0.5, rho=0.0, lambda_cap=1.0)
    with pytest.raises(ValueError):
        arm_gap_loss(w, X, w, r, alpha=0, delta=0.5, rho=0.1, lambda_cap=0.0)
    # a nonzero ||v|| whose floor rho * ||v|| underflows to 0 is
    # reweighted_margin_loss's tau <= 0
    with pytest.raises(ValueError, match="tau must be positive"):
        arm_gap_loss(
            w, X, np.array([1e-160, 0.0]), r, alpha=0, delta=0.5, rho=1e-170, lambda_cap=1.0
        )


def test_arm_gap_loss_denominator_never_vanishes():
    # v . z_j = sign(v . diff_j) * (|v . diff_j| + rho * ||v||), even when
    # v . diff_j == 0 under the sign_of(0) = +1 convention
    w = np.array([0.3, 0.7])
    kw = dict(
        X=np.array([[0.0, 0.0], [0.4, -0.4]]),  # diffs orthogonal to v
        v=np.array([1.0, 0.0]),
        rewards=[1.0, 0.0],
        alpha=0,
        delta=0.5,
        rho=0.25,
        lambda_cap=1.0,
    )
    out = arm_gap_loss(w, **kw)
    assert np.isfinite(out.value)
    assert np.all(np.isfinite(out.subgrad))
    # the shift at a zero gap goes along +v, as in the rows z_j
    value, subgrad = _arm_gap_loss_shifted_rows(w, kw)
    assert out.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert out.subgrad == pytest.approx(subgrad, rel=0.0, abs=1e-12)


def test_subgradient_inequality_small_sample():
    assert check_subgradient_inequality(seed=7, n=800).passed


def test_midpoint_convexity_small_sample():
    assert check_midpoint_convexity(seed=8, n=800).passed


def test_shift_sign_preservation_small_sample():
    assert check_shift_sign_preservation(seed=9, n=800).passed


def test_target_negative_loss_small_sample():
    assert check_target_negative_loss(seed=10, n=800).passed


def test_reweighted_subgrad_norm_small_sample():
    assert check_reweighted_subgrad_norm(seed=11, n=800).passed
