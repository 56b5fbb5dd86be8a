import numpy as np
import pytest

from massart_online.core import seeded_rng
from massart_online.optimizer import ogd_update, step_size
from massart_online.oracles import check_ogd_feasibility, check_ogd_regret


@pytest.mark.parametrize(
    "grad_bound,t,expected",
    [(1.0, 100, 0.2), (10.0, 4, 0.1), (2.0, 1, 1.0)],
)
def test_step_size_values(grad_bound, t, expected):
    assert step_size(grad_bound, t) == pytest.approx(expected)


@pytest.mark.parametrize("grad_bound,t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
def test_step_size_rejects_nonpositive(grad_bound, t):
    with pytest.raises(ValueError):
        step_size(grad_bound, t)


# a zero-gradient step is exactly the projection onto the unit ball


def test_project_ball_scales_outside_points():
    out = ogd_update(np.array([3.0, 4.0]), np.zeros(2), 0.5)
    assert out == pytest.approx(np.array([0.6, 0.8]))


def test_project_ball_identity_inside():
    w = np.array([0.1, -0.2])
    assert ogd_update(w, np.zeros(2), 0.5).tobytes() == w.tobytes()
    zero = np.zeros(3)
    assert ogd_update(zero, np.zeros(3), 0.5).tobytes() == zero.tobytes()


def test_project_ball_idempotent_and_closest():
    rng = seeded_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        w = rng.standard_normal(d) * 3
        p = ogd_update(w, np.zeros(d), 1.0)
        assert np.linalg.norm(p) <= 1.0 + 1e-12
        assert ogd_update(p, np.zeros(d), 1.0) == pytest.approx(p, abs=1e-15)
        # no feasible point is closer than the projection
        for _ in range(20):
            u = rng.standard_normal(d)
            u = u / max(np.linalg.norm(u), 1e-12) * rng.uniform(0, 1.0)
            assert np.linalg.norm(w - p) <= np.linalg.norm(w - u) + 1e-9


def test_ogd_update_plain_step():
    out = ogd_update(np.zeros(2), np.array([1.0, 0.0]), 0.5)
    assert out == pytest.approx(np.array([-0.5, 0.0]))


def test_ogd_update_zero_gradient_keeps_iterate():
    w = np.array([0.3, 0.4])
    out = ogd_update(w, np.zeros(2), 0.5)
    assert out == pytest.approx(w)


def test_ogd_update_projection_fires():
    out = ogd_update(np.array([1.0, 0.0]), np.array([-2.0, 0.0]), 1.0)
    assert out == pytest.approx(np.array([1.0, 0.0]))


def test_ogd_update_dimension_mismatch():
    with pytest.raises(ValueError):
        ogd_update(np.zeros(3), np.zeros(2), 0.1)


def test_feasibility_oracle():
    assert check_ogd_feasibility(seed=1, n_runs=20, t_steps=100).passed


def test_regret_oracle_small_horizons():
    result = check_ogd_regret(horizons=(100, 1_000, 10_000))
    assert result.passed, result.detail
