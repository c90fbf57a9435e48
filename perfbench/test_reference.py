"""Tests of the benchmark's reference checker against closed forms.

Run with ``python3 -m pytest perfbench``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import (  # noqa: E402
    LqcData,
    Quadratic,
    StackedCost,
    ball_max,
    ellipsoid_boundary,
    trajectory_cost,
)


def _ball_max(C, h, r):
    return ball_max(Quadratic.of(np.atleast_2d(C)), np.atleast_1d(h), r)


@pytest.mark.parametrize("c, h, r", [
    (2.0, 0.3, 1.5), (-1.0, 5.0, 0.7), (0.0, -0.4, 2.0), (3.0, 0.0, 0.5), (-2.0, 0.0, 1.0),
])
def test_one_dimensional_maximum(c, h, r):
    # the maximum of c w^2 + 2 h w on [-r, r] sits at an end or at -h/c
    candidates = [c * r * r + 2 * h * r, c * r * r - 2 * h * r]
    if c < 0 and abs(h / c) <= r:
        candidates.append(-h * h / c)
    value, w = _ball_max([[c]], [h], r)
    assert value == pytest.approx(max(candidates), rel=1e-12, abs=1e-14)
    assert abs(w[0]) <= r * (1 + 1e-12)


def test_concave_interior_maximum():
    C = -np.diag([1.0, 2.0, 4.0])
    h = np.array([0.1, -0.2, 0.3])
    value, w = _ball_max(C, h, 1.0)
    w_star = -np.linalg.solve(C, h)
    assert np.linalg.norm(w_star) < 1.0
    assert value == pytest.approx(-h @ np.linalg.solve(C, h), rel=1e-12)
    np.testing.assert_allclose(w, w_star, atol=1e-12)


def test_hard_case():
    # h has no component on the top eigenvector and the pseudo-solution
    # (0, 0.5) is short of the unit sphere: the rest goes along e_1
    C = np.diag([2.0, 1.0])
    h = np.array([0.0, 0.5])
    value, w = _ball_max(C, h, 1.0)
    assert value == pytest.approx(2.0 * 0.75 + 0.25 + 0.5, rel=1e-12)
    assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
    assert w[1] == pytest.approx(0.5, rel=1e-12)


def test_boundary_maximum_satisfies_stationarity():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((6, 6))
    C = M + M.T
    h = rng.standard_normal(6)
    value, w = _ball_max(C, h, 0.8)
    assert np.linalg.norm(w) == pytest.approx(0.8, rel=1e-10)
    # (nu I - C) w = h with nu >= theta_max
    nu = (w @ h + w @ C @ w) / (w @ w)
    np.testing.assert_allclose(nu * w - C @ w, h, atol=1e-9)
    assert nu >= np.linalg.eigvalsh(C)[-1] - 1e-9
    samples = rng.standard_normal((2000, 6))
    samples *= 0.8 / np.linalg.norm(samples, axis=1)[:, None]
    assert np.max(np.einsum("ij,jk,ik->i", samples, C, samples) + 2 * samples @ h) <= value


def test_stacked_cost_matches_rollout():
    rng = np.random.default_rng(3)
    N, n_x, n_u, n_w = 5, 2, 1, 2
    d = LqcData(
        A=0.5 * rng.standard_normal((N, n_x, n_x)), B=rng.standard_normal((N, n_x, n_u)),
        C=rng.standard_normal((N, n_x, n_w)), Q=np.repeat(np.eye(n_x)[None], N, 0),
        q=rng.standard_normal((N, n_x)), R=np.repeat(np.eye(n_u)[None], N, 0),
        r=rng.standard_normal((N, n_u)), gamma=0.5, u_bound=1.0,
    )
    x0 = rng.standard_normal(n_x)
    sc = StackedCost(d, x0)
    u, w = rng.standard_normal(N * n_u), rng.standard_normal(N * n_w)
    x = sc.a + sc.G @ u + sc.H @ w
    quad = x @ sc.Qbar @ x + 2 * sc.qbar @ x + u @ (sc.P - sc.G.T @ sc.Qbar @ sc.G) @ u + 2 * sc.rbar @ u
    assert trajectory_cost(d, x0, u, w) == pytest.approx(quad, rel=1e-12)
    # regret at w is J(u, w) minus the unconstrained minimum over inputs
    v = -np.linalg.solve(sc.P, sc.b0 + sc.X @ w)
    assert sc.regret_at(u, w) == pytest.approx(sc.cost(u, w) - sc.cost(v, w), rel=1e-9)


def test_ellipsoid_boundary_points():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3))
    P = M @ M.T + np.eye(3)
    c = rng.standard_normal(3)
    X = ellipsoid_boundary(P, c, 0.7, 50, rng)
    np.testing.assert_allclose(np.einsum("ij,jk,ik->i", X - c, P, X - c), 0.49, rtol=1e-12)
