"""The exact ball maximizer, an oracle independent of the conic solver.

``max_quad_over_ball`` follows the More-Sorensen eigenvalue /
secular-equation route for trust-region subproblems.  ``verify`` checks
every solved LQC program against it; the test suite keeps its brute-force
grid oracles next to the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BisectionFailure(RuntimeError):
    """Secular-equation bisection did not converge."""


HARD_CASE_RTOL = 1e-10


@dataclass(frozen=True)
class BallMaxResult:
    """Global maximum of w^T C w + 2 h^T w over ||w|| <= radius."""

    w_star: np.ndarray
    value: float
    multiplier: float
    hard_case: bool


def max_quad_over_ball(C: np.ndarray, h: np.ndarray, gamma: float) -> BallMaxResult:
    """Exact maximizer of ``w^T C w + 2 h^T w`` over the ball of radius gamma.

    Stationarity on the boundary reads (nu I - C) w = h with
    nu >= max(theta_max, 0), where theta are the eigenvalues of C;  nu is
    found by bisection on ||w(nu)|| = gamma.  An interior stationary point is
    only optimal when C is negative definite.  The hard case (h orthogonal to
    the top eigenspace and the pseudo-solution short of the boundary) is
    resolved by augmenting with a top eigenvector.
    """
    C = 0.5 * (np.asarray(C, dtype=float) + np.asarray(C, dtype=float).T)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if C.shape[0] != h.shape[0]:
        raise ValueError("C and h dimensions differ")
    if not (np.isfinite(C).all() and np.isfinite(h).all()):
        raise ValueError("C and h must be finite")
    if not 0 < gamma < np.inf:
        raise ValueError(f"radius must be positive and finite, got {gamma!r}")

    theta, V = np.linalg.eigh(C)
    h_rot = V.T @ h
    theta_max = theta[-1]

    def objective(w):
        return float(w @ C @ w + 2.0 * h @ w)

    if theta_max < 0:
        # concave objective: interior stationary point w = -C^{-1} h
        w_int = V @ (h_rot / (-theta))
        if np.linalg.norm(w_int) <= gamma:
            return BallMaxResult(w_int, objective(w_int), 0.0, False)

    nu_floor = max(theta_max, 0.0)
    top = np.abs(theta - theta_max) <= 1e-12 * max(1.0, abs(theta_max))
    h_top = np.linalg.norm(h_rot[top])

    def w_norm(nu):
        return np.linalg.norm(h_rot / (nu - theta))

    if h_top <= HARD_CASE_RTOL * np.linalg.norm(h) and nu_floor == theta_max:
        # possible hard case: check the limit norm at nu -> theta_max
        denom = nu_floor - theta
        safe = ~top
        w_pseudo_rot = np.zeros_like(h_rot)
        w_pseudo_rot[safe] = h_rot[safe] / denom[safe]
        norm_pseudo = np.linalg.norm(w_pseudo_rot)
        if norm_pseudo <= gamma:
            tau = np.sqrt(max(gamma**2 - norm_pseudo**2, 0.0))
            w_rot = w_pseudo_rot.copy()
            w_rot[np.argmax(top)] += tau
            w = V @ w_rot
            return BallMaxResult(w, objective(w), float(nu_floor), True)

    # bracket: ||w(nu)|| decreases on (nu_floor, inf) toward 0
    lo = nu_floor
    hi = max(nu_floor + np.linalg.norm(h) / gamma, nu_floor * 1.5 + 1.0)
    for _ in range(200):
        if w_norm(hi) < gamma:
            break
        hi *= 2.0
    else:
        raise BisectionFailure("could not bracket the secular equation")

    converged = False
    nu = hi
    for _ in range(200):
        nu = 0.5 * (lo + hi)
        norm = w_norm(nu)
        if abs(norm - gamma) <= 1e-12 * max(1.0, gamma):
            converged = True
            break
        if norm > gamma:
            lo = nu
        else:
            hi = nu
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            # the root is within rounding of the top eigenvalue; the norm is
            # too steep there for bisection, finish like the hard case
            break
    w_rot = h_rot / (nu - theta)
    if not converged:
        norm_rest = np.linalg.norm(w_rot[~top])
        if norm_rest > gamma or not np.any(top):
            raise BisectionFailure("secular bisection stalled")
        need = np.sqrt(gamma**2 - norm_rest**2)
        top_part = np.linalg.norm(w_rot[top])
        if top_part > 0:
            w_rot[top] *= need / top_part
        else:
            w_rot[np.argmax(top)] = need
    w = V @ w_rot
    return BallMaxResult(w, objective(w), float(nu), not converged)
