"""Independent verification oracles.

These deliberately avoid the conic solver: the ball maximizer follows the
More-Sorensen eigenvalue/secular-equation route for trust-region
subproblems, and the grid oracles evaluate costs pointwise.  They exist so
every reformulated program can be cross-checked against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BisectionFailure(RuntimeError):
    """Secular-equation bisection did not converge."""


class DimensionTooLarge(ValueError):
    """Grid oracle limited to one or two disturbance dimensions."""


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
    if gamma <= 0:
        raise ValueError("radius must be positive")

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


def closed_form_inner_min(compact, w: np.ndarray):
    """Clairvoyant minimizer over the inputs for a known disturbance.

    For the stacked cost ``J(u, w)`` with positive-definite input block, the
    minimizer is ``v = -u_quad^{-1} (u_lin + cross @ w)``; returns
    ``(v, J(v, w))``.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    rhs = compact.u_lin + compact.cross @ w
    v_star = -np.linalg.solve(compact.u_quad, rhs)
    return v_star, compact.evaluate(v_star, w)


def grid_worst_case(compact, u: np.ndarray, gamma: float, step: float) -> float:
    """Max of J(u, w) over a grid covering the disturbance ball.

    Only for one- or two-dimensional disturbances; within O(step) of the
    exact ball maximum.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n_w = compact.w_quad.shape[0]
    if n_w > 2:
        raise DimensionTooLarge("grid oracle supports at most 2 disturbance dims")
    # symmetric grid containing 0; collapses to the single point 0 when the
    # step outgrows the ball
    half = int(np.floor(gamma / step + 1e-9))
    axis = step * np.arange(-half, half + 1)
    if n_w == 1:
        W = axis[:, None]
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        W = np.column_stack([g1.ravel(), g2.ravel()])
        W = W[np.linalg.norm(W, axis=1) <= gamma * (1 + 1e-12)]
        if W.shape[0] == 0:
            W = np.zeros((1, n_w))
    lin = compact.w_lin + compact.cross.T @ u
    vals = (
        ((W @ compact.w_quad) * W).sum(1)
        + 2.0 * W @ lin
        + float(u @ compact.u_quad @ u + 2.0 * compact.u_lin @ u)
        + compact.constant
    )
    return float(np.max(vals))
