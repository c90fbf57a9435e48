"""The exact ball maximizer, an oracle independent of the conic solver.

``max_quad_over_ball`` follows the More-Sorensen eigenvalue /
secular-equation route for trust-region subproblems.  ``verify`` checks
every solved LQC program against it; the test suite keeps its brute-force
grid oracles next to the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class BisectionFailure(RuntimeError):
    """The secular equation could not be bracketed or solved."""


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
    nu >= max(ev_max, 0), where ev are the eigenvalues of C;  nu is
    found by safeguarded Newton on 1/||w(nu)|| = 1/gamma inside a bisection
    bracket, from a point left of the root, and stops when | ||w(nu)|| -
    gamma | <= 1e-12 max(1, gamma) or when the root is located within
    rounding.  An interior stationary point is only optimal when C is negative
    definite.  The hard case (h orthogonal to the top eigenspace and the
    pseudo-solution short of the boundary) is resolved by augmenting with a
    top eigenvector.
    """
    C = 0.5 * (np.asarray(C, dtype=float) + np.asarray(C, dtype=float).T)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if C.shape[0] != h.shape[0]:
        raise ValueError("C and h dimensions differ")
    if not (np.isfinite(C).all() and np.isfinite(h).all()):
        raise ValueError("C and h must be finite")
    if not 0 < gamma < np.inf:
        raise ValueError(f"radius must be positive and finite, got {gamma!r}")

    ev, V = np.linalg.eigh(C)
    h_rot = V.T @ h
    ev_max = ev[-1]

    def objective(w):
        return float(w @ C @ w + 2.0 * h @ w)

    if ev_max < 0:
        # concave objective: interior stationary point w = -C^{-1} h
        w_int = V @ (h_rot / (-ev))
        if np.linalg.norm(w_int) <= gamma:
            return BallMaxResult(w_int, objective(w_int), 0.0, False)

    nu_floor = max(ev_max, 0.0)
    top = np.abs(ev - ev_max) <= 1e-12 * max(1.0, abs(ev_max))
    h_top = np.linalg.norm(h_rot[top])

    def w_norm(nu):
        return np.linalg.norm(h_rot / (nu - ev))

    if h_top <= HARD_CASE_RTOL * np.linalg.norm(h) and nu_floor == ev_max:
        # possible hard case: check the limit norm at nu -> ev_max
        denom = nu_floor - ev
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
    hi = max(nu_floor + np.linalg.norm(h) / gamma, nu_floor * 1.5 + 1.0)
    for _ in range(200):
        if w_norm(hi) < gamma:
            break
        hi *= 2.0
    else:
        raise BisectionFailure("could not bracket the secular equation")

    # safeguarded Newton on phi(nu) = 1/||w(nu)|| - 1/gamma, which is
    # concave and increasing on (ev_max, inf) (More & Sorensen, SIAM J. Sci.
    # Stat. Comput. 1983): from a point left of the root (||w|| >= gamma)
    # every Newton step stays left of it and climbs to it.  Such a point is
    # ev_max + |h_1| / gamma, h_1 the top eigenvector's part of h, because
    # ||w(nu)|| >= |h_1| / (nu - ev_max), and nu_floor = 0 when C is negative
    # definite (its interior stationary point lies outside the ball).  When
    # neither exists (h_1 = 0) the iteration starts at hi.  Each evaluation
    # narrows the bracket, and a step that leaves it is replaced by bisection
    lo = max(nu_floor, ev_max + abs(h_rot[-1]) / gamma)
    nu = lo if lo > ev_max else hi
    converged = False
    for _ in range(200):
        w_rot = h_rot / (nu - ev)
        norm = math.sqrt(w_rot @ w_rot)
        if abs(norm - gamma) <= 1e-12 * max(1.0, gamma):
            converged = True
            break
        if norm > gamma:
            lo = nu
        else:
            hi = nu
        # phi / phi' with phi' = sum(w_i^2 / (nu - ev_i)) / ||w||^3
        step = norm * norm * (norm - gamma) / (gamma * (w_rot @ (w_rot / (nu - ev))))
        if hi - lo <= 1e-15 * max(1.0, abs(hi)) or abs(step) <= 1e-15 * max(1.0, abs(nu)):
            # the root is within rounding of nu, which lies so near the top
            # eigenvalue that the norm is too steep for the stopping test:
            # finish like the hard case
            break
        nu = nu + step if lo < nu + step < hi else 0.5 * (lo + hi)
    if not converged:
        norm_rest = np.linalg.norm(w_rot[~top])
        if norm_rest > gamma or not np.any(top):
            raise BisectionFailure("secular iteration stalled")
        need = np.sqrt(gamma**2 - norm_rest**2)
        top_part = np.linalg.norm(w_rot[top])
        if top_part > 0:
            w_rot[top] *= need / top_part
        else:
            w_rot[np.argmax(top)] = need
    w = V @ w_rot
    return BallMaxResult(w, objective(w), float(nu), not converged)
