"""Reference computations for checking soclqc's outputs, made without soclqc.

Everything here is derived from the raw problem data that the benchmark
generates: a trust-region ball maximizer (eigendecomposition plus a
bracketed root of the secular equation, with the hard case), batched
rollouts of the dynamics to get the stacked maps and costs, and ellipsoid
boundary sampling from a Cholesky factor.  Only numpy and scipy are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

# ---------------------------------------------------------------------------
# maximum of a quadratic over a Euclidean ball


@dataclass(frozen=True)
class Quadratic:
    """w'Cw + 2h'w with C eigendecomposed once (C = V diag(theta) V')."""

    theta: np.ndarray
    V: np.ndarray

    @staticmethod
    def of(C) -> "Quadratic":
        C = np.asarray(C, dtype=float)
        theta, V = np.linalg.eigh(0.5 * (C + C.T))
        return Quadratic(theta, V)


def ball_max(quad: Quadratic, h, radius: float) -> tuple[float, np.ndarray]:
    """Global maximum of ``w'Cw + 2h'w`` over ``||w|| <= radius``.

    A maximizer on the boundary solves ``(nu I - C) w = h`` with
    ``nu >= max(theta_max, 0)``.  With ``s = nu - theta_max`` and the
    eigenvalue gaps ``theta_max - theta`` formed once, ``||w(s)||`` falls
    monotonically on ``s > 0`` and stays accurate however close the root is
    to the top eigenvalue; the root is bracketed and found with Brent's
    method.  In the hard case (h exactly orthogonal to the top eigenvectors
    and ``||w(0)|| <= radius``) the rest of the radius goes along a top
    eigenvector.  Returns ``(value, w)``.
    """
    theta, V = quad.theta, quad.V
    g = V.T @ np.asarray(h, dtype=float)
    top_val = theta[-1]
    gap = top_val - theta
    top = gap == 0.0
    g_norm = float(np.linalg.norm(g))
    g_top = float(np.linalg.norm(g[top]))

    def value(y):
        return float(theta @ (y * y) + 2.0 * g @ y)

    if top_val < 0.0:
        y = g / -theta
        if np.linalg.norm(y) <= radius:
            return value(y), V @ y
    elif g_top == 0.0:
        y = np.zeros_like(g)
        y[~top] = g[~top] / gap[~top]
        rest = float(np.linalg.norm(y))
        if rest <= radius:
            y[np.argmax(top)] = np.sqrt(radius**2 - rest**2)
            return value(y), V @ y

    def excess(s):
        return float(np.linalg.norm(g / (s + gap))) - radius

    # bracket: ||w|| >= g_top / s > radius at lo (nu >= 0 when theta_max < 0),
    # and ||w|| <= ||h|| / s <= radius at hi
    if top_val < 0.0:
        lo = -top_val
    elif g_top > 0.0:
        lo = 0.5 * g_top / radius
    else:
        lo = np.finfo(float).tiny
    hi = max(lo, g_norm / radius) * (1.0 + 1e-12)
    s = scipy.optimize.brentq(excess, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
    y = g / (s + gap)
    return value(y), V @ y


# ---------------------------------------------------------------------------
# finite-horizon linear-quadratic systems


@dataclass(frozen=True)
class LqcData:
    """Per-step dynamics and weights as generated, plus the ball and box."""

    A: np.ndarray   # (N, n_x, n_x)
    B: np.ndarray   # (N, n_x, n_u)
    C: np.ndarray   # (N, n_x, n_w)
    Q: np.ndarray
    q: np.ndarray
    R: np.ndarray
    r: np.ndarray
    gamma: float
    u_bound: float  # inputs boxed to |u_i| <= u_bound

    @property
    def N(self) -> int:
        return self.A.shape[0]


def rollout(d: LqcData, x0, U, W) -> np.ndarray:
    """States x_1..x_N of many experiments at once.

    ``x0`` is (n_x, m), ``U`` is (N, n_u, m), ``W`` is (N, n_w, m); returns
    (N, n_x, m).
    """
    x = np.asarray(x0, dtype=float)
    out = np.empty((d.N,) + x.shape)
    for k in range(d.N):
        x = d.A[k] @ x + d.B[k] @ U[k] + d.C[k] @ W[k]
        out[k] = x
    return out


def trajectory_cost(d: LqcData, x0, u, w) -> float:
    """Stage costs summed along one simulated trajectory."""
    n_u, n_w = d.B.shape[2], d.C.shape[2]
    u = np.reshape(u, (d.N, n_u, 1))
    w = np.reshape(w, (d.N, n_w, 1))
    xs = rollout(d, np.reshape(x0, (-1, 1)), u, w)[..., 0]
    u = u[..., 0]
    return float(
        np.einsum("ki,kij,kj->", xs, d.Q, xs) + 2.0 * np.sum(d.q * xs)
        + np.einsum("ki,kij,kj->", u, d.R, u) + 2.0 * np.sum(d.r * u)
    )


class StackedCost:
    """The cost as a quadratic in the stacked (u, w), from rollouts.

    The impulse responses of the inputs and disturbances give the maps
    ``x = a + G u + H w``; nothing is taken from soclqc's condensing.
    """

    def __init__(self, d: LqcData, x0):
        N, n_x = d.N, d.A.shape[1]
        n_u, n_w = d.B.shape[2], d.C.shape[2]
        self.d, self.x0 = d, np.asarray(x0, dtype=float)
        nu, nw = N * n_u, N * n_w
        a = rollout(d, self.x0[:, None], np.zeros((N, n_u, 1)), np.zeros((N, n_w, 1)))
        G = rollout(d, np.zeros((n_x, nu)), np.eye(nu).reshape(N, n_u, nu), np.zeros((N, n_w, nu)))
        H = rollout(d, np.zeros((n_x, nw)), np.zeros((N, n_u, nw)), np.eye(nw).reshape(N, n_w, nw))
        self.a = a.reshape(N * n_x)
        self.G = G.reshape(N * n_x, nu)
        self.H = H.reshape(N * n_x, nw)
        Qbar = np.zeros((N * n_x, N * n_x))
        Rbar = np.zeros((nu, nu))
        for k in range(N):
            Qbar[k * n_x:(k + 1) * n_x, k * n_x:(k + 1) * n_x] = d.Q[k]
            Rbar[k * n_u:(k + 1) * n_u, k * n_u:(k + 1) * n_u] = d.R[k]
        self.Qbar, self.qbar, self.rbar = Qbar, d.q.reshape(-1), d.r.reshape(-1)
        self.P = self.G.T @ Qbar @ self.G + Rbar          # input Hessian
        self.X = self.G.T @ Qbar @ self.H                  # input/disturbance coupling
        self.b0 = self.G.T @ (Qbar @ self.a + self.qbar) + self.rbar
        self.robust_quad = Quadratic.of(self.H.T @ Qbar @ self.H)
        self.regret_quad = Quadratic.of(self.X.T @ np.linalg.solve(self.P, self.X))

    def cost(self, u, w) -> float:
        return trajectory_cost(self.d, self.x0, u, w)

    def worst_case(self, u) -> tuple[float, np.ndarray]:
        """max over the ball of J(u, w), and a maximizer."""
        xu = self.a + self.G @ u
        lin = self.H.T @ (self.Qbar @ xu + self.qbar)
        val, w = ball_max(self.robust_quad, lin, self.d.gamma)
        return self.cost(u, np.zeros(self.H.shape[1])) + val, w

    def regret_at(self, u, w) -> float:
        """J(u, w) minus the clairvoyant unconstrained minimum over inputs."""
        e = u + np.linalg.solve(self.P, self.b0 + self.X @ w)
        return float(e @ self.P @ e)

    def worst_regret(self, u) -> tuple[float, np.ndarray]:
        """max over the ball of regret_at(u, w), and a maximizer."""
        e0 = u + np.linalg.solve(self.P, self.b0)
        val, w = ball_max(self.regret_quad, self.X.T @ e0, self.d.gamma)
        return float(e0 @ self.P @ e0) + val, w

    def nominal_min(self) -> float:
        """Unconstrained minimum over inputs of J(u, 0)."""
        u = -np.linalg.solve(self.P, self.b0)
        return self.cost(u, np.zeros(self.H.shape[1]))


def ball_samples(rng, count: int, dim: int, radius: float) -> np.ndarray:
    """Points uniform in the ball, plus the origin as the first row."""
    W = rng.standard_normal((count, dim))
    W *= (radius * rng.random(count) ** (1.0 / dim) / np.linalg.norm(W, axis=1))[:, None]
    return np.vstack([np.zeros(dim), W])


# ---------------------------------------------------------------------------
# MPC with an ellipsoidal terminal set


def ellipsoid_boundary(P, c, r, count: int, rng) -> np.ndarray:
    """Points with (x - c)' P (x - c) = r^2, from the Cholesky factor of P."""
    L = np.linalg.cholesky(P)
    D = rng.standard_normal((count, P.shape[0]))
    D /= np.linalg.norm(D, axis=1)[:, None]
    return c + r * np.linalg.solve(L.T, D.T).T
