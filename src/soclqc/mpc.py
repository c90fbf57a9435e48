"""MPC with an online-reconfigurable ellipsoidal terminal set.

The terminal set {x : (x-c)' P (x-c) <= r^2} has its center c and radius r
as decision variables of the finite-horizon problem.  Three robust
requirements make the set a valid terminal ingredient under the linear
terminal controller u = K x:

* positive invariance of the closed loop A+BK on the set,
* containment in the polyhedral state set,
* the controller staying inside the polyhedral input set.

Invariance reduces, via the simplified S-lemma and a homogenizing
multiplication by r, to one second-order block plus per-coordinate
hyperbolic blocks; the two containments reduce to support-function rows that
are linear in (c, r).  Everything lands in one SOCP with no equality rows,
posed in the null space of the dynamics (:attr:`MpcSpec.dynamics_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import (
    ConicProgram,
    ConicProgramBuilder,
    DimensionMismatch,
    NotPositiveDefinite,
    check_finite,
    hyperbolic_rows,
    psd_sqrt_factor,
    unit_rows,
)
from .slemma import SLemmaBlock, simultaneous_diagonalize, symmetrize
from .solver import Solution


@dataclass(frozen=True)
class TerminalDiag:
    """Diagonalization data for the terminal pair.

    ``S`` diagonalizes P (S'PS = I) and A_cl' P A_cl (diagonal ``alpha``)
    simultaneously; ``m_sqrt`` is the symmetric PSD square root of
    (A_cl - I)' P (A_cl - I) and ``coupling`` is S' A_cl' P (A_cl - I), the
    matrix entering the invariance heads.
    """

    S: np.ndarray
    alpha: np.ndarray
    m_sqrt: np.ndarray
    coupling: np.ndarray


@dataclass(frozen=True)
class MpcSpec:
    """Time-invariant system, polyhedral sets, terminal gain and shape.

    State set {x : E x <= f} and input set {u : G u <= h} must contain the
    origin strictly (f > 0, h > 0) and the terminal closed loop A + B K must
    be stable so that small origin-centered terminal sets are feasible.

    Instances are immutable; ``p_sqrt`` (P^{1/2}), ``p_inv_sqrt``
    (P^{-1/2}), ``terminal_diag``, ``cost_factors`` and ``dynamics_basis``
    are cached properties, computed on first use.
    """

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    f: np.ndarray
    G: np.ndarray
    h: np.ndarray
    K: np.ndarray
    P: np.ndarray
    N: int
    Q: np.ndarray
    R: np.ndarray
    Q_f: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "E", "f", "G", "h", "K", "P", "Q", "R", "Q_f"):
            value = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, np.atleast_1d(value) if name in ("f", "h")
                               else np.atleast_2d(value))
        check_finite(A=self.A, B=self.B, E=self.E, f=self.f, G=self.G, h=self.h, K=self.K,
                     P=self.P, Q=self.Q, R=self.R, Q_f=self.Q_f)
        n_x, n_u = self.A.shape[0], self.B.shape[1]
        if self.A.shape != (n_x, n_x) or self.B.shape != (n_x, n_u):
            raise DimensionMismatch("A/B shapes inconsistent")
        if self.E.shape[1] != n_x or self.E.shape[0] != len(self.f):
            raise DimensionMismatch("state set rows inconsistent")
        if self.G.shape[1] != n_u or self.G.shape[0] != len(self.h):
            raise DimensionMismatch("input set rows inconsistent")
        if self.K.shape != (n_u, n_x):
            raise DimensionMismatch("terminal gain shape inconsistent")
        if self.P.shape != (n_x, n_x):
            raise DimensionMismatch("terminal shape matrix size inconsistent")
        for name, n in (("Q", n_x), ("R", n_u), ("Q_f", n_x)):
            if getattr(self, name).shape != (n, n):
                raise DimensionMismatch(f"{name} size inconsistent")
        for name in ("P", "Q", "R", "Q_f"):
            object.__setattr__(self, name, symmetrize(getattr(self, name)))
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)):
            raise ValueError(f"horizon N must be an integer, got {self.N!r}")
        if self.N < 1:
            raise ValueError("horizon must be at least 1")
        # definiteness is checked by computing the cached factors that the
        # build reads, so a spec cannot pass what a build would reject
        try:
            self.terminal_diag
        except NotPositiveDefinite:
            raise NotPositiveDefinite("terminal shape matrix must be positive definite") from None
        if np.max(np.abs(np.linalg.eigvals(self.A + self.B @ self.K))) >= 1.0:
            raise ValueError("terminal closed loop A + B K must be stable")
        if np.any(self.f <= 0) or np.any(self.h <= 0):
            raise ValueError("state and input sets must contain the origin strictly")
        if np.linalg.eigvalsh(self.R)[0] <= 0:
            raise ValueError("R must be positive definite")
        self.cost_factors  # names Q, R or Q_f when its factor fails

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def A_cl(self) -> np.ndarray:
        return self.A + self.B @ self.K

    @cached_property
    def p_sqrt(self) -> np.ndarray:
        return psd_sqrt_factor(self.P)

    @cached_property
    def p_inv_sqrt(self) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.P)
        return (vecs / np.sqrt(vals)) @ vecs.T

    @cached_property
    def cost_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Square-root factors of the stage costs Q and R and of Q_f."""
        def factor(name):
            try:
                return psd_sqrt_factor(getattr(self, name))
            except NotPositiveDefinite:
                raise ValueError(f"{name} must be positive semidefinite") from None

        return factor("Q"), factor("R"), factor("Q_f")

    @cached_property
    def dynamics_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """``(N_ux, X_p)`` for the dynamics rows ``B u_k + A x_k = x_{k+1}``
        (k < N) over the stacked ``(u_0..u_{N-1}, x_1..x_N)``: an orthonormal
        basis of their null space, and X_p with ``x_p = X_p x_0`` their
        least-norm solution.  One SVD (Nocedal & Wright, *Numerical
        Optimization*, 15.3); the -x_{k+1} columns give the rows full rank."""
        N, n_x = self.N, self.n_x
        dyn = np.hstack([np.kron(np.eye(N), self.B),
                         np.kron(np.eye(N, k=-1), self.A) - np.eye(N * n_x)])
        U, S, Vt = np.linalg.svd(dyn)
        # the right-hand side is (-A x_0, 0, ..., 0), and x_p = V S^-1 U' of it
        X_p = Vt[: N * n_x].T @ ((U[:n_x].T @ -self.A) / S[:, None])
        return Vt[N * n_x :].T, X_p

    @cached_property
    def terminal_diag(self) -> TerminalDiag:
        A_cl = self.A_cl
        sd = simultaneous_diagonalize(self.P, A_cl.T @ self.P @ A_cl)
        drift = A_cl - np.eye(self.n_x)
        m_sqrt = psd_sqrt_factor(drift.T @ self.P @ drift)
        return TerminalDiag(S=sd.S, alpha=sd.delta, m_sqrt=m_sqrt,
                            coupling=sd.S.T @ A_cl.T @ self.P @ drift)


def emit_invariance_constraints(
    td: TerminalDiag, c_idx, r_idx: int, builder: ConicProgramBuilder
) -> SLemmaBlock:
    """Append blocks making the ellipsoid (c, r) = (x[c_idx], x[r_idx])
    positively invariant.

    The multiplier and slack variables are pre-scaled by r so everything is
    jointly convex in (c, r): one block enforces
    ||m_sqrt c||^2 <= r * (r - sum(t) - lam), and coordinate i enforces
    (coupling c)_i^2 <= t_i * (lam - r * alpha_i).
    """
    n = td.S.shape[0]
    if len(c_idx) != n:
        raise DimensionMismatch("center has wrong length")
    lam_idx = builder.add_var()
    t_idx = builder.add_vars(n)
    w = builder.num_vars
    builder.add_block_rows(unit_rows([lam_idx], w)[:, None], np.zeros((1, 1)), "inv:lam")
    C = unit_rows(c_idx, w)
    r_row = unit_rows(r_idx, w)

    # ||m_sqrt c||^2 <= r * (r - lam - sum(t))
    spent = r_row.copy()
    spent[0, [lam_idx, *t_idx]] -= 1.0
    A, b = hyperbolic_rows((td.m_sqrt @ C)[None], np.zeros((1, n)), r_row, np.zeros(1), spent,
                           np.zeros(1))
    builder.add_block_rows(A, b, "inv:budget")

    # (coupling c)_i^2 <= t_i * (lam - r * alpha_i)
    slacks = -td.alpha[:, None] * r_row
    slacks[:, lam_idx] = 1.0
    A, b = hyperbolic_rows(td.coupling @ C, np.zeros(n), unit_rows(t_idx, w), np.zeros(n),
                           slacks, np.zeros(n))
    builder.add_block_rows(A, b, [f"inv:q{i}" for i in range(n)])
    return SLemmaBlock(lam_idx, t_idx)


def _support_rows(rows, limits, spec: MpcSpec, c_idx, r_idx: int, builder, tag) -> None:
    """Rows ``limits_j - rows_j' c - ||rows_j' P^{-1/2}|| r >= 0``."""
    gains = np.linalg.norm(rows @ spec.p_inv_sqrt, axis=1)
    w = builder.num_vars
    A = -(rows @ unit_rows(c_idx, w)) - gains[:, None] * unit_rows(r_idx, w)
    tags = [f"{tag}{j}" for j in range(rows.shape[0])]
    builder.add_block_rows(A[:, None], limits[:, None], tags)


def emit_state_containment(spec: MpcSpec, c_idx, r_idx: int, builder: ConicProgramBuilder) -> None:
    """Rows e_j' c + ||e_j' P^{-1/2}|| r <= f_j keeping the ellipsoid in the
    state set (support function of the ball after whitening by P^{1/2})."""
    _support_rows(spec.E, spec.f, spec, c_idx, r_idx, builder, "state_cont")


def emit_input_containment(spec: MpcSpec, c_idx, r_idx: int, builder: ConicProgramBuilder) -> None:
    """Same support-function rows for the terminal controller: rows of G K."""
    _support_rows(spec.G @ spec.K, spec.h, spec, c_idx, r_idx, builder, "input_cont")


@dataclass(frozen=True)
class MpcSocp:
    """The program in ``(v, c, r, lam, t)``; ``(u, x_1..x_N) = ux + basis v``,
    indexed by u_index and x_index, and ``terminal`` is a fixed (c0, r0)."""

    program: ConicProgram
    x_init: np.ndarray
    ux: np.ndarray
    basis: np.ndarray
    u_index: np.ndarray       # (N, n_u)
    x_index: np.ndarray       # (N, n_x), states x_1..x_N
    c_index: np.ndarray
    r_index: int
    invariance: SLemmaBlock
    terminal: tuple | None

    def extract(self, sol: Solution) -> dict:
        ux = self.ux + self.basis @ sol.x[: self.basis.shape[1]]
        center, radius = self.terminal or (sol.x[self.c_index], sol.x[self.r_index])
        return {
            "states": np.vstack([self.x_init, ux[self.x_index]]),
            "inputs": ux[self.u_index],
            "center": center,
            "radius": float(radius),
            "lam": float(sol.x[self.invariance.lambda_index]),
            "t": sol.x[self.invariance.t_indices],
            "objective": sol.objective,
        }


def build_mpc_socp(spec: MpcSpec, x_init, fixed_terminal=None) -> MpcSocp:
    """Finite-horizon problem with the reconfigurable terminal ellipsoid.

    The program's variables are ``(v, c, r, lam, t)``, with ``(u, x) = x_p +
    N_ux v`` (:attr:`MpcSpec.dynamics_basis`) meeting the dynamics for every
    v, so x_init reaches the program only through x_p, in h and the
    objective.  ``fixed_terminal=(c0, r0)`` fixes the terminal set instead
    (the offline baseline): the columns of c and r move into h, and the
    blocks stay those of the free program.
    """
    x_init = np.atleast_1d(np.asarray(x_init, dtype=float))
    if x_init.shape != (spec.n_x,):
        raise DimensionMismatch("x_init has wrong length")
    check_finite(x_init=x_init)
    if np.any(spec.E @ x_init > spec.f):
        raise ValueError("x_init violates the state set")
    if fixed_terminal is not None:
        c0, r0 = fixed_terminal
        c0 = np.atleast_1d(np.asarray(c0, dtype=float))
        if c0.shape != (spec.n_x,) or np.ndim(r0) != 0:
            raise DimensionMismatch("fixed_terminal needs a length n_x center and a scalar radius")
        check_finite(c0=c0, r0=r0)
        fixed_terminal = (c0, float(r0))
    N, n_x, n_u = spec.N, spec.n_x, spec.n_u
    basis, X_p = spec.dynamics_basis
    ux = X_p @ x_init
    n_v = basis.shape[1]
    # per stage k, u_k = up[k] + Bu[k] v and x_{k+1} = xp[k] + Bx[k] v
    Bu, Bx = basis[: N * n_u].reshape(N, n_u, n_v), basis[N * n_u :].reshape(N, n_x, n_v)
    up, xp = ux[: N * n_u].reshape(N, n_u), ux[N * n_u :].reshape(N, n_x)

    def stage_rows(M, B, p):
        """Rows ``M y_k`` over v and their constants for y_k = p[k] + B[k] v, by
        einsum: unlike BLAS, its rows' bits do not depend on the stage count."""
        return np.einsum("ij,kjv->kiv", M, B), np.einsum("ij,kj->ki", M, p)

    b = ConicProgramBuilder()
    b.add_vars(n_v)
    c_idx = b.add_vars(n_x)
    r_idx = b.add_var()

    w = b.num_vars
    # path constraints f - E x_k >= 0 for states 1..N-1, h - G u_k >= 0 for
    # all inputs
    for M, B, p, lim, tag in ((spec.E, Bx[: N - 1], xp[: N - 1], spec.f, "state_set"),
                              (spec.G, Bu, up, spec.h, "input_set")):
        A, const = stage_rows(M, B, p)
        b.add_block_rows(-A.reshape(-1, 1, n_v), (lim - const).reshape(-1, 1), tag)

    # terminal membership ||P^{1/2}(x_N - c)|| <= r
    p_half = spec.p_sqrt
    A, const = stage_rows(p_half, Bx[N - 1 :], xp[N - 1 :])
    member = np.zeros((1, 1 + n_x, w))
    member[0, 0, r_idx] = 1.0
    member[0, 1:, :n_v] = A[0]
    member[0][1:, c_idx] = -p_half
    b.add_block_rows(member, np.append(0.0, const[0])[None], "terminal_membership")

    b.add_block_rows(unit_rows([r_idx], w)[:, None], np.zeros((1, 1)), "radius")
    inv = emit_invariance_constraints(spec.terminal_diag, c_idx, r_idx, b)
    emit_state_containment(spec, c_idx, r_idx, b)
    emit_input_containment(spec, c_idx, r_idx, b)

    # stage costs sum x_k' Q x_k + u_k' R u_k (k = 0..N-1) plus x_N' Q_f x_N:
    # ||F v + f0||^2 with the k = 0 state term a constant
    fq, fr, ff = spec.cost_factors
    parts = [stage_rows(fq, Bx[: N - 1], xp[: N - 1]), stage_rows(fr, Bu, up),
             stage_rows(ff, Bx[N - 1 :], xp[N - 1 :])]
    F = np.concatenate([A.reshape(-1, n_v) for A, _ in parts])
    f0 = np.concatenate([const.ravel() for _, const in parts])
    b.set_objective_row(2.0 * np.einsum("rv,r->v", F, f0),
                        float(x_init @ spec.Q @ x_init) + float(f0 @ f0), F)
    prog = b.build()

    if fixed_terminal is not None:
        G, cr = prog.G.copy(), [*c_idx, r_idx]
        G[:, cr] = 0.0
        prog = replace(prog, G=G, h=prog.h - prog.G[:, cr] @ np.append(*fixed_terminal))
    return MpcSocp(prog, x_init, ux, basis, np.arange(N * n_u).reshape(N, n_u),
                   np.arange(N * n_u, N * (n_u + n_x)).reshape(N, n_x), c_idx, r_idx, inv,
                   fixed_terminal)


def max_fixed_radius(spec: MpcSpec) -> float:
    """Largest origin-centered radius satisfying both containments."""
    gains_x = np.linalg.norm(spec.E @ spec.p_inv_sqrt, axis=1)
    gains_u = np.linalg.norm((spec.G @ spec.K) @ spec.p_inv_sqrt, axis=1)
    bounds = []
    for g, lim in ((gains_x, spec.f), (gains_u, spec.h)):
        mask = g > 1e-12
        if np.any(mask):
            bounds.append(np.min(lim[mask] / g[mask]))
    return float(min(bounds)) if bounds else np.inf
