"""Finite-horizon linear-quadratic control under ball-bounded disturbances.

The dynamics ``x_{k+1} = A_k x_k + B_k u_k + C_k w_k`` are condensed into
stacked prediction matrices, the stage costs into one quadratic in the
stacked input u and disturbance w:

    J(x0, u, w) = w'Wq w + 2 (wl + X'u)'w + u'Uq u + 2 ul'u + const(x0)

with the input block Uq positive definite and only the linear terms
depending on x0.  Minimizing the worst case of J over the disturbance ball
(or the worst-case regret against a clairvoyant input, or the worst-case
expectation over a moment ambiguity set) then reduces to a second-order cone
program via the simplified S-lemma; the builders here produce those programs,
and :func:`robust_certificate_matrix` the classical matrix-inequality
certificate that checks a solved robust program after the fact.  Uq is
factored once per spec, Uq = L L', and the programs, the regret kernel
X' Uq^{-1} X = F'F with F = L^{-1} X and the certificate all read that
factor: the programs are posed in whitened, centered inputs
y = L'(u - u_c), so that the cone data do not carry cond(Uq).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .model import (
    ConicProgram,
    ConicProgramBuilder,
    DimensionMismatch,
    check_finite,
    cholesky_factor,
    hyperbolic_rows,
    unit_rows,
)
from .slemma import (
    QuadForm,
    SimulDiag,
    assemble_classical_lmi,
    simultaneous_diagonalize,
    symmetrize,
)
from .solver import Solution, SolverConfig, Status, solve


class RecedingHorizonError(RuntimeError):
    """Solver failure inside the receding-horizon loop."""

    def __init__(self, step: int, status: Status):
        super().__init__(f"solve failed at step {step}: {status.value}")
        self.step = step
        self.status = status


def _as_stack(mats, name: str) -> np.ndarray:
    arr = np.asarray(mats, dtype=float)
    if arr.ndim != 3:
        raise DimensionMismatch(f"{name} must be a sequence of matrices")
    return arr


def _check_stage_costs(Q: np.ndarray, R: np.ndarray) -> None:
    """Every Q[k] symmetric PSD and every R[k] positive definite.

    One stacked eigvalsh and one stacked Cholesky test all stages; on a
    failure the first failing stage k is named, with the per-stage checks
    of :func:`symmetrize` and :func:`cholesky_factor`.
    """
    Qt = Q.transpose(0, 2, 1)
    scale = np.maximum(1.0, np.linalg.norm(Q, axis=(1, 2)))
    asym = np.linalg.norm(Q - Qt, axis=(1, 2)) > 1e-12 * scale * Q.shape[1] * 100
    qev = np.linalg.eigvalsh(0.5 * (Q + Qt))
    indefinite = qev[:, 0] < -1e-9 * np.maximum(1.0, np.abs(qev[:, -1]))
    try:
        L = np.linalg.cholesky(0.5 * (R + R.transpose(0, 2, 1)))
        pivots = np.diagonal(L, axis1=1, axis2=2).min(axis=1) ** 2
        r_bad = pivots <= 1e-12 * np.linalg.norm(R, axis=(1, 2))
    except np.linalg.LinAlgError:
        r_bad = np.ones(len(R), dtype=bool)  # the stacked factorization names no stage
    for k in np.flatnonzero(asym | indefinite | r_bad):
        if asym[k]:
            symmetrize(Q[k])
        if indefinite[k]:
            raise ValueError(f"Q[{k}] is not positive semidefinite")
        cholesky_factor(R[k], f"R[{k}]")


@dataclass(frozen=True)
class LqcSpec:
    """Problem data over a horizon of N steps.

    ``A, B, C`` hold the per-step dynamics for k = 0..N-1; ``Q, q`` weight
    the states x_1..x_N and ``R, r`` the inputs u_0..u_{N-1}.  The stacked
    input vector is constrained to the polyhedron ``u_poly_G @ u <= u_poly_h``
    and the stacked disturbance to the ball of radius ``gamma``.

    Instances are immutable; the derived factorizations are cached
    properties, computed on first use.  ``dataclasses.replace`` makes a new
    instance, which computes its own.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    q: np.ndarray
    R: np.ndarray
    r: np.ndarray
    gamma: float
    u_poly_G: np.ndarray
    u_poly_h: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "Q", "R"):
            object.__setattr__(self, name, _as_stack(getattr(self, name), name))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "u_poly_G", np.atleast_2d(np.asarray(self.u_poly_G, dtype=float)))
        object.__setattr__(self, "u_poly_h", np.atleast_1d(np.asarray(self.u_poly_h, dtype=float)))
        N, n_x = self.A.shape[0], self.A.shape[1]
        n_u, n_w = self.B.shape[2], self.C.shape[2]
        if self.A.shape != (N, n_x, n_x):
            raise DimensionMismatch("A blocks must be square")
        if self.B.shape != (N, n_x, n_u) or self.C.shape != (N, n_x, n_w):
            raise DimensionMismatch("B/C blocks inconsistent with A")
        if self.Q.shape != (N, n_x, n_x) or self.q.shape != (N, n_x):
            raise DimensionMismatch("state cost blocks inconsistent")
        if self.R.shape != (N, n_u, n_u) or self.r.shape != (N, n_u):
            raise DimensionMismatch("input cost blocks inconsistent")
        if self.u_poly_G.shape[1] != N * n_u or self.u_poly_G.shape[0] != len(self.u_poly_h):
            raise DimensionMismatch("input polyhedron over the stacked input is inconsistent")
        if N < 1:
            raise ValueError("horizon N must be at least 1")
        if n_x < 1:
            raise ValueError("state dimension n_x must be at least 1")
        if n_u < 1:
            raise ValueError("input dimension n_u must be at least 1")
        if n_w < 1:
            raise ValueError("disturbance dimension n_w must be at least 1")
        check_finite(A=self.A, B=self.B, C=self.C, Q=self.Q, q=self.q, R=self.R, r=self.r,
                     u_poly_G=self.u_poly_G, u_poly_h=self.u_poly_h, gamma=self.gamma)
        if not self.gamma > 0:
            raise ValueError("disturbance radius gamma must be positive")
        _check_stage_costs(self.Q, self.R)

    @property
    def horizon(self) -> int:
        return self.A.shape[0]

    @property
    def n_x(self) -> int:
        return self.A.shape[1]

    @property
    def n_u(self) -> int:
        return self.B.shape[2]

    @property
    def n_w(self) -> int:
        return self.C.shape[2]

    @property
    def stacked_input_dim(self) -> int:
        return self.horizon * self.n_u

    @property
    def stacked_dist_dim(self) -> int:
        return self.horizon * self.n_w

    @cached_property
    def prediction(self) -> PredictionMatrices:
        """Stacked maps with (x_1, ..., x_N) = F x0 + G u + H w."""
        N, n_x, n_u, n_w = self.horizon, self.n_x, self.n_u, self.n_w
        F = np.zeros((N * n_x, n_x))
        G = np.zeros((N * n_x, N * n_u))
        H = np.zeros((N * n_x, N * n_w))
        prev_F = np.eye(n_x)
        for k in range(N):
            rows = slice(k * n_x, (k + 1) * n_x)
            if k > 0:
                prev = slice((k - 1) * n_x, k * n_x)
                G[rows] = self.A[k] @ G[prev]
                H[rows] = self.A[k] @ H[prev]
            G[rows, k * n_u : (k + 1) * n_u] = self.B[k]
            H[rows, k * n_w : (k + 1) * n_w] = self.C[k]
            prev_F = self.A[k] @ prev_F
            F[rows] = prev_F
        return PredictionMatrices(F, G, H)

    @cached_property
    def cost_pieces(self) -> dict:
        """x0-independent pieces of the compact cost: the quadratic and cross
        blocks, and each linear term as ``*_x0 @ x0 + *_0``."""
        pred = self.prediction
        N = self.horizon
        Qbar = np.zeros((N * self.n_x, N * self.n_x))
        Rbar = np.zeros((N * self.n_u, N * self.n_u))
        for k in range(N):
            Qbar[k * self.n_x : (k + 1) * self.n_x, k * self.n_x : (k + 1) * self.n_x] = self.Q[k]
            Rbar[k * self.n_u : (k + 1) * self.n_u, k * self.n_u : (k + 1) * self.n_u] = self.R[k]
        qbar = self.q.reshape(-1)
        rbar = self.r.reshape(-1)
        QF = Qbar @ pred.F
        return {
            "w_quad": symmetrize(pred.H.T @ Qbar @ pred.H),
            "cross": pred.G.T @ Qbar @ pred.H,
            "u_quad": symmetrize(pred.G.T @ Qbar @ pred.G + Rbar),
            "w_lin_x0": pred.H.T @ QF,
            "w_lin_0": pred.H.T @ qbar,
            "u_lin_x0": pred.G.T @ QF,
            "u_lin_0": pred.G.T @ qbar + rbar,
            "x0_quad": symmetrize(pred.F.T @ QF),
            "x0_lin": pred.F.T @ qbar,
        }

    @cached_property
    def input_factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cholesky factor L of the stacked input cost, Uq = L L', F = L^{-1} X
        and the input-set rows in whitened inputs, G_u L^{-T}, the last two
        from one triangular solve on [X | G_u'].  It is apart from
        :attr:`cost_pieces`, so that the compact cost stays available for
        specs whose Uq fails the pivot test."""
        pieces = self.cost_pieces
        L = cholesky_factor(pieces["u_quad"], "stacked input cost")
        X = pieces["cross"]
        FG = scipy.linalg.solve_triangular(L, np.hstack([X, self.u_poly_G.T]), lower=True)
        return L, FG[:, : X.shape[1]], FG[:, X.shape[1] :].T

    @cached_property
    def robust_diag(self) -> SimulDiag:
        """Congruence diagonalizing (I, Wq), the robust kernel's ball pair."""
        quad = self.cost_pieces["w_quad"]
        return simultaneous_diagonalize(np.eye(quad.shape[0]), quad)

    @cached_property
    def regret_diag(self) -> SimulDiag:
        """Congruence diagonalizing (I, X' Uq^{-1} X = F'F), the regret
        kernel's ball pair."""
        F = self.input_factor[1]
        quad = F.T @ F
        return simultaneous_diagonalize(np.eye(quad.shape[0]), quad)


@dataclass(frozen=True)
class AmbiguitySpec:
    """First-order moment information: distributions with E[H w] <= mu."""

    H: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if H.size == 0:
            H = H.reshape(0, H.shape[1] if H.ndim == 2 and H.shape[1] else 0)
        if H.shape[0] != mu.shape[0]:
            raise DimensionMismatch("moment matrix rows and bound length differ")
        check_finite(H=H, mu=mu)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "mu", mu)

    @property
    def num_moments(self) -> int:
        return self.H.shape[0]

    @staticmethod
    def empty(n_w: int) -> "AmbiguitySpec":
        return AmbiguitySpec(np.zeros((0, n_w)), np.zeros(0))


def box_polyhedron(bound: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows for ``-bound <= u_i <= bound`` on every coordinate."""
    eye = np.eye(dim)
    return np.vstack([eye, -eye]), np.full(2 * dim, float(bound))


def time_invariant_spec(A, B, C, Q, q, R, r, N, gamma, u_poly=None) -> LqcSpec:
    """Replicate single-step matrices across the horizon."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if u_poly is None:
        u_poly = (np.zeros((0, N * B.shape[1])), np.zeros(0))
    return LqcSpec(
        np.repeat(A[None], N, axis=0),
        np.repeat(B[None], N, axis=0),
        np.repeat(C[None], N, axis=0),
        np.repeat(Q[None], N, axis=0),
        np.repeat(q[None], N, axis=0),
        np.repeat(R[None], N, axis=0),
        np.repeat(r[None], N, axis=0),
        gamma,
        u_poly[0],
        u_poly[1],
    )


def scalar_benchmark_spec(N: int, decay: float = 0.9, gamma: float = 0.1,
                          input_bound: float = 0.4) -> LqcSpec:
    """Scalar constant-dynamics instance with geometrically decaying weights.

    A = B = C = 1, state weight decay^k on x_k (k = 1..N), input weight
    decay^k on u_k (k = 0..N-1), inputs boxed to +-input_bound.
    """
    one = np.ones((N, 1, 1))
    Q = np.array([[[decay**k]] for k in range(1, N + 1)])
    R = np.array([[[decay**k]] for k in range(N)])
    G, h = box_polyhedron(input_bound, N)
    return LqcSpec(one, one, one, Q, np.zeros((N, 1)), R, np.zeros((N, 1)),
                   gamma, G, h)


# ---------------------------------------------------------------------------
# prediction matrices and the compact cost


@dataclass(frozen=True)
class PredictionMatrices:
    """Stacked maps with (x_1, ..., x_N) = F x0 + G u + H w."""

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray


def rollout_states(spec: LqcSpec, x0, u, w) -> np.ndarray:
    """States x_1..x_N by stepping the dynamics directly."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    u = np.asarray(u, dtype=float).reshape(spec.horizon, spec.n_u)
    w = np.asarray(w, dtype=float).reshape(spec.horizon, spec.n_w)
    xs = np.zeros((spec.horizon, spec.n_x))
    x = x0
    for k in range(spec.horizon):
        x = spec.A[k] @ x + spec.B[k] @ u[k] + spec.C[k] @ w[k]
        xs[k] = x
    return xs


def rollout_cost(spec: LqcSpec, x0, u, w) -> float:
    """Total cost by direct simulation; the ground truth for the compact form."""
    xs = rollout_states(spec, x0, u, w)
    u = np.asarray(u, dtype=float).reshape(spec.horizon, spec.n_u)
    total = 0.0
    for k in range(spec.horizon):
        total += xs[k] @ spec.Q[k] @ xs[k] + 2.0 * spec.q[k] @ xs[k]
        total += u[k] @ spec.R[k] @ u[k] + 2.0 * spec.r[k] @ u[k]
    return float(total)


@dataclass(frozen=True)
class CompactCost:
    """Stacked-cost coefficients; see the module docstring for the layout.

    Only ``u_lin`` and ``w_lin`` (and the stored ``x0``) change when the
    cost is rebuilt at a new initial state.
    """

    w_quad: np.ndarray
    w_lin: np.ndarray
    cross: np.ndarray
    u_quad: np.ndarray
    u_lin: np.ndarray
    x0_quad: np.ndarray
    x0_lin: np.ndarray
    x0: np.ndarray

    @property
    def constant(self) -> float:
        return float(2.0 * self.x0_lin @ self.x0 + self.x0 @ self.x0_quad @ self.x0)

    def evaluate(self, u, w) -> float:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        w = np.atleast_1d(np.asarray(w, dtype=float))
        return float(
            w @ self.w_quad @ w
            + 2.0 * (self.w_lin + self.cross.T @ u) @ w
            + u @ self.u_quad @ u
            + 2.0 * self.u_lin @ u
            + self.constant
        )


def build_compact_cost(spec: LqcSpec, x0) -> CompactCost:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.n_x,):
        raise DimensionMismatch("x0 has wrong length")
    check_finite(x0=x0)
    pieces = spec.cost_pieces
    return CompactCost(
        w_quad=pieces["w_quad"],
        w_lin=pieces["w_lin_x0"] @ x0 + pieces["w_lin_0"],
        cross=pieces["cross"],
        u_quad=pieces["u_quad"],
        u_lin=pieces["u_lin_x0"] @ x0 + pieces["u_lin_0"],
        x0_quad=pieces["x0_quad"],
        x0_lin=pieces["x0_lin"],
        x0=x0,
    )


# ---------------------------------------------------------------------------
# SOCP builders


@dataclass(frozen=True)
class LqcSocp:
    """A built program plus the bookkeeping to interpret its solution.

    The program's input variables are whitened and centered,
    ``y = L'(u - u_center)`` with ``Uq = L L'`` (``chol_L``), so its cone data
    do not carry the conditioning of Uq.  The disturbance is normalized to
    a ball of radius gamma / kappa with ``kappa = max(1, gamma)``: the
    multiplier variable carries a factor (gamma / kappa)^2 and its objective
    coefficient is kappa^2, which keeps the data O(1) for small and for large
    radii alike.  ``extract`` undoes both substitutions.
    """

    program: ConicProgram
    mode: str
    compact: CompactCost
    diag: SimulDiag
    gamma: float
    kappa: float
    chol_L: np.ndarray
    u_center: np.ndarray
    y_index: np.ndarray
    lam_index: int
    t_index: np.ndarray
    beta_index: np.ndarray
    n_cone_q: int
    lmi_dim: int

    def extract(self, sol: Solution) -> dict:
        y = sol.x[self.y_index]
        return {
            "u": scipy.linalg.solve_triangular(self.chol_L.T, y) + self.u_center,
            "lam": float(sol.x[self.lam_index]) * (self.kappa / self.gamma) ** 2,
            "t": sol.x[self.t_index],
            "beta": sol.x[self.beta_index],
            "objective": sol.objective,
        }


# mode -> (worst-case kernel, whether the mode takes moment information)
LQC_MODES = {
    "robust": ("robust", False),
    "regret": ("regret", False),
    "dr": ("robust", True),
    "dr-regret": ("regret", True),
}


def lqc_mode(mode: str, amb: AmbiguitySpec | None) -> tuple[str, AmbiguitySpec | None]:
    """The kernel of an LQC mode and the moment information it uses.

    Raises ``ValueError`` for an unknown mode and for a distributionally
    robust mode without moment information; the robust and regret modes
    ignore ``amb`` and get ``None``.
    """
    if mode not in LQC_MODES:
        raise ValueError(f"unknown LQC mode {mode!r}")
    kernel, moments = LQC_MODES[mode]
    if not moments:
        return kernel, None
    if amb is None:
        raise ValueError(f"mode {mode!r} needs moment information (an ambiguity block)")
    return kernel, amb


def _build_minmax_socp(spec: LqcSpec, x0, mode: str, amb: AmbiguitySpec | None) -> LqcSocp:
    kernel, amb = lqc_mode(mode, amb)
    cc = build_compact_cost(spec, x0)
    n_u_all, n_w_all = spec.stacked_input_dim, spec.stacked_dist_dim
    L, F, G_y = spec.input_factor

    # whitened, centered inputs y = L'(u - u_c).  The unconstrained minimizer
    # is u* = -Uq^{-1} ul = -L^{-T} v with v = L^{-1} ul, and the center
    # u_c = theta u* takes the largest theta in [0, 1] that keeps u_c in the
    # input set (theta = 0 when 0 is not in it).  Centering at u* whatever
    # the input set (theta = 1) leaves an O(1) objective vector against an
    # optimum that can reach 1e8, and the solver's relative infeasibility
    # test then fires on feasible programs
    v = scipy.linalg.solve_triangular(L, cc.u_lin, lower=True)
    Gv = G_y @ v  # G_u u* = -Gv
    h = spec.u_poly_h
    theta = 0.0
    if (h >= 0).all():
        falling = Gv < 0
        theta = float(np.min(h[falling] / -Gv[falling], initial=1.0))
    u_center = theta * scipy.linalg.solve_triangular(L.T, -v)
    # in y, u'Uq u + 2 ul'u = y'y + 2 (1 - theta) v'y + (theta^2 - 2 theta) v'v;
    # the heads are S'(w_lin + X'u) = S'(F'y + w_lin - theta F'v) for the
    # robust kernel and S'X'(u + Uq^{-1} ul) = S'(F'y + (1 - theta) F'v) for
    # regret, whose offset is v'v + (theta^2 - 2 theta) v'v = (1 - theta)^2 v'v
    Fv = F.T @ v
    if kernel == "robust":
        head_const = cc.w_lin - theta * Fv
        offset = cc.constant + theta * (theta - 2.0) * float(v @ v)
    else:
        head_const = (1.0 - theta) * Fv
        offset = (1.0 - theta) ** 2 * float(v @ v)

    sd = spec.robust_diag if kernel == "robust" else spec.regret_diag
    m = amb.num_moments if amb is not None else 0
    if amb is not None and amb.H.shape[1] != n_w_all:
        raise DimensionMismatch("moment matrix columns must match stacked disturbance dim")

    b = ConicProgramBuilder()
    y_idx = b.add_vars(n_u_all)
    lam_idx = b.add_var()
    t_idx = b.add_vars(n_w_all)
    beta_idx = b.add_vars(m)

    # disturbance normalized to the ball of radius g = gamma / kappa with
    # kappa = max(1, gamma): lam here is g^2 * the multiplier of the original
    # ball and costs kappa^2 * lam, heads pick up a factor g and the diagonal
    # delta a factor g^2 -- an exact substitution that keeps the block data
    # O(1) for small radii (kappa = 1) and for large ones (g = 1)
    kappa = max(1.0, spec.gamma)
    g = spec.gamma / kappa
    n = b.num_vars
    obj = np.zeros(n)
    obj[lam_idx] = kappa**2
    obj[y_idx] = 2.0 * (1.0 - theta) * v
    obj[t_idx] = 1.0
    if amb is not None:
        obj[beta_idx] = amb.mu
    b.set_objective_row(obj, offset, unit_rows(y_idx, n))  # ||y||^2 + obj'x

    # lam >= 0, beta >= 0 and the input polyhedron h - G u >= 0, one row each,
    # in y: h + theta G_u L^{-T} v - G_u L^{-T} y >= 0
    n_poly = G_y.shape[0]
    rows = np.zeros((1 + m + n_poly, n))
    rows[: 1 + m] = unit_rows([lam_idx, *beta_idx], n)
    rows[1 + m :, y_idx] = -G_y
    consts = np.concatenate([np.zeros(1 + m), h + theta * Gv])
    b.add_block_rows(rows[:, None], consts[:, None],
                     ["lam"] + ["beta"] * m + ["input_set"] * n_poly)

    # per-coordinate heads [S^T (linear-in-y disturbance coupling)]_i, with
    # - S'H' beta / 2 for moment information
    head_const = sd.S.T @ head_const
    heads = np.zeros((n_w_all, n))
    heads[:, y_idx] = g * (sd.S.T @ F.T)
    if amb is not None:
        heads[:, beta_idx] = g * (-(sd.S.T @ amb.H.T) / 2.0)
    # head_i^2 <= t_i * slack_i with slack_i = alpha_i lam - g^2 delta_i
    slacks = np.zeros((n_w_all, n))
    slacks[:, lam_idx] = sd.alpha
    A, rhs = hyperbolic_rows(heads, g * head_const, unit_rows(t_idx, n), np.zeros(n_w_all),
                             slacks, -(g**2 * sd.delta))
    b.add_block_rows(A, rhs, [f"coneq{i}" for i in range(n_w_all)])

    return LqcSocp(
        program=b.build(),
        mode=mode,
        compact=cc,
        diag=sd,
        gamma=spec.gamma,
        kappa=kappa,
        chol_L=L,
        u_center=u_center,
        y_index=y_idx,
        lam_index=lam_idx,
        t_index=t_idx,
        beta_index=beta_idx,
        n_cone_q=n_w_all,
        lmi_dim=n_u_all + n_w_all + 1,
    )


def build_robust_socp(spec: LqcSpec, x0) -> LqcSocp:
    """Min over allowed inputs of the worst-case cost on the disturbance ball."""
    return _build_minmax_socp(spec, x0, "robust", None)


def build_regret_socp(spec: LqcSpec, x0) -> LqcSocp:
    """Min over allowed inputs of the worst-case regret against the clairvoyant
    unconstrained input; the reported optimum is always nonnegative."""
    return _build_minmax_socp(spec, x0, "regret", None)


def build_dr_socp(spec: LqcSpec, x0, amb: AmbiguitySpec) -> LqcSocp:
    """Worst-case expected cost over ball-supported distributions whose first
    moments satisfy E[H w] <= mu.  With no moment rows this coincides with
    the purely robust program."""
    return _build_minmax_socp(spec, x0, "dr", amb)


def build_dr_regret_socp(spec: LqcSpec, x0, amb: AmbiguitySpec) -> LqcSocp:
    """Distributionally robust version of the regret objective."""
    return _build_minmax_socp(spec, x0, "dr-regret", amb)


# ---------------------------------------------------------------------------
# the bordered-matrix certificate of a solved robust program


def robust_certificate_matrix(spec: LqcSpec, cc: CompactCost, u, lam, t) -> np.ndarray:
    """The classical S-lemma matrix certifying a solved robust program.

    It is :func:`assemble_classical_lmi` of the lifted pair over z = (xi, w):
    inner form gamma^2 - w'w, outer form z'[[I, F], [F', F'F - Wq]]z +
    2 (y, F'v - wl)'z + y'y + sum(t) + gamma^2 lam, where Uq = L L' and
    F = L^{-1} X come from ``spec.input_factor``, v = L^{-1} ul and
    y = L'u + v.  The Schur complement on its identity block is the ball
    pair's matrix at u, so the two are PSD together.
    """
    L, F, _ = spec.input_factor
    v = scipy.linalg.solve_triangular(L, cc.u_lin, lower=True)
    y = L.T @ np.asarray(u, dtype=float) + v
    n_u, n_w = F.shape
    inner = QuadForm(np.diag(np.repeat([0.0, -1.0], [n_u, n_w])), np.zeros(n_u + n_w),
                     spec.gamma**2)
    D = np.block([[np.eye(n_u), F], [F.T, F.T @ F - cc.w_quad]])
    f = float(y @ y) + float(np.sum(t)) + spec.gamma**2 * float(lam)
    return assemble_classical_lmi(inner, D, np.concatenate([y, F.T @ v - cc.w_lin]), f,
                                  float(lam))


# ---------------------------------------------------------------------------
# receding horizon


@dataclass
class SimulationRecord:
    states: np.ndarray
    inputs: np.ndarray
    objectives: list[float]
    statuses: list[Status]
    iterations: list[int]


def receding_horizon_simulate(
    spec: LqcSpec,
    x0,
    disturbances,
    controller: str = "robust",
    amb: AmbiguitySpec | None = None,
    config: SolverConfig | None = None,
) -> SimulationRecord:
    """Apply the first input of the re-solved plan at every step.

    ``controller`` is one of :data:`LQC_MODES`; the DR modes need ``amb``.
    ``disturbances`` holds the realized disturbance vectors, one row per
    step; the plant steps with the first-stage dynamics matrices.  Solver
    failures raise :class:`RecedingHorizonError` with the offending step.
    """
    lqc_mode(controller, amb)
    disturbances = np.atleast_2d(np.asarray(disturbances, dtype=float))
    if disturbances.shape[1:] != (spec.n_w,):
        raise DimensionMismatch("disturbance sequence has wrong shape")

    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    states = [x.copy()]
    inputs = np.zeros((len(disturbances), spec.n_u))
    objectives, statuses, iterations = [], [], []
    for k, w in enumerate(disturbances):
        socp = _build_minmax_socp(spec, x, controller, amb)
        sol = solve(socp.program, config)
        statuses.append(sol.status)
        iterations.append(sol.iterations)
        if sol.status is not Status.OPTIMAL:
            raise RecedingHorizonError(k, sol.status)
        objectives.append(sol.objective)
        u_first = socp.extract(sol)["u"][: spec.n_u]
        inputs[k] = u_first
        x = spec.A[0] @ x + spec.B[0] @ u_first + spec.C[0] @ w
        states.append(x.copy())
    return SimulationRecord(np.array(states), inputs, objectives, statuses, iterations)
