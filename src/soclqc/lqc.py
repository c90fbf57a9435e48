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
factor: the programs are posed in whitened inputs y = L'u, so that the
cone data do not carry cond(Uq).
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
    NotPositiveDefinite,
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
)
from .solver import Solution, Status, solve


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
    """Every Q[k] symmetric PSD and every R[k] symmetric positive definite.

    One stacked symmetry test (the tolerance of :func:`slemma.symmetrize`),
    eigvalsh and Cholesky test all stages; a failure names the matrix and its
    first failing stage k, as in "R[k] is not symmetric within tolerance".
    """
    q_asym, r_asym = (
        np.linalg.norm(M - M.transpose(0, 2, 1), axis=(1, 2))
        > 1e-12 * np.maximum(1.0, np.linalg.norm(M, axis=(1, 2))) * M.shape[1] * 100
        for M in (Q, R))
    qev = np.linalg.eigvalsh(0.5 * (Q + Q.transpose(0, 2, 1)))
    indefinite = qev[:, 0] < -1e-9 * np.maximum(1.0, np.abs(qev[:, -1]))
    try:
        L = np.linalg.cholesky(0.5 * (R + R.transpose(0, 2, 1)))
        pivots = np.diagonal(L, axis1=1, axis2=2).min(axis=1) ** 2
        r_bad = pivots <= 1e-12 * np.linalg.norm(R, axis=(1, 2))
    except np.linalg.LinAlgError:
        r_bad = np.ones(len(R), dtype=bool)  # the stacked factorization names no stage
    for k in np.flatnonzero(q_asym | r_asym | indefinite | r_bad):
        if q_asym[k] or r_asym[k]:
            raise ValueError(f"{'Q' if q_asym[k] else 'R'}[{k}] is not symmetric within tolerance")
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
    properties, ``input_factor`` made with the spec and the rest on first
    use.  ``dataclasses.replace`` makes a new instance, which computes its own.
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
        self.input_factor  # the build's factor, which names a failing stage

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

    def _prediction_rows(self) -> np.ndarray:
        """The block row [F | G | H] with (x_1, ..., x_N) = F x0 + G u + H w, by
        the recursion [F_k | G_k | H_k] = A_k [F_{k-1} | G_{k-1} | H_{k-1}]
        plus B_k and C_k in stage k's columns: one product per stage.  Not
        cached: :attr:`cost_pieces` holds all that the builders read of it."""
        N, n_x, n_u, n_w = self.horizon, self.n_x, self.n_u, self.n_w
        S = np.zeros((N * n_x, n_x + N * (n_u + n_w)))
        S[:n_x, :n_x] = self.A[0]
        u0, w0 = n_x, n_x + N * n_u  # first columns of G and H
        for k in range(N):
            rows = slice(k * n_x, (k + 1) * n_x)
            if k > 0:
                S[rows] = self.A[k] @ S[(k - 1) * n_x : k * n_x]
            S[rows, u0 + k * n_u : u0 + (k + 1) * n_u] = self.B[k]
            S[rows, w0 + k * n_w : w0 + (k + 1) * n_w] = self.C[k]
        return S

    @cached_property
    def cost_pieces(self) -> dict:
        """x0-independent pieces of the compact cost: the quadratic and cross
        blocks, and each linear term as ``*_x0 @ x0 + *_0``.  Q is applied
        stage by stage to the block row S = [F | G | H]; one product of its
        (u, w) columns with QS gives every block that an input or a
        disturbance enters."""
        S = self._prediction_rows()
        N, n_x, n_u = self.horizon, self.n_x, self.n_u
        nu = N * n_u
        QS = np.matmul(self.Q, S.reshape(N, n_x, -1)).reshape(S.shape)
        quad = S[:, n_x:].T @ QS  # rows (u, w), columns (x0, u, w)
        lin = S.T @ self.q.reshape(-1)  # (x0, u, w)
        Rbar = np.zeros((N, n_u, N, n_u))
        stage = np.arange(N)
        Rbar[stage, :, stage, :] = self.R
        u_rows, w_rows = quad[:nu], quad[nu:]
        w0 = n_x + nu
        w_quad = w_rows[:, w0:]
        u_quad = u_rows[:, n_x:w0] + Rbar.reshape(nu, nu)
        x0_quad = S[:, :n_x].T @ QS[:, :n_x]
        # copies of the blocks, so that the cache does not keep all of quad;
        # the quadratic blocks are symmetric up to rounding
        return {
            "w_quad": 0.5 * (w_quad + w_quad.T),
            "cross": u_rows[:, w0:].copy(),
            "u_quad": 0.5 * (u_quad + u_quad.T),
            "w_lin_x0": w_rows[:, :n_x].copy(),
            "w_lin_0": lin[w0:],
            "u_lin_x0": u_rows[:, :n_x].copy(),
            "u_lin_0": lin[n_x:w0] + self.r.reshape(-1),
            "x0_quad": 0.5 * (x0_quad + x0_quad.T),
            "x0_lin": lin[:n_x],
        }

    @cached_property
    def input_factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cholesky factor L of the stacked input cost, Uq = L L', F = L^{-1} X
        and the input-set rows in whitened inputs, G_u L^{-T}, the last two
        from one triangular solve in place on [X | G_u'].  The spec computes
        it when it is made, so that a spec whose Uq fails the pivot test is
        rejected there, with the stage of the first failing pivot named."""
        pieces = self.cost_pieces
        Uq = pieces["u_quad"]
        try:
            L = cholesky_factor(Uq, "stacked input cost")
        except NotPositiveDefinite as exc:
            # dpotrf stops at the first leading minor that is not positive
            # definite; a pivot below the test's threshold may come earlier
            U, info = scipy.linalg.lapack.dpotrf(Uq)
            pivots = np.diagonal(U)[: info - 1 if info else None] ** 2
            low = np.flatnonzero(pivots <= 1e-12 * np.linalg.norm(Uq))
            stage = (low[0] if low.size else max(info - 1, 0)) // self.n_u
            raise NotPositiveDefinite(f"{exc} at stage {stage}") from None
        X = pieces["cross"]
        FG = np.empty((len(L), X.shape[1] + len(self.u_poly_G)), order="F")
        FG[:, : X.shape[1]], FG[:, X.shape[1] :] = X, self.u_poly_G.T
        FG = scipy.linalg.solve_triangular(L, FG, lower=True, overwrite_b=True)
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


def box_polyhedron(bound: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``[I; -I]`` for ``-bound <= u_i <= bound`` on every coordinate;
    a negative bound, an empty box, is rejected."""
    if not bound >= 0:
        raise ValueError("box bound must be nonnegative")
    G = np.array([1.0, -1.0])[:, None, None] * np.eye(dim)
    return G.reshape(2 * dim, dim), np.full(2 * dim, float(bound))


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
    if N < 1:
        raise ValueError("horizon N must be at least 1")
    one = np.ones((N, 1, 1))
    weights = np.array([decay**k for k in range(N + 1)]).reshape(-1, 1, 1)
    G, h = box_polyhedron(input_bound, N)
    return LqcSpec(one, one, one, weights[1:], np.zeros((N, 1)), weights[:-1], np.zeros((N, 1)),
                   gamma, G, h)


# ---------------------------------------------------------------------------
# the compact cost


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

    The program's input variables are whitened, ``y = L'u`` with
    ``Uq = L L'`` (``chol_L``), so its cone data do not carry the
    conditioning of Uq.  The disturbance is normalized to a ball of radius
    gamma / kappa with ``kappa = max(1, gamma)``: the multiplier variable
    carries a factor (gamma / kappa)^2 and its objective coefficient is
    kappa^2, which keeps the data O(1) for small and for large radii alike.
    ``extract`` undoes both substitutions.
    """

    program: ConicProgram
    mode: str
    compact: CompactCost
    diag: SimulDiag
    gamma: float
    chol_L: np.ndarray
    y_index: np.ndarray
    lam_index: int
    t_index: np.ndarray
    beta_index: np.ndarray

    def extract(self, sol: Solution) -> dict:
        y = sol.x[self.y_index]
        kappa = max(1.0, self.gamma)
        return {
            "u": scipy.linalg.solve_triangular(self.chol_L.T, y),
            "lam": float(sol.x[self.lam_index]) * (kappa / self.gamma) ** 2,
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

    # whitened inputs y = L'u with v = L^{-1} ul: u'Uq u + 2 ul'u = y'y + 2 v'y.
    # The heads are S'(w_lin + X'u) = S'(F'y + w_lin) for the robust kernel
    # and S'X'(u + Uq^{-1} ul) = S'(F'y + F'v) for regret, whose offset is v'v
    v = scipy.linalg.solve_triangular(L, cc.u_lin, lower=True)
    if kernel == "robust":
        head_const, offset = cc.w_lin, cc.constant
    else:
        head_const, offset = F.T @ v, float(v @ v)

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
    obj[y_idx] = 2.0 * v
    obj[t_idx] = 1.0
    if amb is not None:
        obj[beta_idx] = amb.mu
    b.set_objective_row(obj, offset, unit_rows(y_idx, n_u_all))  # ||y||^2 + obj'x

    # lam >= 0, beta >= 0 and the input polyhedron h - G u >= 0, one row each,
    # in y: h - G_u L^{-T} y >= 0.  Rows are stored over the first variables
    # they reach, beta being the last ones
    w = n if m else lam_idx + 1
    rows = np.zeros((1 + m + len(G_y), w))
    rows[: 1 + m] = unit_rows([lam_idx, *beta_idx], w)
    rows[1 + m :, y_idx] = -G_y
    consts = np.concatenate([np.zeros(1 + m), spec.u_poly_h])
    b.add_block_rows(rows[:, None], consts[:, None])

    # per-coordinate heads [S^T (linear-in-y disturbance coupling)]_i, with
    # - S'H' beta / 2 for moment information
    head_const = sd.S.T @ head_const
    heads = np.zeros((n_w_all, n if m else n_u_all))
    heads[:, y_idx] = g * (sd.S.T @ F.T)
    if amb is not None:
        heads[:, beta_idx] = g * (-(sd.S.T @ amb.H.T) / 2.0)
    # head_i^2 <= t_i * slack_i with slack_i = alpha_i lam - g^2 delta_i
    slacks = np.zeros((n_w_all, lam_idx + 1))
    slacks[:, lam_idx] = sd.alpha
    A, rhs = hyperbolic_rows(heads, g * head_const, unit_rows(t_idx, n), np.zeros(n_w_all),
                             slacks, -(g**2 * sd.delta))
    b.add_block_rows(A, rhs)
    del heads, slacks  # freed before build() allocates G

    return LqcSocp(
        program=b.build(),
        mode=mode,
        compact=cc,
        diag=sd,
        gamma=spec.gamma,
        chol_L=L,
        y_index=y_idx,
        lam_index=lam_idx,
        t_index=t_idx,
        beta_index=beta_idx,
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
    iterations: list[int]


def receding_horizon_simulate(
    spec: LqcSpec,
    x0,
    disturbances,
    controller: str = "robust",
    amb: AmbiguitySpec | None = None,
    max_iters: int = 100,
) -> SimulationRecord:
    """Apply the first input of the re-solved plan at every step.

    ``controller`` is one of :data:`LQC_MODES`; the DR modes need ``amb``.
    ``disturbances`` holds the realized disturbance vectors, one row per
    step; the plant steps with the first-stage dynamics matrices.  Each
    solve stops after ``max_iters`` iterations; a solver failure raises
    :class:`RecedingHorizonError` with the offending step.
    """
    lqc_mode(controller, amb)
    disturbances = np.atleast_2d(np.asarray(disturbances, dtype=float))
    if disturbances.shape[1:] != (spec.n_w,):
        raise DimensionMismatch("disturbance sequence has wrong shape")

    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    states = [x.copy()]
    inputs = np.zeros((len(disturbances), spec.n_u))
    objectives, iterations = [], []
    for k, w in enumerate(disturbances):
        socp = _build_minmax_socp(spec, x, controller, amb)
        sol = solve(socp.program, max_iters)
        iterations.append(sol.iterations)
        if sol.status is not Status.OPTIMAL:
            raise RecedingHorizonError(k, sol.status)
        objectives.append(sol.objective)
        u_first = socp.extract(sol)["u"][: spec.n_u]
        inputs[k] = u_first
        x = spec.A[0] @ x + spec.B[0] @ u_first + spec.C[0] @ w
        states.append(x.copy())
    return SimulationRecord(np.array(states), inputs, objectives, iterations)
