from dataclasses import replace

import numpy as np
import scipy.linalg

from soclqc.lqc import AmbiguitySpec, LqcSpec, box_polyhedron, build_compact_cost
from soclqc.model import (
    ConicProgramBuilder,
    DimensionMismatch,
    cholesky_factor,
    hyperbolic_rows,
    psd_sqrt_factor,
)
from soclqc.mpc import MpcSpec
from soclqc.slemma import QuadForm, SimulDiag, simultaneous_diagonalize, symmetrize


class LinExpr:
    """Sparse affine expression ``sum_i coeff[i] * x_i + const``.

    The input form of :class:`ExprBuilder`, which lowers it to a coefficient
    row (:func:`expr_rows`) over the variables that exist then.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict[int, float] | None = None, const: float = 0.0):
        self.terms = dict(terms) if terms else {}
        self.const = float(const)

    @staticmethod
    def variable(index: int) -> "LinExpr":
        return LinExpr({int(index): 1.0})

    @staticmethod
    def constant(value: float) -> "LinExpr":
        return LinExpr({}, value)

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.const)

    def __add__(self, other):
        out = self.copy()
        if isinstance(other, LinExpr):
            for i, v in other.terms.items():
                out.terms[i] = out.terms.get(i, 0.0) + v
            out.const += other.const
        else:
            out.const += float(other)
        return out

    __radd__ = __add__

    def __neg__(self):
        return LinExpr({i: -v for i, v in self.terms.items()}, -self.const)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LinExpr) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, scalar):
        s = float(scalar)
        return LinExpr({i: s * v for i, v in self.terms.items()}, s * self.const)

    __rmul__ = __mul__

    def to_row(self, num_vars: int) -> tuple[np.ndarray, float]:
        row = np.zeros(num_vars)
        for i, v in self.terms.items():
            if i >= num_vars:
                raise DimensionMismatch(
                    f"expression references variable {i} but program has {num_vars}"
                )
            row[i] += v
        return row, self.const

    def __repr__(self):
        parts = [f"{v:+g}*x{i}" for i, v in sorted(self.terms.items())]
        parts.append(f"{self.const:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


def as_expr(value) -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr.constant(float(value))


def expr_rows(exprs, num_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows ``(len, num_vars)`` and constants of affine expressions."""
    exprs = list(exprs)
    A = np.zeros((len(exprs), num_vars))
    b = np.zeros(len(exprs))
    for i, e in enumerate(exprs):
        A[i], b[i] = as_expr(e).to_row(num_vars)
    return A, b


def lin_comb(M, exprs) -> list[LinExpr]:
    """The expressions ``sum_j M[i, j] * exprs[j]``, one per row of M."""
    return [sum((m * e for m, e in zip(row, exprs)), LinExpr()) for row in np.atleast_2d(M)]


class ExprBuilder(ConicProgramBuilder):
    """A :class:`ConicProgramBuilder` that also takes :class:`LinExpr`
    arguments, each lowered to one block of coefficient rows on entry."""

    def var(self, index: int) -> LinExpr:
        if not 0 <= index < self.num_vars:
            raise DimensionMismatch(f"no variable {index}")
        return LinExpr.variable(index)

    def var_exprs(self, indices) -> list[LinExpr]:
        return [self.var(int(i)) for i in np.atleast_1d(indices)]

    def set_objective(self, expr, F=None) -> None:
        """Objective ``||F x||^2 + expr``, F over the first variables."""
        self.set_objective_row(*as_expr(expr).to_row(self.num_vars), F)

    def add_nonneg(self, expr) -> None:
        """Constrain ``expr >= 0``."""
        A, b = expr_rows([expr], self.num_vars)
        self.add_block_rows(A[None], b[None])

    def add_soc(self, head, tail) -> None:
        """Constrain ``||tail||_2 <= head``; an empty tail is ``head >= 0``."""
        A, b = expr_rows([head, *tail], self.num_vars)
        self.add_block_rows(A[None], b[None])

    def add_hyperbolic(self, x, y, z) -> None:
        """Constrain ``||x||^2 <= y * z`` for one expression x or a list."""
        xs = [x] if isinstance(x, (LinExpr, int, float)) else list(x)
        X, xc = expr_rows(xs, self.num_vars)
        YZ, yz = expr_rows([y, z], self.num_vars)
        A, b = hyperbolic_rows(X[None], xc[None], YZ[:1], yz[:1], YZ[1:], yz[1:])
        self.add_block_rows(A, b)

    def add_quadratic_cost(self, M, xs) -> LinExpr:
        """A new variable t with ``x' M x <= t``, M positive definite."""
        t = self.var(self.add_var())
        self.add_hyperbolic(lin_comb(cholesky_factor(M).T, xs), t, 1.0)
        return t


def block_slack(blk, x) -> np.ndarray:
    """The slack ``A x + b`` of one :class:`~soclqc.model.ConeBlock`."""
    return blk.A @ x + blk.b


def block_violation(blk, x) -> float:
    """Amount by which x puts a block outside its cone (0 when feasible)."""
    s = block_slack(blk, x)
    return max(0.0, float(np.linalg.norm(s[1:]) - s[0]))


def max_violation(prog, x) -> float:
    """Worst cone violation of a candidate point."""
    return max(block_violation(blk, x) for blk in prog.blocks)


def diag_residuals(sd: SimulDiag, A, D) -> tuple[float, float]:
    """Frobenius residuals of ``S'A S = diag(alpha)`` and ``S'D S = diag(delta)``."""
    ra = np.linalg.norm(sd.S.T @ A @ sd.S - np.diag(sd.alpha))
    rd = np.linalg.norm(sd.S.T @ D @ sd.S - np.diag(sd.delta))
    return ra, rd


def pin_variables(prog, indices, values):
    """prog with ``x[indices] = values`` substituted: their columns of G, F
    and the objective move into h, obj and obj_offset and become zero, so
    the variables keep their indices and a solve leaves them at 0."""
    idx = np.atleast_1d(np.asarray(indices, dtype=int))
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if idx.shape != values.shape:
        raise DimensionMismatch("pin_variables: indices and values differ in length")
    bad = idx[(idx < 0) | (idx >= prog.num_vars)]
    if bad.size:
        raise DimensionMismatch(f"pin_variables: no variable {bad[0]}")
    G, F, obj = prog.G.copy(), prog.obj_F.copy(), prog.obj.copy()
    Fv = F[:, idx] @ values
    h = prog.h - G[:, idx] @ values
    offset = prog.obj_offset + float(obj[idx] @ values) + float(Fv @ Fv)
    G[:, idx] = F[:, idx] = obj[idx] = 0.0
    # ||F x + Fv||^2 = ||F x||^2 + 2 (F'Fv)'x + ||Fv||^2 over the others
    return replace(prog, obj=obj + 2.0 * (F.T @ Fv), obj_offset=offset, obj_F=F, G=G, h=h)


def epigraph_program(prog):
    """prog with its quadratic cost ``||F x||^2`` moved into an epigraph
    block: a new last variable t with ``x' F'F x <= t``
    (:meth:`ExprBuilder.add_quadratic_cost`, over the variables F uses, on
    which F must have full column rank) and t in the linear objective."""
    b = ExprBuilder()
    xs = b.var_exprs(b.add_vars(prog.num_vars))
    for blk in prog.blocks:
        b.add_block_rows(blk.A[None], blk.b[None])
    cols = np.flatnonzero(prog.obj_F.any(axis=0))
    F = prog.obj_F[:, cols]
    t = b.add_quadratic_cost(F.T @ F, [xs[j] for j in cols])
    b.set_objective(lin_comb(prog.obj, xs)[0] + t + prog.obj_offset)
    return b.build()


def empty_ambiguity(n_w: int) -> AmbiguitySpec:
    """Moment information with no rows over n_w disturbance coordinates."""
    return AmbiguitySpec(np.zeros((0, n_w)), np.zeros(0))


def prediction_matrices(spec: LqcSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked maps (F, G, H) with (x_1, ..., x_N) = F x0 + G u + H w,
    as views of the spec's block row [F | G | H]."""
    S, n_x = spec._prediction_rows(), spec.n_x
    w0 = n_x + spec.stacked_input_dim
    return S[:, :n_x], S[:, n_x:w0], S[:, w0:]


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


def random_lqc_spec(rng, n_x, n_u, n_w, N, gamma=None, with_linear=True):
    """Well-posed random instance: PSD state costs, PD input costs, box inputs."""
    A = rng.standard_normal((N, n_x, n_x)) * 0.7
    B = rng.standard_normal((N, n_x, n_u))
    C = rng.standard_normal((N, n_x, n_w))
    Q = np.zeros((N, n_x, n_x))
    R = np.zeros((N, n_u, n_u))
    for k in range(N):
        Mq = rng.standard_normal((n_x, n_x))
        Q[k] = Mq.T @ Mq / n_x
        Mr = rng.standard_normal((n_u, n_u))
        R[k] = Mr.T @ Mr / n_u + 0.5 * np.eye(n_u)
    scale = 0.3 if with_linear else 0.0
    q = rng.standard_normal((N, n_x)) * scale
    r = rng.standard_normal((N, n_u)) * scale
    if gamma is None:
        gamma = rng.uniform(0.2, 1.5)
    G, h = box_polyhedron(rng.uniform(0.5, 2.0), N * n_u)
    return LqcSpec(A, B, C, Q, q, R, r, gamma, G, h)


def assert_same_program(built, ref):
    assert built.num_vars == ref.num_vars
    assert np.array_equal(built.obj, ref.obj)
    assert built.obj_offset == ref.obj_offset
    assert np.array_equal(built.obj_F, ref.obj_F)
    assert (built.nn, built.soc) == (ref.nn, ref.soc)
    assert np.array_equal(built.G, ref.G) and np.array_equal(built.h, ref.h)


def assert_identical_programs(built, ref):
    """The two programs agree field by field, bit for bit."""
    for name in ("num_vars", "obj", "obj_offset", "obj_F", "G", "h", "nn", "soc"):
        a, b = getattr(built, name), getattr(ref, name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def reference_lqc_program(spec, x0, kernel, amb=None):
    """The min-max LQC program assembled expression by expression with
    :class:`ExprBuilder`, one hyperbolic block per coordinate: the variable
    order, block order and kinds the LQC builders must reproduce.

    The inputs are whitened, y = L'u with Uq = L L'; the disturbance ball
    is scaled to radius gamma / kappa, kappa = max(1, gamma).
    """
    cc = build_compact_cost(spec, x0)
    # Uq = L L', F = L^{-1} X, v = L^{-1} ul and the input rows G_u L^{-T}
    L = cholesky_factor(cc.u_quad)
    F = scipy.linalg.solve_triangular(L, cc.cross, lower=True)
    v = scipy.linalg.solve_triangular(L, cc.u_lin, lower=True)
    G_y = scipy.linalg.solve_triangular(L, spec.u_poly_G.T, lower=True).T
    if kernel == "robust":
        w_quad_eff = cc.w_quad
        head_const = cc.w_lin
        offset = cc.constant
    else:
        # regret kernel X' Uq^{-1} X = F'F, and X'(u + Uq^{-1} ul) is F'y + F'v
        w_quad_eff = F.T @ F
        head_const = F.T @ v
        offset = float(v @ v)
    sd = simultaneous_diagonalize(np.eye(w_quad_eff.shape[0]), w_quad_eff)
    m = amb.num_moments if amb is not None else 0
    kappa = max(1.0, spec.gamma)
    g = spec.gamma / kappa

    b = ExprBuilder()
    y = b.var_exprs(b.add_vars(spec.stacked_input_dim))
    lam = b.var(b.add_var())
    ts = b.var_exprs(b.add_vars(spec.stacked_dist_dim))
    betas = b.var_exprs(b.add_vars(m))
    # u'Uq u + 2 ul'u = ||y||^2 + 2 v'y
    obj = kappa**2 * lam
    for j, ye in enumerate(y):
        obj = obj + 2.0 * v[j] * ye
    for te in ts:
        obj = obj + te
    for j, be in enumerate(betas):
        obj = obj + amb.mu[j] * be
    b.set_objective(obj + offset, F=np.eye(len(y)))  # y are the first variables

    b.add_nonneg(lam)
    for be in betas:
        b.add_nonneg(be)
    for i in range(G_y.shape[0]):
        row = LinExpr.constant(spec.u_poly_h[i])
        for j, ye in enumerate(y):
            if G_y[i, j] != 0.0:
                row = row - G_y[i, j] * ye
        b.add_nonneg(row)

    head_mat = sd.S.T @ F.T
    head_const = sd.S.T @ head_const
    beta_mat = -(sd.S.T @ amb.H.T) / 2.0 if amb is not None else None
    for i in range(spec.stacked_dist_dim):
        head = LinExpr.constant(g * head_const[i])
        for j, ye in enumerate(y):
            if head_mat[i, j] != 0.0:
                head = head + g * head_mat[i, j] * ye
        for j, be in enumerate(betas):
            if beta_mat[i, j] != 0.0:
                head = head + g * beta_mat[i, j] * be
        slack = 1.0 * lam * sd.alpha[i] - g**2 * sd.delta[i]
        b.add_hyperbolic(head, ts[i], slack)
    return b.build()


def reference_mpc_program(spec, x_init, fixed_terminal=None):
    """The MPC program of :func:`soclqc.mpc.build_mpc_socp` assembled
    expression by expression with :class:`ExprBuilder`, in the order the
    builder must reproduce: the variables v, c, r, lam and t, each input and
    state the expression ``x_p + N_ux v`` of its row of the spec's cached
    basis; one row per path, radius and containment constraint and one
    hyperbolic block per invariance coordinate; a fixed terminal set
    substituted for c and r by :func:`pin_variables`."""
    x_init = np.asarray(x_init, dtype=float)
    N, n_x, n_u = spec.N, spec.n_x, spec.n_u
    td = spec.terminal_diag
    basis, X_p = spec.dynamics_basis
    b = ExprBuilder()
    v = b.add_vars(basis.shape[1]).tolist()
    ux = [LinExpr(dict(zip(v, row)), const) for row, const in zip(basis, X_p @ x_init)]
    u = [ux[k * n_u : (k + 1) * n_u] for k in range(N)]
    x = [ux[N * n_u + k * n_x : N * n_u + (k + 1) * n_x] for k in range(N)]  # x_1..x_N
    c_idx, r_idx = b.add_vars(n_x), b.add_var()
    c, r = b.var_exprs(c_idx), b.var(r_idx)

    for k in range(N - 1):
        for j, ex in enumerate(lin_comb(spec.E, x[k])):
            b.add_nonneg(spec.f[j] - ex)
    for k in range(N):
        for j, gu in enumerate(lin_comb(spec.G, u[k])):
            b.add_nonneg(spec.h[j] - gu)

    p_half = spec.p_sqrt
    b.add_soc(r, [px - pc for px, pc in zip(lin_comb(p_half, x[N - 1]), lin_comb(p_half, c))])
    b.add_nonneg(r)

    # invariance: ||m_sqrt c||^2 <= r (r - lam - sum t) and
    # (coupling c)_i^2 <= t_i (lam - alpha_i r)
    lam = b.var(b.add_var())
    t = b.var_exprs(b.add_vars(n_x))
    b.add_nonneg(lam)
    b.add_hyperbolic(lin_comb(td.m_sqrt, c), r, r - lam - sum(t, LinExpr()))
    for i, head in enumerate(lin_comb(td.coupling, c)):
        b.add_hyperbolic(head, t[i], lam - td.alpha[i] * r)

    # containment: rows_j' c + ||rows_j' P^{-1/2}|| r <= limits_j
    for rows, limits in ((spec.E, spec.f), (spec.G @ spec.K, spec.h)):
        gains = np.linalg.norm(rows @ spec.p_inv_sqrt, axis=1)
        for j, rc in enumerate(lin_comb(rows, c)):
            b.add_nonneg(limits[j] - rc - gains[j] * r)

    # stage costs ||Q^{1/2} x_k||^2 (k = 1..N-1), ||R^{1/2} u_k||^2 and
    # ||Q_f^{1/2} x_N||^2: heads F v + f0, so the objective is ||F v||^2 +
    # 2 f0'F v + ||f0||^2, plus the constant x_0 term
    fq, fr, ff = (psd_sqrt_factor(M) for M in (spec.Q, spec.R, spec.Q_f))
    heads = [h for k in range(N - 1) for h in lin_comb(fq, x[k])]
    heads += [h for k in range(N) for h in lin_comb(fr, u[k])]
    heads += lin_comb(ff, x[N - 1])
    F, f0 = expr_rows(heads, b.num_vars)
    b.set_objective_row(2.0 * np.einsum("rv,r->v", F, f0),
                        float(x_init @ spec.Q @ x_init) + float(f0 @ f0), F)
    prog = b.build()
    if fixed_terminal is None:
        return prog
    return pin_variables(prog, [*c_idx, r_idx], [*fixed_terminal[0], fixed_terminal[1]])


def scalar_regret_grid_oracle(spec, x0, u_grid, w_grid):
    """Vectorized nested grid min-max of cost minus clairvoyant cost.

    Only for horizon-stacked scalar programs (one stacked input and one
    stacked disturbance coordinate), i.e. n_u = n_w = N = 1.
    """
    from soclqc.lqc import build_compact_cost

    cc = build_compact_cost(spec, x0)
    Cq = float(cc.w_quad[0, 0])
    cl = float(cc.w_lin[0])
    Dq = float(cc.cross[0, 0])
    Bq = float(cc.u_quad[0, 0])
    bl = float(cc.u_lin[0])
    const = cc.constant
    U = np.asarray(u_grid)[:, None]
    W = np.asarray(w_grid)[None, :]
    j_uw = Cq * W**2 + 2 * (cl + Dq * U) * W + Bq * U**2 + 2 * bl * U + const
    v = -(bl + Dq * W) / Bq
    j_opt = Cq * W**2 + 2 * (cl + Dq * v) * W + Bq * v**2 + 2 * bl * v + const
    return float(np.min(np.max(j_uw - j_opt, axis=1)))


def double_integrator_mpc(N=8, x_bound=5.0, u_bound=1.0) -> MpcSpec:
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.5], [1.0]])
    K = np.array([[-0.4, -1.2]])
    A_cl = A + B @ K
    P = scipy.linalg.solve_discrete_lyapunov(A_cl.T, np.eye(2))
    E = np.vstack([np.eye(2), -np.eye(2)])
    f = np.full(4, x_bound)
    G = np.array([[1.0], [-1.0]])
    h = np.full(2, u_bound)
    Q = np.eye(2)
    R = np.eye(1)
    Q_f = scipy.linalg.solve_discrete_lyapunov(A_cl.T, Q + K.T @ R @ K)
    return MpcSpec(A, B, E, f, G, h, K, P, N, Q, R, Q_f)


# ---------------------------------------------------------------------------
# brute-force oracles that only the tests use: the clairvoyant input, the
# ball maximum by plain bisection, a grid worst case over one- or
# two-dimensional disturbance balls, and the simplified and classical S-lemma
# certificates over a multiplier grid


class DimensionTooLarge(ValueError):
    """Grid oracle limited to one or two disturbance dimensions."""


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


def bisection_ball_max(C, h, gamma: float) -> float:
    """Max of w'Cw + 2h'w over the ball of radius gamma by plain bisection on
    ||w(nu)|| = gamma, w(nu) = (nu I - C)^-1 h: the bracket and the stopping
    tests of ``oracle.max_quad_over_ball`` before its safeguarded Newton
    iteration.  A bisection that stalls at the top eigenvalue fills the top
    eigenspace up to the boundary, which also covers the hard case."""
    ev, V = np.linalg.eigh(0.5 * (C + C.T))
    h_rot = V.T @ h

    def value(w_rot):
        return float(w_rot @ (ev * w_rot) + 2.0 * h_rot @ w_rot)

    if ev[-1] < 0 and np.linalg.norm(h_rot / ev) <= gamma:
        return value(-h_rot / ev)
    lo = max(ev[-1], 0.0)
    hi = max(lo + np.linalg.norm(h) / gamma, 1.5 * lo + 1.0)
    while np.linalg.norm(h_rot / (hi - ev)) >= gamma:
        hi *= 2.0
    for _ in range(200):
        nu = 0.5 * (lo + hi)
        w_rot = h_rot / (nu - ev)
        norm = np.linalg.norm(w_rot)
        if abs(norm - gamma) <= 1e-12 * max(1.0, gamma):
            return value(w_rot)
        lo, hi = (nu, hi) if norm > gamma else (lo, nu)
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    top = np.abs(ev - ev[-1]) <= 1e-12 * max(1.0, abs(ev[-1]))
    need = np.sqrt(gamma**2 - np.linalg.norm(w_rot[~top]) ** 2)
    top_part = np.linalg.norm(w_rot[top])
    if top_part > 0:
        w_rot[top] *= need / top_part
    else:
        w_rot[np.argmax(top)] = need
    return value(w_rot)


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


def block_feasible_grid(
    inner: QuadForm,
    e: np.ndarray,
    f: float,
    sd: SimulDiag,
    lam_grid: np.ndarray,
    tol: float = 1e-9,
    chunk: int = 200_000,
) -> np.ndarray:
    """For each multiplier on the grid, can the emitted block be satisfied?

    Uses the closed form: slack_i = delta_i - lam*alpha_i must be >= 0, the
    minimal t_i is head_i^2 / slack_i (head must vanish where the slack
    does), and the budget row requires f - lam*c >= sum of minimal t.
    Vectorized; independent of the conic solver.  The outer matrix D enters
    only through ``sd``, which diagonalizes the pair (inner.A, D).
    """
    full = np.asarray(lam_grid, dtype=float)
    eps = sd.S.T @ np.asarray(e, dtype=float)
    beta = sd.S.T @ inner.b
    scale = 1.0 + abs(f) + np.linalg.norm(eps) + np.linalg.norm(beta)
    out = np.empty(full.shape, dtype=bool)
    for lo in range(0, len(full), chunk):
        lam = full[lo : lo + chunk]
        head = eps[None, :] - lam[:, None] * beta[None, :]
        slack = sd.delta[None, :] - lam[:, None] * sd.alpha[None, :]
        ok = np.all(slack >= -tol * scale, axis=1)
        tiny = np.abs(slack) <= tol * scale
        ok &= np.all(~tiny | (np.abs(head) <= np.sqrt(tol) * scale), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tmin = np.where(tiny, 0.0, head**2 / np.where(tiny, 1.0, slack))
        budget = f - lam * inner.c
        ok &= budget >= np.sum(np.where(slack > tol * scale, tmin, 0.0), axis=1) - tol * scale
        out[lo : lo + chunk] = ok
    return out


def lmi_psd_grid(
    inner: QuadForm,
    D: np.ndarray,
    e: np.ndarray,
    f: float,
    lam_grid: np.ndarray,
    tol: float = 1e-7,
    chunk: int = 200_000,
) -> np.ndarray:
    """Batched eigenvalue PSD check of the classical matrix over a grid.

    The smallest eigenvalue is at most the smallest diagonal entry, so a
    point whose diagonal already falls below the bound by more than the
    eigensolver's rounding fails without an eigenvalue computation; the
    result is that of the eigenvalues at every point.
    """
    lam = np.asarray(lam_grid, dtype=float)
    D = symmetrize(D)
    e = np.asarray(e, dtype=float)
    n = inner.dim
    base = np.zeros((n + 1, n + 1))
    base[:n, :n] = D
    base[:n, n] = base[n, :n] = e
    base[n, n] = f
    step = np.zeros((n + 1, n + 1))
    step[:n, :n] = -inner.A
    step[:n, n] = step[n, :n] = -inner.b
    step[n, n] = -inner.c
    # a generous bound on eigvalsh's error, relative to 1 + ||M||_F
    rounding = 1e-12 * (n + 1)
    out = np.empty(lam.shape, dtype=bool)
    for lo in range(0, len(lam), chunk):
        piece = lam[lo : lo + chunk]
        mats = base[None] + piece[:, None, None] * step[None]
        norms = np.sqrt(np.sum(mats**2, axis=(1, 2)))
        bound = -tol * (1.0 + norms)
        ok = np.diagonal(mats, axis1=1, axis2=2).min(1) >= bound - rounding * (1.0 + norms)
        ok[ok] = np.linalg.eigvalsh(mats[ok])[:, 0] >= bound[ok]
        out[lo : lo + chunk] = ok
    return out
