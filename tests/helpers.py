import numpy as np
import scipy.linalg

from soclqc.lqc import LqcSpec, box_polyhedron, build_compact_cost
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

    def add_eq(self, expr) -> None:
        """Constrain ``expr == 0``."""
        row, const = as_expr(expr).to_row(self.num_vars)
        self.add_eq_rows(row[None], [-const])

    def add_nonneg(self, expr, tag: str = "") -> None:
        """Constrain ``expr >= 0``."""
        A, b = expr_rows([expr], self.num_vars)
        self.add_block_rows(A[None], b[None], tag)

    def add_soc(self, head, tail, tag: str = "") -> None:
        """Constrain ``||tail||_2 <= head``; an empty tail is ``head >= 0``."""
        A, b = expr_rows([head, *tail], self.num_vars)
        self.add_block_rows(A[None], b[None], tag)

    def add_hyperbolic(self, x, y, z, tag: str = "") -> None:
        """Constrain ``||x||^2 <= y * z`` for one expression x or a list."""
        xs = [x] if isinstance(x, (LinExpr, int, float)) else list(x)
        X, xc = expr_rows(xs, self.num_vars)
        YZ, yz = expr_rows([y, z], self.num_vars)
        A, b = hyperbolic_rows(X[None], xc[None], YZ[:1], yz[:1], YZ[1:], yz[1:])
        self.add_block_rows(A, b, tag)

    def add_quadratic_cost(self, M, xs, tag: str = "obj_quad") -> LinExpr:
        """A new variable t with ``x' M x <= t``, M positive definite."""
        t = self.var(self.add_var())
        self.add_hyperbolic(lin_comb(cholesky_factor(M).T, xs), t, 1.0, tag)
        return t


def epigraph_program(prog):
    """prog with its quadratic cost ``||F x||^2`` moved into an epigraph
    block: a new last variable t with ``x' F'F x <= t``
    (:meth:`ExprBuilder.add_quadratic_cost`, over the variables F uses, on
    which F must have full column rank) and t in the linear objective."""
    b = ExprBuilder()
    xs = b.var_exprs(b.add_vars(prog.num_vars))
    if len(prog.eq_b):
        b.add_eq_rows(prog.eq_A, prog.eq_b)
    for blk in prog.blocks:
        b.add_block_rows(blk.A[None], blk.b[None], blk.tag)
    cols = np.flatnonzero(prog.obj_F.any(axis=0))
    F = prog.obj_F[:, cols]
    t = b.add_quadratic_cost(F.T @ F, [xs[j] for j in cols])
    b.set_objective(lin_comb(prog.obj, xs)[0] + t + prog.obj_offset)
    return b.build()


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
    assert np.array_equal(built.eq_A, ref.eq_A) and np.array_equal(built.eq_b, ref.eq_b)
    assert (built.nn, built.soc, built.tags) == (ref.nn, ref.soc, ref.tags)
    assert np.array_equal(built.G, ref.G) and np.array_equal(built.h, ref.h)


def assert_identical_programs(built, ref):
    """The two programs agree field by field, bit for bit."""
    for name in ("num_vars", "obj", "obj_offset", "obj_F", "eq_A", "eq_b", "G", "h", "nn",
                 "soc", "tags"):
        a, b = getattr(built, name), getattr(ref, name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def reference_lqc_program(spec, x0, kernel, amb=None):
    """The min-max LQC program assembled expression by expression with
    :class:`ExprBuilder`, one hyperbolic block per coordinate: the variable
    order, block order, kinds and tags the LQC builders must reproduce.

    The inputs are whitened and centered, y = L'(u - theta u*), with
    Uq = L L', u* = -Uq^{-1} ul the unconstrained minimizer and theta the
    largest value in [0, 1] that keeps theta u* in the input set; the
    disturbance ball is scaled to radius gamma / kappa, kappa = max(1, gamma).
    """
    cc = build_compact_cost(spec, x0)
    # Uq = L L', F = L^{-1} X, v = L^{-1} ul and the input rows G_u L^{-T}
    L = cholesky_factor(cc.u_quad)
    F = scipy.linalg.solve_triangular(L, cc.cross, lower=True)
    v = scipy.linalg.solve_triangular(L, cc.u_lin, lower=True)
    G_y = scipy.linalg.solve_triangular(L, spec.u_poly_G.T, lower=True).T
    Fv = F.T @ v
    # u* = -L^{-T} v, so row i of G_u u* <= h reads -(G_y v)_i <= h_i
    Gv = G_y @ v
    theta = 0.0
    if all(hi >= 0 for hi in spec.u_poly_h):
        theta = 1.0
        for hi, gi in zip(spec.u_poly_h, Gv):
            if gi < 0:
                theta = min(theta, hi / -gi)
    if kernel == "robust":
        w_quad_eff = cc.w_quad
        head_const = cc.w_lin - theta * Fv
        offset = cc.constant + theta * (theta - 2.0) * float(v @ v)
    else:
        # regret kernel X' Uq^{-1} X = F'F, and X'(u + Uq^{-1} ul) is
        # F'y + (1 - theta) F'v
        w_quad_eff = F.T @ F
        head_const = (1.0 - theta) * Fv
        offset = (1.0 - theta) ** 2 * float(v @ v)
    sd = simultaneous_diagonalize(np.eye(w_quad_eff.shape[0]), w_quad_eff)
    m = amb.num_moments if amb is not None else 0
    kappa = max(1.0, spec.gamma)
    g = spec.gamma / kappa

    b = ExprBuilder()
    y = b.var_exprs(b.add_vars(spec.stacked_input_dim))
    lam = b.var(b.add_var())
    ts = b.var_exprs(b.add_vars(spec.stacked_dist_dim))
    betas = b.var_exprs(b.add_vars(m))
    # u'Uq u + 2 ul'u = ||y||^2 + 2 (1 - theta) v'y + theta (theta - 2) v'v
    obj = kappa**2 * lam
    for j, ye in enumerate(y):
        obj = obj + 2.0 * (1.0 - theta) * v[j] * ye
    for te in ts:
        obj = obj + te
    for j, be in enumerate(betas):
        obj = obj + amb.mu[j] * be
    b.set_objective(obj + offset, F=np.eye(len(y)))  # y are the first variables

    b.add_nonneg(lam, tag="lam")
    for be in betas:
        b.add_nonneg(be, tag="beta")
    for i in range(G_y.shape[0]):
        row = LinExpr.constant(spec.u_poly_h[i] + theta * Gv[i])
        for j, ye in enumerate(y):
            if G_y[i, j] != 0.0:
                row = row - G_y[i, j] * ye
        b.add_nonneg(row, tag="input_set")

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
        b.add_hyperbolic(head, ts[i], slack, tag=f"coneq{i}")
    return b.build()


def reference_mpc_program(spec, x_init, fixed_terminal=None):
    """The MPC program of :func:`soclqc.mpc.build_mpc_socp` assembled
    expression by expression with :class:`ExprBuilder`: one equality per
    state coordinate, one row per path, radius and containment constraint and
    one hyperbolic block per invariance coordinate, in the order the builder
    must reproduce."""
    x_init = np.asarray(x_init, dtype=float)
    N, n_x, n_u = spec.N, spec.n_x, spec.n_u
    td = spec.terminal_diag
    b = ExprBuilder()
    u = [b.var_exprs(b.add_vars(n_u)) for _ in range(N)]
    x = [b.var_exprs(b.add_vars(n_x)) for _ in range(N)]  # states x_1..x_N
    c = b.var_exprs(b.add_vars(n_x))
    r = b.var(b.add_var())

    # x_{k+1} = A x_k + B u_k with x_0 = x_init a constant
    for k in range(N):
        drift = (spec.A @ x_init).tolist() if k == 0 else lin_comb(spec.A, x[k - 1])
        for i, (d, bu) in enumerate(zip(drift, lin_comb(spec.B, u[k]))):
            b.add_eq(bu + d - x[k][i])
    for k in range(N - 1):
        for j, ex in enumerate(lin_comb(spec.E, x[k])):
            b.add_nonneg(spec.f[j] - ex, tag="state_set")
    for k in range(N):
        for j, gu in enumerate(lin_comb(spec.G, u[k])):
            b.add_nonneg(spec.h[j] - gu, tag="input_set")

    p_half = spec.p_sqrt
    b.add_soc(r, [px - pc for px, pc in zip(lin_comb(p_half, x[N - 1]), lin_comb(p_half, c))],
              tag="terminal_membership")
    b.add_nonneg(r, tag="radius")

    # invariance: ||m_sqrt c||^2 <= r (r - lam - sum t) and
    # (coupling c)_i^2 <= t_i (lam - alpha_i r)
    lam = b.var(b.add_var())
    t = b.var_exprs(b.add_vars(n_x))
    b.add_nonneg(lam, tag="inv:lam")
    b.add_hyperbolic(lin_comb(td.m_sqrt, c), r, r - lam - sum(t, LinExpr()), tag="inv:budget")
    for i, head in enumerate(lin_comb(td.coupling, c)):
        b.add_hyperbolic(head, t[i], lam - td.alpha[i] * r, tag=f"inv:q{i}")

    # containment: rows_j' c + ||rows_j' P^{-1/2}|| r <= limits_j
    for rows, limits, tag in ((spec.E, spec.f, "state_cont"),
                              (spec.G @ spec.K, spec.h, "input_cont")):
        gains = np.linalg.norm(rows @ spec.p_inv_sqrt, axis=1)
        for j, rc in enumerate(lin_comb(rows, c)):
            b.add_nonneg(limits[j] - rc - gains[j] * r, tag=f"{tag}{j}")

    if fixed_terminal is not None:
        c0, r0 = fixed_terminal
        for ci, c0i in zip(c, np.atleast_1d(c0)):
            b.add_eq(ci - c0i)
        b.add_eq(r - r0)

    # stage costs ||Q^{1/2} x_k||^2 (k = 1..N-1), ||R^{1/2} u_k||^2 and
    # ||Q_f^{1/2} x_N||^2 as the rows of one objective factor; the x_0 term
    # is a constant
    fq, fr, ff = (psd_sqrt_factor(M) for M in (spec.Q, spec.R, spec.Q_f))
    heads = [h for k in range(N - 1) for h in lin_comb(fq, x[k])]
    heads += [h for k in range(N) for h in lin_comb(fr, u[k])]
    heads += lin_comb(ff, x[N - 1])
    b.set_objective(float(x_init @ spec.Q @ x_init), F=expr_rows(heads, b.num_vars)[0])
    return b.build()


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
# brute-force oracles that only the tests use: the clairvoyant input, a grid
# worst case over one- or two-dimensional disturbance balls, and the
# simplified and classical S-lemma certificates over a multiplier grid


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
