import numpy as np
import scipy.linalg

from soclqc.lqc import LqcSpec, box_polyhedron, build_compact_cost
from soclqc.model import (
    ConicProgramBuilder,
    LinExpr,
    add_quadratic_cost,
    cholesky_factor,
    hyperbolic_to_soc,
)
from soclqc.mpc import MpcSpec
from soclqc.slemma import simultaneous_diagonalize


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


def reference_lqc_program(spec, x0, kernel, amb=None):
    """The min-max LQC program assembled expression by expression from the
    public LinExpr helpers, with one hyperbolic_to_soc call per coordinate:
    the variable order, block order, kinds and tags the LQC builders must
    reproduce."""
    cc = build_compact_cost(spec, x0)
    if kernel == "robust":
        w_quad_eff, offset = cc.w_quad, cc.constant
    else:
        # regret kernel X' Uq^{-1} X = F'F and X' Uq^{-1} ul = F'v, with
        # Uq = L L', F = L^{-1} X and v = L^{-1} ul
        L = cholesky_factor(cc.u_quad)
        F = scipy.linalg.solve_triangular(L, cc.cross, lower=True)
        v = scipy.linalg.solve_triangular(L, cc.u_lin, lower=True)
        w_quad_eff, offset = F.T @ F, float(v @ v)
    sd = simultaneous_diagonalize(np.eye(w_quad_eff.shape[0]), w_quad_eff)
    m = amb.num_moments if amb is not None else 0

    b = ConicProgramBuilder()
    u = b.var_exprs(b.add_vars(spec.stacked_input_dim))
    lam = b.var(b.add_var())
    ts = b.var_exprs(b.add_vars(spec.stacked_dist_dim))
    betas = b.var_exprs(b.add_vars(m))
    obj = add_quadratic_cost(b, cc.u_quad, u) + lam
    for j, ue in enumerate(u):
        obj = obj + 2.0 * cc.u_lin[j] * ue
    for te in ts:
        obj = obj + te
    for j, be in enumerate(betas):
        obj = obj + amb.mu[j] * be
    b.set_objective(obj + offset)

    b.add_nonneg(lam, tag="lam")
    for be in betas:
        b.add_nonneg(be, tag="beta")
    for i in range(spec.u_poly_G.shape[0]):
        row = LinExpr.constant(spec.u_poly_h[i])
        for j, ue in enumerate(u):
            if spec.u_poly_G[i, j] != 0.0:
                row = row - spec.u_poly_G[i, j] * ue
        b.add_nonneg(row, tag="input_set")

    head_mat = sd.S.T @ cc.cross.T
    if kernel == "robust":
        head_const = sd.S.T @ cc.w_lin
    else:
        head_const = sd.S.T @ (F.T @ v)
    beta_mat = -(sd.S.T @ amb.H.T) / 2.0 if amb is not None else None
    g = spec.gamma
    for i in range(spec.stacked_dist_dim):
        head = LinExpr.constant(g * head_const[i])
        for j, ue in enumerate(u):
            if head_mat[i, j] != 0.0:
                head = head + g * head_mat[i, j] * ue
        for j, be in enumerate(betas):
            if beta_mat[i, j] != 0.0:
                head = head + g * beta_mat[i, j] * be
        slack = 1.0 * lam * sd.alpha[i] - g**2 * sd.delta[i]
        hyperbolic_to_soc(b, head, ts[i], slack, tag=f"coneq{i}")
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

