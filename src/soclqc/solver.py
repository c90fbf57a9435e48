"""Dense primal-dual interior-point solver for second-order cone programs.

Path-following with Nesterov-Todd scaling and a Mehrotra predictor-corrector,
after the conic solver of Vandenberghe's coneprog notes.  The program

    min ||F x||^2 + c^T x   s.t.   s = h - G x in K

is solved in the slack form ``G x + s = h``, with ``F``, ``G``, ``h`` and
the layout of K taken as the :class:`~soclqc.model.ConicProgram` holds them:
nonnegative rows first, then the second-order blocks grouped by dimension.
The objective's Hessian ``2P``, ``P = F'F``, is formed once per solve and
enters the iteration directly, as in Clarabel (Goulart & Chen, 2024).  A
program has no equality rows: its builder poses it in the null space of any
it would have (the MPC dynamics, see :mod:`soclqc.mpc`).  So every iteration
solves the one Newton system

    [ 2P G'   ] [dx]   [r_x]
    [ G  -W^2 ] [dz] = [r_z]

reduced by eliminating ``dz = W^-2 (G dx - r_z)`` (Andersen, Roos & Terlaky,
Math. Prog. 2003) to ``(2P + H + D) dx = r_x + G'W^-2 r_z`` with ``H =
(W^-1 G)'(W^-1 G)`` and D a small regularization (relative to diag(2P + H),
because G and F may lack full column rank).  Every program factors it by
Cholesky (:class:`_KktFactor`), on a large program with the block-private
variables eliminated first (after Domahidi et al., CDC 2012, and ECOS).
The factorization and solves are direct LAPACK calls on Fortran-ordered
arrays, with no copy and no wrapper.  The starting point comes from the same
factorization at W = I, its primal and dual parts from one solve with two
right-hand sides.

On its own this route loses accuracy near convergence: H carries the squared
condition number of the scaling, and D biases the step.  The combined
direction, the only one that moves the iterate, is therefore corrected once
against the full, unregularized two-block system, as CVXOPT's ``coneqp``
refines once when a program has second-order cones: one reduced solve, one
residual, which needs only products with 2P, G, G' and W, and one more
reduced solve of that residual from the same factorization.  The predictor
direction only chooses sigma, its step and the second-order term (Mehrotra,
SIAM J. Optim. 1992), so it is one reduced solve, uncorrected.  So the work
is fixed: three ``dpotrs`` calls per iteration.  A reduced solve takes its
right-hand side scaled, ``W^-1 r_z``, and returns ``W dz`` beside dz, which
the residual and the second-order term reuse; with the NT identities ``W z =
W^-1 s = lam`` an iteration applies W or W^-1 to seven vectors.

The cone layer (:class:`_Cones`) treats every block, nonnegative rows
included, as a segment of one flat layout, so each cone operation is a fixed
handful of numpy calls, and it keeps the NT scaling in its rank-one form
``W = beta (2 v v' - J)`` (Vandenberghe, "The CVXOPT linear and quadratic cone
program solvers").

Each iteration takes one predictor step and one plain Mehrotra corrector,
undamped, as CVXOPT's ``coneqp`` does.  Infeasibility is detected on the
iterates (no homogeneous embedding): an approximate Farkas ray of the duals
flags primal infeasibility, a divergent primal ray with negative linear
objective, in the null space of F, flags dual infeasibility.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .model import ConicProgram

# share of the distance to the cone boundary that a combined step may take
FRACTION_TO_BOUNDARY = 0.99
# relative primal/dual residual and relative gap at which a solve is optimal
TOL_FEAS = 1e-8
TOL_GAP = 1e-8


class Status(enum.Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class Solution:
    status: Status
    x: np.ndarray
    z: np.ndarray  # cone duals in the program's row layout
    objective: float
    iterations: int
    res_primal: float
    res_dual: float
    res_gap: float
    reason: str = ""  # the guard that ended a non-optimal solve

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL


# ---------------------------------------------------------------------------
# cone arithmetic on stacked slack vectors


class _Scaling(NamedTuple):
    """NT scaling ``W = beta (2 v v' - J)`` in the per-row arrays that
    :meth:`_Cones.apply_w` uses, so its calls do not re-derive them: per
    block ``W u = a (v'u) - bJ u`` with ``(v, a, bJ) = fwd``, and ``W^-1 =
    (2 Jv (Jv)' - J) / beta`` likewise with ``inv`` (beta, v and J per row
    of each block)."""

    fwd: tuple  # (v, 2 beta v, beta J)
    inv: tuple  # (J v, 2 J v / beta, J / beta)


class _Cones:
    """Cone operations on slack vectors in one flat layout.

    Every block is a segment of the slack rows, head first: the ``nn``
    nonnegative rows are blocks of dimension 1, then come the second-order
    blocks grouped by dimension, the layout of
    :class:`~soclqc.model.ConicProgram`.  ``starts`` holds the row of each
    block's head, ``blk`` the block of each row and ``sign`` the diagonal of
    ``J = diag(1, -I)`` per block, so every per-block sum is one
    ``np.add.reduceat`` and every operation a fixed handful of numpy calls,
    however many blocks and groups there are.  :meth:`max_step`,
    :meth:`heads_and_norms` and :meth:`nt_scaling` also take several slack
    vectors stacked as rows.

    The NT scaling of a block is ``W = beta (2 v v' - J)`` with ``v' J v = 1``,
    kept as a :class:`_Scaling` of per-row arrays (a dimension-1 block has
    v = 1 and beta = sqrt(s/z)); W and W^-1 are applied in that rank-one
    form.  W^2 is never formed: squaring the scaling loses the accuracy that
    the Newton systems need near convergence.
    """

    def __init__(self, nn: int, soc):
        self.nn = nn
        dims = np.repeat([1] + [d for _, d in soc], [nn] + [k for k, _ in soc])
        self.num_blocks = len(dims)
        self.starts = np.cumsum(dims) - dims
        self.total = int(dims.sum())
        self.blk = np.repeat(np.arange(self.num_blocks), dims)
        self.head = self.starts[self.blk]  # the row of each row's block head
        self.sign = -np.ones(self.total)
        self.sign[self.starts] = 1.0
        self.tail = (self.sign < 0).astype(float)
        # (rows, k, d) per group of second-order blocks, for apply_w on matrices
        self.groups = []
        start = nn
        for k, d in soc:
            self.groups.append((slice(start, start + k * d), k, d))
            start += k * d

    def _sum(self, u: np.ndarray) -> np.ndarray:
        """Per-block sums of the rows of u (of each stacked row)."""
        return np.add.reduceat(u, self.starts, axis=-1)

    def block_sums(self, u: np.ndarray) -> np.ndarray:
        """Per-block sums of the rows of a matrix of slack columns, one row
        per block, by one reduction per group: at scalar N = 100 (603 x 101)
        this takes 49 us where ``np.add.reduceat`` along the rows, which
        reduces block by block, takes 217 us."""
        cols = u.shape[1]
        return np.concatenate([u[: self.nn]] + [np.add.reduce(u[sl].reshape(k, d, cols), axis=1)
                                                for sl, k, d in self.groups])

    def _tail_norm(self, u: np.ndarray) -> np.ndarray:
        return np.sqrt(self._sum(u * u * self.tail))

    def heads_and_norms(self, u: np.ndarray):
        """The block heads of u and the norms of the block tails (of each
        stacked row): u is interior when every head exceeds its norm.  The
        line search tests that, and hands both to the next
        :meth:`nt_scaling`."""
        return u[..., self.starts], self._tail_norm(u)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.total)
        e[self.starts] = 1.0
        return e

    def shift_inside(self, u: np.ndarray) -> np.ndarray:
        """Translate each block along the cone identity until its head
        exceeds its tail norm by at least 1 + that norm.

        The margin scales with the block magnitude; an absolute margin leaves
        large blocks nearly on the boundary and the first steps collapse.
        """
        out = u.copy()
        tail = self._tail_norm(u)
        out[self.starts] += np.maximum(tail + (1.0 + tail) - u[self.starts], 0.0)
        return out

    def max_step(self, u: np.ndarray, du: np.ndarray, dets=None) -> float:
        """Largest a >= 0 with u + a*du still in the cone, for u interior
        (inf if unbounded, nan if du is not finite).  For slack vectors
        stacked as rows, the largest a that keeps every row in the cone.
        ``dets``, if given, holds the block determinants of u, as
        :meth:`nt_scaling` returns them."""
        if not np.isfinite(du).all():
            return np.nan
        nn = self.nn
        # the step is 1 / rate, the largest rate at which a block nears its
        # boundary.  Dimension-1 blocks: -db / b, with b > 0 inside (their
        # quadratic below has a double root, and its discriminant can round
        # negative)
        rate = (-du[..., :nn] / u[..., :nn]).max(initial=0.0)
        # second-order blocks: first root of a2 a^2 + 2 a1 a + a0 =
        # (b0+a db0)^2 - ||b1+a db1||^2, where a0 > 0 inside (factored to
        # limit cancellation near the boundary); its rate (sqrt(disc) - a1) /
        # a0, disc = a1^2 - a2 a0, has no cancellation, and there is no root
        # when disc < 0 or the rate is not positive
        if dets is None:
            heads, norms = self.heads_and_norms(u)
            dets = (heads - norms) * (heads + norms)
        a0 = dets[..., nn:]
        jdu = du * self.sign
        a1 = self._sum(u * jdu)[..., nn:]
        a2 = self._sum(du * jdu)[..., nn:]
        disc = a1 * a1 - a2 * a0
        rates = (np.sqrt(np.maximum(disc, 0.0)) - a1) / a0
        rate = max(rate, rates[disc >= 0].max(initial=0.0))
        return 1.0 / rate if rate > 0 else np.inf

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product per block."""
        out = u[self.head] * v + v[self.head] * u
        out[self.starts] = self._sum(u * v)
        return out

    def divisible(self, lam: np.ndarray) -> bool:
        """Whether :meth:`solve_product` can divide by lam: no zero head or
        determinant lam_0^2 - ||lam_1||^2."""
        return bool(lam[self.starts].all() and self._sum(lam * lam * self.sign).all())

    def solve_product(self, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve lam o x = d per block (arrow-matrix inverse); lam must be
        :meth:`divisible`."""
        head = self._sum(lam * d * self.sign) / self._sum(lam * lam * self.sign)
        out = (d - head[self.blk] * lam) / lam[self.head]
        out[self.starts] = head
        return out

    def nt_scaling(self, sz: np.ndarray, heads_and_norms=None):
        """NT scaling at the point (s, z), stacked as the rows of ``sz``.

        Returns ``(scaling, dets)``: the :class:`_Scaling` ``W = beta (2 v v'
        - J)``, and the ``(2, blocks)`` block determinants of s and z, which
        :meth:`max_step` reuses at this point.  ``heads_and_norms``, if
        given, holds :meth:`heads_and_norms` of sz, as the line search that
        accepted sz computed it.  ``FloatingPointError`` if sz is not interior
        or beta leaves the double range."""
        heads, nb = self.heads_and_norms(sz) if heads_and_norms is None else heads_and_norms
        dets = (heads - nb) * (heads + nb)
        if not ((heads > 0) & (dets > 0)).all():
            raise FloatingPointError("iterate left the cone interior")
        ds, dz = dets
        sbar, zbar = sz / np.sqrt(dets)[:, self.blk]
        gamma2 = 0.5 * (1.0 + self._sum(sbar * zbar))
        if not (gamma2 > 0).all():
            raise FloatingPointError("iterate left the cone interior")
        # scaling point wbar = (sbar + J zbar) / (2 gamma), and
        # v = (wbar + e) / sqrt(2 (wbar_0 + 1))
        v = (sbar + zbar * self.sign) / (2.0 * np.sqrt(gamma2))[self.blk]
        v[self.starts] += 1.0
        v /= np.sqrt(2.0 * v[self.starts])[self.blk]
        jv = v * self.sign
        with np.errstate(over="ignore"):  # the ratio may pass the double range
            beta = (ds / dz) ** 0.25
        if not ((beta > 0) & (beta < np.inf)).all():  # inf or 0 puts nan in W
            raise FloatingPointError("scaling overflowed")
        beta = beta[self.blk]
        fwd = (v, 2.0 * beta * v, beta * self.sign)
        inv = (jv, (2.0 / beta) * jv, self.sign / beta)
        return _Scaling(fwd, inv), dets

    def apply_w(self, scaling, u: np.ndarray, inverse: bool = False) -> np.ndarray:
        """W u (or W^-1 u) for a slack vector or a matrix of slack columns,
        with W^-1 = (2 Jv (Jv)' - J) / beta."""
        v, a, bJ = scaling.inv if inverse else scaling.fwd
        if u.ndim == 1:
            return a * self._sum(v * u)[self.blk] - bJ * u
        # a matrix takes one batched product per group of second-order
        # blocks, which is faster than per-block sums over its columns: per
        # row, W = a v' - bJ
        nn, cols = self.nn, u.shape[1]
        out = np.empty_like(u)
        np.multiply(u[:nn], (a[:nn] * v[:nn] - bJ[:nn])[:, None], out=out[:nn])
        for sl, k, d in self.groups:
            M = a[sl].reshape(k, d, 1) * v[sl].reshape(k, 1, d)
            M.reshape(k, d * d)[:, :: d + 1] -= bJ[sl].reshape(k, d)
            np.matmul(M, u[sl].reshape(k, d, cols), out=out[sl].reshape(k, d, cols))
        return out


# ---------------------------------------------------------------------------
# reduced KKT matrix


def _private_columns(G: np.ndarray, F: np.ndarray, cones: _Cones):
    """The block-private columns of G, nonzero in the rows of one cone block
    only, and their blocks: the first of each block, never an all-zero
    column nor one that the objective factor F uses, which the Hessian
    couples to others.  The LQC programs have one per disturbance
    coordinate, its epigraph t_i."""
    touched = cones.block_sums(G != 0) > 0
    single = np.flatnonzero((touched.sum(axis=0) == 1) & ~F.any(axis=0))
    blocks, first = np.unique(touched[:, single].argmax(axis=0), return_index=True)
    return single[first], blocks


class _KktFactor:
    """Cholesky factor ``U'U = 2P + H + D`` of the reduced KKT matrix, ``hess
    = 2P = 2 F'F`` the objective's Hessian, ``H = (W^-1 G)'(W^-1 G)`` and D
    the regularization; each reduced solve is one ``dpotrs`` (:meth:`solve`).

    A large program (``compact``) orders its block-private variables
    (:func:`_private_columns`) first, as ``order`` gives, and eliminates
    them before ``dpotrf`` (after Domahidi et al., CDC 2012, and ECOS).
    ``hess`` is zero on them, and their ``H_pp`` is diagonal: the private
    columns of ``W^-1 G`` are disjoint segments of the one vector ``gw =
    W^-1 g_p``, ``g_p`` the sum of the private columns of G.  So W^-1 is
    applied to ``[g_p, G_d]`` only, H_pp and H_pd come from ``gw`` and
    ``W^-1 G_d`` (:meth:`private_rows`: H_pd by one batched product per
    group of second-order blocks, over the blocks that hold a private
    variable only), only the Schur complement on the other variables goes
    to ``dpotrf``, and the iteration's products take G and W^-1 G in that
    form (:meth:`mul`, :meth:`tmul`).  A smaller program keeps its order and
    factors the whole matrix.
    """

    def __init__(self, G: np.ndarray, F: np.ndarray, cones: _Cones):
        m, n = G.shape
        self.cones, self.n = cones, n
        private, blocks = _private_columns(G, F, cones)
        # the compact form [g_p, G_d] (see mul) skips the m k entries of the
        # private columns in each product with G or W^-1 G, for more numpy
        # calls.  A scalar robust or regret program has m = 5N + 1 rows and
        # k = N private columns, so the threshold first holds at N = 49
        # (m k = 12 054).  Solve time compact/dense on them, ten alternating
        # pairs per size: 1.04-1.05 at N = 40 (m k = 8 040),
        # 1.00-1.01 at N = 45, 0.99-1.02 at N = 49, 0.94-0.97 at N = 52,
        # 0.93-0.95 at N = 55, 0.90-0.93 at N = 60 and 0.83 at N = 80; 1.14 on
        # the benchmark's problem files (m k <= 2 952), which stay dense
        self.compact = m * len(private) > 12_000
        self.k = k = len(private) if self.compact else 0  # eliminated
        self.order = None
        if self.compact:
            rest = np.ones(n, dtype=bool)
            rest[private] = False
            self.order = np.concatenate([private, np.flatnonzero(rest)])
            G = G.take(self.order, axis=1)
            F = F.take(self.order, axis=1)
            self.blocks = blocks
            self.G_pd = np.empty((m, n - k + 1))
            self.G_pd[:, 0] = G[:, :k].sum(axis=1)
            self.G_pd[:, 1:] = G[:, k:]
            # each row's private variable (0 outside the private blocks,
            # where g_p is zero)
            slot = np.zeros(cones.num_blocks, dtype=int)
            slot[blocks] = np.arange(k)
            self.row_slot = slot[cones.blk]
            # the private nonnegative rows, and per group of second-order
            # blocks that holds a private one (rows, k, d, the private blocks
            # among its k)
            self.private_nn = blocks[blocks < cones.nn]
            self.private_groups = []
            first = cones.nn
            for sl, kg, d in cones.groups:
                local = blocks[(blocks >= first) & (blocks < first + kg)] - first
                if len(local):
                    self.private_groups.append((sl, kg, d, local))
                first += kg
        self.G = G
        self.hess = 2.0 * (F.T @ F)
        # upper factor in Fortran order for LAPACK; the off-diagonal entries
        # of its private block stay zero, and U_pp views its diagonal
        self.U = np.zeros((n, n), order="F")
        self.U_pp = self.U.T.reshape(-1)[: k * (n + 1) : n + 1]

    def private_rows(self, B: np.ndarray):
        """``H_pp`` (its diagonal) and ``H_pd``, the private rows of H, from
        ``B = W^-1 [g_p, G_d]``.  A row of H_pd is ``gw' B_d`` over its
        block's rows: one batched product per group of second-order blocks
        that holds a private one, and a scaled row per private nonnegative
        row.  Rows of blocks without a private variable, where ``gw`` is
        zero, are never formed."""
        gw, cols = B[:, 0], B.shape[1] - 1
        rows_nn = self.private_nn
        parts = [gw[rows_nn, None] * B[rows_nn, 1:]] if len(rows_nn) else []
        for sl, k, d, local in self.private_groups:
            rows = np.matmul(gw[sl].reshape(k, 1, d), B[sl, 1:].reshape(k, d, cols)).reshape(k, cols)
            parts.append(rows[local])
        return self.cones._sum(gw * gw)[self.blocks], np.concatenate(parts)

    def mul(self, P: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``M x`` for M = G or W^-1 G in the private-first order, given
        as ``P = [p, M_d]`` (``G_pd`` or ``B``): a private column of M is
        p on the rows of its block."""
        return P[:, 1:] @ x[self.k :] + P[:, 0] * x[self.row_slot]

    def tmul(self, P: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``M' z`` for ``P = [p, M_d]`` as in :meth:`mul`."""
        return np.concatenate([self.cones._sum(P[:, 0] * z)[self.blocks], P[:, 1:].T @ z])

    def _eliminate(self, B: np.ndarray, reg: float, relative: bool):
        """Write the private rows ``[sqrt(H_pp), sqrt(H_pp)^-1 H_pd]`` of U,
        from ``B = W^-1 [g_p, G_d]``, and return their second part; None
        when a pivot H_pp is not positive."""
        H_pp, H_pd = self.private_rows(B)
        H_pp += np.maximum(reg, 1e-14 * H_pp) if relative else reg
        if not H_pp.min(initial=np.inf) > 0:
            return None
        self.U_pp[:] = np.sqrt(H_pp)
        U_pd = self.U[: self.k, self.k :] = H_pd / self.U_pp[:, None]
        return U_pd

    def factor(self, scaling: _Scaling | None, reg: float):
        """``(W^-1 G, U, info)``, W^-1 G in the form :meth:`mul` takes when
        ``compact``.  The regularization is relative to diag(2P + H) (at least
        ``reg``), or ``reg`` itself for ``scaling=None``, which is W = I.
        info is nonzero when a pivot is not positive (LAPACK lets a nan
        pivot through, so U's diagonal is checked)."""
        k, U = self.k, self.U
        relative = scaling is not None
        Gw = self.G_pd if self.compact else self.G
        if relative:
            Gw = self.cones.apply_w(scaling, Gw, inverse=True)
        Gw_d = Gw
        if self.compact:
            Gw_d, U_pd = Gw[:, 1:], self._eliminate(Gw, reg, relative)
            if U_pd is None:
                return Gw, U, 1
        # numpy forms the Gram products exactly symmetric, and S.T is S in
        # Fortran order, so LAPACK factors it in place
        S = Gw_d.T @ Gw_d
        S += self.hess[k:, k:]
        S_dd = S.reshape(-1)[:: len(S) + 1]
        S_dd += np.maximum(reg, 1e-14 * S_dd) if relative else reg
        if self.compact:
            S -= U_pd.T @ U_pd
        fac, info = lapack.dpotrf(S.T, lower=False, overwrite_a=True, clean=False)
        if info:
            return Gw, U, info
        U[k:, k:] = fac
        return Gw, U, int(not U.diagonal().min(initial=np.inf) > 0)

    def solve(self, U: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The solution of ``(2P + H + D) x = r``, with U from :meth:`factor` (r
        is overwritten)."""
        return lapack.dpotrs(U, r, lower=False, overwrite_b=True)[0]


# ---------------------------------------------------------------------------


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector, computed as np.linalg.norm computes it (the
    root of the dot product) without that function's argument handling."""
    return math.sqrt(v @ v)


def _initial_point(c, h, kkt: _KktFactor, reg: float):
    """Primal/dual starting points shifted into the cone interior, from the
    factorization of the reduced KKT matrix at W = I (from zero
    points if that factorization fails)."""
    G, cones = kkt.G, kkt.cones
    _, U, info = kkt.factor(None, reg)
    if info:
        x = w = np.zeros(kkt.n)
    else:
        # primal: min ||s||^2 / 2 + x'P x s.t. Gx + s = h, i.e. (2P + G'G) x
        # = G'h; dual: z = G w with 2P w + G'z = -c, i.e. (2P + G'G) w = -c
        x, w = kkt.solve(U, np.column_stack([G.T @ h, -c])).T
    s = cones.shift_inside(h - G @ x)
    z = cones.shift_inside(G @ w)
    return x, s, z


def solve(program: ConicProgram, max_iters: int = 100) -> Solution:
    """Solve a conic program in at most ``max_iters`` (>= 1) iterations; see
    :class:`Status` for termination meanings.

    A status other than ``Optimal`` comes with a ``reason`` naming the guard
    that fired, and the returned iterate is always finite.  Infeasibility is
    decided by the iteration's own ray tests, and a solve that stalls
    (``NumericalFailure`` or ``MaxIterations``) is reported as it is.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    cones = _Cones(program.nn, program.soc)
    if cones.num_blocks == 0:
        raise ValueError("program has no cone blocks; nothing for the solver to do")
    if program.num_vars == 0:
        raise ValueError("program has no variables; nothing for the solver to do")
    c, h, obj_offset = program.obj, program.h, program.obj_offset
    kkt = _KktFactor(program.G, program.obj_F, cones)
    G, hess = kkt.G, kkt.hess
    if kkt.compact:
        # the solve runs in the private-first order
        c = c[kkt.order]

    def finish(status, reason=""):
        """Solution at the current iterate, which is always finite."""
        obj = pobj + obj_offset
        x_out = x.copy()
        if kkt.compact:
            x_out[kkt.order] = x
        return Solution(status, x_out, z.copy(), obj, it, rp, rd, rg, reason)

    reg = 1e-10
    x, s, z = _initial_point(c, h, kkt, reg)
    sz = np.array((s, z))  # the slacks and duals, stacked as rows
    heads_and_norms = None  # of sz, from the line search that accepted it

    norm_h = 1.0 + np.linalg.norm(h)
    norm_c = 1.0 + np.linalg.norm(c)
    ident = cones.identity()
    # products with G and W^-1 G (Gw); for a large program both are held in
    # the compact form of the KKT factor, G_pd and B
    if kkt.compact:
        mul, tmul, G_mat = kkt.mul, kkt.tmul, kkt.G_pd
    else:
        mul, tmul, G_mat = np.matmul, lambda M, v: M.T @ v, G

    for it in range(max_iters + 1):
        s, z = sz
        Px2 = hess @ x  # 2 P x
        xPx = 0.5 * float(x @ Px2)
        Gz = tmul(G_mat, z)
        r_cone = mul(G_mat, x) + s - h
        r_dual = Gz + c + Px2
        gap = float(s @ z)
        cx = float(c @ x)
        hz = float(h @ z)
        pobj = cx + xPx
        dobj = -hz - xPx

        rp = _norm(r_cone) / norm_h
        rd = _norm(r_dual) / norm_c
        # relative to the whole objective, obj_offset included
        rg = abs(pobj - dobj) / max(1.0, abs(pobj + obj_offset))

        if rp <= TOL_FEAS and rd <= TOL_FEAS and rg <= TOL_GAP:
            return finish(Status.OPTIMAL)

        # infeasibility certificates (heuristic): a Farkas ray, -h'z > 0 and
        # G'z = 0 relative to ||z|| as in ECOS (relative to -h'z, a few rows
        # with large h let an ordinary iterate pass), or an improving ray,
        # c'x < 0 with G x + s = r_cone + h and P x zero relative to c'x /
        # ||c||, as in ECOS (relative to c'x alone, a bounded program whose
        # objective dwarfs h passes).  A gap that is nan, as when c'x
        # overflows, does not switch the improving-ray test off
        if -hz > 0 and _norm(Gz) <= TOL_FEAS * _norm(z) and rp > 10 * TOL_FEAS:
            return finish(Status.PRIMAL_INFEASIBLE, "dual iterate is a Farkas ray")
        if (cx < 0 and not rg <= 10 * TOL_GAP
                and norm_c * max(_norm(r_cone + h), _norm(Px2)) <= -cx * TOL_FEAS):
            return finish(Status.DUAL_INFEASIBLE, "primal iterate is an improving ray")
        if it == max_iters:
            return finish(Status.MAX_ITERATIONS, "iteration limit")

        mu = gap / cones.num_blocks

        try:
            scaling, dets = cones.nt_scaling(sz, heads_and_norms)
        except FloatingPointError:
            return finish(Status.NUMERICAL_FAILURE, "scaling left the cone")
        lam = cones.apply_w(scaling, z)

        # eliminate dz = W^-2 (G dx - r_z) and factor the reduced matrix; the
        # regularization is relative to diag(2P + H), whose entries reach 1/mu,
        # because G may lack full column rank, and enters the factorization
        # only
        Gw, fac, info = kkt.factor(scaling, reg)
        if info:
            return finish(Status.NUMERICAL_FAILURE, "factorization failed")

        def solve_reduced(r_x, wr):
            """The regularized reduced solve of (r_x, r_z), given ``wr = W^-1
            r_z``: dx, dz and W dz, which is formed before dz = W^-1 (W dz)."""
            dx = kkt.solve(fac, r_x + tmul(Gw, wr))
            wdz = mul(Gw, dx) - wr
            return dx, cones.apply_w(scaling, wdz, inverse=True), wdz

        def step_length(dsz, frac):
            # one pass over the stacked rows (s, z), reusing their block
            # determinants; a nan step length is kept, where min() would
            # return 1.0
            a = frac * cones.max_step(sz, dsz, dets)
            return 1.0 if a >= 1.0 else a

        # right-hand sides: r_x = -r_dual and r_z = W d_lam - r_cone for the
        # complementarity target -d_lam, so W^-1 r_z = d_lam - W^-1 r_cone
        r_x, wr_cone = -r_dual, cones.apply_w(scaling, r_cone, inverse=True)

        # predictor: one reduced solve, uncorrected, for the target -lam; it
        # only sets alpha_a, sigma and the second-order term
        dx_a, dz_a, wdz_a = solve_reduced(r_x, lam - wr_cone)
        dsz_a = np.array((-r_cone - mul(G_mat, dx_a), dz_a))
        alpha_a = step_length(dsz_a, 1.0)
        if not np.isfinite(alpha_a):
            return finish(Status.NUMERICAL_FAILURE, "non-finite or vanishing step")
        s_a, z_a = sz + alpha_a * dsz_a
        sigma = min(1.0, max(0.0, float(s_a @ z_a) / gap)) ** 3

        # corrector (Mehrotra second order term in the scaled space): d_lam
        # solves lam o d_lam = lam o lam + (W^-1 ds_a) o (W dz_a) - sigma mu e,
        # where W^-1 ds_a = -(lam + W dz_a), so d_lam = lam + lam^-1 o (the
        # rest)
        if not cones.divisible(lam):
            return finish(Status.NUMERICAL_FAILURE, "non-finite or vanishing step")
        corr = cones.product(-(lam + wdz_a), wdz_a) - sigma * mu * ident
        d_lam = lam + cones.solve_product(lam, corr)
        # the combined direction solves [[2P, G'], [G, -W^2]] (dx, dz) =
        # (r_x, r_z) by one reduced solve and one correction from the same
        # factor, against the residual of the full, unregularized system:
        # r_z - G dx + W^2 dz = W (d_lam + W dz) - r_cone - G dx
        dx, dz, wdz = solve_reduced(r_x, d_lam - wr_cone)
        res_z = cones.apply_w(scaling, d_lam + wdz) - r_cone - mul(G_mat, dx)
        fix_x, fix_z, _ = solve_reduced(r_x - tmul(G_mat, dz) - hess @ dx,
                                        cones.apply_w(scaling, res_z, inverse=True))
        dx += fix_x
        dz += fix_z
        dsz = np.array((-r_cone - mul(G_mat, dx), dz))
        alpha = step_length(dsz, FRACTION_TO_BOUNDARY)
        if not np.isfinite(alpha) or alpha <= 1e-14:
            return finish(Status.NUMERICAL_FAILURE, "non-finite or vanishing step")

        # guard against rounding in the boundary-step roots; the heads and
        # tail norms of the point it accepts are the next scaling's
        for _ in range(60):
            sz_new = sz + alpha * dsz
            heads_and_norms = cones.heads_and_norms(sz_new)
            if (heads_and_norms[0] - heads_and_norms[1] > 0).all():
                break
            alpha *= 0.9
        else:
            return finish(Status.NUMERICAL_FAILURE, "60 line-search shrinks")

        x_new = x + alpha * dx
        if not (np.isfinite(x_new).all() and np.isfinite(sz_new).all()):
            return finish(Status.NUMERICAL_FAILURE, "non-finite iterate")
        x, sz = x_new, sz_new
