import concurrent.futures
import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    ExprBuilder,
    double_integrator_mpc,
    epigraph_program,
    max_violation,
    random_lqc_spec,
)
from soclqc.lqc import (
    AmbiguitySpec,
    build_dr_socp,
    build_regret_socp,
    build_robust_socp,
    scalar_benchmark_spec,
)
from soclqc.model import ConicProgramBuilder, unit_rows
from soclqc.mpc import build_mpc_socp
from soclqc.solver import TOL_FEAS, TOL_GAP, Status, solve


def make_kkt_instance(rng):
    """Random program with a known optimum built from a primal-dual pair.

    Picks x*, per-block slacks/duals with zero complementarity, then chooses
    the objective ``c = sum M_i'z_i`` over the blocks ``M_i x + b_i`` to
    satisfy stationarity; by construction x* is optimal with value c @ x*.
    """
    n = int(rng.integers(2, 11))
    nb = int(rng.integers(1, 5))
    x_star = rng.standard_normal(n)
    b = ConicProgramBuilder()
    b.add_vars(n)
    duals = []
    n_active = 0
    for _ in range(nb):
        kind = rng.choice(["nonneg", "soc"])
        active = bool(rng.integers(0, 2)) and (n_active < n - 1)
        if kind == "nonneg":
            M = rng.standard_normal((1, n))
            if active:
                s = np.array([0.0])
                z = np.array([rng.uniform(0.5, 2.0)])
                n_active += 1
            else:
                s = np.array([rng.uniform(0.5, 2.0)])
                z = np.array([0.0])
        else:
            d = int(rng.integers(2, 5))
            M = rng.standard_normal((d, n))
            v = rng.standard_normal(d - 1)
            if active:
                s = np.concatenate([[np.linalg.norm(v)], v])
                z = rng.uniform(0.5, 2.0) * np.concatenate([[np.linalg.norm(v)], -v])
                n_active += 1
            else:
                s = np.concatenate([[np.linalg.norm(v) + rng.uniform(0.5, 2.0)], v])
                z = np.zeros(d)
        b.add_block_rows(M[None], (s - M @ x_star)[None])
        duals.append((M, z))
    c = np.zeros(n)
    for M, z in duals:
        c = c + M.T @ z
    b.set_objective_row(c)
    return b.build(), float(c @ x_star)


def _random_layout(rng):
    """2-7 variables, then the block dimensions in layout order: 0-5
    nonnegative rows and 0-3 second-order blocks of dimension 2-4, drawn
    again while there is no block."""
    while True:
        n = int(rng.integers(2, 8))
        dims = [1] * int(rng.integers(0, 6)) + sorted(int(d) for d in rng.integers(2, 5, int(rng.integers(0, 4))))
        if dims:
            return n, dims


def _random_interior(rng, dims):
    """A point of the cone's interior, the blocks of dimensions dims stacked."""
    pieces = []
    for d in dims:
        tail = rng.standard_normal(d - 1)
        pieces.append(np.concatenate([[np.linalg.norm(tail) + rng.uniform(0.1, 1.0)], tail]))
    return np.concatenate(pieces)


def _blocks_program(n, dims, c, A, b):
    """min c'x s.t. each block of rows of A x + b in its cone."""
    builder = ConicProgramBuilder()
    builder.add_vars(n)
    builder.set_objective_row(c)
    ends = np.cumsum(dims)
    for d, end in zip(dims, ends):
        builder.add_block_rows(A[None, end - d : end], b[None, end - d : end])
    return builder.build()


def unbounded_programs(seed):
    """A stream of unbounded programs: x = 0 is strictly feasible, and along
    a random ray d every block's rows A d lie in the cone while c'd < 0."""
    rng = np.random.default_rng(seed)
    while True:
        n, dims = _random_layout(rng)
        ray, c = rng.standard_normal((2, n))
        if c @ ray > 0:
            c = -c
        k = _random_interior(rng, dims)
        A = rng.standard_normal((len(k), n))
        A -= np.outer(A @ ray - k, ray) / (ray @ ray)
        yield _blocks_program(n, dims, c, A, _random_interior(rng, dims))


def infeasible_programs(seed):
    """A stream of strictly primal-infeasible programs ``h - G x in K``: G
    is projected so that G'z* = 0 for an interior z* and h shifted so that
    h'z* < 0, so z* is a Farkas ray; and c = -G'w for an interior w, so the
    dual is strictly feasible and the program has no improving ray."""
    rng = np.random.default_rng(seed)
    while True:
        n, dims = _random_layout(rng)
        z = _random_interior(rng, dims)
        G = rng.standard_normal((len(z), n))
        G -= np.outer(z, z @ G) / (z @ z)
        h = rng.standard_normal(len(z))
        h += (-rng.uniform(0.1, 1.0) * np.linalg.norm(h) * np.linalg.norm(z) - h @ z) * z / (z @ z)
        w = _random_interior(rng, dims)
        yield _blocks_program(n, dims, -(G.T @ w), -G, h)


class TestBasics:
    def test_nonneg_boundary(self):
        b = ExprBuilder()
        b.add_var()
        b.set_objective(b.var(0))
        b.add_nonneg(b.var(0))
        sol = solve(b.build())
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective) <= 1e-8
        assert abs(sol.x[0]) <= 1e-8

    def test_unit_ball_linear_minimization(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 6))
            c = rng.standard_normal(n)
            while np.linalg.norm(c) < 1e-3:
                c = rng.standard_normal(n)
            b = ExprBuilder()
            idx = b.add_vars(n)
            obj = sum((c[i] * b.var(i) for i in idx), start=0.0 * b.var(0))
            b.set_objective(obj)
            b.add_soc(1.0 + 0.0 * b.var(0), b.var_exprs(idx))
            sol = solve(b.build())
            assert sol.status is Status.OPTIMAL
            assert abs(sol.objective + np.linalg.norm(c)) <= 1e-7
            assert np.allclose(sol.x, -c / np.linalg.norm(c), atol=1e-6)


class TestKktOracle:
    def test_twenty_random_certified_instances(self, rng):
        for trial in range(20):
            prog, expected = make_kkt_instance(rng)
            sol = solve(prog)
            assert sol.status is Status.OPTIMAL, f"trial {trial}: {sol.status}"
            err = abs(sol.objective - expected) / max(1.0, abs(expected))
            assert err <= 1e-6, f"trial {trial}: err {err:.2e}"

    def test_desk_scale_instance(self, rng):
        # a couple hundred variables with a mix of block types
        n = 150
        x_star = rng.standard_normal(n)
        b = ConicProgramBuilder()
        b.add_vars(n)
        c = np.zeros(n)
        for i in range(25):
            d = int(rng.integers(2, 8))
            M = rng.standard_normal((d, n)) / np.sqrt(n)
            v = rng.standard_normal(d - 1)
            if i % 2:
                s = np.concatenate([[np.linalg.norm(v)], v])
                z = np.concatenate([[np.linalg.norm(v)], -v])
            else:
                s = np.concatenate([[np.linalg.norm(v) + 1.0], v])
                z = np.zeros(d)
            b.add_block_rows(M[None], (s - M @ x_star)[None])
            c = c + M.T @ z
        b.set_objective_row(c)
        sol = solve(b.build())
        assert sol.status is Status.OPTIMAL
        expected = float(c @ x_star)
        assert abs(sol.objective - expected) <= 1e-6 * max(1.0, abs(expected))

    def test_grid_verified_two_dim(self, rng):
        # brute-force check on a 2-var instance with box + ball geometry
        c = np.array([1.0, -2.0])
        b = ExprBuilder()
        b.add_vars(2)
        b.set_objective(c[0] * b.var(0) + c[1] * b.var(1))
        b.add_soc(1.5 + 0.0 * b.var(0), b.var_exprs([0, 1]))
        b.add_nonneg(b.var(0) + 1.0)
        b.add_nonneg(1.0 - b.var(1))
        sol = solve(b.build())
        assert sol.status is Status.OPTIMAL
        xs = np.linspace(-1.6, 1.6, 801)
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        feas = (
            (np.hypot(X1, X2) <= 1.5)
            & (X1 >= -1.0)
            & (X2 <= 1.0)
        )
        vals = c[0] * X1 + c[1] * X2
        best = np.min(np.where(feas, vals, np.inf))
        assert abs(sol.objective - best) <= 2 * (xs[1] - xs[0]) * np.linalg.norm(c)


class TestSolutionContract:
    def test_optimal_residuals_below_tolerance(self, rng):
        for _ in range(10):
            prog, _ = make_kkt_instance(rng)
            sol = solve(prog)
            assert sol.status is Status.OPTIMAL
            assert sol.res_primal <= TOL_FEAS
            assert sol.res_dual <= TOL_FEAS
            assert sol.res_gap <= TOL_GAP
            assert sol.reason == ""

    def test_feasibility_round_trip(self, rng):
        for _ in range(10):
            prog, _ = make_kkt_instance(rng)
            sol = solve(prog)
            assert sol.status is Status.OPTIMAL
            assert max_violation(prog, sol.x) <= 1e-6

    def test_weak_duality_at_termination(self, rng):
        prog, _ = make_kkt_instance(rng)
        sol = solve(prog)
        # primal objective dominates the dual bound up to the gap tolerance
        dual = -prog.h @ sol.z
        assert sol.objective >= dual - 1e-6 * max(1.0, abs(sol.objective))

    def test_config_validation(self, rng):
        prog, _ = make_kkt_instance(rng)
        with pytest.raises(ValueError, match="^max_iters must be at least 1$"):
            solve(prog, max_iters=0)

    def test_program_without_cone_blocks_rejected(self):
        b = ConicProgramBuilder()
        b.add_var()
        with pytest.raises(ValueError, match="no cone blocks"):
            solve(b.build())

    def test_program_without_variables_rejected(self):
        # one constant row 1 >= 0 over no variables once reached LAPACK with
        # an empty right-hand side
        b = ConicProgramBuilder()
        b.add_block_rows(np.zeros((1, 1, 0)), [[1.0]])
        with pytest.raises(ValueError, match="^program has no variables; nothing for the"):
            solve(b.build())

    def test_iteration_budget_exhaustion(self, rng):
        prog, _ = make_kkt_instance(rng)
        sol = solve(prog, max_iters=1)
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.iterations == 1
        assert sol.reason == "iteration limit"

    def test_gap_is_relative_to_the_whole_objective(self):
        # the relative gap divides by the objective with its constant
        # obj_offset, so where a constant sits (in c'x or in the offset, which
        # a substitution of variables fills) does not change when a solve
        # stops: at the same iterate, raising the offset scales the
        # gap by the ratio of the two whole objectives
        prog = build_robust_socp(scalar_benchmark_spec(5), [0.5]).program
        raised = replace(prog, obj_offset=prog.obj_offset + 1e6)
        sol, sol_raised = (solve(p, max_iters=3) for p in (prog, raised))
        assert sol.status is sol_raised.status is Status.MAX_ITERATIONS
        assert np.array_equal(sol.x, sol_raised.x)
        ratio = max(1.0, abs(sol_raised.objective)) / max(1.0, abs(sol.objective))
        assert ratio > 1e5
        assert sol.res_gap == pytest.approx(ratio * sol_raised.res_gap, rel=1e-9)


class TestFixedKktWork:
    """Every iteration is fixed work: the predictor is one reduced solve,
    and the combined direction one reduced solve, one residual against the
    full unregularized system and one correction from the same factor, so
    three dpotrs calls per iteration, plus the start's one call with two
    right-hand sides."""

    @pytest.mark.parametrize("build, compact", [
        pytest.param(lambda: build_robust_socp(scalar_benchmark_spec(100), [1.0]), True,
                     id="scalar-N100-compact"),
        pytest.param(lambda: build_regret_socp(random_lqc_spec(np.random.default_rng(6), 3, 2, 2, 12),
                                               np.ones(3)), False, id="lqc-file-size-dense"),
        pytest.param(lambda: build_mpc_socp(double_integrator_mpc(8), [2.0, 0.5]), False,
                     id="mpc-dense"),
    ])
    def test_three_dpotrs_calls_per_iteration(self, monkeypatch, build, compact):
        from soclqc import solver

        prog = build().program
        kkt = solver._KktFactor(prog.G, prog.obj_F, solver._Cones(prog.nn, prog.soc))
        assert kkt.compact is compact
        real_dpotrs = solver.lapack.dpotrs
        calls = []

        def dpotrs(*args, **kwargs):
            calls.append(1)
            return real_dpotrs(*args, **kwargs)

        monkeypatch.setattr(solver.lapack, "dpotrs", dpotrs)
        sol = solve(prog)
        assert sol.status is Status.OPTIMAL
        assert len(calls) == 1 + 3 * sol.iterations


class TestInfeasibility:
    def test_primal_infeasible(self):
        b = ExprBuilder()
        b.add_var()
        b.set_objective(0.0 * b.var(0))
        b.add_nonneg(b.var(0) - 1.0)
        b.add_nonneg(-b.var(0))
        sol = solve(b.build())
        assert sol.status is Status.PRIMAL_INFEASIBLE

    def test_dual_infeasible_unbounded(self):
        b = ExprBuilder()
        b.add_var()
        b.set_objective(b.var(0))
        b.add_nonneg(-b.var(0))
        sol = solve(b.build())
        assert sol.status is Status.DUAL_INFEASIBLE

    def test_infeasible_ball_intersection(self):
        # two disjoint balls
        b = ExprBuilder()
        idx = b.add_vars(2)
        b.set_objective(b.var(0))
        b.add_soc(1.0 + 0.0 * b.var(0), [b.var(0) - 3.0, b.var(1)])
        b.add_soc(1.0 + 0.0 * b.var(0), [b.var(0) + 3.0, b.var(1)])
        sol = solve(b.build())
        assert sol.status is Status.PRIMAL_INFEASIBLE

    @pytest.mark.parametrize("factor", ["null-space", "on-the-ray"])
    def test_improving_ray_and_the_objective_factor(self, factor):
        # min x0^2 - x1 with x0, x1 >= 0: the ray (0, 1) lowers c'x in the
        # null space of F, so the program is unbounded; with x1^2 added,
        # the program is bounded, at x1 = 1/2, although every feasible x
        # has G x + s = 0 and most have c'x < 0
        b = ConicProgramBuilder()
        b.add_vars(2)
        b.set_objective_row([0.0, -1.0], 0.0, unit_rows([0] if factor == "null-space" else [0, 1], 2))
        b.add_block_rows([[[0.0, 1.0]], [[1.0, 0.0]]], [[0.0], [0.0]])
        sol = solve(b.build())
        if factor == "null-space":
            assert sol.status is Status.DUAL_INFEASIBLE, (sol.status, sol.reason)
        else:
            assert sol.status is Status.OPTIMAL
            assert abs(sol.objective + 0.25) <= 1e-8 and abs(sol.x[1] - 0.5) <= 1e-6

    def test_unbounded_programs_end_dual_infeasible(self):
        # every one ends on the loop's improving-ray test, with no stall
        for i, prog in enumerate(itertools.islice(unbounded_programs(0), 400)):
            sol = solve(prog)
            assert sol.status is Status.DUAL_INFEASIBLE, (i, sol.status, sol.reason)
            assert sol.reason == "primal iterate is an improving ray", (i, sol.reason)
            assert np.isfinite(sol.x).all()

    def test_bounded_program_whose_objective_dwarfs_h(self):
        # min -1e100 x s.t. x <= 1e-60 is bounded, at x = 1e-60.  The
        # improving-ray test compares the residual with -c'x / ||c||, the
        # scale of x; against -c'x alone (1e40 here) an x near 1e-60 passed
        # it, and the solve ended DualInfeasible at iteration 24
        sol = solve(TestNumericalExits.program([-1e100], [[1.0]], [1e-60]))
        assert sol.status is Status.OPTIMAL, (sol.status, sol.reason)
        assert abs(sol.x[0] - 1e-60) <= 1e-8 * 1e-60
        assert abs(sol.objective + 1e40) <= 1e-8 * 1e40

    @pytest.mark.parametrize("c1", [-1e295, -3e297])
    def test_overflowing_objective_is_an_improving_ray(self, c1):
        # x1 is in no row, so min x0 + c1 x1 s.t. x0 >= 0 is unbounded.  Once
        # c'x overflows to -inf the gap is nan, which must not switch the
        # improving-ray test off: the solve ran on until "scaling left the
        # cone" (-1e295) or "non-finite iterate" (-3e297)
        with np.errstate(all="ignore"):
            sol = solve(TestNumericalExits.program([1.0, c1], [[-1.0, 0.0]], [0.0]))
        assert sol.status is Status.DUAL_INFEASIBLE, (sol.status, sol.reason)
        assert sol.reason == "primal iterate is an improving ray"
        assert sol.iterations == 1 and np.isfinite(sol.x).all()

    def test_infeasible_programs_end_primal_infeasible(self):
        # every one ends on the loop's Farkas test, with no stall
        for i, prog in enumerate(itertools.islice(infeasible_programs(0), 300)):
            sol = solve(prog)
            assert sol.status is Status.PRIMAL_INFEASIBLE, (i, sol.status, sol.reason)
            assert sol.reason == "dual iterate is a Farkas ray", (i, sol.reason)

    def test_stalled_feasible_programs_keep_their_status(self, monkeypatch, rng):
        # a failed factorization at iteration 2 stalls a feasible, bounded
        # program, and the stall is reported as it is
        for trial in range(10):
            prog, _ = make_kkt_instance(rng)
            with monkeypatch.context() as patch:
                calls = TestFactorizationGuard.record_factorizations(patch, 4, -1.0, 2)
                sol = solve(prog)
            assert calls == [1, 2, 3, 4], trial
            assert sol.status is Status.NUMERICAL_FAILURE, (trial, sol.status, sol.reason)
            assert sol.reason == "factorization failed"


class TestFactorizationGuard:
    """A failed factorization of the reduced KKT matrix ends the solve.

    Every factorization is a Cholesky one (dpotrf) of ``H + D`` (of its
    Schur complement on a large program): the start makes one at W = I
    (call 1), and each iteration one more, so iteration 0 makes call 2.  A
    case makes one of these calls report a failed pivot, or return a nan
    pivot, which LAPACK lets through with info = 0."""

    @staticmethod
    def record_factorizations(monkeypatch, failing_call=None, pivot=None, info=None):
        """Patch dpotrf so that its ``failing_call``-th call fails, if
        given.  Returns the list of the calls made, numbered from 1."""
        from soclqc import solver

        real_dpotrf = solver.lapack.dpotrf
        calls = []

        def dpotrf(a, **kwargs):
            *out, ok = real_dpotrf(a, **kwargs)
            calls.append(len(calls) + 1)
            if len(calls) != failing_call:
                return (*out, ok)
            out[0][1, 1] = pivot
            return (*out, info)

        monkeypatch.setattr(solver.lapack, "dpotrf", dpotrf)
        return calls

    @pytest.mark.parametrize("mpc, pivot, info", [
        pytest.param(False, -1.0, 2, id="dpotrf--1.0-2"),
        pytest.param(False, np.nan, 0, id="dpotrf-nan-0"),
        pytest.param(True, 0.0, 2, id="mpc-dpotrf-0.0-2"),
    ])
    def test_failed_factorization(self, monkeypatch, mpc, pivot, info):
        if mpc:
            prog = build_mpc_socp(double_integrator_mpc(4), [2.0, 0.5]).program
        else:
            prog = build_robust_socp(scalar_benchmark_spec(5), [0.5]).program
        calls = self.record_factorizations(monkeypatch, 2, pivot, info)
        sol = solve(prog)
        assert calls == [1, 2]
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.reason == "factorization failed"
        assert np.isfinite(sol.x).all()

    @pytest.mark.parametrize("mpc", [False, True])
    def test_failed_start_factorization(self, monkeypatch, mpc):
        # the solve starts from the zero points shifted inside and still
        # reaches the optimum of an unpatched solve, on an LQC and on an MPC
        # program
        from soclqc import solver

        if mpc:
            prog = build_mpc_socp(double_integrator_mpc(4), [2.0, 0.5]).program
        else:
            prog = build_robust_socp(scalar_benchmark_spec(5), [0.5]).program
        expected = solve(prog)
        starts = []
        real = solver._initial_point

        def recorded(c, h, kkt, reg):
            starts.append((h, kkt, real(c, h, kkt, reg)))
            return starts[-1][2]

        monkeypatch.setattr(solver, "_initial_point", recorded)
        self.record_factorizations(monkeypatch, 1, -1.0, 2)
        sol = solve(prog)
        cones = solver._Cones(prog.nn, prog.soc)
        h, kkt, (x, s, z) = starts[0]
        assert h is prog.h and kkt.n == prog.num_vars
        assert not x.any() and len(x) == kkt.n
        assert np.array_equal(s, cones.shift_inside(h))
        assert np.array_equal(z, cones.shift_inside(np.zeros(cones.total)))
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - expected.objective) <= 1e-7 * (1 + abs(expected.objective))

    @pytest.mark.parametrize("pivot", [np.nan, -1.0])
    def test_private_pivot_not_positive(self, monkeypatch, pivot):
        # the eliminated variables' pivots are H_pp after regularization; a
        # nan or negative one ends the solve before dpotrf factors S.  The
        # explicit elimination runs with the compact products (N = 60)
        from soclqc import solver

        prog = build_robust_socp(scalar_benchmark_spec(60), [0.5]).program
        real = solver._KktFactor.private_rows

        def bad_pivot(self, B):
            H_pp, H_pd = real(self, B)
            H_pp = H_pp.copy()
            H_pp[1] = pivot
            return H_pp, H_pd

        monkeypatch.setattr(solver._KktFactor, "private_rows", bad_pivot)
        calls = self.record_factorizations(monkeypatch)
        sol = solve(prog)
        assert calls == []
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.reason == "factorization failed"
        assert np.isfinite(sol.x).all()


class TestNumericalExits:
    """The NumericalFailure exits of the iteration other than a failed
    factorization.  Two are reached by programs whose data overflow in the
    iteration, "non-finite iterate" and the three "non-finite or vanishing
    step" sites by a patched kernel; each returns a finite iterate."""

    @staticmethod
    def program(c, G, h):
        """min c'x subject to the nonnegative rows h - G x >= 0."""
        b = ConicProgramBuilder()
        b.add_vars(len(c))
        b.set_objective_row(c)
        b.add_block_rows(-np.asarray(G, dtype=float)[:, None], np.asarray(h, dtype=float)[:, None])
        return b.build()

    @pytest.mark.parametrize("c, G, h, reason", [
        # x <= 1e200: the start's slack squares past the largest double
        pytest.param([1.0], [[1.0]], [1e200], "scaling left the cone", id="scaling"),
        # 1e-34 x <= 1e-96 under an objective of scale 1e100: no shrink of
        # the step keeps the slack inside its cone
        pytest.param([-1e100], [[1e-34]], [1e-96], "60 line-search shrinks", id="line-search"),
    ])
    def test_overflowing_program(self, c, G, h, reason):
        with np.errstate(all="ignore"):
            sol = solve(self.program(c, G, h))
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.reason == reason
        assert np.isfinite(sol.x).all()

    def test_scaling_overflow(self):
        # an MPC program with its rows scaled by 1e3: late in the solve the
        # ratio of a block's slack and dual determinants passes the largest
        # double, so beta would be inf; that once put nan in the directions
        # and ended the solve "non-finite or vanishing step" after an
        # overflow warning
        prog = build_mpc_socp(double_integrator_mpc(20), np.array([5.0, 0.5])).program
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve(replace(prog, G=prog.G * 1e3, h=prog.h * 1e3))
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.reason == "scaling left the cone"
        assert np.isfinite(sol.x).all()

    def test_non_finite_iterate(self, monkeypatch):
        # x1 is in no row and has no cost, so neither the residuals nor the
        # objective see it.  A patched dpotrs puts it at the largest double
        # at the start (call 1) and in the corrector's correction (call 4),
        # so the step overflows it while the slacks and duals stay finite
        from soclqc import solver

        prog = self.program([1.0, 0.0], [[-1.0, 0.0]], [0.0])
        real_dpotrs, calls = solver.lapack.dpotrs, []

        def dpotrs(*args, **kwargs):
            calls.append(1)
            x, info = real_dpotrs(*args, **kwargs)
            if len(calls) in (1, 4):
                x[1] = np.finfo(float).max
            return x, info

        monkeypatch.setattr(solver.lapack, "dpotrs", dpotrs)
        with np.errstate(over="ignore"):
            sol = solve(prog)
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.reason == "non-finite iterate"
        assert sol.iterations == 0 and len(calls) == 4 and np.isfinite(sol.x).all()

    @pytest.mark.parametrize("site", ["predictor", "divisible", "corrector"])
    def test_non_finite_step(self, monkeypatch, site):
        # dpotrs call 1 is the start's, and iteration 0 makes call 2 for the
        # predictor and calls 3-4 for the corrector: a nan from call 2 or 3
        # makes that direction's step length nan.  Between the two, a
        # scaled dual that solve_product cannot divide by ends the solve
        from soclqc import solver

        prog = build_robust_socp(scalar_benchmark_spec(5), [0.5]).program
        real_dpotrs, calls, checked = solver.lapack.dpotrs, [], []

        def dpotrs(*args, **kwargs):
            calls.append(1)
            x, info = real_dpotrs(*args, **kwargs)
            if len(calls) == {"predictor": 2, "corrector": 3}.get(site):
                x[:] = np.nan
            return x, info

        def divisible(self, lam):
            checked.append(1)
            return False

        monkeypatch.setattr(solver.lapack, "dpotrs", dpotrs)
        if site == "divisible":
            monkeypatch.setattr(solver._Cones, "divisible", divisible)
        with np.errstate(invalid="ignore"):
            sol = solve(prog)
        assert sol.status is Status.NUMERICAL_FAILURE
        assert sol.reason == "non-finite or vanishing step"
        assert sol.iterations == 0 and np.isfinite(sol.x).all()
        assert len(calls) == (4 if site == "corrector" else 2)
        assert checked == ([1] if site == "divisible" else [])


class TestPrivateElimination:
    """Block-private variables (a column of G nonzero in one cone block
    only) are eliminated before the Cholesky factorization of a large
    (compact) program; a smaller one keeps its own order and factors the
    whole matrix."""

    @staticmethod
    def private(prog):
        """The KKT factor of prog, its block-private columns as a set, and
        their blocks."""
        from soclqc.solver import _Cones, _KktFactor, _private_columns

        cones = _Cones(prog.nn, prog.soc)
        private, blocks = _private_columns(prog.G, prog.obj_F, cones)
        return _KktFactor(prog.G, prog.obj_F, cones), set(private.tolist()), blocks

    @staticmethod
    def order(kkt):
        """The variable order of the solve: private first when compact."""
        return kkt.order if kkt.compact else np.arange(kkt.n)

    def test_epigraph_variables_detected(self):
        # the LQC program's variables are y, lam and one t_i per coordinate,
        # its second-order blocks the coordinates' 3-dimensional ones, and
        # the t_i alone are private
        socp = build_robust_socp(scalar_benchmark_spec(5), [0.5])
        n = socp.program.num_vars
        assert n == len(socp.y_index) + 1 + len(socp.t_index)
        assert socp.program.soc == ((5, 3),)
        kkt, private, blocks = self.private(socp.program)
        assert private == set(socp.t_index.tolist())
        assert len(set(blocks.tolist())) == len(private)
        # below the compact threshold the solve keeps the program's order
        assert not kkt.compact and kkt.order is None and kkt.k == 0
        # a large program orders them first, and the rest in their own order
        socp = build_robust_socp(scalar_benchmark_spec(60), [0.5])
        kkt, private, _ = self.private(socp.program)
        n = socp.program.num_vars
        assert kkt.compact and kkt.k == len(private) == 60
        assert set(kkt.order[: kkt.k].tolist()) == private
        assert list(kkt.order[kkt.k:]) == sorted(set(range(n)) - private)

    def test_beta_columns_not_private_on_dr(self, rng):
        spec = random_lqc_spec(rng, 2, 1, 2, 3)
        amb = AmbiguitySpec(rng.standard_normal((2, spec.stacked_dist_dim)), [0.1, 0.2])
        socp = build_dr_socp(spec, rng.standard_normal(2), amb)
        _, private, _ = self.private(socp.program)
        assert len(socp.beta_index) == 2
        assert not private & set(socp.beta_index.tolist())
        assert set(socp.t_index.tolist()) <= private

    def test_one_private_variable_per_block(self):
        # min x0 + x1 + x2 with ||(x0 - x1, 1)|| <= x0 + x1 and x2 >= 1: x0
        # and x1 are both private to the cone block, x2 to its row; the
        # first of the two is eliminated
        b = ConicProgramBuilder()
        b.add_vars(3)
        b.set_objective_row([1.0, 1.0, 1.0])
        b.add_block_rows([[[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]], [[0.0, 0.0, 1.0]])
        b.add_block_rows([[[0.0, 0.0, 1.0]]], [[-1.0]])
        prog = b.build()
        _, private, _ = self.private(prog)
        assert private == {0, 2}
        sol = solve(prog)
        assert sol.status is Status.OPTIMAL
        assert np.allclose(sol.x, [0.5, 0.5, 1.0], atol=1e-7)

    @pytest.mark.parametrize("factored, private", [([0], {1, 2}), ([0, 1], {2}), ([2], {0})])
    def test_factor_columns_never_private(self, factored, private):
        # the program of test_one_private_variable_per_block with x_j^2 in
        # the objective for each factored j: the Hessian couples those
        # variables, so none is eliminated, and the solve agrees with the
        # program's epigraph form
        b = ConicProgramBuilder()
        b.add_vars(3)
        b.set_objective_row([1.0, 1.0, 1.0], 0.0, unit_rows(factored, 3))
        b.add_block_rows([[[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]], [[0.0, 0.0, 1.0]])
        b.add_block_rows([[[0.0, 0.0, 1.0]]], [[-1.0]])
        prog = b.build()
        assert self.private(prog)[1] == private
        sol, ref = solve(prog), solve(epigraph_program(prog))
        assert sol.status is ref.status is Status.OPTIMAL
        assert abs(sol.objective - ref.objective) <= 1e-7 * (1.0 + abs(ref.objective))
        assert np.allclose(sol.x, ref.x[:3], rtol=0, atol=1e-4)

    def test_factor_column_not_private_in_compact_form(self):
        # the program of test_every_column_private with x0^2 in the
        # objective: x0 stays in the Schur complement of the compact form
        n = 150
        b = ConicProgramBuilder()
        b.add_vars(n)
        b.set_objective_row(np.ones(n), 0.0, unit_rows([0], n))
        b.add_block_rows(np.eye(n)[: n - 1, None, :], -np.ones((n - 1, 1)))
        b.add_block_rows([np.eye(n)[[n - 1, 0, 0]] * [[1.0], [0.0], [0.0]]], [[0.0, 1.0, 1.0]])
        prog = b.build()
        kkt, private, _ = self.private(prog)
        assert private == set(range(1, n)) and kkt.compact and list(kkt.order[kkt.k:]) == [0]
        sol = solve(prog)
        assert sol.status is Status.OPTIMAL
        assert np.allclose(sol.x, [1.0] * (n - 1) + [np.sqrt(2.0)], atol=1e-7)
        assert abs(sol.objective - (n + np.sqrt(2.0))) <= 1e-7 * n

    def test_zero_column_not_eliminated(self):
        # x1 appears in no block; the regularization keeps H + D definite
        b = ConicProgramBuilder()
        b.add_vars(2)
        b.set_objective_row([1.0, 0.0])
        b.add_block_rows([[[1.0]]], [[-3.0]])
        prog = b.build()
        assert not prog.G[:, 1].any()
        _, private, _ = self.private(prog)
        assert private == {0}
        sol = solve(prog)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.x[0] - 3.0) <= 1e-7

    def test_every_column_private(self):
        # x_i >= 1 (i < 149) and ||(1, 1)|| <= x_149: each variable is
        # private to its block, and 152 rows times 150 private columns
        # take the compact form, so the Schur complement is empty
        n = 150
        b = ConicProgramBuilder()
        b.add_vars(n)
        b.set_objective_row(np.ones(n))
        b.add_block_rows(np.eye(n)[: n - 1, None, :], -np.ones((n - 1, 1)))
        b.add_block_rows([np.eye(n)[[n - 1, 0, 0]] * [[1.0], [0.0], [0.0]]], [[0.0, 1.0, 1.0]])
        prog = b.build()
        kkt, private, _ = self.private(prog)
        assert private == set(range(n)) and kkt.compact and kkt.k == n
        sol = solve(prog)
        assert sol.status is Status.OPTIMAL
        assert np.allclose(sol.x, [1.0] * (n - 1) + [np.sqrt(2.0)], atol=1e-7)

    @pytest.mark.parametrize("N", [5, 60])
    def test_factor_is_cholesky_of_permuted_h(self, rng, N):
        # U'U = H + D in the order of the solve (private first when
        # compact), with D the relative regularization of diag(H), and the
        # products with G and W^-1 G are the dense ones; N = 60 takes the
        # compact form; the reduced matrix holds the objective's Hessian 2F'F
        from soclqc.solver import _Cones

        prog = build_regret_socp(scalar_benchmark_spec(N), [0.5]).program
        cones = _Cones(prog.nn, prog.soc)
        kkt, _, _ = self.private(prog)
        assert kkt.compact == (N == 60)
        sz = np.array([cones.shift_inside(rng.standard_normal(cones.total)) for _ in range(2)])
        scaling, _ = cones.nt_scaling(sz)
        Gw, U, info = kkt.factor(scaling, 1e-10)
        assert info == 0
        G = prog.G[:, self.order(kkt)]
        full = cones.apply_w(scaling, G, inverse=True)
        x, z = rng.standard_normal(prog.num_vars), rng.standard_normal(cones.total)
        for M, P in ((G, kkt.G_pd if kkt.compact else kkt.G), (full, Gw)):
            if kkt.compact:
                Mx, Mz = kkt.mul(P, x), kkt.tmul(P, z)
            else:
                assert np.allclose(P, M, rtol=1e-13, atol=1e-13 * np.abs(M).max())
                Mx, Mz = P @ x, P.T @ z
            assert np.allclose(Mx, M @ x, rtol=1e-12, atol=1e-12 * np.abs(M).max())
            assert np.allclose(Mz, M.T @ z, rtol=1e-12, atol=1e-12 * np.abs(M).max())
        F = prog.obj_F[:, self.order(kkt)]
        H = full.T @ full + 2.0 * F.T @ F
        H[np.diag_indices_from(H)] += np.maximum(1e-10, 1e-14 * np.diagonal(H))
        assert np.allclose(np.triu(U).T @ np.triu(U), H, rtol=1e-10, atol=1e-12 * np.abs(H).max())

    @staticmethod
    def private_segment_G(rng):
        """G of a compact program whose private variables include nonnegative
        rows: 5 shared columns y on every row, x_i private to nonnegative row
        i < 120 (rows 120-149 hold y only) and t_j to the head of 3-dim block
        j < 50 (blocks 50-59 hold y only)."""
        nn, k3, d = 150, 60, 5
        G = np.zeros((nn + 3 * k3, d + 120 + 50))
        G[:, :d] = rng.standard_normal((len(G), d))
        G[np.arange(120), d + np.arange(120)] = 1.0
        G[nn + 3 * np.arange(50), d + 120 + np.arange(50)] = 1.0
        return G, nn, ((k3, 3),)

    @pytest.mark.parametrize("case", ["scalar-60", "expanding", "private-segment"])
    def test_private_rows_match_block_sums(self, rng, case):
        # H_pd from one batched product per group of second-order blocks
        # (and a scaled row per private nonnegative row) equals the per-block
        # sums of gw * B over every block, gathered at the private blocks
        from soclqc.solver import _Cones, _KktFactor, _private_columns

        if case == "scalar-60":
            prog = build_robust_socp(scalar_benchmark_spec(60), [0.5]).program
            G, F, nn, soc = prog.G, prog.obj_F, prog.nn, prog.soc
        elif case == "expanding":
            spec_rng = np.random.default_rng(8)
            spec = random_lqc_spec(spec_rng, 4, 2, 2, 30)
            prog = build_regret_socp(spec, spec_rng.standard_normal(4)).program
            G, F, nn, soc = prog.G, prog.obj_F, prog.nn, prog.soc
        else:
            G, nn, soc = self.private_segment_G(rng)
            F = np.zeros((0, G.shape[1]))
        cones = _Cones(nn, soc)
        kkt = _KktFactor(G, F, cones)
        blocks = _private_columns(G, F, cones)[1]
        assert kkt.compact and np.array_equal(kkt.blocks, blocks)
        assert (len(kkt.private_nn) > 0) == (case == "private-segment")
        sz = np.array([cones.shift_inside(rng.standard_normal(cones.total)) for _ in range(2)])
        scaling, _ = cones.nt_scaling(sz)
        B = cones.apply_w(scaling, kkt.G_pd, inverse=True)
        gw = B[:, 0]
        H_pp, H_pd = kkt.private_rows(B)
        ref = cones.block_sums(gw[:, None] * B[:, 1:])[blocks]
        assert np.array_equal(H_pp, cones._sum(gw * gw)[blocks])
        assert H_pd.shape == ref.shape == (kkt.k, kkt.n - kkt.k)
        assert np.abs(H_pd - ref).max() <= 1e-13 * np.abs(ref).max()


class TestQuadraticObjective:
    """The objective ``||F x||^2 + c'x``, taken directly, against the same
    program with its cost in an epigraph block (``helpers.epigraph_program``),
    in the dense and the compact form."""

    CASES = ["random", "lqc-dense", "lqc-compact", "mpc"]

    @staticmethod
    def program(name, rng):
        if name.startswith("random"):
            # bounded with its linear objective, so with any F; F has full
            # column rank (the epigraph form's Cholesky factor needs it)
            prog, _ = make_kkt_instance(rng)
            return replace(prog, obj_F=rng.standard_normal((prog.num_vars + 1, prog.num_vars)))
        if name == "mpc":
            return build_mpc_socp(double_integrator_mpc(8), [2.0, 0.5]).program
        N = 60 if "compact" in name else 5
        return build_regret_socp(scalar_benchmark_spec(N), [0.5]).program

    @pytest.mark.parametrize("name", CASES)
    def test_matches_epigraph_form(self, rng, name):
        from soclqc.solver import _Cones, _KktFactor

        for _ in range(5 if name.startswith("random") else 1):
            prog = self.program(name, rng)
            kkt = _KktFactor(prog.G, prog.obj_F, _Cones(prog.nn, prog.soc))
            assert kkt.compact == ("compact" in name)
            sol, ref = solve(prog), solve(epigraph_program(prog))
            assert sol.status is ref.status is Status.OPTIMAL, (sol.reason, ref.reason)
            assert abs(sol.objective - ref.objective) <= 1e-7 * (1.0 + abs(ref.objective))
            # the cost fixes the variables F uses, to about the square root
            # of the gap tolerance
            cols = prog.obj_F.any(axis=0)
            x = ref.x[: prog.num_vars][cols]
            assert np.allclose(sol.x[cols], x, rtol=0, atol=1e-4 * (1.0 + np.abs(x).max()))


class TestConcurrency:
    def test_shared_program_concurrent_solves(self, rng):
        prog, expected = make_kkt_instance(rng)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            sols = list(pool.map(lambda _: solve(prog), range(8)))
        for sol in sols:
            assert sol.status is Status.OPTIMAL
            assert abs(sol.objective - expected) <= 1e-6 * max(1.0, abs(expected))
        # deterministic: same iterate path in every thread
        assert all(np.array_equal(s.x, sols[0].x) for s in sols)


class TestConeKernels:
    """Batched cone kernels against per-block references (tolerance 1e-12)."""

    LAYOUT = [1, 3, 2, 1, 5, 3, 2, 3]  # block dimensions

    @pytest.fixture
    def program(self):
        """LAYOUT's blocks, in the order the builder lays them out."""
        b = ConicProgramBuilder()
        b.add_var()
        for d in self.LAYOUT:
            b.add_block_rows(np.zeros((1, d, 1)), np.zeros((1, d)))
        return b.build()

    @pytest.fixture
    def cones(self, program):
        from soclqc.solver import _Cones

        return _Cones(program.nn, program.soc)

    @staticmethod
    def split(program, u):
        """Per-block pieces of a slack vector, in layout order."""
        return np.split(u, np.cumsum([blk.dim for blk in program.blocks])[:-1])

    @staticmethod
    def inside(cones, u):
        """Whether every block of u (of each stacked row) is interior, as
        the solver's line search tests it."""
        heads, norms = cones.heads_and_norms(u)
        return bool((heads - norms > 0).all())

    @staticmethod
    def interior(rng, program):
        """A random interior point, stacked in layout order."""
        pieces = []
        for blk in program.blocks:
            tail = rng.standard_normal(blk.dim - 1)
            pieces.append(np.concatenate([[np.linalg.norm(tail) + rng.uniform(0.1, 2.0)], tail]))
        return np.concatenate(pieces)

    def test_layout_round_trip(self, program, cones, rng):
        # the kernels' block heads (starts) and per-row block index (blk) are
        # the program's blocks, in order
        assert [blk.dim for blk in program.blocks] == sorted(self.LAYOUT)
        u = rng.standard_normal(cones.total)
        pieces = self.split(program, u)
        assert cones.total == len(program.h) and np.array_equal(np.concatenate(pieces), u)
        assert cones.num_blocks == len(pieces)
        assert np.array_equal(u[: cones.nn], np.concatenate(pieces[: cones.nn]))
        assert np.array_equal(u[cones.starts], [b[0] for b in pieces])
        assert all(np.array_equal(u[cones.blk == i], b) for i, b in enumerate(pieces))
        assert np.array_equal(cones.sign, np.concatenate(
            [np.where(np.arange(len(b)) == 0, 1.0, -1.0) for b in pieces]))

    def test_identity_product_and_inverse(self, program, cones, rng):
        u, v = rng.standard_normal((2, cones.total))
        ref = []
        for a, b in zip(self.split(program, u), self.split(program, v)):
            ref.append(a * b if len(a) == 1 else np.concatenate([[a @ b], a[0] * b[1:] + b[0] * a[1:]]))
        assert np.allclose(cones.product(u, v), np.concatenate(ref), rtol=1e-12, atol=1e-12)
        e = cones.identity()
        assert all(b[0] == 1.0 and not b[1:].any() for b in self.split(program, e))
        assert np.allclose(cones.product(e, u), u, rtol=1e-12, atol=1e-12)
        lam = self.interior(rng, program)
        back = cones.product(lam, cones.solve_product(lam, v))
        assert np.allclose(back, v, rtol=1e-12, atol=1e-12)

    def test_max_step_lands_on_the_boundary(self, program, cones, rng):
        for _ in range(20):
            u = self.interior(rng, program)
            du = 3.0 * rng.standard_normal(cones.total)
            a = cones.max_step(u, du)
            assert self.inside(cones, u + (1 - 1e-9) * min(a, 1e6) * du)
            if np.isfinite(a):
                slack = [b[0] - np.linalg.norm(b[1:]) for b in self.split(program, u + a * du)]
                assert min(np.abs(slack)) <= 1e-9 * (1 + a * np.linalg.norm(du))
        u = self.interior(rng, program)
        assert cones.max_step(u, u) == np.inf
        assert np.isnan(cones.max_step(u, np.full(cones.total, np.nan)))

    def test_stacked_rows_match_single_passes(self, cones, program, rng):
        # the solver takes one pass over (s, z) stacked as rows; max_step must
        # give the smaller single-vector step bitwise, also when either is
        # unbounded (inf) or its direction is not finite (nan), and inside
        # must hold for the stack exactly when it holds for both rows
        s, z = self.interior(rng, program), self.interior(rng, program)
        moves = [3.0 * rng.standard_normal((2, cones.total)) for _ in range(20)]
        bad = rng.standard_normal(cones.total)
        bad[cones.nn + 1] = np.inf
        moves += [np.array(pair) for pair in (
            (s, z), (s, rng.standard_normal(cones.total)), (rng.standard_normal(cones.total), z),
            (np.full(cones.total, np.nan), z), (s, bad), (bad, bad))]
        outcomes = set()
        for ds, dz in moves:
            single = np.min([cones.max_step(s, ds), cones.max_step(z, dz)])
            stacked = cones.max_step(np.array((s, z)), np.array((ds, dz)))
            assert np.float64(stacked).tobytes() == np.float64(single).tobytes()
            outcomes.add("nan" if np.isnan(single) else "inf" if np.isinf(single) else "finite")
        assert outcomes == {"finite", "inf", "nan"}
        for a, b in ((s, z), (s, -z), (-s, z), (s, s + 0.5 * moves[0][0])):
            assert self.inside(cones, np.array((a, b))) == (
                self.inside(cones, a) and self.inside(cones, b))

    def test_max_step_is_scale_free(self, program, cones, rng):
        # blocks near 1e-9 in size, as in an MPC started at the origin, once
        # took half the step because of an absolute threshold.  du = -u puts
        # a double root on the boundary, known only to about sqrt(eps)
        for _ in range(10):
            u = self.interior(rng, program)
            for du in (rng.standard_normal(cones.total), -u):
                a = cones.max_step(u, du)
                for scale in (1e-9, 1e9):
                    assert np.isclose(cones.max_step(scale * u, scale * du), a, rtol=1e-6)

    def test_shift_inside(self, cones, rng):
        u = 5.0 * rng.standard_normal(cones.total)
        shifted = cones.shift_inside(u)
        assert self.inside(cones, shifted)
        # a block whose head already exceeds 1 + twice its tail norm stays
        inner = shifted + cones.identity()
        assert np.array_equal(cones.shift_inside(inner), inner)

    def test_nt_scaling_and_apply_w(self, program, cones, rng):
        s, z = self.interior(rng, program), self.interior(rng, program)
        sz = np.array((s, z))
        scaling, dets = cones.nt_scaling(sz)
        lam = cones.apply_w(scaling, z)
        # a dimension-1 block has v = 1, J = 1 and beta = sqrt(s / z)
        v, _, beta_J = scaling.fwd
        nn = cones.nn
        assert np.allclose(v[:nn], 1.0, rtol=1e-12, atol=1e-12)
        assert np.allclose(beta_J[:nn], np.sqrt(s[:nn] / z[:nn]), rtol=1e-12, atol=1e-12)
        # the line search's heads and tail norms give the same scaling
        reused, reused_dets = cones.nt_scaling(sz, cones.heads_and_norms(sz))
        assert np.array_equal(reused_dets, dets)
        assert all(np.array_equal(a, b) for a, b in zip(reused.fwd + reused.inv,
                                                        scaling.fwd + scaling.inv))
        # the block determinants are the ones max_step would compute at (s, z)
        for dsz in 3.0 * rng.standard_normal((5, 2, cones.total)):
            assert cones.max_step(sz, dsz, dets) == cones.max_step(sz, dsz)
        # NT point: W z = W^-1 s, so W^2 z = s, never forming W^2
        assert np.allclose(lam, cones.apply_w(scaling, s, inverse=True), rtol=1e-12, atol=1e-12)
        assert np.allclose(cones.apply_w(scaling, lam), s, rtol=1e-12, atol=1e-12)
        M = rng.standard_normal((cones.total, 4))
        for inverse in (False, True):
            cols = np.column_stack([cones.apply_w(scaling, m, inverse) for m in M.T])
            assert np.allclose(cones.apply_w(scaling, M, inverse), cols, rtol=1e-12, atol=1e-12)
        back = cones.apply_w(scaling, cones.apply_w(scaling, M), inverse=True)
        assert np.allclose(back, M, rtol=1e-12, atol=1e-12)
        outside = s.copy()
        outside[cones.nn] = -1.0  # the head of the first second-order block
        with pytest.raises(FloatingPointError):
            cones.nt_scaling(np.array((outside, z)))
