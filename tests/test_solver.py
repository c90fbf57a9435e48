import concurrent.futures

import numpy as np
import pytest

from soclqc.model import ConeBlock, ConicProgram, ConicProgramBuilder
from soclqc.solver import SolverConfig, Status, solve


def make_kkt_instance(rng):
    """Random program with a known optimum built from a primal-dual pair.

    Picks x*, per-block slacks/duals with zero complementarity, then chooses
    the objective to satisfy stationarity; by construction x* is optimal
    with value c @ x*.
    """
    n = int(rng.integers(2, 11))
    nb = int(rng.integers(1, 5))
    p = int(rng.integers(0, min(3, max(1, n - 2))))
    x_star = rng.standard_normal(n)
    blocks, z_blocks = [], []
    n_active = 0
    for _ in range(nb):
        kind = rng.choice(["nonneg", "soc"])
        active = bool(rng.integers(0, 2)) and (n_active + p < n - 1)
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
        blocks.append(ConeBlock(kind, M, s - M @ x_star))
        z_blocks.append(z)
    eq_A = rng.standard_normal((p, n))
    eq_b = eq_A @ x_star
    y_star = rng.standard_normal(p)
    c = -(eq_A.T @ y_star) if p else np.zeros(n)
    for blk, z in zip(blocks, z_blocks):
        c = c + blk.A.T @ z
    prog = ConicProgram(n, c, 0.0, eq_A, eq_b, tuple(blocks))
    return prog, float(c @ x_star)


class TestBasics:
    def test_nonneg_boundary(self):
        b = ConicProgramBuilder()
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
            b = ConicProgramBuilder()
            idx = b.add_vars(n)
            obj = sum((c[i] * b.var(i) for i in idx), start=0.0 * b.var(0))
            b.set_objective(obj)
            b.add_soc(1.0 + 0.0 * b.var(0), b.var_exprs(idx))
            sol = solve(b.build())
            assert sol.status is Status.OPTIMAL
            assert abs(sol.objective + np.linalg.norm(c)) <= 1e-7
            assert np.allclose(sol.x, -c / np.linalg.norm(c), atol=1e-6)

    def test_equality_constrained(self):
        b = ConicProgramBuilder()
        b.add_vars(2)
        b.set_objective(b.var(0) + b.var(1))
        b.add_eq(b.var(0) - b.var(1) - 1.0)
        b.add_nonneg(b.var(0))
        b.add_nonneg(b.var(1))
        sol = solve(b.build())
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - 1.0) <= 1e-7
        assert abs(sol.x[0] - 1.0) <= 1e-6


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
        blocks, z_blocks = [], []
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
            blocks.append(ConeBlock("soc", M, s - M @ x_star))
            z_blocks.append(z)
        c = np.zeros(n)
        for blk, z in zip(blocks, z_blocks):
            c = c + blk.A.T @ z
        prog = ConicProgram(n, c, 0.0, np.zeros((0, n)), np.zeros(0), tuple(blocks))
        sol = solve(prog)
        assert sol.status is Status.OPTIMAL
        expected = float(c @ x_star)
        assert abs(sol.objective - expected) <= 1e-6 * max(1.0, abs(expected))

    def test_grid_verified_two_dim(self, rng):
        # brute-force check on a 2-var instance with box + ball geometry
        c = np.array([1.0, -2.0])
        b = ConicProgramBuilder()
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
        cfg = SolverConfig()
        for _ in range(10):
            prog, _ = make_kkt_instance(rng)
            sol = solve(prog, cfg)
            assert sol.status is Status.OPTIMAL
            assert sol.res_primal <= cfg.tol_feas
            assert sol.res_dual <= cfg.tol_feas
            assert sol.res_gap <= cfg.tol_gap
            assert sol.reason == ""

    def test_feasibility_round_trip(self, rng):
        for _ in range(10):
            prog, _ = make_kkt_instance(rng)
            sol = solve(prog)
            assert sol.status is Status.OPTIMAL
            assert prog.max_violation(sol.x) <= 1e-6

    def test_weak_duality_at_termination(self, rng):
        prog, _ = make_kkt_instance(rng)
        sol = solve(prog)
        # primal objective dominates the dual bound up to the gap tolerance
        dual = 0.0
        if prog.eq_b.size:
            dual -= prog.eq_b @ sol.y_eq
        for blk, zb in zip(prog.blocks, sol.z_blocks):
            dual -= blk.b @ zb
        assert sol.objective >= dual - 1e-6 * max(1.0, abs(sol.objective))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_feas=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    def test_iteration_budget_exhaustion(self, rng):
        prog, _ = make_kkt_instance(rng)
        sol = solve(prog, SolverConfig(max_iters=1))
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.iterations == 1
        assert sol.reason == "iteration limit"


class TestInfeasibility:
    def test_primal_infeasible(self):
        b = ConicProgramBuilder()
        b.add_var()
        b.set_objective(0.0 * b.var(0))
        b.add_nonneg(b.var(0) - 1.0)
        b.add_nonneg(-b.var(0))
        sol = solve(b.build())
        assert sol.status is Status.PRIMAL_INFEASIBLE

    def test_dual_infeasible_unbounded(self):
        b = ConicProgramBuilder()
        b.add_var()
        b.set_objective(b.var(0))
        b.add_nonneg(-b.var(0))
        sol = solve(b.build())
        assert sol.status is Status.DUAL_INFEASIBLE

    def test_infeasible_ball_intersection(self):
        # two disjoint balls
        b = ConicProgramBuilder()
        idx = b.add_vars(2)
        b.set_objective(b.var(0))
        b.add_soc(1.0 + 0.0 * b.var(0), [b.var(0) - 3.0, b.var(1)])
        b.add_soc(1.0 + 0.0 * b.var(0), [b.var(0) + 3.0, b.var(1)])
        sol = solve(b.build())
        assert sol.status is Status.PRIMAL_INFEASIBLE


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

    LAYOUT = [("nonneg", 1), ("soc", 3), ("soc", 2), ("nonneg", 1), ("soc", 5),
              ("soc", 3), ("soc", 2), ("soc", 3)]

    @pytest.fixture
    def cones(self):
        from soclqc.solver import _Cones

        return _Cones(tuple(ConeBlock(k, np.zeros((d, 1)), np.zeros(d)) for k, d in self.LAYOUT))

    def interior(self, rng, cones):
        """A random interior point, stacked in the solver's row order."""
        pieces = []
        for _, d in self.LAYOUT:
            tail = rng.standard_normal(d - 1)
            pieces.append(np.concatenate([[np.linalg.norm(tail) + rng.uniform(0.1, 2.0)], tail]))
        return self.to_solver(cones, pieces)

    @staticmethod
    def to_solver(cones, pieces):
        return np.concatenate(pieces)[cones.order]

    def test_layout_round_trip(self, cones, rng):
        u = rng.standard_normal(cones.total)
        assert np.array_equal(self.to_solver(cones, cones.split(u)), u)
        assert [len(b) for b in cones.split(u)] == [d for _, d in self.LAYOUT]

    def test_identity_product_and_inverse(self, cones, rng):
        u, v = rng.standard_normal((2, cones.total))
        ref = []
        for a, b in zip(cones.split(u), cones.split(v)):
            ref.append(a * b if len(a) == 1 else np.concatenate([[a @ b], a[0] * b[1:] + b[0] * a[1:]]))
        assert np.allclose(cones.product(u, v), self.to_solver(cones, ref), rtol=1e-12, atol=1e-12)
        e = cones.identity()
        assert all(b[0] == 1.0 and not b[1:].any() for b in cones.split(e))
        assert np.allclose(cones.product(e, u), u, rtol=1e-12, atol=1e-12)
        lam = self.interior(rng, cones)
        back = cones.product(lam, cones.solve_product(lam, v))
        assert np.allclose(back, v, rtol=1e-12, atol=1e-12)

    def test_project_matches_per_block_formula(self, cones, rng):
        for _ in range(20):
            u = 2.0 * rng.standard_normal(cones.total)
            ref = []
            for kind, b in zip((k for k, _ in self.LAYOUT), cones.split(u)):
                if kind == "nonneg":
                    ref.append(np.maximum(b, 0.0))
                    continue
                t = np.linalg.norm(b[1:])
                if b[0] >= t:
                    ref.append(b)
                elif b[0] <= -t:
                    ref.append(np.zeros_like(b))
                else:
                    ref.append(0.5 * (b[0] + t) * np.concatenate([[1.0], b[1:] / t]))
            out = cones.project(u)
            assert np.allclose(out, self.to_solver(cones, ref), rtol=1e-12, atol=1e-12)
            assert cones.inside(out, margin=-1e-12)

    def test_max_step_lands_on_the_boundary(self, cones, rng):
        for _ in range(20):
            u = self.interior(rng, cones)
            du = 3.0 * rng.standard_normal(cones.total)
            a = cones.max_step(u, du)
            assert cones.inside(u + (1 - 1e-9) * min(a, 1e6) * du)
            if np.isfinite(a):
                slack = [b[0] - np.linalg.norm(b[1:]) for b in cones.split(u + a * du)]
                assert min(np.abs(slack)) <= 1e-9 * (1 + a * np.linalg.norm(du))
        u = self.interior(rng, cones)
        assert cones.max_step(u, u) == np.inf
        assert np.isnan(cones.max_step(u, np.full(cones.total, np.nan)))

    def test_max_step_is_scale_free(self, cones, rng):
        # blocks near 1e-9 in size, as in an MPC started at the origin, once
        # took half the step because of an absolute threshold.  du = -u puts
        # a double root on the boundary, known only to about sqrt(eps)
        for _ in range(10):
            u = self.interior(rng, cones)
            for du in (rng.standard_normal(cones.total), -u):
                a = cones.max_step(u, du)
                for scale in (1e-9, 1e9):
                    assert np.isclose(cones.max_step(scale * u, scale * du), a, rtol=1e-6)

    def test_shift_inside(self, cones, rng):
        u = 5.0 * rng.standard_normal(cones.total)
        assert cones.inside(cones.shift_inside(u))
        inner = self.interior(rng, cones) + 10.0 * cones.identity()
        assert np.array_equal(cones.shift_inside(inner, pad=1e-3), inner)

    def test_nt_scaling_and_apply_w(self, cones, rng):
        s, z = self.interior(rng, cones), self.interior(rng, cones)
        scaling = cones.nt_scaling(s, z)
        lam = cones.apply_w(scaling, z)
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
        outside[cones.split(np.arange(cones.total))[1][0]] = -1.0
        with pytest.raises(FloatingPointError):
            cones.nt_scaling(outside, z)
