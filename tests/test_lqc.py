import json
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    assert_identical_programs,
    assert_same_program,
    random_lqc_spec,
    reference_lqc_program,
    scalar_regret_grid_oracle,
)
from soclqc.lqc import (
    AmbiguitySpec,
    LqcSpec,
    RecedingHorizonError,
    box_polyhedron,
    build_compact_cost,
    build_dr_regret_socp,
    build_dr_socp,
    build_regret_socp,
    build_robust_socp,
    receding_horizon_simulate,
    robust_certificate_matrix,
    rollout_cost,
    rollout_states,
    scalar_benchmark_spec,
    time_invariant_spec,
)
from soclqc.model import DimensionMismatch, NotPositiveDefinite, pin_variables
from soclqc.oracle import max_quad_over_ball
from soclqc.slemma import QuadForm, assemble_classical_lmi, check_psd
from soclqc.solver import Status, solve
from soclqc.verify import verify_result, worst_case


def solve_ok(program):
    sol = solve(program)
    assert sol.status is Status.OPTIMAL, sol.status
    return sol


LQC_FIELDS = ("A", "B", "C", "Q", "q", "R", "r", "gamma", "u_poly_G", "u_poly_h")


class TestSpecValidation:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            scalar_benchmark_spec(2, gamma=0.0)

    def test_state_cost_must_be_psd(self):
        one = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            LqcSpec(one, one, one, -one, np.zeros((1, 1)), one, np.zeros((1, 1)),
                    0.1, np.zeros((0, 1)), np.zeros(0))

    def test_input_cost_must_be_pd(self):
        one = np.ones((1, 1, 1))
        with pytest.raises(ValueError):
            LqcSpec(one, one, one, one, np.zeros((1, 1)), 0.0 * one,
                    np.zeros((1, 1)), 0.1, np.zeros((0, 1)), np.zeros(0))

    def test_first_failing_stage_is_named(self):
        base = random_lqc_spec(np.random.default_rng(0), 2, 2, 1, 50)

        def with_costs(Q, R):
            return LqcSpec(base.A, base.B, base.C, Q, base.q, R, base.r, base.gamma,
                           base.u_poly_G, base.u_poly_h)

        Q = base.Q.copy()
        Q[37] = np.diag([1.0, -1.0])
        singular = base.R.copy()
        singular[12] = np.diag([1.0, 0.0])
        tiny = base.R.copy()
        tiny[12] = np.diag([1.0, 1e-15])
        with pytest.raises(ValueError, match=r"^Q\[37\] is not positive semidefinite$"):
            with_costs(Q, base.R)
        with pytest.raises(NotPositiveDefinite, match=r"^R\[12\] is not positive definite$"):
            with_costs(base.Q, singular)
        with pytest.raises(NotPositiveDefinite, match=r"^R\[12\] has a near-zero Cholesky pivot$"):
            with_costs(base.Q, tiny)
        # stages are checked in order, Q[k] before R[k]
        with pytest.raises(NotPositiveDefinite, match=r"^R\[12\]"):
            with_costs(Q, singular)

    def test_horizon_must_be_positive(self):
        # an empty horizon once reached numpy's zero-size reduction error in
        # the builder
        with pytest.raises(ValueError, match="^horizon N must be at least 1$"):
            time_invariant_spec(1, 1, 1, 1, 0, 1, 0, N=0, gamma=0.1)

    def test_input_dimension_must_be_positive(self):
        N, one = 3, np.ones((3, 1, 1))
        with pytest.raises(ValueError, match="^input dimension n_u must be at least 1$"):
            LqcSpec(one, np.zeros((N, 1, 0)), one, one, np.zeros((N, 1)), np.zeros((N, 0, 0)),
                    np.zeros((N, 0)), 0.1, np.zeros((0, 0)), np.zeros(0))

    def test_state_dimension_must_be_positive(self):
        # an empty state once failed with an IndexError in the stage-cost check
        N, one = 3, np.ones((3, 1, 1))
        with pytest.raises(ValueError, match="^state dimension n_x must be at least 1$"):
            LqcSpec(np.zeros((N, 0, 0)), np.zeros((N, 0, 1)), np.zeros((N, 0, 1)), np.zeros((N, 0, 0)),
                    np.zeros((N, 0)), one, np.zeros((N, 1)), 0.1, np.zeros((0, N)), np.zeros(0))

    def test_disturbance_dimension_must_be_positive(self):
        # an empty disturbance was once accepted, and the build then failed
        # with "empty matrix pair"
        N, one = 3, np.ones((3, 1, 1))
        with pytest.raises(ValueError, match="^disturbance dimension n_w must be at least 1$"):
            LqcSpec(one, one, np.zeros((N, 1, 0)), one, np.zeros((N, 1)), one, np.zeros((N, 1)),
                    0.1, np.zeros((0, N)), np.zeros(0))

    def test_polyhedron_dimension_checked(self):
        one = np.ones((1, 1, 1))
        with pytest.raises(DimensionMismatch):
            LqcSpec(one, one, one, one, np.zeros((1, 1)), one, np.zeros((1, 1)),
                    0.1, np.zeros((1, 3)), np.zeros(1))

    @pytest.mark.parametrize("field", [*LQC_FIELDS, "x0"])
    def test_non_finite_entries_rejected(self, field):
        # the field's last entry made nan, inf and -inf in turn
        base = scalar_benchmark_spec(3)
        for bad in (np.nan, np.inf, -np.inf):
            args = {name: np.array(getattr(base, name), dtype=float) for name in LQC_FIELDS}
            x0 = np.array([0.5])
            (x0 if field == "x0" else args[field]).flat[-1] = bad
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                build_robust_socp(LqcSpec(**args), x0)

    @pytest.mark.parametrize("field", ["H", "mu"])
    def test_non_finite_moments_rejected(self, field):
        for bad in (np.nan, np.inf, -np.inf):
            args = {"H": np.ones((2, 3)), "mu": np.ones(2)}
            args[field].flat[-1] = bad
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                AmbiguitySpec(**args)


class TestImmutableSpec:
    """Specs are frozen, and a spec made by ``dataclasses.replace`` from one
    that was already built computes its own derived data."""

    @pytest.mark.parametrize("field, factor", [("R", 4.0), ("Q", 3.0), ("C", 2.0),
                                               ("u_poly_G", 2.0)])
    def test_replace_builds_the_programs_of_fresh_data(self, field, factor):
        spec = random_lqc_spec(np.random.default_rng(3), 2, 2, 2, 4)
        amb = AmbiguitySpec(np.ones((1, spec.stacked_dist_dim)), [0.5])
        x0 = np.array([0.7, -0.4])
        builds = [lambda s: build_robust_socp(s, x0), lambda s: build_regret_socp(s, x0),
                  lambda s: build_dr_socp(s, x0, amb), lambda s: build_dr_regret_socp(s, x0, amb)]
        for build in builds:
            build(spec)
        derived = replace(spec, **{field: factor * getattr(spec, field)})
        fresh = LqcSpec(**{name: np.copy(getattr(derived, name)) for name in LQC_FIELDS})
        for build in builds:
            assert_identical_programs(build(derived).program, build(fresh).program)
        assert np.array_equal(derived.input_factor[0], fresh.input_factor[0])
        assert np.array_equal(derived.input_factor[1], fresh.input_factor[1])
        u, t = np.ones(fresh.stacked_input_dim), np.ones(fresh.stacked_dist_dim)
        derived_M, fresh_M = (robust_certificate_matrix(s, build_compact_cost(s, x0), u, 2.0, t)
                              for s in (derived, fresh))
        assert np.array_equal(derived_M, fresh_M)

    def test_fields_cannot_be_assigned(self):
        spec = scalar_benchmark_spec(3)
        for field in LQC_FIELDS:
            before = getattr(spec, field)
            with pytest.raises(FrozenInstanceError):
                setattr(spec, field, before)
            assert getattr(spec, field) is before


class TestPredictionMatrices:
    def test_single_step_scalar(self):
        spec = time_invariant_spec(1, 1, 1, 1, 0, 1, 0, N=1, gamma=0.1)
        pred = spec.prediction
        assert np.allclose(pred.F, [[1.0]])
        assert np.allclose(pred.G, [[1.0]])
        assert np.allclose(pred.H, [[1.0]])

    def test_two_step_scalar(self):
        spec = time_invariant_spec(1, 1, 1, 1, 0, 1, 0, N=2, gamma=0.1)
        pred = spec.prediction
        assert np.allclose(pred.F, [[1.0], [1.0]])
        assert np.allclose(pred.G, [[1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(pred.H, pred.G)

    def test_matches_rollout(self, rng):
        spec = random_lqc_spec(rng, 3, 2, 2, 5)
        pred = spec.prediction
        for _ in range(5):
            x0 = rng.standard_normal(3)
            u = rng.standard_normal(spec.stacked_input_dim)
            w = rng.standard_normal(spec.stacked_dist_dim)
            stacked = pred.F @ x0 + pred.G @ u + pred.H @ w
            direct = rollout_states(spec, x0, u, w).reshape(-1)
            assert np.max(np.abs(stacked - direct)) <= 1e-12 * (1 + np.max(np.abs(direct)))

    def test_block_lower_triangular(self, rng):
        spec = random_lqc_spec(rng, 2, 3, 2, 4)
        pred = spec.prediction
        for k in range(4):
            rows = slice(k * 2, (k + 1) * 2)
            assert not pred.G[rows, (k + 1) * 3 :].any()
            assert not pred.H[rows, (k + 1) * 2 :].any()

    def test_cached_per_spec(self, rng):
        spec = random_lqc_spec(rng, 2, 1, 1, 3)
        for name in ("prediction", "cost_pieces", "input_factor", "robust_diag", "regret_diag"):
            assert getattr(spec, name) is getattr(spec, name), name


class TestCompactCost:
    def test_scalar_benchmark_coefficients(self):
        cc = build_compact_cost(scalar_benchmark_spec(1), [-1.0])
        assert np.allclose(cc.w_quad, [[0.9]])
        assert np.allclose(cc.w_lin, [-0.9])
        assert np.allclose(cc.cross, [[0.9]])
        assert np.allclose(cc.u_quad, [[1.9]])
        assert np.allclose(cc.u_lin, [-0.9])
        assert np.allclose(cc.x0_quad, [[0.9]])
        assert np.allclose(cc.x0_lin, [0.0])

    def test_zero_costs_vanish(self):
        one = np.ones((2, 1, 1))
        spec = LqcSpec(one, one, one, 0 * one, np.zeros((2, 1)),
                       1e-3 * one, np.zeros((2, 1)), 0.1, np.zeros((0, 2)), np.zeros(0))
        cc = build_compact_cost(spec, [3.0])
        assert np.allclose(cc.w_quad, 0) and np.allclose(cc.w_lin, 0)
        assert np.allclose(cc.cross, 0) and np.allclose(cc.x0_quad, 0)

    def test_matches_rollout_on_random_instances(self, rng):
        for _ in range(30):
            n_x, n_u, n_w = rng.integers(1, 5, 3)
            N = int(rng.integers(1, 8))
            spec = random_lqc_spec(rng, n_x, n_u, n_w, N)
            x0 = rng.standard_normal(n_x)
            cc = build_compact_cost(spec, x0)
            for _ in range(3):
                u = rng.standard_normal(spec.stacked_input_dim)
                w = rng.standard_normal(spec.stacked_dist_dim)
                jc = cc.evaluate(u, w)
                jr = rollout_cost(spec, x0, u, w)
                assert abs(jc - jr) <= 1e-9 * (1 + abs(jr))

    def test_only_linear_terms_depend_on_x0(self, rng):
        spec = random_lqc_spec(rng, 3, 2, 2, 4)
        a = build_compact_cost(spec, rng.standard_normal(3))
        b = build_compact_cost(spec, rng.standard_normal(3))
        assert a.w_quad is b.w_quad and a.u_quad is b.u_quad and a.cross is b.cross
        assert not np.allclose(a.u_lin, b.u_lin)


class TestRobustSocp:
    def test_scalar_benchmark_optimum(self):
        socp = build_robust_socp(scalar_benchmark_spec(1), [-1.0])
        sol = solve_ok(socp.program)
        ex = socp.extract(sol)
        assert abs(sol.objective - 0.601) <= 1e-6
        assert abs(ex["u"][0] - 0.4) <= 1e-6

    def test_vanishing_uncertainty_reaches_nominal(self):
        spec = scalar_benchmark_spec(1, gamma=1e-8)
        sol = solve_ok(build_robust_socp(spec, [-1.0]).program)
        us = np.linspace(-0.4, 0.4, 800001)
        nominal = np.min(0.9 * (-1 + us) ** 2 + us**2)
        assert abs(sol.objective - nominal) <= 1e-5

    def test_random_instances_match_ball_oracle(self, rng):
        for _ in range(10):
            n_x, n_u, n_w = rng.integers(1, 4, 3)
            N = int(rng.integers(1, 7))
            spec = random_lqc_spec(rng, n_x, n_u, n_w, N)
            x0 = rng.standard_normal(n_x)
            socp = build_robust_socp(spec, x0)
            sol = solve_ok(socp.program)
            truth = worst_case(socp.compact, "robust", socp.extract(sol)["u"]).value(spec.gamma)
            assert abs(sol.objective - truth) <= 1e-5 * (1 + abs(truth))

    def test_epigraph_bounds_any_feasible_input(self, rng):
        spec = random_lqc_spec(rng, 2, 2, 2, 3)
        x0 = rng.standard_normal(2)
        socp = build_robust_socp(spec, x0)
        u0 = rng.uniform(-0.3, 0.3, spec.stacked_input_dim)
        # the program's inputs are whitened and centered, y = L'(u - u_c)
        y0 = socp.chol_L.T @ (u0 - socp.u_center)
        pinned = pin_variables(socp.program, socp.y_index, y0)
        sol = solve_ok(pinned)
        cc = socp.compact
        W = rng.standard_normal((10_000, spec.stacked_dist_dim))
        W *= (
            spec.gamma
            * rng.random(10_000) ** (1 / spec.stacked_dist_dim)
            / np.linalg.norm(W, axis=1)
        )[:, None]
        realized = [cc.evaluate(u0, w) for w in W]
        assert sol.objective >= max(realized) - 1e-6 * (1 + abs(sol.objective))

    def test_problem_size_formulas(self, rng):
        spec = random_lqc_spec(rng, 2, 2, 3, 4)
        socp = build_robust_socp(spec, rng.standard_normal(2))
        assert socp.n_cone_q == spec.stacked_dist_dim == 12
        tagged = [b for b in socp.program.blocks if b.tag.startswith("coneq")]
        assert len(tagged) == socp.n_cone_q
        assert socp.lmi_dim == spec.stacked_input_dim + spec.stacked_dist_dim + 1

    def test_diagonalization_cached_per_spec(self, rng):
        spec = random_lqc_spec(rng, 2, 1, 2, 3)
        s1 = build_robust_socp(spec, np.zeros(2))
        s2 = build_robust_socp(spec, np.ones(2))
        assert s1.diag is s2.diag

    def test_singular_disturbance_quadratic(self, rng):
        # rank-deficient stacked disturbance quadratic: some diagonal entries
        # vanish and the corresponding blocks degenerate gracefully
        N = 2
        A = np.repeat(np.eye(2)[None], N, axis=0) * 0.8
        B = np.repeat(np.array([[1.0], [0.5]])[None], N, axis=0)
        C = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0]])[None], N, axis=0)
        Q = np.repeat(np.diag([1.0, 0.0])[None], N, axis=0)
        R = np.repeat(np.eye(1)[None], N, axis=0)
        G, h = box_polyhedron(1.0, N)
        spec = LqcSpec(A, B, C, Q, np.zeros((N, 2)), R, np.zeros((N, 1)),
                       0.5, G, h)
        x0 = np.array([1.0, -2.0])
        socp = build_robust_socp(spec, x0)
        assert np.min(socp.diag.delta) <= 1e-12
        sol = solve_ok(socp.program)
        truth = worst_case(socp.compact, "robust", socp.extract(sol)["u"]).value(spec.gamma)
        assert abs(sol.objective - truth) <= 1e-5 * (1 + abs(truth))


class TestCertificates:
    @staticmethod
    def certificate(spec, x0, u, lam, t):
        return robust_certificate_matrix(spec, build_compact_cost(spec, x0), u, lam, t)

    @staticmethod
    def h_and_F(spec, M):
        """h and F from the certificate's layout over (u, w, 1): the last row
        holds (y, -h, .) and the (u, w) block F."""
        n_u, n_w = spec.stacked_input_dim, spec.stacked_dist_dim
        return -M[-1, n_u : n_u + n_w], M[:n_u, n_u : n_u + n_w]

    def test_scalar_benchmark_h_value(self):
        spec = scalar_benchmark_spec(1)
        h, _ = self.h_and_F(spec, self.certificate(spec, [-1.0], [0.0], 0.0, [0.0]))
        assert abs(h[0] - (-0.9 - 0.9 * (-0.9) / 1.9)) <= 1e-12

    def test_zero_cross_terms(self):
        one = np.ones((2, 1, 1))
        spec = LqcSpec(one, one, one, 0 * one, np.zeros((2, 1)), one,
                       np.zeros((2, 1)), 0.5, np.zeros((0, 2)), np.zeros(0))
        h, F = self.h_and_F(spec, self.certificate(spec, [1.0], np.zeros(2), 0.0, np.zeros(2)))
        assert np.allclose(F, 0.0)
        assert np.allclose(h, build_compact_cost(spec, [1.0]).w_lin)

    def test_solved_instances_produce_psd_certificates(self, rng):
        for _ in range(8):
            n_x, n_u, n_w = rng.integers(1, 4, 3)
            N = int(rng.integers(1, 5))
            spec = random_lqc_spec(rng, n_x, n_u, n_w, N)
            x0 = rng.standard_normal(n_x)
            socp = build_robust_socp(spec, x0)
            sol = solve_ok(socp.program)
            ex = socp.extract(sol)
            M = self.certificate(spec, x0, ex["u"], ex["lam"], ex["t"])
            assert check_psd(M, 1e-6)

    def test_negated_multiplier_breaks_certificate(self, rng):
        spec = random_lqc_spec(rng, 2, 1, 2, 2)
        x0 = rng.standard_normal(2)
        socp = build_robust_socp(spec, x0)
        sol = solve_ok(socp.program)
        ex = socp.extract(sol)
        M = self.certificate(spec, x0, ex["u"], -ex["lam"], ex["t"])
        assert not check_psd(M, 1e-6)

    def test_lifted_certificate_agrees_with_the_ball_matrix(self, rng):
        # the Schur complement of the lifted matrix on its identity block is
        # verify's bordered matrix of the ball pair at u, with the bound
        # sum(t) + gamma^2 lam, so both are PSD or neither is
        verdicts = []
        for _ in range(10):
            n_x, n_u, n_w = rng.integers(1, 4, 3)
            spec = random_lqc_spec(rng, n_x, n_u, n_w, int(rng.integers(1, 5)))
            x0 = rng.standard_normal(n_x)
            socp = build_robust_socp(spec, x0)
            ex = socp.extract(solve_ok(socp.program))
            quad, lin, _ = worst_case(socp.compact, "robust", ex["u"])
            ball = QuadForm.ball(spec.gamma, len(lin))
            for lam in (ex["lam"], ex["lam"] / 2, -ex["lam"]):
                bound = float(np.sum(ex["t"])) + spec.gamma**2 * lam
                classical = assemble_classical_lmi(ball, -quad, -lin, bound, lam)
                lifted = robust_certificate_matrix(spec, socp.compact, ex["u"], lam, ex["t"])
                verdicts.append(check_psd(lifted, 1e-6))
                assert verdicts[-1] == check_psd(classical, 1e-6), (lam, ex["lam"])
        assert all(verdicts[::3]) and not any(verdicts[2::3])


class TestRegretSocp:
    def test_huge_input_set_gives_zero_regret(self, rng):
        G, h = box_polyhedron(1e6, 2)
        spec = time_invariant_spec(1, 1, 1, 0.9, 0, 1.0, 0, N=2, gamma=1e-8,
                                   u_poly=(G, h))
        sol = solve_ok(build_regret_socp(spec, [1.0]).program)
        assert sol.objective <= 1e-6
        assert sol.objective >= -1e-8

    def test_scalar_benchmark_matches_nested_grid(self):
        spec = scalar_benchmark_spec(1)
        sol = solve_ok(build_regret_socp(spec, [-1.0]).program)
        oracle = scalar_regret_grid_oracle(
            spec, [-1.0], np.linspace(-0.4, 0.4, 1601), np.linspace(-0.1, 0.1, 2001)
        )
        assert abs(sol.objective - oracle) <= 1e-4

    def test_random_instances(self, rng):
        for _ in range(10):
            n_x, n_u, n_w = rng.integers(1, 4, 3)
            N = int(rng.integers(1, 5))
            spec = random_lqc_spec(rng, n_x, n_u, n_w, N)
            x0 = rng.standard_normal(n_x)
            socp = build_regret_socp(spec, x0)
            sol = solve_ok(socp.program)
            assert sol.objective >= -1e-8
            truth = worst_case(socp.compact, "regret", socp.extract(sol)["u"]).value(spec.gamma)
            assert abs(sol.objective - truth) <= 1e-5 * (1 + abs(truth))
            # regret <= worst case minus the best clairvoyant value on the ball
            rob = build_robust_socp(spec, x0)
            rob_sol = solve_ok(rob.program)
            cc = socp.compact
            uq_inv = np.linalg.solve(cc.u_quad, np.eye(spec.stacked_input_dim))
            red_quad = cc.w_quad - cc.cross.T @ uq_inv @ cc.cross
            red_lin = cc.w_lin - cc.cross.T @ uq_inv @ cc.u_lin
            const = cc.constant - float(cc.u_lin @ uq_inv @ cc.u_lin)
            min_clairvoyant = -max_quad_over_ball(-red_quad, -red_lin, spec.gamma).value + const
            assert sol.objective <= rob_sol.objective - min_clairvoyant + 1e-6

    def test_builds_on_expanding_dynamics(self):
        # cond(Uq) reaches ~1e11 here; the regret kernel once came from an
        # explicit inverse of Uq, which failed the symmetry check at seeds 8,
        # 9, 13 and 18
        for seed in range(20):
            rng = np.random.default_rng(seed)
            spec = random_lqc_spec(rng, 4, 2, 2, 30)
            socp = build_regret_socp(spec, rng.standard_normal(4))
            assert np.all(np.isfinite(socp.program.G)) and np.all(np.isfinite(socp.program.h))


class TestDistributionallyRobust:
    def test_no_moments_equals_robust(self, rng):
        spec = random_lqc_spec(rng, 2, 2, 2, 3)
        x0 = rng.standard_normal(2)
        rob = solve_ok(build_robust_socp(spec, x0).program)
        dr = solve_ok(
            build_dr_socp(spec, x0, AmbiguitySpec.empty(spec.stacked_dist_dim)).program
        )
        assert abs(rob.objective - dr.objective) <= 1e-6 * (1 + abs(rob.objective))

    def test_dr_builders_require_moments(self):
        spec = scalar_benchmark_spec(1)
        for build, mode in ((build_dr_socp, "dr"), (build_dr_regret_socp, "dr-regret")):
            with pytest.raises(ValueError, match=f"mode {mode!r} "):
                build(spec, [-1.0], None)

    def test_huge_moment_bound_is_inactive(self, rng):
        spec = random_lqc_spec(rng, 2, 1, 2, 2)
        x0 = rng.standard_normal(2)
        amb = AmbiguitySpec(np.ones((1, spec.stacked_dist_dim)), [1e6])
        rob = solve_ok(build_robust_socp(spec, x0).program)
        socp = build_dr_socp(spec, x0, amb)
        sol = solve_ok(socp.program)
        assert abs(sol.objective - rob.objective) <= 1e-6 * (1 + abs(rob.objective))
        assert np.all(socp.extract(sol)["beta"] <= 1e-5)

    def test_never_exceeds_robust(self, rng):
        for _ in range(8):
            spec = random_lqc_spec(rng, 2, 2, 2, 2)
            x0 = rng.standard_normal(2)
            m = int(rng.integers(1, 3))
            amb = AmbiguitySpec(
                rng.standard_normal((m, spec.stacked_dist_dim)),
                rng.uniform(-0.05, 0.3, m),
            )
            rob = solve_ok(build_robust_socp(spec, x0).program)
            dr = solve_ok(build_dr_socp(spec, x0, amb).program)
            assert dr.objective <= rob.objective + 1e-8 + 1e-8 * abs(rob.objective)

    def test_scalar_mean_bound_against_two_point_search(self):
        spec = scalar_benchmark_spec(1)
        amb = AmbiguitySpec([[1.0]], [0.0])
        rob = solve_ok(build_robust_socp(spec, [-1.0]).program)
        dr = solve_ok(build_dr_socp(spec, [-1.0], amb).program)
        assert dr.objective <= rob.objective + 1e-8
        # discrete search over two-point distributions with mean <= 0
        cc = build_compact_cost(spec, [-1.0])
        ws = np.linspace(-0.1, 0.1, 201)
        best = np.inf
        for u in np.linspace(-0.4, 0.4, 161):
            j = np.array([cc.evaluate([u], [w]) for w in ws])
            w1 = ws[:, None]
            w2 = ws[None, :]
            j1 = j[:, None]
            j2 = j[None, :]
            # optimal weight on w1 given the mean constraint p w1 + (1-p) w2 <= 0
            diff = w1 - w2
            with np.errstate(divide="ignore", invalid="ignore"):
                p_limit = np.where(np.abs(diff) > 1e-15, -w2 / diff, np.nan)
            p_hi = np.where(diff > 0, np.clip(p_limit, 0, 1), 1.0)
            p_lo = np.where(diff < 0, np.clip(p_limit, 0, 1), 0.0)
            feas_any = np.where(
                np.abs(diff) <= 1e-15, w1 + 0 * w2 <= 1e-12, p_lo <= p_hi + 1e-15
            )
            val_hi = p_hi * j1 + (1 - p_hi) * j2
            val_lo = p_lo * j1 + (1 - p_lo) * j2
            vals = np.where(feas_any, np.maximum(val_hi, val_lo), -np.inf)
            best = min(best, float(np.max(vals)))
        assert best <= dr.objective + 1e-6
        assert abs(best - dr.objective) <= 5e-3

    def test_dr_regret_degenerate_cases(self, rng):
        spec = random_lqc_spec(rng, 2, 1, 2, 2)
        x0 = rng.standard_normal(2)
        reg = solve_ok(build_regret_socp(spec, x0).program)
        m0 = solve_ok(
            build_dr_regret_socp(spec, x0, AmbiguitySpec.empty(spec.stacked_dist_dim)).program
        )
        assert abs(reg.objective - m0.objective) <= 1e-6 * (1 + abs(reg.objective))
        amb = AmbiguitySpec(np.ones((1, spec.stacked_dist_dim)), [1e6])
        inert = solve_ok(build_dr_regret_socp(spec, x0, amb).program)
        assert abs(reg.objective - inert.objective) <= 1e-6 * (1 + abs(reg.objective))

    def test_dr_regret_vanishing_uncertainty(self):
        G, h = box_polyhedron(1e6, 2)
        spec = time_invariant_spec(1, 1, 1, 0.9, 0, 1.0, 0, N=2, gamma=1e-8,
                                   u_poly=(G, h))
        amb = AmbiguitySpec(np.ones((1, 2)), [1e6])
        sol = solve_ok(build_dr_regret_socp(spec, [1.0], amb).program)
        assert -1e-8 <= sol.objective <= 1e-6

    def test_moment_matrix_width_checked(self, rng):
        spec = random_lqc_spec(rng, 2, 1, 2, 2)
        with pytest.raises(DimensionMismatch):
            build_dr_socp(spec, np.zeros(2), AmbiguitySpec(np.ones((1, 3)), [0.0]))


class TestRecedingHorizon:
    def test_origin_stays_at_origin(self):
        G, h = box_polyhedron(1.0, 3)
        spec = time_invariant_spec(0.9, 1, 1, 1.0, 0, 1.0, 0, N=3, gamma=0.2,
                                   u_poly=(G, h))
        rec = receding_horizon_simulate(spec, [0.0], np.zeros((5, 1)))
        assert np.max(np.abs(rec.inputs)) <= 1e-7
        assert np.max(np.abs(rec.states)) <= 1e-6

    def test_matches_manual_resolve(self):
        spec = scalar_benchmark_spec(3)
        w_seq = np.full((4, 1), -0.1)
        rec = receding_horizon_simulate(spec, [-1.0], w_seq)
        x = np.array([-1.0])
        for k in range(4):
            socp = build_robust_socp(spec, x)
            sol = solve_ok(socp.program)
            u0 = socp.extract(sol)["u"][:1]
            assert np.allclose(u0, rec.inputs[k], atol=1e-9)
            x = x + u0 + w_seq[k]
            assert np.allclose(x, rec.states[k + 1], atol=1e-9)

    def test_realized_cost_below_open_loop_bound(self, rng):
        spec = scalar_benchmark_spec(4)
        x0 = [-1.0]
        socp = build_robust_socp(spec, x0)
        sol = solve_ok(socp.program)
        u_star = socp.extract(sol)["u"]
        for _ in range(50):
            w = rng.standard_normal(4)
            w *= spec.gamma * rng.random() ** (1 / 4) / np.linalg.norm(w)
            assert rollout_cost(spec, x0, u_star, w) <= sol.objective + 1e-7

    def test_applied_inputs_are_extracted_first_inputs(self):
        # two inputs per step, so that reading the whitened program variables
        # as inputs would show: every applied input is the first stage of the
        # plan that build -> solve -> extract gives at that state, and the
        # plan lies in the input set
        rng = np.random.default_rng(4)
        spec = random_lqc_spec(rng, 2, 2, 1, 4)
        w_seq = 0.3 * rng.standard_normal((3, 1))
        for controller, build in (("robust", build_robust_socp), ("regret", build_regret_socp)):
            rec = receding_horizon_simulate(spec, [1.0, -0.5], w_seq, controller=controller)
            for k in range(len(w_seq)):
                socp = build(spec, rec.states[k])
                u = socp.extract(solve_ok(socp.program))["u"]
                assert np.array_equal(rec.inputs[k], u[: spec.n_u]), (controller, k)
                assert np.all(spec.u_poly_G @ u <= spec.u_poly_h + 1e-9), (controller, k)

    def test_unknown_controller_rejected(self):
        spec = scalar_benchmark_spec(1)
        with pytest.raises(ValueError):
            receding_horizon_simulate(spec, [0.0], np.zeros((1, 1)), controller="foo")

    def test_dr_controller_requires_moments(self):
        # rejected before the first solve, also when there is no step to take
        spec = scalar_benchmark_spec(1)
        for controller in ("dr", "dr-regret"):
            for steps in (1, 0):
                with pytest.raises(ValueError, match=f"mode {controller!r} "):
                    receding_horizon_simulate(spec, [0.0], np.zeros((steps, 1)),
                                              controller=controller)

    def test_regret_and_dr_controllers_run(self):
        spec = scalar_benchmark_spec(2)
        w = np.full((2, 1), 0.05)
        rec = receding_horizon_simulate(spec, [-1.0], w, controller="regret")
        assert len(rec.objectives) == 2
        amb = AmbiguitySpec([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        rec2 = receding_horizon_simulate(spec, [-1.0], w, controller="dr", amb=amb)
        assert all(s is Status.OPTIMAL for s in rec2.statuses)

    def test_solver_failure_carries_step_index(self):
        from soclqc.solver import SolverConfig

        spec = scalar_benchmark_spec(2)
        with pytest.raises(RecedingHorizonError) as err:
            receding_horizon_simulate(
                spec, [-1.0], np.zeros((3, 1)), config=SolverConfig(max_iters=1)
            )
        assert err.value.step == 0
        assert err.value.status is Status.MAX_ITERATIONS


class TestSolverRobustness:
    def test_seeded_fuzz_reaches_optimal_and_matches_ball_oracle(self):
        # wide radii (1e-3 to 30) and initial-state scales (0.1 to 10);
        # trials 3 and 58 once stalled in the gap with residuals near 1e-16
        rng = np.random.default_rng(123)
        for trial in range(60):
            n_x = int(rng.integers(1, 4))
            n_u = int(rng.integers(1, 3))
            n_w = int(rng.integers(1, 3))
            N = int(rng.integers(1, 12))
            gamma = 10 ** rng.uniform(-3, 1.5)
            spec = random_lqc_spec(rng, n_x, n_u, n_w, N, gamma=gamma)
            x0 = rng.standard_normal(n_x) * 10 ** rng.uniform(-1, 1)
            for build, kernel in ((build_robust_socp, "robust"), (build_regret_socp, "regret")):
                socp = build(spec, x0)
                sol = solve(socp.program)
                label = f"trial {trial} {build.__name__}"
                assert sol.status is Status.OPTIMAL, f"{label}: {sol.status} ({sol.reason})"
                truth = worst_case(socp.compact, kernel, socp.extract(sol)["u"]).value(gamma)
                assert abs(sol.objective - truth) <= 1e-5 * (1 + abs(truth)), label

    def test_expanding_dynamics_optimal_solves_are_kept(self):
        # expanding-dynamics seeds 0-11, both kernels: at least 18 of the 24
        # solves reach Optimal at their exact worst case at one BLAS thread,
        # and so does every pinned solve (the first seven pinned before the
        # programs were posed in whitened inputs; the rest reach Optimal at
        # one and at two BLAS threads; seed 2 since the Farkas test is
        # relative to ||z||).  The statuses of this class can depend on the
        # thread count, so the solves run in a subprocess pinned to one
        # thread
        pinned = {(1, "robust"), (1, "regret"), (3, "regret"), (7, "robust"), (7, "regret"),
                  (11, "robust"), (11, "regret"),
                  (0, "robust"), (0, "regret"), (3, "robust"), (4, "robust"), (4, "regret"),
                  (5, "robust"), (5, "regret"), (6, "robust"), (6, "regret"), (8, "regret"),
                  (9, "regret"), (10, "robust"), (10, "regret"), (2, "robust"), (2, "regret")}
        script = textwrap.dedent("""
            import json
            import numpy as np
            from helpers import random_lqc_spec
            from soclqc.lqc import build_regret_socp, build_robust_socp
            from soclqc.solver import solve
            from soclqc.verify import worst_case
            out = []
            for seed in range(12):
                for kernel, build in (("robust", build_robust_socp), ("regret", build_regret_socp)):
                    rng = np.random.default_rng(seed)
                    spec = random_lqc_spec(rng, 4, 2, 2, 30)
                    socp = build(spec, rng.standard_normal(4))
                    sol = solve(socp.program)
                    u = socp.extract(sol)["u"]
                    truth = worst_case(socp.compact, kernel, u).value(spec.gamma)
                    out.append([seed, kernel, sol.status.value, sol.reason, sol.objective, truth])
            print(json.dumps(out))
        """)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        solved = set()
        for seed, kernel, status, reason, obj, truth in json.loads(proc.stdout):
            if status == "Optimal" and abs(obj - truth) <= 1e-5 * (1 + abs(truth)):
                solved.add((seed, kernel))
            else:
                assert (seed, kernel) not in pinned, (seed, kernel, status, reason, obj, truth)
        assert len(solved) >= 18, sorted(solved)

    @pytest.mark.xfail(strict=True, reason="false PrimalInfeasible at iteration 18: the dual iterate "
                       "passes the Farkas-ray test on badly scaled data (max |h| 2.8e11; ROADMAP "
                       "items 2 and 6)")
    @pytest.mark.parametrize("kernel", ["robust", "regret"])
    def test_expanding_dynamics_seed_18(self, kernel):
        # the program is feasible and bounded (a ball-bounded disturbance),
        # so any status other than Optimal is a solver fault
        rng = np.random.default_rng(18)
        spec = random_lqc_spec(rng, 4, 2, 2, 30)
        build = build_robust_socp if kernel == "robust" else build_regret_socp
        socp = build(spec, rng.standard_normal(4))
        sol = solve(socp.program)
        assert sol.status is Status.OPTIMAL, (sol.status, sol.iterations, sol.reason)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_expanding_dynamics_return_finite_inputs(self, seed):
        # multi-state instances whose solves may stop short of Optimal; the
        # returned iterate must be finite whatever the status
        rng = np.random.default_rng(seed)
        spec = random_lqc_spec(rng, 4, 2, 2, 30)
        x0 = rng.standard_normal(4)
        for build in (build_robust_socp, build_regret_socp):
            socp = build(spec, x0)
            # the guards end a failing solve before any division by zero
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                sol = solve(socp.program)
            assert np.all(np.isfinite(sol.x)), (build.__name__, sol.status, sol.reason)
            assert np.all(np.isfinite(socp.extract(sol)["u"]))
            assert (sol.reason == "") == (sol.status is Status.OPTIMAL)


def corpus_case(name):
    """Edge cases of the LQC posing, each a seeded 3-state, 2-input,
    2-disturbance, N = 8 spec and an initial state: extreme radii, the
    trust-region hard case (every head constant vanishes) and its near
    neighbour, a saturated input box and a wide Q/R eigenvalue spread."""
    kind, value, seed = name.split(":")
    rng = np.random.default_rng(int(seed))
    if kind == "gamma":
        return random_lqc_spec(rng, 3, 2, 2, 8, gamma=float(value)), np.ones(3)
    if kind == "hard":
        return random_lqc_spec(rng, 3, 2, 2, 8, with_linear=False), np.full(3, float(value))
    spec = random_lqc_spec(rng, 3, 2, 2, 8)
    if kind == "box":
        return replace(spec, u_poly_h=float(value) * spec.u_poly_h), np.full(3, 10.0)
    Q, R = spec.Q.copy(), spec.R.copy()
    Q[:, 0, 0] *= float(value)
    R[:, 0, 0] *= float(value)
    return replace(spec, Q=Q, R=R), np.ones(3)


CORPUS = ([f"gamma:{g}:{s}" for g in ("1e-8", "1e-4", "1e2", "2e3", "5e3", "1e4") for s in (5, 6)]
          + [f"gamma:1e5:{s}" for s in (5, 6, 7)]
          + [f"hard:{x}:{s}" for x in ("0", "1e-6") for s in (0, 1, 2)]
          + [f"box:1e-3:{s}" for s in (0, 1, 2)]
          + [f"spread:{f}:{s}" for f in ("1e3", "1e6", "1e9") for s in (0, 1, 2)])


class TestEdgeCaseCorpus:
    @pytest.mark.parametrize("name", CORPUS)
    def test_optimal_at_the_exact_worst_case(self, name):
        # radii from 1e-8 to 1e5 (gamma >= 5e3 once ended PrimalInfeasible on
        # these feasible programs), the hard case at x0 = 0 and 1e-6, an input
        # box of 1e-3 at x0 = 10 and Q/R spreads of 1e3, 1e6 and 1e9 (1e9
        # seed 0 once ended PrimalInfeasible)
        spec, x0 = corpus_case(name)
        for build, kernel in ((build_robust_socp, "robust"), (build_regret_socp, "regret")):
            socp = build(spec, x0)
            sol = solve(socp.program)
            assert sol.status is Status.OPTIMAL, (kernel, sol.status, sol.reason)
            truth = worst_case(socp.compact, kernel, socp.extract(sol)["u"]).value(spec.gamma)
            assert abs(sol.objective - truth) <= 1e-6 * (1 + abs(truth)), (kernel, sol.objective, truth)

    @pytest.mark.parametrize("name", CORPUS)
    def test_dr_modes_optimal_and_verified(self, name):
        # the same cases with two moment rows drawn from the case's seed
        spec, x0 = corpus_case(name)
        rng = np.random.default_rng(int(name.split(":")[-1]))
        amb = AmbiguitySpec(rng.standard_normal((2, spec.stacked_dist_dim)), rng.uniform(0.1, 1.0, 2))
        for build, mode in ((build_dr_socp, "dr"), (build_dr_regret_socp, "dr-regret")):
            socp = build(spec, x0, amb)
            sol = solve(socp.program)
            assert sol.status is Status.OPTIMAL, (mode, sol.status, sol.reason)
            report = verify_result("lqc", spec, amb, {"mode": mode, "x0": x0, **socp.extract(sol)})
            assert [check.name for check in report if not check.ok] == [], mode


def row_block_case(seed):
    """A random spec, initial state and moment set (seed % 3 moment rows)."""
    rng = np.random.default_rng(seed)
    n_x, n_u, n_w = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    N = int(rng.integers(1, 13))
    spec = random_lqc_spec(rng, n_x, n_u, n_w, N)
    x0 = rng.standard_normal(n_x)
    m = seed % 3
    amb = AmbiguitySpec(rng.standard_normal((m, N * n_w)), rng.uniform(0.1, 1.0, m))
    return spec, x0, amb


class TestRowBlockBuilder:
    @pytest.mark.parametrize("seed", range(12))
    def test_programs_match_linexpr_reference(self, seed):
        spec, x0, amb = row_block_case(seed)
        for built, mode, kernel, moments in (
            (build_robust_socp(spec, x0), "robust", "robust", None),
            (build_regret_socp(spec, x0), "regret", "regret", None),
            (build_dr_socp(spec, x0, amb), "dr", "robust", amb),
            (build_dr_regret_socp(spec, x0, amb), "dr-regret", "regret", amb),
        ):
            assert built.mode == mode
            assert_same_program(built.program, reference_lqc_program(spec, x0, kernel, moments))

    @pytest.mark.parametrize("seed", range(12))
    def test_regret_kernel_matches_explicit_solve(self, seed):
        # the cached F'F = X' L^-T L^-1 X against X' Uq^-1 X by a dense solve
        spec, x0, _ = row_block_case(seed)
        F = spec.input_factor[1]
        explicit = worst_case(build_compact_cost(spec, x0), "regret",
                              np.zeros(spec.stacked_input_dim)).quad
        assert np.linalg.norm(F.T @ F - explicit) <= 1e-9 * np.linalg.norm(explicit)

    def test_input_cost_factored_once_per_spec(self, monkeypatch):
        # the only (n_u, n_u) Cholesky factor of a build is the stacked input
        # cost's (n_u = 6; simultaneous_diagonalize factors inside LAPACK)
        spec = random_lqc_spec(np.random.default_rng(5), 2, 2, 1, 3)
        n_u = spec.stacked_input_dim
        amb = AmbiguitySpec(np.ones((1, spec.stacked_dist_dim)), [0.5])
        factored = [0]
        cholesky = np.linalg.cholesky

        def counted(M):
            factored[0] += np.shape(M) == (n_u, n_u)
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        for x0 in (np.zeros(2), np.ones(2)):
            build_robust_socp(spec, x0)
            build_regret_socp(spec, x0)
            build_dr_socp(spec, x0, amb)
            build_dr_regret_socp(spec, x0, amb)
        robust_certificate_matrix(spec, build_compact_cost(spec, np.ones(2)),
                                  np.zeros(n_u), 1.0, np.zeros(spec.stacked_dist_dim))
        assert factored[0] == 1
