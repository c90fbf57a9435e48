import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    ExprBuilder,
    assert_identical_programs,
    assert_same_program,
    block_violation,
    double_integrator_mpc,
    pin_variables,
    reference_mpc_program,
)
from soclqc.model import ConicProgramBuilder, DimensionMismatch, NotPositiveDefinite
from soclqc.mpc import (
    MpcSpec,
    build_mpc_socp,
    emit_input_containment,
    emit_invariance_constraints,
    emit_state_containment,
    max_fixed_radius,
)
from soclqc.solver import Status, solve
from soclqc.verify import verify_result


MPC_FIELDS = ("A", "B", "E", "f", "G", "h", "K", "P", "Q", "R", "Q_f")


def solve_ok(program):
    sol = solve(program)
    assert sol.status is Status.OPTIMAL, sol.status
    return sol


def deadbeat_spec():
    # K = -B^+ A gives A_cl = 0 for this invertible pair
    A = np.array([[0.5, 0.1], [0.0, 0.3]])
    B = np.eye(2)
    K = -A
    return MpcSpec(A, B, np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 2.0),
                   np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 3.0),
                   K, np.eye(2), 3, np.eye(2), np.eye(2), np.eye(2))


class TestSpecValidation:
    def test_unstable_terminal_loop_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        B = np.array([[1.0], [0.0]])
        K = np.zeros((1, 2))  # A_cl = I, spectral radius 1
        with pytest.raises(ValueError):
            MpcSpec(A, B, np.eye(2), np.ones(2), np.ones((1, 1)), np.ones(1),
                    K, np.eye(2), 3, np.eye(2), np.eye(1), np.eye(2))

    def test_shape_matrix_must_be_pd(self):
        spec_args = dict(
            A=np.array([[0.5]]), B=np.array([[1.0]]),
            E=np.array([[1.0], [-1.0]]), f=np.ones(2),
            G=np.array([[1.0], [-1.0]]), h=np.ones(2),
            K=np.array([[-0.1]]), N=2,
            Q=np.eye(1), R=np.eye(1), Q_f=np.eye(1),
        )
        with pytest.raises(NotPositiveDefinite):
            MpcSpec(P=np.array([[0.0]]), **spec_args)

    def test_origin_must_be_interior(self):
        with pytest.raises(ValueError):
            MpcSpec(np.array([[0.5]]), np.array([[1.0]]),
                    np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]),
                    np.array([[1.0], [-1.0]]), np.ones(2),
                    np.array([[-0.1]]), np.eye(1), 2,
                    np.eye(1), np.eye(1), np.eye(1))

    @pytest.mark.parametrize("field", [*MPC_FIELDS, "x_init"])
    def test_non_finite_entries_rejected(self, field):
        # the field's last entry made nan, inf and -inf in turn
        base = double_integrator_mpc(3)
        for bad in (np.nan, np.inf, -np.inf):
            args = {name: np.array(getattr(base, name), dtype=float) for name in MPC_FIELDS}
            x_init = np.array([0.5, 0.0])
            (x_init if field == "x_init" else args[field]).flat[-1] = bad
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                build_mpc_socp(MpcSpec(N=3, **args), x_init)

    @pytest.mark.parametrize("N", [2.5, True, "3"])
    def test_horizon_must_be_an_integer(self, N):
        base = double_integrator_mpc(3)
        with pytest.raises(ValueError, match="^horizon N must be an integer"):
            MpcSpec(N=N, **{name: getattr(base, name) for name in MPC_FIELDS})


class TestTerminalDiag:
    def test_deadbeat_closed_loop(self):
        spec = deadbeat_spec()
        td = spec.terminal_diag
        assert np.allclose(td.alpha, 0.0, atol=1e-12)
        assert np.allclose(td.m_sqrt @ td.m_sqrt, spec.P, atol=1e-10)

    def test_random_stable_pairs(self, rng):
        for _ in range(10):
            n_x = 4
            A = rng.standard_normal((n_x, n_x))
            A *= 0.9 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
            B = rng.standard_normal((n_x, 2))
            K = np.zeros((2, n_x))
            A_cl = A + B @ K
            P = scipy.linalg.solve_discrete_lyapunov(A_cl.T, np.eye(n_x))
            spec = MpcSpec(A, B, np.vstack([np.eye(n_x), -np.eye(n_x)]),
                           np.full(2 * n_x, 5.0),
                           np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 5.0),
                           K, P, 3, np.eye(n_x), np.eye(2), np.eye(n_x))
            td = spec.terminal_diag
            assert np.allclose(td.S.T @ P @ td.S, np.eye(n_x), atol=1e-8)
            assert np.allclose(
                td.S.T @ A_cl.T @ P @ A_cl @ td.S, np.diag(td.alpha), atol=1e-8
            )
            drift = A_cl - np.eye(n_x)
            assert np.allclose(td.m_sqrt @ td.m_sqrt, drift.T @ P @ drift, atol=1e-8)

    def test_cached(self):
        spec = double_integrator_mpc()
        for name in ("p_sqrt", "p_inv_sqrt", "terminal_diag", "cost_factors", "dynamics_basis"):
            assert getattr(spec, name) is getattr(spec, name), name

    def test_costs_factored_once_per_spec(self, monkeypatch):
        # the spec and its first build factor P, the drift term and the costs
        # Q, R, Q_f; a second build, at another x_init, reuses them all
        from soclqc import mpc

        factored = []
        real = mpc.psd_sqrt_factor
        monkeypatch.setattr(mpc, "psd_sqrt_factor", lambda M: factored.append(M) or real(M))
        spec = double_integrator_mpc()
        first = build_mpc_socp(spec, np.array([2.0, 0.5])).program
        assert len(factored) == 5
        factored.clear()
        build_mpc_socp(spec, np.array([1.0, 0.0]))
        assert not factored
        assert_identical_programs(build_mpc_socp(spec, np.array([2.0, 0.5])).program, first)

    def test_replace_builds_the_program_of_fresh_data(self):
        spec = double_integrator_mpc()
        x0 = np.array([2.0, 0.5])
        build_mpc_socp(spec, x0)
        max_fixed_radius(spec)
        derived = replace(spec, P=3 * spec.P)
        fresh = MpcSpec(N=spec.N, **{name: np.copy(getattr(derived, name)) for name in MPC_FIELDS})
        assert_identical_programs(build_mpc_socp(derived, x0).program,
                                  build_mpc_socp(fresh, x0).program)
        assert max_fixed_radius(derived) == max_fixed_radius(fresh)
        # P^{-1/2} scales by 3^{-1/2}, so the containment radius by 3^{1/2}
        assert max_fixed_radius(derived) == pytest.approx(np.sqrt(3) * max_fixed_radius(spec))

    def test_fields_cannot_be_assigned(self):
        spec = double_integrator_mpc()
        for field in (*MPC_FIELDS, "N"):
            before = getattr(spec, field)
            with pytest.raises(FrozenInstanceError):
                setattr(spec, field, before)
            assert getattr(spec, field) is before


class TestNullSpacePosing:
    """The program is posed in v, with ``(u, x) = x_p + N_ux v`` from the
    spec's cached basis, and has no equality rows."""

    @staticmethod
    def specs():
        rng = np.random.default_rng(3)
        n_x, n_u = 3, 2
        A = rng.standard_normal((n_x, n_x))
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
        spec = MpcSpec(A, rng.standard_normal((n_x, n_u)), np.vstack([np.eye(n_x), -np.eye(n_x)]),
                       np.full(2 * n_x, 5.0), np.vstack([np.eye(n_u), -np.eye(n_u)]),
                       np.full(2 * n_u, 2.0), np.zeros((n_u, n_x)),
                       scipy.linalg.solve_discrete_lyapunov(A.T, np.eye(n_x)), 6, np.eye(n_x),
                       np.eye(n_u), np.eye(n_x))
        return [double_integrator_mpc(1), double_integrator_mpc(8), double_integrator_mpc(50), spec]

    def test_basis_spans_the_dynamics_null_space(self, rng):
        # N_ux is orthonormal, its columns meet the dynamics rows, and there
        # are N n_u of them (the rows have full rank N n_x); x_p = X_p x_0
        # meets the rows with x_0 and is their least-norm solution
        for spec in self.specs():
            N, n_x, n_u = spec.N, spec.n_x, spec.n_u
            dyn = np.hstack([np.kron(np.eye(N), spec.B),
                             np.kron(np.eye(N, k=-1), spec.A) - np.eye(N * n_x)])
            basis, X_p = spec.dynamics_basis
            assert basis.shape == (N * (n_u + n_x), N * n_u) and X_p.shape == (N * (n_u + n_x), n_x)
            assert np.abs(basis.T @ basis - np.eye(N * n_u)).max() <= 1e-12
            assert np.abs(dyn @ basis).max() <= 1e-12
            for x0 in rng.standard_normal((5, n_x)):
                x_p = X_p @ x0
                rhs = np.concatenate([-spec.A @ x0, np.zeros((N - 1) * n_x)])
                assert np.abs(dyn @ x_p - rhs).max() <= 1e-12 * (1.0 + np.abs(x0).max())
                assert np.abs(basis.T @ x_p).max() <= 1e-12 * (1.0 + np.abs(x0).max())

    def test_x0_reaches_only_h_and_the_objective(self):
        # G, the objective factor and the layout are the same bits at two
        # initial states, and the program has no equality rows
        spec = double_integrator_mpc(8)
        first, second = (build_mpc_socp(spec, x0).program for x0 in ([2.0, 0.5], [-1.0, 0.3]))
        assert not hasattr(first, "eq_b")
        assert first.G.tobytes() == second.G.tobytes()
        assert first.obj_F.tobytes() == second.obj_F.tobytes()
        assert (first.nn, first.soc, first.tags) == (second.nn, second.soc, second.tags)
        assert first.h.tobytes() != second.h.tobytes()
        assert first.obj.tobytes() != second.obj.tobytes()

    def test_fixed_terminal_enters_as_constants(self):
        # c and r are left in no row and no objective term; the result
        # reports the fixed set itself
        spec = double_integrator_mpc(8)
        c0, r0 = np.zeros(2), 0.9 * max_fixed_radius(spec)
        free = build_mpc_socp(spec, [2.0, 0.5])
        fixed = build_mpc_socp(spec, [2.0, 0.5], fixed_terminal=(c0, r0))
        cr = [*fixed.c_index, fixed.r_index]
        assert not fixed.program.G[:, cr].any() and not fixed.program.obj_F[:, cr].any()
        assert free.program.G[:, cr].any()
        ex = fixed.extract(solve_ok(fixed.program))
        assert np.array_equal(ex["center"], c0) and ex["radius"] == r0
        report = verify_result(spec, None, {"mode": "mpc", "x0": ex["states"][0], **ex})
        assert [check.name for check in report if not check.ok] == []


class TestEmittedBlocks:
    def build_terminal_program(self, spec, objective=None):
        td = spec.terminal_diag
        b = ExprBuilder()
        c_idx = b.add_vars(spec.n_x)
        r_idx = b.add_var()
        b.add_nonneg(b.var(r_idx))
        emit_invariance_constraints(td, c_idx, r_idx, b)
        emit_state_containment(spec, c_idx, r_idx, b)
        emit_input_containment(spec, c_idx, r_idx, b)
        if objective is not None:
            b.set_objective(objective(b, c_idx, r_idx))
        return b, c_idx, r_idx

    def test_origin_center_feasible(self):
        spec = deadbeat_spec()
        b, c_idx, r_idx = self.build_terminal_program(
            spec, objective=lambda b, c, r: -1.0 * b.var(r)
        )
        sol = solve_ok(b.build())
        assert sol.x[r_idx] > 0.1

    def test_deadbeat_center_too_far(self):
        # A_cl = 0 maps everything to the origin; centering the set at c with
        # c' P c > r^2 leaves the image point outside, so (c, r) is infeasible
        spec = deadbeat_spec()
        b, c_idx, r_idx = self.build_terminal_program(spec)
        prog = pin_variables(b.build(), list(c_idx) + [r_idx], [1.5, 0.0, 1.0])
        assert solve(prog).status is Status.PRIMAL_INFEASIBLE
        prog2 = pin_variables(b.build(), list(c_idx) + [r_idx], [0.5, 0.0, 1.0])
        assert solve(prog2).status is Status.OPTIMAL

    def test_point_set_containment_rows(self):
        # r = 0 with the center strictly inside the state set satisfies every
        # containment row; invariance additionally pins the point to a fixed
        # point of the closed loop (the origin for a deadbeat gain)
        spec = deadbeat_spec()
        b = ConicProgramBuilder()
        emit_state_containment(spec, b.add_vars(2), b.add_var(), b)
        prog = b.build()
        x = np.array([0.5, -0.5, 0.0])
        assert len(prog.blocks) == spec.E.shape[0]
        assert all(block_violation(blk, x) == 0.0 for blk in prog.blocks)

        full, c_idx, r_idx = self.build_terminal_program(spec)
        off_center = pin_variables(full.build(), list(c_idx) + [r_idx],
                                   [0.5, -0.5, 0.0])
        assert solve(off_center).status is Status.PRIMAL_INFEASIBLE
        at_fixed_point = pin_variables(
            self.build_terminal_program(spec)[0].build(),
            list(c_idx) + [r_idx], [0.0, 0.0, 0.0],
        )
        assert solve(at_fixed_point).status is Status.OPTIMAL

    def test_ball_in_halfspace_radius_bound(self):
        # with P = I and one active halfspace x1 <= 1 through c = 0, the
        # largest feasible radius is exactly 1
        A = np.array([[0.5, 0.0], [0.0, 0.5]])
        B = np.eye(2)
        K = np.zeros((2, 2))
        spec = MpcSpec(A, B, np.array([[1.0, 0.0]]), np.array([1.0]),
                       np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 50.0),
                       K, np.eye(2), 2, np.eye(2), np.eye(2), np.eye(2))
        b, c_idx, r_idx = self.build_terminal_program(
            spec, objective=lambda b, c, r: -1.0 * b.var(r)
        )
        prog = pin_variables(b.build(), c_idx, np.zeros(2))
        sol = solve_ok(prog)
        assert abs(sol.x[r_idx] - 1.0) <= 1e-6

    def test_zero_gain_input_containment_unbinding(self):
        spec = deadbeat_spec()
        b = ConicProgramBuilder()
        emit_input_containment(
            MpcSpec(spec.A, spec.B, spec.E, spec.f, spec.G, spec.h,
                    np.zeros((2, 2)), spec.P, spec.N, spec.Q, spec.R, spec.Q_f),
            b.add_vars(2), b.add_var(), b)
        prog = b.build()
        # with K = 0 every row reduces to h_j >= 0, feasible for any (c, r)
        x = np.array([10.0, -4.0, 99.0])
        assert len(prog.blocks) == spec.G.shape[0]
        for blk in prog.blocks:
            assert block_violation(blk, x) == 0.0


class TestFullProblem:
    def test_origin_start_is_free(self):
        spec = double_integrator_mpc()
        socp = build_mpc_socp(spec, np.zeros(2))
        sol = solve_ok(socp.program)
        ex = socp.extract(sol)
        assert abs(sol.objective) <= 1e-7
        assert np.max(np.abs(ex["states"])) <= 1e-5
        assert np.max(np.abs(ex["inputs"])) <= 1e-5

    @pytest.fixture(scope="class")
    def double_integrator(self):
        spec = double_integrator_mpc()
        socp = build_mpc_socp(spec, np.array([2.0, 0.5]))
        return spec, socp.extract(solve_ok(socp.program))

    def test_double_integrator_constraints_hold(self, double_integrator):
        # dynamics, path and input constraints, terminal membership, sampled
        # invariance and containment, and 50 steps of the terminal closed loop
        spec, ex = double_integrator
        report = verify_result(spec, None, {"mode": "mpc", "x0": ex["states"][0], **ex})
        assert [check.name for check in report if not check.ok] == []
        # an absolute bound, tighter than verify's 1e-7 (1 + r^2)
        assert max(check.residual for check in report if "invariance" in check.name) <= 1e-7

    def test_closed_loop_stays_in_terminal_set(self, double_integrator):
        # computed here, independently of verify's report
        spec, ex = double_integrator
        c, r, x = ex["center"], ex["radius"], ex["states"][-1]
        for _ in range(50):
            x = spec.A_cl @ x
            assert (x - c) @ spec.P @ (x - c) <= r**2 + 1e-6

    def test_reconfigurable_no_worse_than_fixed(self):
        spec = double_integrator_mpc(N=4)
        x_init = np.array([2.0, 0.5])
        r0 = 0.9 * max_fixed_radius(spec)
        free = solve_ok(build_mpc_socp(spec, x_init).program)
        fixed = solve_ok(
            build_mpc_socp(spec, x_init, fixed_terminal=(np.zeros(2), r0)).program
        )
        assert free.objective <= fixed.objective + 1e-8

    def test_reconfiguration_enlarges_feasibility(self):
        # aggressive initial state reachable only because the set can move
        spec = double_integrator_mpc(N=3, x_bound=8.0)
        x_init = np.array([4.0, 0.0])
        r0 = 0.9 * max_fixed_radius(spec)
        free = solve(build_mpc_socp(spec, x_init).program)
        fixed = solve(
            build_mpc_socp(spec, x_init, fixed_terminal=(np.zeros(2), r0)).program
        )
        assert free.status is Status.OPTIMAL
        # the loop's own Farkas test decides it, with no stall (14 iterations)
        assert fixed.status is Status.PRIMAL_INFEASIBLE
        assert fixed.reason == "dual iterate is a Farkas ray"
        assert fixed.iterations <= 20, fixed.iterations

    def test_rescaled_multiplier_certifies_unscaled_constraints(self):
        # the invariance blocks are the homogenized (times-r) form; dividing
        # the auxiliary variables by r must satisfy the plain certificate
        spec = double_integrator_mpc()
        socp = build_mpc_socp(spec, np.array([2.0, 0.5]))
        sol = solve_ok(socp.program)
        ex = socp.extract(sol)
        c, r = ex["center"], ex["radius"]
        lam_hat, t_hat = ex["lam"], ex["t"]
        assert r > 1e-6
        lam, t = lam_hat / r, t_hat / r
        td = spec.terminal_diag
        c_hat = c / r
        assert np.sum(t) + lam <= 1 - c_hat @ (td.m_sqrt @ td.m_sqrt) @ c_hat + 1e-7
        heads = td.coupling @ c_hat
        slacks = lam - td.alpha
        for i in range(spec.n_x):
            assert t[i] >= -1e-9
            assert slacks[i] >= -1e-9
            assert heads[i] ** 2 <= t[i] * slacks[i] + 1e-7

    def test_infeasible_initial_state_rejected(self):
        spec = double_integrator_mpc()
        with pytest.raises(ValueError):
            build_mpc_socp(spec, np.array([10.0, 0.0]))


class TestEdgeCaseCorpus:
    @pytest.mark.parametrize("x_init", [(0.0, 0.0), (1e-9, 0.0), (5.0, 0.0), (-5.0, 0.0),
                                        (5.0, -1.0), (-5.0, 1.0)],
                             ids=lambda x: ",".join(f"{v:g}" for v in x))
    @pytest.mark.parametrize("N", [8, 20])
    def test_optimal_and_verified(self, N, x_init):
        # the origin (tiny blocks), a start 1e-9 from it, and starts on the
        # boundary of the state box |x| <= 5; at N = 2 the boundary starts
        # are not in the corpus, as their feasibility is undecided
        spec = double_integrator_mpc(N)
        socp = build_mpc_socp(spec, np.array(x_init))
        ex = socp.extract(solve_ok(socp.program))
        report = verify_result(spec, None, {"mode": "mpc", "x0": np.array(x_init), **ex})
        assert [check.name for check in report if not check.ok] == []


class TestReferenceAssembler:
    @pytest.mark.parametrize("fixed", [None, ([0.1, -0.2], 0.3)], ids=["free", "fixed"])
    @pytest.mark.parametrize("x_init", [(0.0, 0.0), (2.0, 0.5)], ids=["origin", "off-origin"])
    @pytest.mark.parametrize("N", [1, 4, 8])
    def test_program_matches_expression_reference(self, N, x_init, fixed):
        spec = double_integrator_mpc(N)
        assert_same_program(build_mpc_socp(spec, x_init, fixed_terminal=fixed).program,
                            reference_mpc_program(spec, x_init, fixed_terminal=fixed))


@pytest.mark.parametrize("call, error, message", [
    (lambda s: replace(s, A=np.eye(3)), DimensionMismatch, "A/B shapes inconsistent"),
    (lambda s: replace(s, E=np.ones((4, 3))), DimensionMismatch, "state set rows inconsistent"),
    (lambda s: replace(s, G=np.ones((2, 2))), DimensionMismatch, "input set rows inconsistent"),
    (lambda s: replace(s, K=np.ones((1, 3))), DimensionMismatch, "terminal gain shape inconsistent"),
    (lambda s: replace(s, P=np.eye(3)), DimensionMismatch, "terminal shape matrix size inconsistent"),
    (lambda s: replace(s, Q=np.eye(3)), DimensionMismatch, "Q size inconsistent"),
    (lambda s: replace(s, R=np.ones((1, 2))), DimensionMismatch, "R size inconsistent"),
    (lambda s: replace(s, N=0), ValueError, "horizon must be at least 1"),
    (lambda s: replace(s, Q=np.diag([1.0, -1.0])), ValueError, "Q must be positive semidefinite"),
    # the build's own thresholds: -1e-10 for the cost factors, 1e-10 for P
    (lambda s: replace(s, Q=np.diag([1.0, -5e-10])), ValueError, "Q must be positive semidefinite"),
    (lambda s: replace(s, R=-np.eye(1)), ValueError, "R must be positive definite"),
    (lambda s: replace(s, P=np.diag([1.0, 1e-12])), NotPositiveDefinite,
     "terminal shape matrix must be positive definite"),
    (lambda s: emit_invariance_constraints(s.terminal_diag, [0], 1, ConicProgramBuilder()),
     DimensionMismatch, "center has wrong length"),
    (lambda s: build_mpc_socp(s, [1.0, 0.0, 0.0]), DimensionMismatch, "x_init has wrong length"),
    (lambda s: build_mpc_socp(s, [1.0, 0.0], fixed_terminal=([0.0], 0.5)), DimensionMismatch,
     "fixed_terminal needs a length n_x center and a scalar radius"),
    (lambda s: build_mpc_socp(s, [1.0, 0.0], fixed_terminal=([0.0, 0.0], [0.5, 0.5])),
     DimensionMismatch, "fixed_terminal needs a length n_x center and a scalar radius"),
    (lambda s: build_mpc_socp(s, [1.0, 0.0], fixed_terminal=([np.nan, 0.0], 0.5)), ValueError,
     "c0 must be finite"),
    (lambda s: build_mpc_socp(s, [1.0, 0.0], fixed_terminal=([0.0, 0.0], np.inf)), ValueError,
     "r0 must be finite"),
], ids=["A-B", "E", "G", "K", "P", "Q-size", "R-size", "N-zero", "Q-indefinite",
        "Q-below-factor-floor", "R-not-definite", "P-below-diagonalization-floor", "center",
        "x-init", "fixed-c0-length", "fixed-r0-shape", "fixed-c0-nan", "fixed-r0-inf"])
def test_rejected_input_is_named(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(double_integrator_mpc(4))
