import re

import numpy as np
import pytest

from helpers import block_feasible_grid, diag_residuals, lmi_psd_grid, max_violation
from soclqc.model import ConicProgramBuilder, DimensionMismatch, NotPositiveDefinite, unit_rows
from soclqc.slemma import (
    DegenerateInput,
    QuadForm,
    SimulDiag,
    assemble_classical_lmi,
    check_psd,
    emit_simplified_slemma,
    simultaneous_diagonalize,
    symmetrize,
)
from soclqc.solver import Status, solve


def random_psd(rng, n, shift=0.0):
    M = rng.standard_normal((n, n))
    return M.T @ M + shift * np.eye(n)


class TestSimultaneousDiagonalize:
    def test_already_diagonal(self):
        sd = simultaneous_diagonalize(np.eye(2), np.diag([3.0, -1.0]))
        assert np.allclose(sd.alpha, 1.0)
        assert np.allclose(sorted(sd.delta), [-1.0, 3.0])
        # S is a signed permutation of the identity here
        assert np.allclose(np.abs(sd.S) @ np.abs(sd.S).T, np.eye(2), atol=1e-12)

    def test_scalar_case(self):
        sd = simultaneous_diagonalize(np.array([[4.0]]), np.array([[8.0]]))
        assert np.allclose(sd.S, [[0.5]])
        assert np.allclose(sd.alpha, [1.0])
        assert np.allclose(sd.delta, [2.0])

    def test_matches_generalized_eigenvalues(self, rng):
        for _ in range(10):
            A = random_psd(rng, 5, shift=0.5)
            D = rng.standard_normal((5, 5))
            D = 0.5 * (D + D.T)
            sd = simultaneous_diagonalize(A, D)
            ra, rd = diag_residuals(sd, A, D)
            assert ra <= 1e-8 * (1 + np.linalg.norm(A))
            assert rd <= 1e-8 * (1 + np.linalg.norm(D))
            gen = np.sort(np.linalg.eigvals(np.linalg.solve(A, D)).real)
            assert np.allclose(np.sort(sd.delta), gen, atol=1e-8)

    def test_residuals_over_many_pairs(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            A = random_psd(rng, n, shift=0.3)
            D = rng.standard_normal((n, n))
            D = 0.5 * (D + D.T)
            sd = simultaneous_diagonalize(A, D)
            ra, rd = diag_residuals(sd, A, D)
            assert ra <= 1e-8 * (1 + np.linalg.norm(A))
            assert rd <= 1e-8 * (1 + np.linalg.norm(D))
            # delta ascending and S row-major for A != I as well
            assert np.all(np.diff(sd.delta) >= 0) and sd.S.flags.c_contiguous

    def test_ball_pair_is_the_eigendecomposition(self, rng):
        # with A = I the triangular solves are exact: S and delta are eigh's
        # output bitwise, and S is row-major like eigh's reordered columns
        for n in (1, 3, 8):
            D = rng.standard_normal((n, n))
            D = 0.5 * (D + D.T)
            delta, Q = np.linalg.eigh(D)
            order = np.argsort(delta)
            sd = simultaneous_diagonalize(np.eye(n), D)
            assert np.array_equal(sd.delta, delta[order])
            assert np.array_equal(sd.S, Q[:, order]) and sd.S.flags.c_contiguous

    def test_identity_pair_is_orthogonal(self, rng):
        # the identity pair is solved as a plain eigenproblem: S is orthogonal
        for n in (1, 4, 12, 30):
            D = rng.standard_normal((n, n))
            D = 0.5 * (D + D.T)
            sd = simultaneous_diagonalize(np.eye(n), D)
            assert np.max(np.abs(sd.S.T @ sd.S - np.eye(n))) <= 1e-12
            assert np.max(np.abs(sd.S.T @ D @ sd.S - np.diag(sd.delta))) <= 1e-12 * (1 + np.linalg.norm(D))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            simultaneous_diagonalize(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("A", [np.diag([1.0, 1.0, 0.0]), np.ones((2, 2)), -np.eye(2)],
                             ids=["zero-pivot", "plus-ones", "negated"])
    def test_rejects_near_identity(self, A):
        # the guard skips the identity itself only, not a matrix near it
        with pytest.raises(NotPositiveDefinite, match="must be positive definite"):
            simultaneous_diagonalize(A, np.eye(len(A)))

    def test_guard_eigenvalues_skipped_for_identity_only(self, monkeypatch, rng):
        # the ball pair (I, D) needs no eigenvalues of I; any other A gets
        # the guard's one eigvalsh
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M) or real(M))
        D = rng.standard_normal((4, 4))
        D = 0.5 * (D + D.T)
        simultaneous_diagonalize(np.eye(4), D)
        assert calls == []
        simultaneous_diagonalize(2.0 * np.eye(4), D)
        assert len(calls) == 1

    def test_rejects_near_singular(self):
        # lambda_min = 1e-14 is below the positive-definiteness guard's
        # 1e-10 max(1, ||A||_F), which also bounds cond(S) below 1e5
        with pytest.raises(NotPositiveDefinite, match="must be positive definite"):
            simultaneous_diagonalize(np.diag([1.0, 1e-14]), np.eye(2))

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInput):
            simultaneous_diagonalize(np.zeros((0, 0)), np.zeros((0, 0)))


def emit_interval_program(inner_c, outer_f, objective_on_lambda=False):
    """Scalar containment instance: inner 1*c - z^2 >= 0, outer f - z^2 >= 0."""
    inner = QuadForm(np.array([[-1.0]]), np.zeros(1), inner_c)
    base = simultaneous_diagonalize(np.eye(1), np.eye(1))
    sd = SimulDiag(base.S, -base.alpha, -base.delta)
    b = ConicProgramBuilder()
    blk = emit_simplified_slemma(inner, (np.zeros((1, 0)), [0.0]), ([], outer_f), sd, b)
    if objective_on_lambda:
        b.set_objective_row(unit_rows(blk.lambda_index, b.num_vars)[0])
    return b.build(), blk


class TestQuadForm:
    @pytest.mark.parametrize("radius", [-2.0, 0.0, np.inf, -np.inf, np.nan])
    def test_ball_rejects_radius_outside_positive_reals(self, radius):
        # the form keeps only radius^2, so a negative radius used to pass
        # as its absolute value
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            QuadForm.ball(radius, 2)


class TestEmitSimplifiedSlemma:
    def test_interval_containment_feasible(self):
        prog, blk = emit_interval_program(1.0, 4.0)
        # the certificate point lam=1, t=0 satisfies every emitted block
        x = np.zeros(prog.num_vars)
        x[blk.lambda_index] = 1.0
        assert max_violation(prog, x) <= 1e-12
        sol = solve(prog)
        assert sol.status is Status.OPTIMAL

    def test_interval_containment_infeasible(self):
        prog, _ = emit_interval_program(1.0, -2.0)
        sol = solve(prog)
        assert sol.status is Status.PRIMAL_INFEASIBLE

    def test_ball_in_ball(self):
        # unit ball inside radius-rho ball exactly when rho >= 1
        for rho, feasible in ((1.5, True), (0.8, False)):
            inner = QuadForm.ball(1.0, 2)
            base = simultaneous_diagonalize(np.eye(2), np.eye(2))
            sd = SimulDiag(base.S, -base.alpha, -base.delta)
            b = ConicProgramBuilder()
            emit_simplified_slemma(inner, (np.zeros((2, 0)), [0.0, 0.0]), ([], rho**2), sd, b)
            sol = solve(b.build())
            assert (sol.status is Status.OPTIMAL) == feasible

    def test_linear_term_rows_checked(self):
        # e rows of the wrong count, and rows wider than the variables that
        # exist at the call
        inner = QuadForm.ball(1.0, 2)
        base = simultaneous_diagonalize(np.eye(2), np.eye(2))
        sd = SimulDiag(base.S, -base.alpha, -base.delta)
        b = ConicProgramBuilder()
        b.add_var()
        for e_rows, f_rows in (((np.zeros((1, 1)), [0.0]), ([1.0], 0.0)),
                               ((np.zeros((2, 2)), [0.0, 0.0]), ([1.0], 0.0)),
                               ((np.zeros((2, 1)), [0.0, 0.0]), ([1.0, 0.0], 0.0))):
            with pytest.raises(DimensionMismatch):
                emit_simplified_slemma(inner, e_rows, f_rows, sd, b)
        assert b.num_vars == 1

    def test_slater_guard(self):
        inner = QuadForm(np.array([[-1.0]]), np.zeros(1), -1.0)
        base = simultaneous_diagonalize(np.eye(1), np.eye(1))
        sd = SimulDiag(base.S, -base.alpha, -base.delta)
        b = ConicProgramBuilder()
        with pytest.raises(DegenerateInput):
            emit_simplified_slemma(inner, (np.zeros((1, 0)), [0.0]), ([], 1.0), sd, b)

    def test_soundness_by_sampling(self, rng):
        # solve for (e, f) that make the robust constraint hold, then check
        # the outer form on sampled points of the inner set
        for trial in range(5):
            n = 3
            A = random_psd(rng, n, shift=0.5)
            bvec = rng.standard_normal(n)
            c = rng.uniform(0.5, 2.0)
            inner = QuadForm(A, bvec, c)
            lam0 = rng.uniform(0.1, 2.0)
            W = random_psd(rng, n + 1, shift=0.2)
            D = W[:n, :n] + lam0 * A
            e0 = W[:n, n] + lam0 * bvec
            sd = simultaneous_diagonalize(A, D)
            # minimize f(x) = x[0] with e(x) = e0 fixed; both rows are one
            # column wide and padded past the emitted variables
            builder = ConicProgramBuilder()
            builder.add_var()
            emit_simplified_slemma(inner, (np.zeros((n, 1)), e0), ([1.0], 0.0), sd, builder)
            builder.set_objective_row([1.0])
            sol = solve(builder.build())
            assert sol.status is Status.OPTIMAL
            f_star = sol.x[0]
            # sample z with inner(z) >= 0 at a mix of radii
            zs = rng.standard_normal((20_000, n)) * rng.uniform(0.5, 10, (20_000, 1))
            keep = np.einsum("ij,jk,ik->i", zs, A, zs) + 2 * zs @ bvec + c >= 0
            zs = zs[keep][:10_000]
            outer_vals = np.einsum("ij,jk,ik->i", zs, D, zs) + 2 * zs @ e0 + f_star
            scale = 1 + abs(f_star) + np.linalg.norm(e0)
            assert np.min(outer_vals) >= -1e-6 * scale


class TestClassicalLmi:
    def test_multiplier_off(self, rng):
        n = 3
        inner = QuadForm(random_psd(rng, n), rng.standard_normal(n), 0.7)
        D = rng.standard_normal((n, n))
        D = 0.5 * (D + D.T)
        e = rng.standard_normal(n)
        M = assemble_classical_lmi(inner, D, e, 2.5, 0.0)
        assert np.allclose(M[:n, :n], D)
        assert np.allclose(M[:n, n], e)
        assert M[n, n] == 2.5

    def test_exact_cancellation(self):
        inner = QuadForm(np.array([[1.0]]), np.zeros(1), 1.0)
        M = assemble_classical_lmi(inner, np.array([[1.0]]), np.zeros(1), 1.0, 1.0)
        assert np.allclose(M, 0.0)
        assert check_psd(M, 1e-9)

    def test_check_psd_basics(self):
        assert check_psd(np.eye(3), 1e-9)
        assert not check_psd(np.diag([1.0, -1.0]), 1e-9)

    def test_schur_identity(self, rng):
        # when the diagonalized slacks are positive, PSD of the bordered
        # matrix reduces to the scalar budget inequality
        for _ in range(20):
            n = int(rng.integers(1, 5))
            A = random_psd(rng, n, shift=0.5)
            bvec = rng.standard_normal(n)
            c = rng.uniform(-1, 1)
            D = rng.standard_normal((n, n))
            D = 0.5 * (D + D.T)
            e = rng.standard_normal(n)
            f = rng.uniform(-2, 4)
            inner = QuadForm(A, bvec, c)
            sd = simultaneous_diagonalize(A, D)
            lam = rng.uniform(0.0, 3.0)
            slack = sd.delta - lam * sd.alpha
            if np.min(slack) <= 1e-6:
                continue
            eps = sd.S.T @ e
            beta = sd.S.T @ bvec
            budget_ok = f - lam * c >= np.sum((eps - lam * beta) ** 2 / slack)
            M = assemble_classical_lmi(inner, D, e, f, lam)
            # strict margin instances only: perturb away from ties
            margin = f - lam * c - np.sum((eps - lam * beta) ** 2 / slack)
            if abs(margin) <= 1e-9 * (1 + abs(f)):
                continue
            assert check_psd(M, 1e-9) == budget_ok


class TestGridEquivalence:
    def build_instance(self, rng, n, feasible, lam_grid):
        A = random_psd(rng, n, shift=0.5)
        bvec = rng.standard_normal(n)
        c = rng.uniform(-1.0, 1.0)
        if feasible:
            lam0 = float(rng.choice(lam_grid[: len(lam_grid) // 2]))
            W = random_psd(rng, n + 1, shift=0.3)
            D = W[:n, :n] + lam0 * A
            e = W[:n, n] + lam0 * bvec
            f = W[n, n] + lam0 * c
        else:
            D = rng.standard_normal((n, n))
            D = 0.5 * (D + D.T)
            D = D - (np.linalg.eigvalsh(D)[-1] + 0.5) * np.eye(n)
            e = rng.standard_normal(n)
            f = rng.uniform(-1, 3)
        return QuadForm(A, bvec, c), D, e, f

    def test_block_route_matches_lmi_route(self, rng):
        lam_grid = np.arange(0.0, 50.0 + 1e-9, 1e-3)
        for trial in range(10):
            n = int(rng.integers(2, 4))
            feasible = trial % 2 == 0
            inner, D, e, f = self.build_instance(rng, n, feasible, lam_grid)
            sd = simultaneous_diagonalize(inner.A, D)
            blk = block_feasible_grid(inner, e, f, sd, lam_grid)
            if blk.any():
                lam_hit = lam_grid[np.argmax(blk)]
                assert lmi_psd_grid(inner, D, e, f, np.array([lam_hit]))[0]
            else:
                assert not lmi_psd_grid(inner, D, e, f, lam_grid).any()
            # thinned pointwise agreement
            sub = lam_grid[:: 977]
            assert np.array_equal(
                block_feasible_grid(inner, e, f, sd, sub),
                lmi_psd_grid(inner, D, e, f, sub),
            )

    @staticmethod
    def eigenvalue_verdicts(inner, D, e, f, lams, tol=1e-7):
        """The PSD verdict from the eigenvalues at every point, unscreened."""
        mats = np.array([assemble_classical_lmi(inner, D, e, f, lam) for lam in lams])
        norms = np.sqrt(np.sum(mats**2, axis=(1, 2)))
        return np.linalg.eigvalsh(mats)[:, 0] >= -tol * (1.0 + norms)

    def test_screened_grid_matches_eigenvalues(self, rng):
        # the diagonal screen may drop only points the eigenvalues reject:
        # checked next to every switch of the verdict, to the last bits of
        # the multiplier, and on a diagonal matrix whose smallest eigenvalue
        # is the screened diagonal entry itself
        grid = np.arange(0.0, 20.0, 1e-3)
        cases = [self.build_instance(rng, int(rng.integers(2, 5)), feasible, grid)
                 for feasible in (True, True, True, False, False)]
        cases.append((QuadForm.ball(1.5, 2), np.diag([-3.0, 1.0]), np.zeros(2), 10.0))
        switches = 0
        for inner, D, e, f in cases:
            lams = np.linspace(0.0, 40.0, 2001)
            ref = self.eigenvalue_verdicts(inner, D, e, f, lams)
            boundary = []
            for i in np.flatnonzero(ref[1:] != ref[:-1]):
                lo, hi = lams[i], lams[i + 1]
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):
                        break
                    if self.eigenvalue_verdicts(inner, D, e, f, [mid])[0] == ref[i]:
                        lo = mid
                    else:
                        hi = mid
                boundary.append(lo + np.arange(-40, 41) * np.spacing(lo))
                boundary.append(lo * (1.0 + np.linspace(-1e-9, 1e-9, 41)))
            switches += len(boundary) // 2
            lams = np.concatenate([lams] + boundary)
            ref = self.eigenvalue_verdicts(inner, D, e, f, lams)
            assert np.array_equal(lmi_psd_grid(inner, D, e, f, lams), ref)
            assert np.array_equal(lmi_psd_grid(inner, D, e, f, lams, chunk=97), ref)
        assert switches >= 4

    def test_lmi_grid_agrees_with_single_check(self, rng):
        n = 3
        inner, D, e, f = self.build_instance(rng, n, True, np.arange(0, 10, 1e-3))
        lams = rng.uniform(0, 10, 50)
        batched = lmi_psd_grid(inner, D, e, f, lams)
        single = np.array(
            [check_psd(assemble_classical_lmi(inner, D, e, f, lam)) for lam in lams]
        )
        assert np.array_equal(batched, single)


@pytest.mark.parametrize("call, error, message", [
    (lambda: symmetrize([[0.0, 1.0], [0.0, 0.0]]), ValueError, "matrix is not symmetric within tolerance"),
    (lambda: QuadForm(np.eye(2), np.zeros(3), 0.0), DimensionMismatch,
     "QuadForm: A and b dimensions differ"),
    (lambda: simultaneous_diagonalize(np.eye(2), np.eye(3)), DimensionMismatch, "A and D sizes differ"),
    # an sd of another size than inner; the outer D is read from sd alone
    (lambda: emit_simplified_slemma(QuadForm.ball(1.0, 2), (np.zeros((2, 1)), np.zeros(2)),
                                    (np.zeros(1), 0.0), simultaneous_diagonalize(np.eye(3), np.eye(3)),
                                    ConicProgramBuilder()),
     DimensionMismatch, "forms and diagonalization disagree in size"),
    (lambda: assemble_classical_lmi(QuadForm.ball(1.0, 2), np.eye(3), np.zeros(3), 0.0, 1.0),
     DimensionMismatch, "outer form dimensions disagree with inner"),
], ids=["asymmetric", "quad-form", "diagonalize", "simplified-slemma", "classical-lmi"])
def test_rejected_input_is_named(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
