import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import ExprBuilder, LinExpr, block_slack, block_violation, pin_variables
from soclqc.model import (
    ConicProgram,
    ConicProgramBuilder,
    DimensionMismatch,
    NotPositiveDefinite,
    cholesky_factor,
    hyperbolic_rows,
    psd_sqrt_factor,
    unit_rows,
)
from soclqc.solver import Status, solve


def block_value(program, x):
    """Value of a one-block program's block at x."""
    (block,) = program.blocks
    return block_slack(block, np.asarray(x, dtype=float))


def soc_margin(vec):
    """head - ||tail|| of a block value; >= 0 means feasible."""
    return vec[0] - np.linalg.norm(vec[1:])


def hyperbolic_program(m):
    """One block ||x[:m]||^2 <= x[m] * x[m + 1] over m + 2 variables."""
    b = ConicProgramBuilder()
    b.add_vars(m + 2)
    A, rhs = hyperbolic_rows(unit_rows(range(m), m + 2)[None], np.zeros((1, m)),
                             unit_rows([m], m + 2), np.zeros(1),
                             unit_rows([m + 1], m + 2), np.zeros(1))
    b.add_block_rows(A, rhs)
    return b.build()


class TestLinExpr:
    def test_arithmetic(self):
        a = LinExpr.variable(0)
        b = LinExpr.variable(2)
        e = 2.0 * a - 3.0 * b + 1.5
        row, const = e.to_row(3)
        assert np.allclose(row, [2.0, 0.0, -3.0])
        assert const == 1.5
        row2, const2 = (1.0 - e).to_row(3)
        assert np.allclose(row2, [-2.0, 0.0, 3.0])
        assert const2 == -0.5

    def test_out_of_range_reference(self):
        e = LinExpr.variable(5)
        with pytest.raises(DimensionMismatch):
            e.to_row(3)


class TestHyperbolicBlock:
    # membership of (x, y, z) with x^2 <= y z encoded as one SOC block

    @pytest.mark.parametrize(
        "xyz",
        [(1.0, 1.0, 1.0), (0.0, 5.0, 0.0), (2.0, 1.0, 4.0)],
    )
    def test_boundary_examples(self, xyz):
        prog = hyperbolic_program(1)
        val = block_value(prog, np.array(xyz))
        assert soc_margin(val) >= -1e-12
        # all three examples sit exactly on the boundary x^2 = y z
        assert abs(soc_margin(val)) <= 1e-12

    def test_infeasible_point(self):
        prog = hyperbolic_program(1)
        assert soc_margin(block_value(prog, [2.0, 1.0, 1.0])) < 0

    def test_cone_scaling_property(self, rng):
        # feasible triples stay feasible under scaling by any r >= 0
        prog = hyperbolic_program(1)
        for _ in range(200):
            y, z = rng.uniform(0, 2, size=2)
            x = np.sqrt(y * z) * rng.uniform(-1, 1)
            r = rng.uniform(0, 10)
            assert soc_margin(block_value(prog, [x, y, z])) >= -1e-12
            assert soc_margin(block_value(prog, [r * x, r * y, r * z])) >= -1e-10

    def test_vector_first_argument(self):
        prog = hyperbolic_program(2)
        # ||(1, 2)||^2 = 5 <= 5 * 1
        assert soc_margin(block_value(prog, [1.0, 2.0, 5.0, 1.0])) >= -1e-12
        assert soc_margin(block_value(prog, [1.0, 2.0, 4.9, 1.0])) < 0


class TestQuadraticEpigraph:
    """The epigraph block ``x'M x <= t`` of a quadratic cost, which
    :meth:`ExprBuilder.add_quadratic_cost` forms as the reference for the
    objective factor (``helpers.epigraph_program``)."""

    @staticmethod
    def epigraph(head):
        """Variables x, y and t with ``head(x, y)^2 <= t``."""
        b = ExprBuilder()
        b.add_vars(2)
        t = b.add_quadratic_cost(np.eye(1), [head(b.var(0), b.var(1))])
        return b, t

    def test_scalar_epigraph(self):
        # x^2 <= t encoded via unit denominator
        prog = self.epigraph(lambda x, y: x)[0].build()
        assert soc_margin(block_value(prog, [2.0, 0.0, 4.0])) >= -1e-12
        assert soc_margin(block_value(prog, [2.0, 0.0, 3.9])) < 0

    def test_zero_numerator_any_t(self):
        prog = self.epigraph(lambda x, y: x)[0].build()
        for t in (0.0, 0.5, 7.0):
            assert soc_margin(block_value(prog, [0.0, 0.0, t])) >= -1e-12

    def test_affine_numerator_minimal_t(self):
        # minimize t subject to (2x + y)^2 <= t at x and y pinned to 1: t* = 9
        b, t = self.epigraph(lambda x, y: 2.0 * x + y)
        b.set_objective(t)
        sol = solve(pin_variables(b.build(), [0, 1], [1.0, 1.0]))
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - 9.0) <= 1e-6


class TestObjectiveFactor:
    def test_scalar_quadratic_objective(self):
        # min x0^2 - 4 x0 + x1 with x1 >= 0: x0 = 2 when free, and the
        # bound x0 <= 1 holds it at 1
        for bound, (x0, value) in ((None, (2.0, -4.0)), (1.0, (1.0, -3.0))):
            b = ConicProgramBuilder()
            b.add_vars(2)
            b.set_objective_row([-4.0, 1.0], 0.0, [[1.0]])
            b.add_block_rows([[[0.0, 1.0]]], [[0.0]])
            if bound is not None:
                b.add_block_rows([[[-1.0, 0.0]]], [[bound]])
            sol = solve(b.build())
            assert sol.status is Status.OPTIMAL
            assert np.allclose(sol.x, [x0, 0.0], atol=1e-7)
            assert abs(sol.objective - value) <= 1e-7

    def test_linear_objective_has_no_factor_rows(self):
        # no factor, and an explicit factor of no rows, give a program with
        # an empty (0, n) factor, read-only like G and h
        for F in (None, np.zeros((0, 1))):
            b = ConicProgramBuilder()
            b.add_vars(2)
            b.set_objective_row([1.0], 0.0, F)
            prog = b.build()
            assert prog.obj_F.shape == (0, 2) and not prog.obj_F.flags.writeable

    def test_affine_factor_at_pinned_point(self):
        # minimize (2x + y)^2 + 1 at x and y pinned to 1: the value 10 comes
        # from the substitution's offset alone
        b = ConicProgramBuilder()
        b.add_vars(2)
        b.set_objective_row([], 1.0, [[2.0, 1.0]])
        b.add_block_rows([[[1.0, 0.0]]], [[0.0]])
        prog = pin_variables(b.build(), [0, 1], [1.0, 1.0])
        sol = solve(prog)
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - 10.0) <= 1e-9


class TestFactorizations:
    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.diag([1.0, -1.0]))

    def test_cholesky_rejects_near_singular(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.diag([1.0, 1e-15]))

    def test_psd_sqrt_roundtrip(self, rng):
        M = rng.standard_normal((5, 5))
        M = M.T @ M
        F = psd_sqrt_factor(M)
        assert np.allclose(F.T @ F, M, atol=1e-10)

    def test_psd_sqrt_rejects_negative(self):
        with pytest.raises(NotPositiveDefinite):
            psd_sqrt_factor(np.diag([1.0, -0.1]))

    def test_quadratic_objective_of_cholesky_factor(self, rng):
        # the objective ||L'x||^2 of M = L L' is x'M x, at a point pinned
        # inside the unit ball ||x|| <= 1
        M = rng.standard_normal((3, 3))
        M = M.T @ M + 0.5 * np.eye(3)
        target = rng.standard_normal(3)
        target *= 0.5 / np.linalg.norm(target)
        b = ConicProgramBuilder()
        idx = b.add_vars(3)
        b.set_objective_row([], 0.0, cholesky_factor(M).T)
        b.add_block_rows(np.vstack([np.zeros(3), np.eye(3)])[None], [[1.0, 0.0, 0.0, 0.0]])
        sol = solve(pin_variables(b.build(), idx, target))
        assert sol.status is Status.OPTIMAL
        assert abs(sol.objective - target @ M @ target) <= 1e-9 * (1.0 + target @ M @ target)


class TestProgramStructure:
    def test_objective_offset_shifts_reported_value(self):
        def build(offset):
            b = ExprBuilder()
            b.add_var()
            b.set_objective(b.var(0) + offset)
            b.add_nonneg(b.var(0))
            return b.build()

        base = solve(build(0.0))
        shifted = solve(build(12.75))
        assert base.status is Status.OPTIMAL and shifted.status is Status.OPTIMAL
        assert abs((shifted.objective - base.objective) - 12.75) <= 1e-12

    def test_pin_variables_dimension_check(self):
        # the test helper that fixes variables by substitution: x1 = 2 moves
        # its column of G and its objective terms into h and the offset
        b = ExprBuilder()
        b.add_vars(2)
        b.set_objective(b.var(0) + 3.0 * b.var(1), F=[[0.0, 1.0]])
        b.add_nonneg(b.var(0) - b.var(1))
        prog = b.build()
        with pytest.raises(DimensionMismatch):
            pin_variables(prog, [0, 1], [1.0])
        for index in (-1, 2):  # -1 would pin the last variable, 2 index past the end
            with pytest.raises(DimensionMismatch, match=f"no variable {index}"):
                pin_variables(prog, [index], [2.0])
        pinned = pin_variables(prog, [1], [2.0])
        assert np.array_equal(pinned.G, [[-1.0, 0.0]]) and np.array_equal(pinned.h, [-2.0])
        assert np.array_equal(pinned.obj, [1.0, 0.0]) and pinned.obj_offset == 10.0
        assert not pinned.obj_F.any()
        assert (pinned.nn, pinned.soc) == (prog.nn, prog.soc)


class TestRowBlocks:
    def test_blocks_added_before_later_variables_are_padded(self):
        b = ExprBuilder()
        b.add_vars(2)
        b.set_objective(b.var(1) + 0.5)
        A = np.array([[[1.0, 0.0], [0.0, 2.0]], [[0.5, 0.5], [1.0, 0.0]]])
        rhs = np.array([[3.0, 0.0], [1.0, 1.0]])
        b.add_block_rows(A, rhs)
        b.add_vars(3)
        b.add_nonneg(b.var(4) + 1.0)
        prog = b.build()
        assert prog.num_vars == 5
        # the nonnegative block comes first in the layout
        assert (prog.nn, prog.soc) == (1, ((2, 2),))
        assert np.array_equal(prog.h, [1.0, *rhs.ravel()])
        for i in range(2):
            assert np.array_equal(prog.blocks[1 + i].A, np.hstack([A[i], np.zeros((2, 3))]))
            assert np.array_equal(prog.blocks[1 + i].b, rhs[i])
        assert np.array_equal(prog.blocks[0].A, [[0.0, 0.0, 0.0, 0.0, 1.0]])
        assert np.array_equal(prog.obj, [0.0, 1.0, 0.0, 0.0, 0.0])
        assert prog.obj_offset == 0.5

    def test_interleaved_stacks_take_the_solver_layout(self, rng):
        # nonnegative stacks first, then second-order stacks by increasing
        # dimension, each in insertion order; G and h are the negated and
        # padded stack rows
        layout = [1, 3, 2, 1, 5, 3, 2, 3]  # block dimensions
        b = ConicProgramBuilder()
        stacks = []
        for i, d in enumerate(layout):
            b.add_vars(1)
            A, rhs = rng.standard_normal((1, d, b.num_vars)), rng.standard_normal((1, d))
            b.add_block_rows(A, rhs)
            stacks.append((A, rhs))
        prog = b.build()
        order = [0, 3, 2, 6, 1, 5, 7, 4]
        assert [blk.dim for blk in prog.blocks] == [layout[i] for i in order]
        assert (prog.nn, prog.soc) == (2, ((2, 2), (3, 3), (1, 5)))
        row = 0
        for i in order:
            A, rhs = stacks[i]
            d, w = A.shape[1:]
            assert np.array_equal(prog.G[row : row + d, :w], -A[0])
            assert not prog.G[row : row + d, w:].any()
            assert np.array_equal(prog.h[row : row + d], rhs[0])
            row += d
        assert row == len(prog.h)
        with pytest.raises(ValueError):
            prog.G[0, 0] = 1.0  # read-only: solves share the program
        with pytest.raises(ValueError):
            prog.h[0] = 1.0
        with pytest.raises(ValueError):
            prog.obj[0] = 1.0

    @pytest.mark.parametrize(
        "G_shape, rows, nn, soc",
        [
            ((3, 3), 3, 1, ((1, 2),)),   # G has 3 columns for 2 variables
            ((3, 2), 4, 1, ((1, 2),)),   # G and h differ in rows
            ((4, 2), 4, 1, ((1, 2),)),   # layout covers 3 of 4 rows
            ((3, 2), 3, 1, ((2, 1),)),   # second-order block without a tail
            ((3, 2), 3, -1, ((1, 4),)),  # negative nonnegative count
            ((3, 2), 3, 3, ((0, 2),)),   # second-order group of no blocks
        ],
        ids=["G-columns", "G-h-rows", "rows-uncovered", "soc-without-tail", "negative-nn",
             "empty-soc-group"],
    )
    def test_program_rejects_inconsistent_layout(self, G_shape, rows, nn, soc):
        with pytest.raises(DimensionMismatch):
            ConicProgram(np.zeros(2), 0.0, np.zeros((0, 2)), np.zeros(G_shape), np.zeros(rows),
                         nn, soc)

    @pytest.mark.parametrize(
        "A_shape, b_shape",
        [
            ((2, 3), (2,)),          # A not a stack of blocks
            ((2, 3, 2), (2, 2)),     # b rows differ from A rows
            ((2, 3, 2), (3, 3)),     # b blocks differ from A blocks
            ((1, 3, 3), (1, 3)),     # more columns than variables
            ((2, 0, 2), (2, 0)),     # blocks of dimension 0
        ],
        ids=["soc-A_shape0-b_shape0-", "soc-A_shape1-b_shape1-", "soc-A_shape2-b_shape2-",
             "soc-A_shape3-b_shape3-", "zero-dimension"],
    )
    def test_rejects_mismatched_shapes(self, A_shape, b_shape):
        b = ConicProgramBuilder()
        b.add_vars(2)
        with pytest.raises(DimensionMismatch):
            b.add_block_rows(np.ones(A_shape), np.ones(b_shape))

    def test_dimension_one_stacks_are_nonnegative_rows(self, rng):
        # a d = 1 stack added between second-order stacks lands in the nn
        # rows in insertion order, as does the expression reference's
        # second-order block with an empty tail; a d = 1 block is violated
        # by max(0, -s0)
        b = ExprBuilder()
        b.add_vars(2)
        before = rng.standard_normal((1, 3, 2)), rng.standard_normal((1, 3))
        b.add_block_rows(*before)
        A, rhs = rng.standard_normal((3, 1, 2)), rng.standard_normal((3, 1))
        b.add_block_rows(A, rhs)
        b.add_soc(b.var(1) - 0.5, [])
        after = rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2))
        b.add_block_rows(*after)
        prog = b.build()
        assert (prog.nn, prog.soc) == (4, ((2, 2), (1, 3)))
        assert np.array_equal(prog.G[:4], -np.vstack([A[:, 0], [[0.0, 1.0]]]))
        assert np.array_equal(prog.h, [*rhs[:, 0], -0.5, *after[1].ravel(), *before[1].ravel()])
        for _ in range(20):
            x = 3.0 * rng.standard_normal(2)
            for blk in prog.blocks[:4]:
                (s0,) = block_slack(blk, x)
                assert blk.dim == 1 and block_violation(blk, x) == max(0.0, -s0)

    @pytest.mark.parametrize("oddity", ["constant-row-before-variables", "empty-stack"])
    def test_degenerate_stacks_leave_the_solution(self, oddity):
        # min c'x over ||x|| <= 1, alone and with a constant row 1 >= 0 added
        # while there are no variables (w = 0), or with a second-order stack
        # of no blocks and a dimension no other stack has
        def program(odd):
            b = ConicProgramBuilder()
            if odd and oddity == "constant-row-before-variables":
                b.add_block_rows(np.zeros((1, 1, 0)), [[1.0]])
            x = b.add_vars(2)
            b.set_objective_row([3.0, -4.0])
            b.add_block_rows(np.vstack([np.zeros(2), unit_rows(x, 2)])[None], [[1.0, 0.0, 0.0]])
            if odd and oddity == "empty-stack":
                b.add_block_rows(np.zeros((0, 4, 2)), np.zeros((0, 4)))
            return b.build()

        plain, odd = program(False), program(True)
        assert odd.soc == plain.soc == ((1, 3),)
        ref, sol = solve(plain), solve(odd)
        assert sol.status is ref.status is Status.OPTIMAL
        assert np.allclose(sol.x, ref.x, rtol=0, atol=1e-8)

    def test_objective_factor_padded_to_later_variables(self, rng):
        # a factor over the first 3 of 5 variables, set before 2 more exist,
        # gets zero columns for the rest; one wider than the variable count,
        # or a program whose factor has other columns, is rejected
        b = ConicProgramBuilder()
        b.add_vars(5)
        F = rng.standard_normal((2, 3))
        b.set_objective_row([1.0], 0.5, F)
        b.add_vars(2)
        b.add_block_rows(np.ones((1, 1, 7)), np.zeros((1, 1)))
        prog = b.build()
        assert np.array_equal(prog.obj_F, np.hstack([F, np.zeros((2, 4))]))
        assert np.array_equal(prog.obj, [1.0] + [0.0] * 6) and prog.obj_offset == 0.5
        with pytest.raises(DimensionMismatch):
            b.set_objective_row([1.0], 0.0, np.ones((2, 8)))
        with pytest.raises(DimensionMismatch):
            b.set_objective_row([1.0], 0.0, np.ones(3))
        with pytest.raises(DimensionMismatch):
            replace(prog, obj_F=np.ones((2, 6)))


def _two_variable_builder():
    b = ConicProgramBuilder()
    b.add_vars(2)
    b.add_block_rows(np.eye(2)[None], np.zeros((1, 2)))
    return b


@pytest.mark.parametrize("call, message", [
    (lambda b: replace(b.build(), obj=np.zeros(3)), "objective factor needs num_vars columns"),
    (lambda b: replace(b.build(), obj=np.zeros((2, 2))), "objective must be a vector"),
    (lambda b: b.set_objective_row(np.zeros(3)), "objective row longer than the variable count"),
    (lambda b: hyperbolic_rows(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2),
                               np.zeros((1, 2)), np.zeros(1)),
     "hyperbolic rows: head, y and z shapes inconsistent"),
], ids=["objective", "objective-matrix", "objective-row", "hyperbolic-rows"])
def test_rejected_shape_is_named(call, message):
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        call(_two_variable_builder())


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["obj", "obj_offset", "obj_F", "G", "h"])
def test_non_finite_data_is_named(field, value):
    b = _two_variable_builder()
    b.set_objective_row([1.0, 0.0], 0.0, np.eye(2))
    prog = b.build()
    data = np.array(getattr(prog, field), dtype=float)  # a writable copy
    data.flat[0] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        replace(prog, **{field: data if data.ndim else float(data)})
