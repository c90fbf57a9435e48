"""Tour of the conic modeling layer and the interior-point solver.

Builds a few small second-order cone programs by hand from coefficient
rows, solves them, and shows how a quadratic objective is given by its
factor and how hyperbolic constraints are lowered onto second-order blocks.
"""

import numpy as np

from soclqc import (
    ConicProgramBuilder,
    hyperbolic_rows,
    solve,
    unit_rows,
)


def closest_point_in_ball():
    # minimize c'x over the unit ball: the optimum is -c/||c||
    print("== linear objective over the unit ball ==")
    c = np.array([3.0, -4.0])
    b = ConicProgramBuilder()
    idx = b.add_vars(2)
    b.set_objective_row(c)
    # one block (head, tail) = (1, x): ||x|| <= 1
    b.add_block_rows(np.vstack([np.zeros(2), unit_rows(idx, 2)])[None], [[1.0, 0.0, 0.0]])
    sol = solve(b.build())
    print(f"status     {sol.status.value}")
    print(f"objective  {sol.objective:+.9f}   (expected {-np.linalg.norm(c):+.9f})")
    print(f"x          {sol.x}")
    print()


def smallest_enclosing_product():
    # hyperbolic constraint x^2 <= y z in action: minimize y + z with x = 2
    # a constant head, so the optimum sits on y = z = 2 with y z = 4 = x^2
    print("== hyperbolic constraint x^2 <= y z ==")
    b = ConicProgramBuilder()
    b.add_vars(2)
    b.set_objective_row([1.0, 1.0])
    y, z = unit_rows([0, 1], 2)[:, None]
    b.add_block_rows(*hyperbolic_rows(np.zeros((1, 2)), [2.0], y, [0.0], z, [0.0]))
    sol = solve(b.build())
    print(f"status     {sol.status.value}")
    print(f"(y, z)     {sol.x}")
    print(f"y*z - x^2  {sol.x[0] * sol.x[1] - 4.0:+.2e}")
    print()


def regularized_least_squares():
    # ||Ax - d||^2 + rho ||x||^2 = ||[A; sqrt(rho) I] x||^2 - 2 d'A x + d'd,
    # given as the objective's factor, linear row and offset, over a ball
    # ||x|| <= 10 that the optimum does not touch
    print("== quadratic objective by its factor ==")
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 3))
    d = rng.standard_normal(6)
    rho = 0.1
    b = ConicProgramBuilder()
    idx = b.add_vars(3)
    b.set_objective_row(-2.0 * A.T @ d, d @ d, np.vstack([A, np.sqrt(rho) * np.eye(3)]))
    b.add_block_rows(np.vstack([np.zeros(3), unit_rows(idx, 3)])[None], [[10.0, 0.0, 0.0, 0.0]])
    sol = solve(b.build())
    closed_form = np.linalg.solve(A.T @ A + rho * np.eye(3), A.T @ d)
    print(f"status            {sol.status.value}")
    print(f"solver x          {sol.x}")
    print(f"normal equations  {closed_form}")
    print(f"difference        {np.linalg.norm(sol.x - closed_form):.2e}")
    print()


def infeasibility_detection():
    print("== infeasibility certificates ==")
    b = ConicProgramBuilder()
    b.add_var()
    b.set_objective_row([0.0])
    b.add_block_rows([[[1.0]], [[-1.0]]], [[-1.0], [0.0]])   # x - 1 >= 0, -x >= 0
    print(f"contradictory bounds: {solve(b.build()).status.value}")

    b = ConicProgramBuilder()
    b.add_var()
    b.set_objective_row([1.0])
    b.add_block_rows([[[-1.0]]], [[0.0]])   # minimize x with x <= 0: unbounded below
    print(f"unbounded objective:  {solve(b.build()).status.value}")


if __name__ == "__main__":
    closest_point_in_ball()
    smallest_enclosing_product()
    regularized_least_squares()
    infeasibility_detection()
