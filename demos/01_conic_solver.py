"""Tour of the conic modeling layer and the interior-point solver.

Builds a few small second-order cone programs by hand from coefficient
rows, solves them, and shows how quadratic terms and hyperbolic constraints
are lowered onto the linear-objective conic form.
"""

import numpy as np

from soclqc import (
    ConicProgramBuilder,
    hyperbolic_rows,
    quadratic_epigraph,
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
    # hyperbolic constraint x^2 <= y z in action: minimize y + z subject to
    # x = 2 fixed, so the optimum sits on y = z = 2 with y z = 4 = x^2
    print("== hyperbolic constraint x^2 <= y z ==")
    b = ConicProgramBuilder()
    b.add_vars(3)
    b.set_objective_row([0.0, 1.0, 1.0])
    b.add_eq_rows([[1.0, 0.0, 0.0]], [2.0])
    x, y, z = unit_rows([0, 1, 2], 3)[:, None]
    b.add_block_rows(*hyperbolic_rows(x, [0.0], y, [0.0], z, [0.0]))
    sol = solve(b.build())
    print(f"status     {sol.status.value}")
    print(f"(x, y, z)  {sol.x}")
    print(f"y*z - x^2  {sol.x[1] * sol.x[2] - sol.x[0] ** 2:+.2e}")
    print()


def regularized_least_squares():
    # ||Ax - d||^2 + ||sqrt(rho) x||^2 via two epigraph variables
    print("== quadratic objective via epigraph blocks ==")
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 3))
    d = rng.standard_normal(6)
    rho = 0.1
    b = ConicProgramBuilder()
    idx = b.add_vars(3)
    t1, t2 = b.add_var(), b.add_var()
    # the affine head A x - d takes hyperbolic_rows: ||Ax - d||^2 <= t1 * 1
    n = b.num_vars
    b.add_block_rows(*hyperbolic_rows((A @ unit_rows(idx, n))[None], -d[None],
                                      unit_rows(t1, n), [0.0], np.zeros((1, n)), [1.0]))
    quadratic_epigraph(b, np.sqrt(rho) * np.eye(3), idx, t2)
    b.set_objective_row(unit_rows([t1, t2], n).sum(axis=0))
    sol = solve(b.build())
    closed_form = np.linalg.solve(A.T @ A + rho * np.eye(3), A.T @ d)
    print(f"status            {sol.status.value}")
    print(f"solver x          {sol.x[:3]}")
    print(f"normal equations  {closed_form}")
    print(f"difference        {np.linalg.norm(sol.x[:3] - closed_form):.2e}")
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
