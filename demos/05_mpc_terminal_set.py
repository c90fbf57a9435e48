"""MPC with a terminal ellipsoid chosen by the optimizer.

The terminal set {x : (x-c)' P (x-c) <= r^2} usually comes precomputed;
here its center and radius are decision variables, constrained online to be
positively invariant under the terminal controller and contained in the
state and input sets.  Letting the set move enlarges the feasible region:
an aggressive initial state can be infeasible for the fixed set yet fine
for the reconfigurable one.
"""

import numpy as np
import scipy.linalg

from soclqc import (
    MpcSpec,
    Status,
    build_mpc_socp,
    max_fixed_radius,
    solve,
    verify_result,
)


def make_spec(N):
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.5], [1.0]])
    K = np.array([[-0.4, -1.2]])
    A_cl = A + B @ K
    P = scipy.linalg.solve_discrete_lyapunov(A_cl.T, np.eye(2))
    Q, R = np.eye(2), np.eye(1)
    Q_f = scipy.linalg.solve_discrete_lyapunov(A_cl.T, Q + K.T @ R @ K)
    return MpcSpec(
        A, B,
        np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 8.0),
        np.array([[1.0], [-1.0]]), np.full(2, 1.0),
        K, P, N, Q, R, Q_f,
    )


def run(spec, x_init, fixed=None):
    socp = build_mpc_socp(spec, x_init, fixed_terminal=fixed)
    sol = solve(socp.program)
    return sol, (socp.extract(sol) if sol.status is Status.OPTIMAL else None)


def main():
    spec = make_spec(N=3)
    r0 = 0.9 * max_fixed_radius(spec)
    print(f"double integrator, horizon {spec.N}, fixed baseline radius {r0:.4f}\n")

    x_init = np.array([4.0, 0.0])
    fixed_sol, _ = run(spec, x_init, fixed=(np.zeros(2), r0))
    free_sol, ex = run(spec, x_init)
    print(f"x_init = {x_init}:")
    print(f"  fixed terminal set     {fixed_sol.status.value}")
    print(f"  movable terminal set   {free_sol.status.value}, "
          f"cost {free_sol.objective:.4f}")
    print(f"  chosen center {np.round(ex['center'], 4)}, radius {ex['radius']:.4f}")

    print("\nplanned trajectory:")
    for k, x in enumerate(ex["states"]):
        u = f", u = {ex['inputs'][k][0]:+.4f}" if k < spec.N else ""
        print(f"  x[{k}] = [{x[0]:+.4f} {x[1]:+.4f}]{u}")

    # the checks of soclqc verify, among them 50 steps of the terminal
    # controller from the planned endpoint, which the set must trap
    print("\nverification of the plan:")
    for check in verify_result(spec, None, {"mode": "mpc", "x0": x_init, **ex}):
        print(f"  [{'pass' if check.ok else 'FAIL'}] {check.name:42s} {check.residual: .1e}")

    # mild initial state: both versions feasible, movable never worse
    x_mild = np.array([2.0, 0.5])
    f_sol, _ = run(spec, x_mild, fixed=(np.zeros(2), r0))
    m_sol, _ = run(spec, x_mild)
    print(f"\nx_init = {x_mild}: fixed cost {f_sol.objective:.4f}, "
          f"movable cost {m_sol.objective:.4f}")


if __name__ == "__main__":
    main()
