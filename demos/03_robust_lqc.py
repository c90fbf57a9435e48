"""Worst-case linear-quadratic control as a second-order cone program.

Scalar system x+ = x + u + w with geometrically decaying weights, inputs
boxed to +-0.4 and the stacked disturbance bounded by ||w|| <= 0.1.  The
min-max problem becomes a small SOCP whose size grows linearly with the
horizon; every solution is cross-checked against the exact ball maximizer
and the matrix-inequality certificate.
"""

import time

import numpy as np

from soclqc import (
    build_robust_socp,
    max_quad_over_ball,
    receding_horizon_simulate,
    scalar_benchmark_spec,
    solve,
    verify_result,
    worst_case,
)


def sweep_horizons():
    print(f"{'N':>4} {'objective':>12} {'iters':>6} {'solve ms':>9} "
          f"{'oracle gap':>11} {'certificate':>12}")
    for N in (1, 5, 10, 20, 30, 40, 50):
        spec = scalar_benchmark_spec(N)
        x0 = np.array([-1.0])
        socp = build_robust_socp(spec, x0)
        t0 = time.perf_counter()
        sol = solve(socp.program)
        ms = (time.perf_counter() - t0) * 1e3
        result = {"mode": "robust", "x0": x0, **socp.extract(sol)}
        report = {check.name: check for check in verify_result(spec, None, result)}
        gap = report["objective matches ball oracle"].residual
        psd = report["bordered certificate PSD"].ok
        print(f"{N:>4} {sol.objective:>12.6f} {sol.iterations:>6} {ms:>9.1f} "
              f"{gap:>11.2e} {'PSD' if psd else 'BROKEN':>12}")


def closed_loop():
    print("\nreceding horizon, persistent disturbance w = -0.08:")
    spec = scalar_benchmark_spec(6)
    rec = receding_horizon_simulate(spec, [-1.0], np.full((8, 1), -0.08))
    for k, (x, u) in enumerate(zip(rec.states[:-1], rec.inputs)):
        print(f"  step {k}: x = {x[0]:+.4f}  applied u = {u[0]:+.4f}  "
              f"worst-case bound = {rec.objectives[k]:.4f}")
    print(f"  final state x = {rec.states[-1][0]:+.4f}")


def attained_bound():
    print("\nworst-case disturbance really attains the bound (N = 4):")
    spec = scalar_benchmark_spec(4)
    x0 = np.array([-1.0])
    socp = build_robust_socp(spec, x0)
    sol = solve(socp.program)
    u = socp.extract(sol)["u"]
    wc = worst_case(socp.compact, "robust", u)
    ball = max_quad_over_ball(wc.quad, wc.lin, spec.gamma)
    print(f"  SOCP bound        {sol.objective:.9f}")
    print(f"  J at worst w      {socp.compact.evaluate(u, ball.w_star):.9f}")
    print(f"  worst w           {np.round(ball.w_star, 5)}  (norm "
          f"{np.linalg.norm(ball.w_star):.4f}, ball radius {spec.gamma})")


if __name__ == "__main__":
    sweep_horizons()
    attained_bound()
    closed_loop()
