"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest report.
"""

import time

import numpy as np

from helpers import (
    block_feasible_grid,
    double_integrator_mpc,
    empty_ambiguity,
    grid_worst_case,
    lmi_psd_grid,
    random_lqc_spec,
    rollout_cost,
    scalar_regret_grid_oracle,
)
from soclqc.cli import bench_row
from soclqc.lqc import (
    AmbiguitySpec,
    build_compact_cost,
    build_dr_socp,
    build_regret_socp,
    build_robust_socp,
    robust_certificate_matrix,
    scalar_benchmark_spec,
)
from soclqc.mpc import build_mpc_socp, max_fixed_radius
from soclqc.oracle import max_quad_over_ball
from soclqc.slemma import QuadForm, simultaneous_diagonalize
from soclqc.solver import Status, solve
from soclqc.verify import verify_result, worst_case


def record(num: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def solve_ok(program):
    sol = solve(program)
    assert sol.status is Status.OPTIMAL, sol.status
    return sol


def random_psd(rng, n, shift=0.0):
    M = rng.standard_normal((n, n))
    return M.T @ M + shift * np.eye(n)


def test_criterion_1_cost_form_identity():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n_x, n_u, n_w = rng.integers(1, 5, 3)
        N = int(rng.integers(1, 11))
        spec = random_lqc_spec(rng, n_x, n_u, n_w, N)
        x0 = rng.standard_normal(n_x)
        cc = build_compact_cost(spec, x0)
        u = rng.standard_normal(spec.stacked_input_dim)
        w = rng.standard_normal(spec.stacked_dist_dim)
        jr = rollout_cost(spec, x0, u, w)
        worst = max(worst, abs(cc.evaluate(u, w) - jr) / (1 + abs(jr)))
    elapsed = time.perf_counter() - t0
    record(
        1,
        "compact cost matches rollout on 100 random instances",
        worst <= 1e-9 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_slemma_equivalence():
    rng = np.random.default_rng(2)
    lam_grid = np.arange(0.0, 1000.0 + 1e-9, 1e-3)
    t0 = time.perf_counter()
    disagreements = 0
    for trial in range(50):
        feasible_by_design = trial % 5 != 0  # 40 feasible, 10 likely-infeasible
        n = int(rng.integers(2, 4)) if not feasible_by_design else int(rng.integers(2, 5))
        A = random_psd(rng, n, shift=0.5)
        b = rng.standard_normal(n)
        c = rng.uniform(-1.0, 1.0)
        # Slater point: A is positive definite, so large z lies in the set
        inner = QuadForm(A, b, c)
        if feasible_by_design:
            lam0 = round(float(rng.uniform(0, 400)), 3)
            W = random_psd(rng, n + 1, shift=0.3)
            D = W[:n, :n] + lam0 * A
            e = W[:n, n] + lam0 * b
            f = W[n, n] + lam0 * c
        else:
            D = rng.standard_normal((n, n))
            D = 0.5 * (D + D.T)
            D = D - (np.linalg.eigvalsh(D)[-1] + 0.5) * np.eye(n)
            e = rng.standard_normal(n)
            f = rng.uniform(-1, 3)
        sd = simultaneous_diagonalize(A, D)
        # scan the grid slice by slice up to the first feasible multiplier;
        # block_feasible_grid decides each multiplier on its own
        lam_hit = None
        for lo in range(0, len(lam_grid), 20_000):
            blk = block_feasible_grid(inner, e, f, sd, lam_grid[lo : lo + 20_000])
            if blk.any():
                lam_hit = lam_grid[lo + np.argmax(blk)]
                break
        if lam_hit is not None:
            lmi_exists = bool(lmi_psd_grid(inner, D, e, f, np.array([lam_hit]))[0])
        else:
            lmi_exists = bool(lmi_psd_grid(inner, D, e, f, lam_grid).any())
        if (lam_hit is not None) != lmi_exists:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    record(
        2,
        "hyperbolic-block feasibility matches bordered-matrix PSD on the multiplier grid",
        disagreements == 0 and elapsed < 30.0,
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def _random_robust_cases(rng, count):
    cases = []
    for _ in range(count):
        n_w = int(rng.integers(1, 3))
        N = int(rng.integers(1, 4 if n_w == 2 else 7))  # keeps N * n_w <= 6
        n_x, n_u = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        spec = random_lqc_spec(rng, n_x, n_u, n_w, N)
        x0 = rng.standard_normal(n_x)
        cases.append((spec, x0))
    return cases


def test_criterion_3_robust_exactness():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    for spec, x0 in _random_robust_cases(rng, 30):
        socp = build_robust_socp(spec, x0)
        sol = solve_ok(socp.program)
        truth = worst_case(socp.compact, "robust", socp.extract(sol)["u"]).value(spec.gamma)
        worst = max(worst, abs(sol.objective - truth) / max(1.0, abs(truth)))
    spec = scalar_benchmark_spec(1)
    socp = build_robust_socp(spec, [-1.0])
    sol = solve_ok(socp.program)
    u_star = socp.extract(sol)["u"]
    grid_val = grid_worst_case(build_compact_cost(spec, [-1.0]), u_star, 0.1, 1e-4)
    bench_ok = (
        abs(u_star[0] - 0.4) <= 1e-6
        and abs(sol.objective - 0.601) <= 1e-6
        and abs(grid_val - 0.601) <= 1e-3
    )
    elapsed = time.perf_counter() - t0
    record(
        3,
        "robust SOCP equals exact worst case at the optimizer",
        worst <= 1e-5 and bench_ok and elapsed < 10.0,
        f"worst rel err {worst:.2e}, scalar u*={u_star[0]:.6f}, {elapsed:.1f}s",
    )


def test_criterion_4_certificate_check():
    rng = np.random.default_rng(4)
    from soclqc.slemma import check_psd

    all_psd = True
    for spec, x0 in _random_robust_cases(rng, 30):
        socp = build_robust_socp(spec, x0)
        sol = solve_ok(socp.program)
        ex = socp.extract(sol)
        M = robust_certificate_matrix(spec, socp.compact, ex["u"], ex["lam"], ex["t"])
        all_psd &= check_psd(M, 1e-6)
    record(4, "solved robust instances reconstruct a PSD certificate matrix", all_psd)


def test_criterion_5_regret():
    rng = np.random.default_rng(5)
    worst_negative = 0.0
    worst_rel = 0.0
    for spec, x0 in _random_robust_cases(rng, 30):
        socp = build_regret_socp(spec, x0)
        sol = solve_ok(socp.program)
        worst_negative = min(worst_negative, sol.objective)
        truth = worst_case(socp.compact, "regret", socp.extract(sol)["u"]).value(spec.gamma)
        worst_rel = max(worst_rel, abs(sol.objective - truth) / max(1.0, abs(truth)))
    spec = scalar_benchmark_spec(1)
    sol = solve_ok(build_regret_socp(spec, [-1.0]).program)
    oracle = scalar_regret_grid_oracle(
        spec, [-1.0], np.linspace(-0.4, 0.4, 1601), np.linspace(-0.1, 0.1, 2001)
    )
    record(
        5,
        "regret values nonnegative and matching the nested-grid oracle",
        worst_negative >= -1e-8 and abs(sol.objective - oracle) <= 1e-4,
        f"min value {worst_negative:.2e}, scalar |err| {abs(sol.objective - oracle):.2e}",
    )


def test_criterion_6_dr_degeneracy():
    rng = np.random.default_rng(6)
    ok = True
    details = []
    for spec, x0 in _random_robust_cases(rng, 10):
        rob = solve_ok(build_robust_socp(spec, x0).program)
        scale = 1 + abs(rob.objective)
        m0 = solve_ok(
            build_dr_socp(spec, x0, empty_ambiguity(spec.stacked_dist_dim)).program
        )
        ok &= abs(m0.objective - rob.objective) <= 1e-6 * scale
        amb_huge = AmbiguitySpec(np.ones((1, spec.stacked_dist_dim)), [1e6])
        inert = solve_ok(build_dr_socp(spec, x0, amb_huge).program)
        ok &= abs(inert.objective - rob.objective) <= 1e-6 * scale
        m = int(rng.integers(1, 3))
        amb = AmbiguitySpec(
            rng.standard_normal((m, spec.stacked_dist_dim)), rng.uniform(0.0, 0.3, m)
        )
        dr = solve_ok(build_dr_socp(spec, x0, amb).program)
        ok &= dr.objective <= rob.objective + 1e-8 + 1e-8 * scale
    record(6, "moment-free and inert-moment programs collapse to the robust value", ok)


def test_criterion_7_mpc_terminal_set():
    spec = double_integrator_mpc()
    x_init = np.array([2.0, 0.5])
    socp = build_mpc_socp(spec, x_init)
    sol = solve_ok(socp.program)
    report = verify_result(spec, None,
                           {"mode": "mpc", "x0": x_init, **socp.extract(sol)})
    inv, state, inputs = (check.residual for check in report if "(sampled)" in check.name)
    fixed = solve_ok(
        build_mpc_socp(
            spec, x_init, fixed_terminal=(np.zeros(2), 0.9 * max_fixed_radius(spec))
        ).program
    )
    ok = (
        all(check.ok for check in report)
        and inv <= 1e-7
        and sol.objective <= fixed.objective + 1e-8
    )
    record(
        7,
        "terminal-set invariance/containment by sampling, closed loop stays inside",
        ok,
        f"viol inv {inv:.1e} state {state:.1e} input {inputs:.1e}",
    )


def test_criterion_8_size_and_scaling():
    rows = [bench_row(N, reps=2) for N in range(10, 51, 5)]
    sizes_ok = all(
        row.n_soc_blocks == row.N and row.lmi_dim == 2 * row.N + 1 for row in rows
    )
    status_ok = all(row.status is Status.OPTIMAL for row in rows)
    t50 = rows[-1].solve_ms
    record(
        8,
        "benchmark sweep reports exact block counts and sub-second N=50 solve",
        sizes_ok and status_ok and t50 < 1000.0,
        f"N=50 solve {t50:.0f} ms",
    )


def test_criterion_9_oracle_self_consistency():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(50):
        n_w = int(rng.integers(1, 3))
        spec = random_lqc_spec(rng, 2, 1, n_w, 1)
        x0 = rng.standard_normal(2)
        cc = build_compact_cost(spec, x0)
        u = rng.uniform(-0.5, 0.5, spec.stacked_input_dim)
        wc = worst_case(cc, "robust", u)
        h = wc.lin
        res = max_quad_over_ball(cc.w_quad, h, spec.gamma)
        step = 1e-3
        grid_val = grid_worst_case(cc, u, spec.gamma, step)
        exact = wc.value(spec.gamma)
        lip = 2 * np.linalg.norm(cc.w_quad) * spec.gamma + 2 * np.linalg.norm(h)
        ok &= -1e-9 <= exact - grid_val <= 2 * step * lip + 1e-9
        # KKT residuals of the ball oracle
        scale = 1 + np.linalg.norm(h) + np.linalg.norm(cc.w_quad)
        if np.linalg.norm(res.w_star) < spec.gamma * (1 - 1e-9):
            ok &= np.linalg.norm(cc.w_quad @ res.w_star + h) <= 1e-9 * scale
        else:
            ok &= abs(np.linalg.norm(res.w_star) - spec.gamma) <= 1e-9 * max(1, spec.gamma)
            kkt = (res.multiplier * np.eye(n_w) - cc.w_quad) @ res.w_star - h
            ok &= np.linalg.norm(kkt) <= 1e-9 * scale
    record(9, "ball oracle agrees with scalar grids and satisfies its optimality system", ok)
