"""Command-line front end: solve, verify, bench.

Exit codes: 0 success, 1 solver non-optimal, 2 input error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .lqc import (
    LQC_MODES,
    build_dr_regret_socp,
    build_dr_socp,
    build_regret_socp,
    build_robust_socp,
    build_robust_sdp_data,
    build_compact_cost,
    lqc_mode,
    scalar_benchmark_spec,
)
from .mpc import build_mpc_socp
from .oracle import max_quad_over_ball
from .problemfile import ProblemFileError, load_problem
from .slemma import QuadForm, assemble_classical_lmi, check_psd
from .solver import SolverConfig, Status, solve

EXIT_OK = 0
EXIT_NOT_OPTIMAL = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _parse_x0(text: str, n: int, name: str) -> np.ndarray:
    try:
        vals = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ProblemFileError(f"{name}: expected comma-separated numbers")
    if vals.shape != (n,):
        raise ProblemFileError(f"{name}: expected {n} entries, got {len(vals)}")
    return vals


def _check_kind(mode, kind: str) -> None:
    """Mode mpc needs an mpc problem file, every other mode an lqc one."""
    need = "mpc" if mode == "mpc" else "lqc"
    if kind != need:
        raise ProblemFileError(f"mode {mode!r} requires an {need} problem file")


def _build(mode: str, spec, amb, x0):
    if mode == "mpc":
        return build_mpc_socp(spec, x0)
    if mode == "robust":
        return build_robust_socp(spec, x0)
    if mode == "regret":
        return build_regret_socp(spec, x0)
    if mode == "dr":
        return build_dr_socp(spec, x0, amb)
    return build_dr_regret_socp(spec, x0, amb)


def cmd_solve(args) -> int:
    try:
        kind, spec, amb = load_problem(args.problem)
        _check_kind(args.mode, kind)
        x0 = _parse_x0(args.x0, spec.n_x, "--x0")
        socp = _build(args.mode, spec, amb, x0)
    except (ProblemFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    sol = solve(socp.program, SolverConfig(max_iters=args.max_iters))
    print(f"status      {sol.status.value}")
    if not sol.optimal:
        print(f"reason      {sol.reason}")
    print(f"objective   {sol.objective:.12g}")
    print(f"iterations  {sol.iterations}")
    print(f"residuals   primal {sol.res_primal:.3e}  dual {sol.res_dual:.3e}  "
          f"gap {sol.res_gap:.3e}")
    ex = socp.extract(sol)
    if args.mode == "mpc":
        print(f"center      {ex['center']}")
        print(f"radius      {ex['radius']:.12g}")
        print("trajectory:")
        for k, row in enumerate(ex["states"]):
            print(f"  x[{k}] = {row}")
    else:
        print(f"u*          {ex['u']}")
    if args.out:
        result = {"mode": args.mode, "x0": x0, "status": sol.status.value,
                  "objective": sol.objective, "iterations": sol.iterations, **ex}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({k: np.asarray(v).tolist() for k, v in result.items()}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print(f"result written to {args.out}")
    return EXIT_OK if sol.status is Status.OPTIMAL else EXIT_NOT_OPTIMAL


# ---------------------------------------------------------------------------
# verification


def _check(name: str, residual: float, tol: float, report: list) -> None:
    ok = residual <= tol
    report.append((name, residual, tol, ok))


def _verify_lqc(spec, amb, result) -> list:
    mode = result["mode"]
    kernel, amb = lqc_mode(mode, amb)
    x0 = np.array(result["x0"], dtype=float)
    u = np.array(result["u"], dtype=float)
    lam = float(result["lam"])
    t = np.array(result["t"], dtype=float)
    beta = np.array(result.get("beta", []), dtype=float)
    obj = float(result["objective"])
    cc = build_compact_cost(spec, x0)
    gamma = spec.gamma
    report: list = []

    feas = float(np.max(spec.u_poly_G @ u - spec.u_poly_h, initial=0.0))
    _check("input-set feasibility", feas, 1e-6, report)
    _check("multiplier nonnegative", -lam, 1e-9, report)

    # the moment multipliers beta shift the disturbance heads and add mu'beta
    if amb is not None and beta.size:
        shift, extra = 0.5 * amb.H.T @ beta, float(amb.mu @ beta)
    else:
        shift, extra = 0.0, 0.0
    base = float(u @ cc.u_quad @ u + 2 * cc.u_lin @ u)
    if kernel == "robust":
        h_eff = cc.w_lin + cc.cross.T @ u - shift
        quad_eff = cc.w_quad
        base += cc.constant
    else:
        uq_inv_ulin = np.linalg.solve(cc.u_quad, cc.u_lin)
        h_eff = cc.cross.T @ (uq_inv_ulin + u) - shift
        quad_eff = cc.cross.T @ np.linalg.solve(cc.u_quad, cc.cross)
        base += float(cc.u_lin @ uq_inv_ulin)

    # the epigraph bound certified by (lam, t) must dominate the exact
    # ball maximum of the shifted disturbance quadratic
    ball = max_quad_over_ball(quad_eff, h_eff, gamma) if np.any(h_eff) or np.any(quad_eff) \
        else None
    bound = float(np.sum(t)) + gamma**2 * lam
    wc = ball.value if ball is not None else 0.0
    _check("epigraph dominates ball maximum", wc - bound, 1e-6 * (1 + abs(wc)), report)
    _check(
        "objective consistency",
        abs(obj - (base + bound + extra)),
        1e-5 * (1 + abs(obj)),
        report,
    )
    if amb is None:
        # without moment information the bound is tight at the optimum
        _check("objective matches ball oracle",
               abs(obj - (base + wc + extra)), 1e-5 * (1 + abs(obj)), report)

    # classical matrix-inequality certificate at the reported multiplier
    inner = QuadForm.ball(gamma, quad_eff.shape[0])
    lmi = assemble_classical_lmi(
        inner, -quad_eff, -h_eff, float(np.sum(t)) + gamma**2 * lam, lam
    )
    ok = check_psd(lmi, 1e-6)
    report.append(("certificate matrix PSD", 0.0 if ok else 1.0, 0.5, ok))

    if mode == "robust":
        cert = build_robust_sdp_data(spec, x0)
        big = cert.assemble(u, lam, t)
        ok = check_psd(big, 1e-6)
        report.append(("bordered certificate PSD", 0.0 if ok else 1.0, 0.5, ok))

    if mode == "regret":
        _check("regret nonnegative", -obj, 1e-8, report)

    # sampled disturbances never beat the reported bound
    rng = np.random.default_rng(0)
    n_w = quad_eff.shape[0]
    W = rng.standard_normal((10_000, n_w))
    W *= (gamma * rng.random(10_000) ** (1.0 / n_w) / np.linalg.norm(W, axis=1))[:, None]
    vals = np.einsum("ij,jk,ik->i", W, quad_eff, W) + 2.0 * W @ h_eff
    _check("sampled disturbances below bound", float(np.max(vals)) - bound,
           1e-6 * (1 + abs(bound)), report)
    return report


def _verify_mpc(spec, result) -> list:
    x0 = np.array(result["x0"], dtype=float)
    states = np.array(result["states"], dtype=float)
    inputs = np.array(result["inputs"], dtype=float)
    c = np.array(result["center"], dtype=float)
    r = float(result["radius"])
    report: list = []

    dyn = 0.0
    for k in range(spec.N):
        pred = spec.A @ states[k] + spec.B @ inputs[k]
        dyn = max(dyn, float(np.max(np.abs(pred - states[k + 1]))))
    _check("dynamics residual", dyn, 1e-6, report)
    _check("initial state match", float(np.max(np.abs(states[0] - x0))), 1e-9, report)

    state_viol = max(
        (float(np.max(spec.E @ states[k] - spec.f)) for k in range(1, spec.N)),
        default=0.0,
    )
    _check("path state constraints", state_viol, 1e-6, report)
    input_viol = max(float(np.max(spec.G @ u - spec.h)) for u in inputs)
    _check("input constraints", input_viol, 1e-6, report)

    xN = states[-1]
    _check("terminal membership", float((xN - c) @ spec.P @ (xN - c)) - r**2, 1e-6, report)

    A_cl = spec.A_cl
    rng = np.random.default_rng(0)
    D = rng.standard_normal((1000, spec.n_x))
    D /= np.linalg.norm(D, axis=1)[:, None]
    X = c + r * (D @ spec.p_inv_sqrt())
    inv_viol = max(float((A_cl @ x - c) @ spec.P @ (A_cl @ x - c)) - r**2 for x in X)
    _check("terminal set invariance (sampled)", inv_viol, 1e-7 * (1 + r**2), report)
    _check("terminal set in state set (sampled)",
           float(np.max(spec.E @ X.T - spec.f[:, None])), 1e-7, report)
    _check("terminal controller in input set (sampled)",
           float(np.max(spec.G @ spec.K @ X.T - spec.h[:, None])), 1e-7, report)

    x = xN.copy()
    worst = -np.inf
    for _ in range(50):
        x = A_cl @ x
        worst = max(worst, float((x - c) @ spec.P @ (x - c)) - r**2)
    _check("closed loop stays in terminal set", worst, 1e-6, report)
    return report


def cmd_verify(args) -> int:
    try:
        kind, spec, amb = load_problem(args.problem)
        with open(args.result, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        mode = result.get("mode")
        _check_kind(mode, kind)
        report = _verify_mpc(spec, result) if mode == "mpc" else _verify_lqc(spec, amb, result)
    except KeyError as exc:
        print(f"error: result file missing field {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ProblemFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    all_ok = True
    for name, residual, tol, ok in report:
        flag = "pass" if ok else "FAIL"
        print(f"[{flag}] {name:40s} residual {residual: .3e}  (tol {tol:.1e})")
        all_ok &= ok
    print("verification", "passed" if all_ok else "FAILED")
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# benchmark


@dataclass
class BenchRecord:
    N: int
    build_ms: float
    solve_ms: float
    iterations: int
    objective: float
    n_soc_blocks: int
    lmi_dim: int
    status: Status

    def csv_row(self) -> str:
        return (f"{self.N},{self.build_ms:.3f},{self.solve_ms:.3f},"
                f"{self.iterations},{self.objective:.12g},"
                f"{self.n_soc_blocks},{self.lmi_dim}")


def bench_row(N: int, reps: int) -> BenchRecord:
    """One benchmark point: scalar family, times averaged over reps."""
    x0 = np.array([-1.0])
    build_ms = []
    solve_ms = []
    sol = None
    socp = None
    for _ in range(reps):
        spec_fresh = scalar_benchmark_spec(N)
        t0 = time.perf_counter()
        socp = build_robust_socp(spec_fresh, x0)
        t1 = time.perf_counter()
        sol = solve(socp.program)
        t2 = time.perf_counter()
        build_ms.append((t1 - t0) * 1e3)
        solve_ms.append((t2 - t1) * 1e3)
    return BenchRecord(
        N=N,
        build_ms=float(np.mean(build_ms)),
        solve_ms=float(np.mean(solve_ms)),
        iterations=sol.iterations,
        objective=sol.objective,
        n_soc_blocks=socp.n_cone_q,
        lmi_dim=socp.lmi_dim,
        status=sol.status,
    )


BENCH_HEADER = "N,build_ms,solve_ms,iterations,objective,n_soc_blocks,lmi_dim"


def cmd_bench(args) -> int:
    try:
        horizons = [int(v) for v in args.N.split(",")]
        if not horizons or any(n < 1 for n in horizons):
            raise ValueError
    except ValueError:
        print("error: --N expects a comma-separated list of positive integers",
              file=sys.stderr)
        return EXIT_INPUT
    if args.reps < 1:
        print("error: --reps must be at least 1", file=sys.stderr)
        return EXIT_INPUT

    rows = [bench_row(n, args.reps) for n in horizons]

    lines = [BENCH_HEADER]
    all_opt = True
    for row in rows:
        lines.append(row.csv_row())
        all_opt &= row.status is Status.OPTIMAL
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK if all_opt else EXIT_NOT_OPTIMAL


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soclqc",
        description="Robust LQC / MPC second-order cone toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="problem file path")
    p_solve.add_argument("--mode", required=True,
                         choices=list(LQC_MODES) + ["mpc"])
    p_solve.add_argument("--x0", required=True,
                         help="initial state, comma-separated")
    p_solve.add_argument("--out", default=None, help="write result JSON here")
    p_solve.add_argument("--max-iters", type=int, default=100)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a solved result")
    p_verify.add_argument("problem", help="problem file path")
    p_verify.add_argument("result", help="result JSON from solve --out")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="scalar benchmark family sweep")
    p_bench.add_argument("--N", required=True,
                         help="comma-separated horizon list, e.g. 10,20,30")
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--out", default=None, help="CSV output path")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-" and is not a plain number,
    # such as "-1,0.5", as an option; attaching it to --x0 lets the
    # space-separated form take any initial state
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--x0":
            argv[i : i + 2] = [f"--x0={argv[i + 1]}"]
        i += 1
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
