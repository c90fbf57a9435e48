"""Command-line front end: solve, verify, bench.

``verify`` loads the problem and result files, takes its report from
:func:`soclqc.verify.verify_result` and prints one line per check.

The parser is built once per process; ``main`` looks up the ``cmd_*``
function of the command at each call, so a wrapper installed on this module
(the benchmark tracer's, for one) sees the call.

Exit codes: 0 success, 1 solver non-optimal, 2 input error (including a
malformed result file), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
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
    scalar_benchmark_spec,
)
from .mpc import build_mpc_socp
from .problemfile import ProblemFileError, load_problem, require_kind
from .solver import Status, solve
from .verify import verify_result

# not called here: the benchmark tracer (perfbench/spans.py) patches them on this module
from .lqc import build_compact_cost
from .oracle import max_quad_over_ball

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
    if not np.all(np.isfinite(vals)):
        raise ProblemFileError(f"{name}: entries must be finite")
    return vals


def _write_out(path: str, text: str) -> bool:
    """Write an --out file; on failure print the error and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


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
        spec, amb = load_problem(args.problem)
        require_kind(args.mode, spec)
        x0 = _parse_x0(args.x0, spec.n_x, "--x0")
        if args.max_iters < 1:
            raise ValueError("--max-iters: must be at least 1")
        socp = _build(args.mode, spec, amb, x0)
    except (ProblemFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    sol = solve(socp.program, args.max_iters)
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
        text = json.dumps({k: np.asarray(v).tolist() for k, v in result.items()},
                          indent=2, sort_keys=True) + "\n"
        if not _write_out(args.out, text):
            return EXIT_INPUT
        print(f"result written to {args.out}")
    return EXIT_OK if sol.status is Status.OPTIMAL else EXIT_NOT_OPTIMAL


def cmd_verify(args) -> int:
    try:
        spec, amb = load_problem(args.problem)
        with open(args.result, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        report = verify_result(spec, amb, result)
    except (ProblemFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    for name, residual, tol, ok in report:
        print(f"[{'pass' if ok else 'FAIL'}] {name:40s} residual {residual: .3e}  (tol {tol:.1e})")
    all_ok = all(check.ok for check in report)
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
        n_soc_blocks=len(socp.t_index),
        lmi_dim=len(socp.y_index) + len(socp.t_index) + 1,
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
        if not _write_out(args.out, text):
            return EXIT_INPUT
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK if all_opt else EXIT_NOT_OPTIMAL


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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

    p_verify = sub.add_parser("verify", help="check a solved result")
    p_verify.add_argument("problem", help="problem file path")
    p_verify.add_argument("result", help="result JSON from solve --out")

    p_bench = sub.add_parser("bench", help="scalar benchmark family sweep")
    p_bench.add_argument("--N", required=True,
                         help="comma-separated horizon list, e.g. 10,20,30")
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--out", default=None, help="CSV output path")
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
    # the command is looked up here, at call time, so that a wrapper
    # installed on this module after the parser was built sees the call
    command = {"solve": cmd_solve, "verify": cmd_verify, "bench": cmd_bench}[args.command]
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
