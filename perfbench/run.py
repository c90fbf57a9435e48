#!/usr/bin/env python3
"""Run one benchmark workload in this process, at one BLAS thread.

    python3 perfbench/run.py --workload long-horizon --seed 1 --seconds 45 --trace 0

Run from anywhere; soclqc is imported from ``src/`` next to this directory.
The inputs follow from ``--seed``; ``--seconds`` sets how many rounds of
operations the run performs.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Per-run records and span files go to ``perfbench/runs/``.
See README.md in this directory.
"""

from __future__ import annotations

import os

# OpenBLAS starts one thread per core by default; pin it (and OpenMP) to one
# before numpy is first imported, here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"

# nominal seconds per round at one BLAS thread on the reference machine;
# rounds = seconds / this, so a run's work depends only on its arguments
ROUND_SECONDS = {"long-horizon": 1.9, "problem-files": 3.0, "receding-horizon": 3.5}
SETUP_PROBES = 4          # extra processes that import and warm up, for setup_s


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _set_up(workload: str):
    """Import soclqc and warm it up; returns the modules and the seconds
    spent in soclqc's import and the warm-up (not the benchmark's imports)."""
    if not (SRC / "soclqc" / "__init__.py").is_file():
        print(f"error: soclqc sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import soclqc
    import soclqc.cli
    t1 = time.perf_counter()
    import workloads
    t2 = time.perf_counter()
    workloads.warm_up(soclqc, workload)
    return soclqc, workloads, (t1 - t0) + (time.perf_counter() - t2)


def _probe_setup(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(out.stdout.split()[-1])


def _openblas_symbol(lib, stem):
    """A function of an OpenBLAS build, under any of its export prefixes."""
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, prefix + stem + suffix, None)
            if fn is not None:
                return fn
    return None


def blas_info() -> list[dict]:
    """The OpenBLAS builds loaded by numpy and scipy and their thread counts."""
    import ctypes

    import numpy
    import scipy

    info = []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            threads = _openblas_symbol(lib, "get_num_threads")
            if threads is not None:
                threads.restype = ctypes.c_int
                entry["threads"] = threads()
            config = _openblas_symbol(lib, "get_config")
            if config is not None:
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
            info.append(entry)
    return info


def main(argv=None) -> int:
    args = _parse_args(argv)
    soclqc, workloads, own_setup = _set_up(args.workload)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    import numpy as np

    setup_samples = [own_setup] + [_probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        items = workloads.INPUTS[args.workload](np.random.default_rng(args.seed), rounds, str(workdir))
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(soclqc)
        outcome = workloads.run(args.workload, soclqc, items, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        errors = workloads.check(args.workload, items, outcome,
                                 np.random.default_rng([args.seed, 1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = outcome.attempted - outcome.failed
    if done == 0:
        print("\n".join(["error: no operation completed"] + outcome.failures), file=sys.stderr)
        return 1
    ops_per_s = done / outcome.wall_s
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (statistics.median(outcome.latencies_ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics(outcome.attempted)
        tracer.write(RUNS / f"{tag}-spans.json")
    blas = blas_info()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "attempted": outcome.attempted,
        "failed": outcome.failed, "wall_s": outcome.wall_s, "ops_per_s": ops_per_s,
        "setup_samples_s": setup_samples, "latencies_ms": outcome.latencies_ms,
        "blas": blas, "failures": outcome.failures, "errors": errors,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(RUNS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for msg in outcome.failures + errors:
        print(msg, file=sys.stderr)
    print("blas " + json.dumps([{k: v for k, v in e.items() if k != "config"} for e in blas]))
    print(f"{args.workload}: {outcome.attempted} operations in {rounds} rounds, "
          f"{outcome.failed} failed, {outcome.wall_s:.3f} s timed, {ops_per_s:.4f} ops/s"
          + (" (traced)" if tracer is not None else ""))
    result = {
        "correct": not errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
