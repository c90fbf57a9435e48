"""Spans around soclqc's public functions, for the traced run.

``Tracer.install`` replaces each traced function under every name that a
soclqc module looks it up by (``soclqc.lqc.solve``, ``soclqc.cli.solve``,
...), and ``scipy.linalg.lu_factor`` / ``lu_solve``, which the solver calls
through the ``scipy.linalg`` module.  Each call appends one span
``[name, op, parent, start, end]`` to a list in memory; counts taken from
arguments and results are kept beside it.  ``write`` dumps the spans at the
end of the run.  Nothing is wrapped in an untraced run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import scipy.linalg

# traced function -> [(module attribute path, ...)], all relative to soclqc
TRACED = {
    "solver.solve": ["solver.solve", "lqc.solve", "cli.solve"],
    "lqc.build": [
        "lqc.build_robust_socp", "cli.build_robust_socp",
        "lqc.build_regret_socp", "cli.build_regret_socp",
        "lqc.build_dr_socp", "cli.build_dr_socp",
        "lqc.build_dr_regret_socp", "cli.build_dr_regret_socp",
    ],
    "lqc.compact_cost": ["lqc.build_compact_cost", "cli.build_compact_cost"],
    "slemma.diag": [
        "slemma.simultaneous_diagonalize", "lqc.simultaneous_diagonalize",
        "mpc.simultaneous_diagonalize",
    ],
    "problemfile.parse": ["problemfile.parse_problem"],
    "mpc.build": ["mpc.build_mpc_socp", "cli.build_mpc_socp"],
    "oracle.ball_max": ["oracle.max_quad_over_ball", "cli.max_quad_over_ball"],
    "cli.solve": ["cli.cmd_solve"],
    "cli.verify": ["cli.cmd_verify"],
}

TIMED = ["solver.solve", "solver.lu_factor", "lqc.build", "lqc.compact_cost",
         "model.build", "slemma.diag", "problemfile.parse", "mpc.build",
         "oracle.ball_max", "cli.solve", "cli.verify"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.kkt_dim = 0
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, soclqc) -> None:
        c = self.counts

        def on_solve(args, sol):
            c["solver.iterations"] += sol.iterations

        def on_factor(args, out):
            d = args[0].shape[0]
            c["solver.lu_factor_calls"] += 1
            c["solver.factor_gflop"] += 2.0 * d**3 / 3.0 / 1e9
            self.kkt_dim = max(self.kkt_dim, d)

        def on_lu_solve(args, out):
            c["solver.lu_solve_calls"] += 1

        def on_build(args, prog):
            c["model.num_vars"] += prog.num_vars
            c["model.cone_rows"] += sum(blk.dim for blk in prog.blocks)
            c["model.blocks"] += len(prog.blocks)

        def calls(key):
            def on_call(args, out):
                c[key] += 1
            return on_call

        hooks = {"solver.solve": on_solve, "slemma.diag": calls("slemma.diag_calls"),
                 "oracle.ball_max": calls("oracle.ball_max_calls")}
        for name, paths in TRACED.items():
            wrappers = {}  # one wrapper per distinct function
            for path in paths:
                module, attr = path.split(".")
                owner = getattr(soclqc, module)
                fn = getattr(owner, attr)
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(name, fn, hooks.get(name))
                self._patch(owner, attr, wrappers[fn])
        builder = soclqc.model.ConicProgramBuilder
        self._patch(builder, "build", self._wrap("model.build", builder.build, on_build))
        self._patch(scipy.linalg, "lu_factor",
                    self._wrap("solver.lu_factor", scipy.linalg.lu_factor, on_factor))
        self._patch(scipy.linalg, "lu_solve",
                    self._wrap("solver.lu_solve", scipy.linalg.lu_solve, on_lu_solve))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def busy_ms(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _, _, t0, t1 in self.spans:
            out[name] += (t1 - t0) * 1e3
        return out

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: busy ms and counts per operation."""
        busy, c = self.busy_ms(), self.counts
        per_op = {
            f"{name}_ms": (busy[name] / n_ops, "ms") for name in TIMED
        }
        for key in ("solver.iterations", "solver.lu_factor_calls", "solver.lu_solve_calls",
                    "model.num_vars", "model.cone_rows", "model.blocks",
                    "slemma.diag_calls", "oracle.ball_max_calls"):
            per_op[key] = (c[key] / n_ops, "count")
        per_op["solver.factor_gflop"] = (c["solver.factor_gflop"] / n_ops, "GFLOP")
        per_op["solver.kkt_dim"] = (float(self.kkt_dim), "count")
        per_op["solver.ms_per_iteration"] = (
            busy["solver.solve"] / max(c["solver.iterations"], 1.0), "ms")
        return per_op

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "op", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh, separators=(",", ":"))
