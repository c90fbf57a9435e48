"""The benchmark's traced run patches soclqc functions by module attribute
(``perfbench/spans.py``, ``TRACED``); a name missing from its module makes
every traced run fail at start-up, and a call through a name bound at import
escapes the tracer."""

import importlib
import importlib.util
from pathlib import Path

import soclqc
from helpers import double_integrator_mpc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = load_spans()
    paths = [path for group in spans.TRACED.values() for path in group]
    assert paths
    missing = []
    for path in paths:
        module, attr = path.split(".")
        if not callable(getattr(importlib.import_module(f"soclqc.{module}"), attr, None)):
            missing.append(path)
    assert missing == []


def test_verify_calls_are_traced(tmp_path, capsys):
    problem, result = str(tmp_path / "p.json"), str(tmp_path / "r.json")
    soclqc.save_problem(problem, soclqc.scalar_benchmark_spec(2))
    assert soclqc.cli.main(["solve", problem, "--mode", "robust", "--x0", "-1",
                            "--out", result]) == 0
    tracer = load_spans().Tracer()
    tracer.install(soclqc)
    try:
        assert soclqc.cli.main(["verify", problem, result]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    parents = {(name, spans[parent][0]) for name, _, parent, _, _ in spans if parent >= 0}
    assert {("oracle.ball_max", "cli.verify"), ("lqc.compact_cost", "cli.verify")} <= parents


def test_build_counts_match_the_program_layout():
    # the traced run counts cone rows and blocks from ConicProgram.blocks
    tracer = load_spans().Tracer()
    tracer.install(soclqc)
    try:
        programs = [
            soclqc.build_robust_socp(soclqc.scalar_benchmark_spec(5), [0.5]).program,
            soclqc.build_mpc_socp(double_integrator_mpc(4), [2.0, 0.5]).program,
        ]
    finally:
        tracer.uninstall()
    assert tracer.counts["model.cone_rows"] == sum(p.G.shape[0] for p in programs)
    assert tracer.counts["model.blocks"] == sum(p.nn + sum(k for k, _ in p.soc) for p in programs)
    assert tracer.counts["model.num_vars"] == sum(p.num_vars for p in programs)
