"""The benchmark's traced run patches soclqc functions by module attribute
(``perfbench/spans.py``, ``TRACED``); a name missing from its module makes
every traced run fail at start-up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    paths = [path for group in spans.TRACED.values() for path in group]
    assert paths
    missing = []
    for path in paths:
        module, attr = path.split(".")
        if not callable(getattr(importlib.import_module(f"soclqc.{module}"), attr, None)):
            missing.append(path)
    assert missing == []
