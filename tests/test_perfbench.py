"""The benchmark under ``perfbench/`` still imports against the package."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_workloads_import(monkeypatch):
    # deleting a public name the benchmark imports fails here, not in a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("tracing", "workloads")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        workloads = importlib.import_module("workloads")
        assert Path(workloads.__file__).parent == PERFBENCH
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
