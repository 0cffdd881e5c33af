"""The benchmark under ``perfbench/`` still imports against the package, and
its pinned references still hold."""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The ``workloads`` and ``tracing`` modules of ``perfbench/``, imported afresh."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("tracing", "workloads")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_benchmark_workloads_import(perfbench):
    # deleting a public name the benchmark imports fails here, not in a benchmark run
    workloads, _ = perfbench
    assert Path(workloads.__file__).parent == PERFBENCH


@pytest.mark.parametrize("size", ["smoke", "full"])
def test_every_workload_reproduces_golden_json(perfbench, tmp_path, size):
    # the check every benchmark run makes before timing: an output change fails
    # here instead of as a failed benchmark run
    workloads, tracing = perfbench
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(workloads.SIZES[size][name], str(tmp_path / name))
        st = wl.setup(golden["seed"], tracing.NullTracer())
        wl.reference(st)
        assert workloads.close(wl.golden(st), golden[size][name]), name
