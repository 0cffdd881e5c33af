"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "ablation_demo.py"


def load_demo():
    spec = importlib.util.spec_from_file_location("ablation_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ablation_demo_prints_one_row_per_stage(capsys):
    assert load_demo().main(["--seed", "7", "--images", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("-" * 68) + 1
    assert lines[start:start + 5] == [
        "raw detector output                             13   0.0917    1.138",
        "+ lateral recovery from box centers             13   0.1833    0.080",
        "+ confidence threshold (best t = 0.3)            7   0.2750    0.080",
        "+ max-ensemble over 3 models                    14   0.8125    0.066",
        "+ ignore-region filter                          11   1.0000    0.066",
    ]
