"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ablation_demo_prints_one_row_per_stage(capsys):
    assert load_script("ablation_demo").main(["--seed", "7", "--images", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("-" * 68) + 1
    assert lines[start:start + 5] == [
        "raw detector output                             13   0.0917    1.138",
        "+ lateral recovery from box centers             13   0.1833    0.080",
        "+ confidence threshold (best t = 0.3)            7   0.2750    0.080",
        "+ max-ensemble over 3 models                    14   0.8125    0.066",
        "+ ignore-region filter                          11   1.0000    0.066",
    ]


@pytest.mark.parametrize("script, transcript", [
    # every reader message, accepted input and written-back byte of the corpus
    ("reader_corpus", "reader_transcript.jsonl"),
    # every sweep curve, best threshold and report byte of the scoring corpus
    ("score_corpus", "score_transcript.jsonl"),
    # every option value's exit code, error line, stdout and written scene
    ("cli_corpus", "cli_transcript.jsonl"),
    # every ensemble, recovery, threshold and ignore-filter output of the post corpus
    ("post_corpus", "post_transcript.jsonl"),
])
def test_transcript_matches_the_committed_one(script, transcript):
    fresh = load_script(script).transcript()
    assert fresh == (DATA / transcript).read_text(encoding="utf-8").splitlines()
