"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "data" / "reader_transcript.jsonl"
SCORE_TRANSCRIPT = ROOT / "tests" / "data" / "score_transcript.jsonl"
CLI_TRANSCRIPT = ROOT / "tests" / "data" / "cli_transcript.jsonl"
POST_TRANSCRIPT = ROOT / "tests" / "data" / "post_transcript.jsonl"


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


def test_reader_transcript_matches_the_committed_one():
    """Every reader message, accepted input and written-back byte of the corpus."""
    fresh = load_script("reader_corpus").transcript()
    assert fresh == TRANSCRIPT.read_text(encoding="utf-8").splitlines()


def test_score_transcript_matches_the_committed_one():
    """Every sweep curve, best threshold and report byte of the scoring corpus."""
    fresh = load_script("score_corpus").transcript()
    assert fresh == SCORE_TRANSCRIPT.read_text(encoding="utf-8").splitlines()


def test_cli_transcript_matches_the_committed_one():
    """Every option value's exit code, error line, stdout and written scene."""
    fresh = load_script("cli_corpus").transcript()
    assert fresh == CLI_TRANSCRIPT.read_text(encoding="utf-8").splitlines()


def test_post_transcript_matches_the_committed_one():
    """Every ensemble, recovery, threshold and ignore-filter output of the post corpus."""
    fresh = load_script("post_corpus").transcript()
    assert fresh == POST_TRANSCRIPT.read_text(encoding="utf-8").splitlines()
