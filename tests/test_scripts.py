"""Smoke tests for the scripts under ``scripts/``."""

import argparse
import importlib.util
import json
import shutil
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


def _benchmark_copy(dest: Path, with_sources: bool = True) -> Path:
    """A copy of the files ``perfbench/run.py`` needs to run from ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def test_perf_ab_on_two_copies_of_one_tree_finds_no_gain_and_no_refusal(tmp_path, capsys):
    parent, change = _benchmark_copy(tmp_path / "parent"), _benchmark_copy(tmp_path / "change")
    code = load_script("perf_ab").main(["--parent", str(parent), "--change", str(change),
                                        "--workload", "score-sparse", "--seeds", "3",
                                        "--size", "smoke", "--seconds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("pair 1 seed 3 score-sparse (parent first): latency_p50_s ")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert json.loads(out[-1]) == {"refused": False, "verdicts": {
        f"score-sparse {name}": "too few pairs" for name in names}}


def test_perf_ab_refuses_trees_whose_benchmark_differs(tmp_path, capsys):
    parent = _benchmark_copy(tmp_path / "parent", with_sources=False)
    change = _benchmark_copy(tmp_path / "change", with_sources=False)
    with open(change / "perfbench" / "golden.json", "a", encoding="utf-8") as handle:
        handle.write(" ")
    code = load_script("perf_ab").main(["--parent", str(parent), "--change", str(change)])
    assert code == 2
    assert capsys.readouterr().err == (f"refused: the benchmark differs between the trees: "
                                       f"{parent / 'perfbench' / 'golden.json'}\n")


def test_perf_ab_refuses_a_run_that_is_not_correct(tmp_path, capsys):
    result = {"correct": False, "attempted": 4, "failed": 1,
              "metrics": {"ok_op_ratio": {"value": 0.75, "unit": "ratio"}}}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(f"print({json.dumps(result)!r})\n")
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side / "BENCHMARK.json")
    code = load_script("perf_ab").main(["--parent", str(tmp_path / "parent"),
                                        "--change", str(tmp_path / "change"),
                                        "--workload", "sweep-dense", "--seeds", "7"])
    assert code == 2
    assert capsys.readouterr().err == (f"refused: {tmp_path / 'parent'}: sweep-dense seed 7: "
                                       f"correct=False, failed 1 of 4 operations\n")


@pytest.mark.parametrize("parent, change, verdict", [
    # won 10 of 10, and the medians 0.8 apart against a parent IQR of 0.45
    ([10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3],
     [9.2, 9.4, 9.6, 9.3, 9.5, 9.2, 9.4, 9.6, 9.3, 9.5], "gain"),
    # won 10 of 10, but the gap (0.05) is inside the parent's IQR
    ([10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3],
     [9.95, 10.15, 10.35, 10.05, 10.25, 9.95, 10.15, 10.35, 10.05, 10.25], "-"),
    # won 8 of 10: not nine in ten
    ([10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3],
     [9.2, 9.4, 9.6, 9.3, 9.5, 9.2, 9.4, 9.6, 10.2, 10.4], "-"),
    ([9.2, 9.4, 9.6, 9.3, 9.5, 9.2, 9.4, 9.6, 9.3, 9.5],
     [10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3], "worse"),
    ([1.0] * 10, [1.3] * 10, "over bound"),
    # five pairs all won, which gave "gain" when five pairs sufficed
    ([10.0, 10.2, 10.4, 10.1, 10.3], [9.2, 9.4, 9.6, 9.3, 9.5], "too few pairs"),
    ([10.0, 10.2, 10.4, 10.1], [9.2, 9.4, 9.6, 9.3], "too few pairs"),
    # the parent's IQR is two thirds of its median against a bound of 0.2: even a change
    # 1.5x slower cannot be told from it
    ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [1.5, 3.0] * 5, "unresolved"),
    # as wide, but every change run beats every parent run
    ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [0.1, 0.2] * 5, "gain"),
])
def test_perf_ab_verdicts(parent, change, verdict):
    spec = {"name": "latency_p50_s", "better": "lower", "bound": 0.2}
    assert load_script("perf_ab").compare(spec, parent, change)["verdict"] == verdict


def test_perf_ab_gives_no_verdict_to_a_shift_far_inside_the_bound():
    # peak_rss_mb 45.3555 -> 45.5312 MiB (+0.4 %, bound 10 %), lost 9 of 10 pairs
    # with a gap of 1.25 parent IQRs (0.14 MiB): it read "worse" before the floor
    parent = [45.22, 45.25, 45.27, 45.33, 45.35, 45.361, 45.37, 45.40, 45.42, 45.45]
    change = [45.21] + [p + 0.1757 for p in parent[1:]]
    spec = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
    row = load_script("perf_ab").compare(spec, parent, change)
    assert row["parent"][0] == pytest.approx(45.3555) and row["change"][0] == pytest.approx(45.5312)
    assert row["parent"][2] - row["parent"][1] == pytest.approx(0.14)
    assert (row["won"], row["gap_iqr"] > 1.0, row["verdict"]) == (1, True, "-")
    # every change run 1 % higher: the median moved by more than a tenth of
    # the bound, so the verdict stands
    row = load_script("perf_ab").compare(spec, parent, [c * 1.01 for c in change])
    assert row["verdict"] == "worse"


def test_perf_ab_lists_the_runs_outside_each_sides_quartiles(capsys):
    # the parent's seed-531 run reads 12 % below its other nine, as one did in
    # a sweep-dense A/B, and the change's seed-540 run reads high; the second
    # metric has no outlier on either side
    parent = [0.00162, 0.00182, 0.00183, 0.00184, 0.00185, 0.00186, 0.00187, 0.00188, 0.00185,
              0.00184]
    change = [0.00176, 0.00175, 0.00177, 0.00176, 0.00178, 0.00175, 0.00177, 0.00176, 0.00178,
              0.00199]
    runs = {("sweep-dense", side): [{"latency_p50_s": v, "setup_s": 0.3 + 0.01 * i}
                                    for i, v in enumerate(values)]
            for side, values in (("parent", parent), ("change", change))}
    specs = [{"name": "latency_p50_s", "better": "lower", "bound": 0.2},
             {"name": "setup_s", "better": "lower", "bound": 0.25}]
    args = argparse.Namespace(seeds=list(range(531, 541)), seconds=30.0, trace=0)
    perf_ab = load_script("perf_ab")
    perf_ab.report(["sweep-dense"], specs, runs, args)
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "  runs beyond 1.5 IQR of their side's quartiles:",
        "    latency_p50_s parent: seed 531 0.00162",
        "    latency_p50_s change: seed 540 0.00199",
    ]
    assert perf_ab.outliers(args.seeds, [0.3 + 0.01 * i for i in range(10)]) == []
    runs = {key: [{"latency_p50_s": 0.00185, "setup_s": 0.3}] * 10 for key in runs}
    perf_ab.report(["sweep-dense"], specs, runs, args)
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  runs beyond 1.5 IQR of their side's quartiles: none")
