"""A/B benchmark of two checkouts: alternating runs, medians, quartiles, pairs won.

    python3 scripts/perf_ab.py --parent ../before --change . --seeds 601-610 --seconds 30
    python3 scripts/perf_ab.py --parent ../before --change . --workload post-ensemble \\
        --trace 1 --ratio records.load_s/metrics.map_s

For each seed and workload it runs ``perfbench/run.py`` once in each tree,
the parent first on even-numbered pairs and the change first on odd ones,
and reads the run's last JSON line. It refuses to report (exit 2) if the
two trees' ``perfbench/`` or ``BENCHMARK.json`` differ, or if any run is
not ``correct`` or has an ``ok_op_ratio`` below 1.

For every metric of ``BENCHMARK.json`` (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``) and every ``--ratio``, taken within each
run, it prints per side the median [q1, q3], the relative change of the
medians, the pairs the change won, and the gap between the medians in
units of the parent's interquartile range. The verdict is ``gain`` when
the change won at least nine in ten pairs and the gap exceeds that range,
``worse`` for the same the other way, and ``over bound`` when an
end-to-end median is worse by more than its bound. A metric with a bound
gets ``gain`` or ``worse`` only when its median also moved by more than a
tenth of that bound: a quartile range far inside the bound, as
``peak_rss_mb``'s often is, would otherwise call a shift that matters to
no bound a change. It is ``unresolved``
when a metric has a bound and the parent's interquartile range, relative
to its median, is wider than that bound, unless every change run is better
than every parent run: such runs spread too widely to tell. Under ten
pairs it gives none. Under each workload's rows it lists, per metric and
side, the runs more than 1.5 IQR outside that side's quartiles, by seed and
value: one odd run can spend the one pair in ten that a ``gain`` may lose.
Its last line is one JSON object with every verdict.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("score-sparse", "sweep-dense", "post-ensemble")
WIN_SHARE = 0.9
# a bounded metric's median must move by more than this share of its bound
# for a gain or worse verdict
NOISE_FLOOR = 0.1
# a gain needs nine in ten pairs won, so fewer than ten pairs get no verdict
MIN_PAIRS = 10
# a run this many of its side's IQRs below q1 or above q3 is listed as an outlier
OUTLIER_IQR = 1.5


class Refused(Exception):
    """The two trees or a run do not allow a comparison."""


def parse_seeds(text: str) -> list[int]:
    """``601-610`` or ``1,5,9`` (ranges and commas mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"no seeds >= 0 in {text!r}")
    return seeds


def _trees_differ(a: Path, b: Path) -> list[str]:
    """Paths below ``a`` and ``b`` whose bytes differ or that only one has."""
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__"])
    diffs = [str(a / name) for name in cmp.left_only + cmp.right_only + cmp.common_funny]
    mismatched = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)[1]
    diffs += [str(a / name) for name in mismatched]
    for name in cmp.common_dirs:
        diffs += _trees_differ(a / name, b / name)
    return diffs


def check_trees(parent: Path, change: Path) -> None:
    for tree in (parent, change):
        if not ((tree / "perfbench" / "run.py").is_file() and (tree / "BENCHMARK.json").is_file()):
            raise Refused(f"{tree} has no perfbench/run.py or BENCHMARK.json")
    diffs = _trees_differ(parent / "perfbench", change / "perfbench")
    if not filecmp.cmp(parent / "BENCHMARK.json", change / "BENCHMARK.json", shallow=False):
        diffs.append(str(parent / "BENCHMARK.json"))
    if diffs:
        raise Refused(f"the benchmark differs between the trees: {', '.join(diffs)}")


def run_once(tree: Path, workload: str, seed: int, args) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its metric values by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=args.seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Refused(f"{tree}: {' '.join(cmd[1:])} exited with {proc.returncode}: "
                      f"{proc.stderr.strip()[-1000:]}")
    result = json.loads(lines[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    # a traced run prints no ok_op_ratio, so it is taken from the counts
    ok_ratio = values.get("ok_op_ratio", 1.0 - result["failed"] / result["attempted"])
    if result["correct"] is not True or ok_ratio < 1.0:
        raise Refused(f"{tree}: {workload} seed {seed}: correct={result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']} operations")
    for ratio in args.ratio:
        numerator, denominator = ratio.split("/")
        values[ratio] = values[numerator] / values[denominator]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def outliers(seeds: list[int], values: list[float]) -> list[tuple[int, float]]:
    """The (seed, value) runs more than ``OUTLIER_IQR`` IQRs outside the quartiles."""
    q1, _, q3 = quartiles(values)
    reach = OUTLIER_IQR * (q3 - q1)
    return [(seed, v) for seed, v in zip(seeds, values) if v < q1 - reach or v > q3 + reach]


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """The row of one metric: medians, quartiles, pairs won, gap and verdict."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    iqr = p_q3 - p_q1
    if iqr > 0.0:
        gap = (c_med - p_med) / iqr
    else:
        gap = 0.0 if c_med == p_med else math.copysign(math.inf, c_med - p_med)
    relative = (c_med - p_med) / abs(p_med) if p_med else 0.0
    bound = spec.get("bound")
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    moved = bound is None or abs(relative) > NOISE_FLOOR * bound
    verdict = "-"
    if len(parent) < MIN_PAIRS:
        verdict = "too few pairs"
    elif bound is not None and iqr > bound * abs(p_med) and not all_better:
        verdict = "unresolved"
    elif bound is not None and sign * relative > bound:
        verdict = "over bound"
    elif moved and won >= WIN_SHARE * len(parent) and -sign * gap > 1.0:
        verdict = "gain"
    elif moved and lost >= WIN_SHARE * len(parent) and sign * gap > 1.0:
        verdict = "worse"
    return {"parent": [p_med, p_q1, p_q3], "change": [c_med, c_q1, c_q3], "relative": relative,
            "won": won, "pairs": len(parent), "gap_iqr": gap, "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default all three)")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="seeds, one pair of runs each, e.g. 601-610 (default 1-10)")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer metrics of traced runs")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--ratio", action="append", default=[], metavar="NUM/DEN",
                        help="also compare this within-run ratio of two metrics (repeatable)")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    parent, change = args.parent.resolve(), args.change.resolve()
    try:
        check_trees(parent, change)
        bench = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
        specs = bench["per_layer" if args.trace else "end_to_end"]
        by_name = {spec["name"]: spec for spec in specs}
        for ratio in args.ratio:
            numerator, _, denominator = ratio.partition("/")
            if numerator not in by_name or denominator not in by_name:
                parser.error(f"--ratio {ratio}: both names must be metrics of this --trace")
            specs = specs + [{"name": ratio, "better": by_name[numerator]["better"]}]
        runs = {(w, side): [] for w in workloads for side in ("parent", "change")}
        for i, seed in enumerate(args.seeds):
            order = [("parent", parent), ("change", change)]
            for workload in workloads:
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[workload, side].append(run_once(tree, workload, seed, args))
                head = specs[0]["name"]
                print(f"pair {i + 1} seed {seed} {workload} ({order[i % 2][0]} first): {head} "
                      f"{runs[workload, 'parent'][-1][head]:.6g} -> "
                      f"{runs[workload, 'change'][-1][head]:.6g}", flush=True)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    verdicts = report(workloads, specs, runs, args)
    print(json.dumps({"refused": False, "verdicts": verdicts}))
    return 0


def report(workloads: list[str], specs: list[dict], runs: dict, args) -> dict[str, str]:
    """Print one row per workload and metric; return the verdicts by row."""
    verdicts = {}
    for workload in workloads:
        print(f"\n{workload}: {len(args.seeds)} pairs, {args.seconds:g} s runs, "
              f"trace {args.trace}; median [q1, q3], parent -> change")
        odd = []
        for spec in specs:
            name = spec["name"]
            values = {side: [r[name] for r in runs[workload, side]] for side in ("parent", "change")}
            row = compare(spec, values["parent"], values["change"])
            for side, found in ((side, outliers(args.seeds, values[side])) for side in values):
                if found:
                    odd.append(f"    {name} {side}: "
                               + ", ".join(f"seed {seed} {v:.6g}" for seed, v in found))
            (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = row["parent"], row["change"]
            print(f"  {name:<40} {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}] -> "
                  f"{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  {100 * row['relative']:+.1f} %  "
                  f"won {row['won']}/{row['pairs']}  gap {row['gap_iqr']:+.2f} IQR  "
                  f"{row['verdict']}")
            verdicts[f"{workload} {name}"] = row["verdict"]
        print(f"  runs beyond {OUTLIER_IQR:g} IQR of their side's quartiles:"
              + ("\n" + "\n".join(odd) if odd else " none"))
    return verdicts


if __name__ == "__main__":
    sys.exit(main())
