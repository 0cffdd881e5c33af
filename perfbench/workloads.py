"""The benchmark's workloads: seeded inputs, one operation, its check, probes.

Every workload is a closed loop with one client: the caller waits for each
operation before starting the next. Inputs come only from the workload
seed, and the package is called with default arguments only, so a change
of a default shows in the numbers.

- ``score-sparse``: a leaderboard or CI job scoring a submission from
  files, as ``pose6d eval`` does. Many small images and 20 classes, so
  parsing and the per-class AP ranking dominate and matching is tiny.
- ``sweep-dense``: a researcher searching the confidence threshold in
  memory on crowded images. Matching dominates and runs once per grid
  point on nested subsets of one detection set, so work sharing across
  thresholds would pay here and nowhere else.
- ``post-ensemble``: a pipeline merging three models' outputs and writing
  the result. Post-processing and serialisation only, no metrics code.

Each operation's output is checked against a reference computed at set-up
by an independent path (in-memory records instead of files, separate
``mean_average_precision`` calls instead of the sweep); the references of
the default seed are pinned in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from pose6d import (
    DEFAULT_LADDER,
    MAX_ORACLE_DETECTIONS,
    BBox2D,
    IgnoreRegions,
    ImageRecord,
    NoiseSpec,
    SceneSpec,
    ThresholdSweep,
    angular_error,
    apply_confidence_threshold,
    corrupt_xy,
    ensemble_max,
    filter_ignore,
    generate_scene,
    iou_2d,
    load_camera,
    load_ground_truth,
    load_predictions,
    mean_average_precision,
    oracle_map,
    perturb,
    recover_xy_records,
    save_camera,
    save_ground_truth,
    save_predictions,
    serialize_ground_truth,
    serialize_predictions,
    sweep_threshold,
)
from pose6d import cli
from tracing import NullTracer

TOLERANCE = 1e-9
# noisy detector shared by every workload: sigma_t 0.5 m, sigma_r 0.2 rad,
# miss 0.2, false positives 0.5 per object, true-positive confidence 0.3-1.0
NOISE = NoiseSpec(translation_sigma=0.5, rotation_sigma=0.2, miss_rate=0.2,
                  false_positive_rate=0.5, tp_confidence=(0.3, 1.0))
POST_THRESHOLD = 0.3
IGNORE_RECTS_PER_IMAGE = 2
ORACLE_SLICES = 4

# Every span a traced run must record. Spans name the package call they
# wrap; ``metrics.report`` covers to_text, to_json_dict and the JSON dump,
# ``postprocess.sweep_unshared`` the per-threshold probe, ``cli.main_eval``
# an in-process ``pose6d eval``; ``synth.perturb`` includes ``corrupt_xy``
# where a workload uses it.
LAYER_SPANS = {
    "synth.generate_scene": "synth.generate",
    "synth.perturb": "synth.perturb",
    "records.load_camera": "records.load",
    "records.load_predictions": "records.load",
    "records.load_ground_truth": "records.load",
    "records.save_predictions": "records.save",
    "metrics.mean_average_precision": "metrics.map",
    "metrics.report": "metrics.report",
    "postprocess.sweep_threshold": "postprocess.sweep",
    "postprocess.sweep_unshared": "postprocess.sweep_unshared",
    "postprocess.recover_xy_records": "postprocess.recover_xy",
    "postprocess.apply_confidence_threshold": "postprocess.threshold",
    "postprocess.ensemble_max": "postprocess.ensemble",
    "postprocess.filter_ignore": "postprocess.filter_ignore",
    "geometry.angular_error": "geometry.angular_error",
    "geometry.iou_2d": "geometry.iou",
    "cli.main_eval": "cli.eval",
}


class CheckFailed(Exception):
    """A set-up cross-check or pinned reference did not hold."""


@dataclass(frozen=True)
class Size:
    images: int
    objects: tuple[int, int]
    classes: int
    pool: int = 1


SIZES = {
    "full": {
        "score-sparse": Size(images=125, objects=(1, 4), classes=20, pool=8),
        "sweep-dense": Size(images=6, objects=(20, 40), classes=3, pool=32),
        "post-ensemble": Size(images=25, objects=(8, 16), classes=3, pool=8),
    },
    "smoke": {
        "score-sparse": Size(images=20, objects=(1, 4), classes=20),
        "sweep-dense": Size(images=3, objects=(20, 40), classes=3, pool=2),
        "post-ensemble": Size(images=10, objects=(8, 16), classes=3),
    },
}


def subseed(seed: int, *keys: int) -> int:
    """Independent 32-bit seed for one purpose of one workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=keys).generate_state(1)[0])


def ignore_regions(records: list[ImageRecord], seed: int, camera) -> list[IgnoreRegions]:
    """Two seeded rectangles per image, each up to a third of the frame wide."""
    width, height = 2.0 * camera.cx, 2.0 * camera.cy
    out = []
    for i, record in enumerate(records):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
        rects = []
        for _ in range(IGNORE_RECTS_PER_IMAGE):
            w = float(rng.uniform(0.1, 0.33)) * width
            h = float(rng.uniform(0.1, 0.33)) * height
            x1 = float(rng.uniform(0.0, width - w))
            y1 = float(rng.uniform(0.0, height - h))
            rects.append(BBox2D(x1, y1, x1 + w, y1 + h))
        out.append(IgnoreRegions(image_id=record.image_id, rects=tuple(rects)))
    return out


def count_items(records) -> int:
    return sum(len(r.items) for r in records)


def candidate_pairs(preds, gts) -> int:
    """Matching work of one evaluation: sum over images, classes and ladder
    pairs of same-class detections x ground-truth objects."""
    gt_by_id = {r.image_id: r.items for r in gts}
    total = 0
    for record in preds:
        per_class = Counter(a.class_id for a in gt_by_id.get(record.image_id, ()))
        total += sum(per_class[d.class_id] for d in record.items)
    return total * len(DEFAULT_LADDER.pairs)


def unshared_sweep(preds, gts) -> tuple[list[tuple[float, float]], float]:
    """The sweep recomputed as separate threshold and mAP calls per grid point."""
    curve = [(t, mean_average_precision(apply_confidence_threshold(preds, t), gts)[0])
             for t in ThresholdSweep().thresholds()]
    best = max(curve, key=lambda e: (e[1], -e[0]))[0]
    return curve, best


def close(a, b, tol: float = TOLERANCE) -> bool:
    """Structural equality with numbers compared within ``tol``."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tol
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
    return a == b


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def serialized_bytes(records, writer) -> int:
    buffer = io.StringIO()
    writer(records, buffer)
    return len(buffer.getvalue().encode("utf-8"))


def oracle_cross_check(preds, gts, seed: int) -> None:
    """Compare oracle_map with mean_average_precision on small seeded slices."""
    rng = np.random.Generator(np.random.Philox(seed))
    pred_by_id = {r.image_id: r for r in preds}
    candidates = [g for g in gts if g.items]
    for s in range(ORACLE_SLICES):
        slice_preds, slice_gts, total = [], [], 0
        for i in rng.permutation(len(candidates)):
            gt = candidates[int(i)]
            dets = pred_by_id[gt.image_id].items if gt.image_id in pred_by_id else ()
            room = MAX_ORACLE_DETECTIONS - total
            if len(dets) > room:
                if slice_gts:
                    break
                keep = sorted(rng.choice(len(dets), size=room, replace=False))
                dets = tuple(dets[int(k)] for k in keep)
            slice_preds.append(ImageRecord(gt.image_id, tuple(dets)))
            slice_gts.append(gt)
            total += len(dets)
        expected = oracle_map(slice_preds, slice_gts)
        got, _ = mean_average_precision(slice_preds, slice_gts)
        if abs(expected - got) > TOLERANCE:
            raise CheckFailed(f"slice {s}: mean_average_precision {got!r} != oracle_map {expected!r}")


def perfect_check(gts, camera) -> None:
    """A zero-noise detector must score exactly 1.0."""
    perfect = perturb(gts, NoiseSpec(), 0, camera)
    value, _ = mean_average_precision(perfect, gts)
    if value != 1.0:
        raise CheckFailed(f"perfect detector scored {value!r}, expected exactly 1.0")


class Workload:
    """One workload over a pool of seeded inputs.

    ``setup`` builds the pool from the seed, ``reference`` computes each
    input's expected output by an independent path and runs the set-up
    cross-checks, ``op`` is one operation on pool input ``k`` and ``check``
    validates its output. Operations cycle through the pool, so one run
    sees several scenes and its medians do not hang on one lucky scene.
    """

    name = ""

    def __init__(self, size: Size, workdir: str):
        self.size = size
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def spec(self, seed: int) -> SceneSpec:
        return SceneSpec(seed=seed, n_images=self.size.images, objects_per_image=self.size.objects,
                         n_classes=self.size.classes, noise=NOISE)

    def scene(self, seed: int, tr):
        with tr.span("synth.generate_scene"):
            gts, camera = generate_scene(self.spec(seed))
        with tr.span("synth.perturb"):
            preds = perturb(gts, NOISE, subseed(seed, 1), camera)
        return preds, gts, camera

    def setup(self, seed: int, tr) -> dict:
        pool = [self.item(subseed(seed, 0, k), k, tr) for k in range(self.size.pool)]
        return {"pool": pool, "seed": seed}

    def reference(self, st) -> None:
        for item in st["pool"]:
            self.reference_item(item)
        first = st["pool"][0]
        oracle_cross_check(*self.scored(first), subseed(st["seed"], 9))
        perfect_check(first["gts"], first["camera"])

    def sweep_inputs(self, st) -> list:
        """(predictions, ground truth) pairs the unshared-sweep probe runs on."""
        return [self.scored(st["pool"][0])]

    def probe_input(self, st):
        """(preds, gts, camera, model outputs, ignore regions) the probe runs on."""
        first = st["pool"][0]
        preds, gts = self.scored(first)
        regions = ignore_regions(gts, subseed(st["seed"], 3), first["camera"])
        return preds, gts, first["camera"], [preds], regions

    def scored(self, item) -> tuple:
        """The (predictions, ground truth) pair this workload's scoring sees."""
        return item["preds"], item["gts"]

    def mean(self, st, fn) -> float:
        return sum(fn(item) for item in st["pool"]) / len(st["pool"])

    def descriptor(self, st) -> dict:
        pool = st["pool"]
        return {"pool": len(pool), "images": sum(len(i["gts"]) for i in pool),
                "detections": sum(count_items(d) for i in pool for d in self.inputs(i)),
                "annotations": sum(count_items(i["gts"]) for i in pool),
                "classes": self.size.classes,
                "input_bytes": sum(sum(serialized_bytes(d, serialize_predictions) for d in self.inputs(i))
                                   + serialized_bytes(i["gts"], serialize_ground_truth) for i in pool)}

    def inputs(self, item) -> list:
        return [item["preds"]]


class ScoreSparse(Workload):
    name = "score-sparse"

    def item(self, seed: int, k: int, tr) -> dict:
        preds, gts, camera = self.scene(seed, tr)
        files = {"camera": self.path(f"camera-{k}.json"), "pred": self.path(f"pred-{k}.jsonl"),
                 "gt": self.path(f"gt-{k}.jsonl")}
        save_camera(camera, files["camera"])
        save_predictions(preds, files["pred"])
        save_ground_truth(gts, files["gt"])
        return {"preds": preds, "gts": gts, "camera": camera, "files": files,
                "out": self.path(f"report-{k}.json")}

    def reference_item(self, item) -> None:
        value, report = mean_average_precision(item["preds"], item["gts"])
        item.update(map=value, ref=report.to_json_dict(), tp=report.tp, dets=report.tp + report.fp)

    def op(self, st, k: int, tr):
        item = st["pool"][k]
        files = item["files"]
        with tr.span("records.load_camera"):
            load_camera(files["camera"])
        with tr.span("records.load_predictions"):
            preds = load_predictions(files["pred"])
        with tr.span("records.load_ground_truth"):
            gts = load_ground_truth(files["gt"])
        with tr.span("metrics.mean_average_precision"):
            _, report = mean_average_precision(preds, gts)
        with tr.span("metrics.report"):
            text = report.to_text()
            with open(item["out"], "w", encoding="utf-8") as handle:
                json.dump(report.to_json_dict(), handle, indent=2)
                handle.write("\n")
        return text

    def check(self, st, k: int, text) -> bool:
        item = st["pool"][k]
        with open(item["out"], "r", encoding="utf-8") as handle:
            written = json.load(handle)
        return "mAP" in text and close(written, item["ref"])

    def golden(self, st) -> dict:
        return {"mAP": [item["map"] for item in st["pool"]]}

    def facts(self, st) -> dict:
        return {"records.load_bytes": self.mean(
                    st, lambda i: sum(os.path.getsize(p) for p in i["files"].values())),
                "records.items": self.mean(st, lambda i: count_items(i["preds"]) + count_items(i["gts"])),
                "metrics.candidate_pairs": self.mean(st, lambda i: candidate_pairs(i["preds"], i["gts"])),
                "metrics.tp": self.mean(st, lambda i: i["tp"]),
                "metrics.detections": self.mean(st, lambda i: i["dets"])}


class SweepDense(Workload):
    name = "sweep-dense"

    def item(self, seed: int, k: int, tr) -> dict:
        preds, gts, camera = self.scene(seed, tr)
        return {"preds": preds, "gts": gts, "camera": camera}

    def reference_item(self, item) -> None:
        item["ref"] = unshared_sweep(item["preds"], item["gts"])

    def op(self, st, k: int, tr):
        item = st["pool"][k]
        with tr.span("postprocess.sweep_threshold"):
            return sweep_threshold(item["preds"], item["gts"])

    def check(self, st, k: int, out) -> bool:
        curve, best = out
        ref_curve, ref_best = st["pool"][k]["ref"]
        return (best == ref_best and [t for t, _ in curve] == [t for t, _ in ref_curve]
                and close([m for _, m in curve], [m for _, m in ref_curve]))

    def golden(self, st) -> dict:
        curve, best = st["pool"][0]["ref"]
        return {"curve": [list(e) for e in curve], "best": best}

    def facts(self, st) -> dict:
        grid = ThresholdSweep().thresholds()
        return {"metrics.candidate_pairs": self.mean(st, lambda i: sum(
            candidate_pairs(apply_confidence_threshold(i["preds"], t), i["gts"]) for t in grid))}

    def sweep_inputs(self, st) -> list:
        return [self.scored(item) for item in st["pool"]]


class PostEnsemble(Workload):
    name = "post-ensemble"
    models = 3

    def item(self, seed: int, k: int, tr) -> dict:
        with tr.span("synth.generate_scene"):
            gts, camera = generate_scene(self.spec(seed))
        models = []
        for m in range(self.models):
            with tr.span("synth.perturb"):
                preds = perturb(gts, NOISE, subseed(seed, 1, m), camera)
                models.append(corrupt_xy(preds, subseed(seed, 2, m)))
        return {"models": models, "gts": gts, "camera": camera,
                "regions": ignore_regions(gts, subseed(seed, 3), camera),
                "out": self.path(f"post-{k}.jsonl")}

    def pipeline(self, item, tr):
        camera = item["camera"]
        with tr.span("postprocess.recover_xy_records"):
            recovered = [recover_xy_records(m, camera) for m in item["models"]]
        with tr.span("postprocess.apply_confidence_threshold"):
            kept = [apply_confidence_threshold(m, POST_THRESHOLD) for m in recovered]
        with tr.span("postprocess.ensemble_max"):
            merged = ensemble_max(kept)
        with tr.span("postprocess.filter_ignore"):
            filtered = filter_ignore(merged, item["regions"])
        with tr.span("records.save_predictions"):
            save_predictions(filtered, item["out"])
        return kept, merged, filtered

    def reference_item(self, item) -> None:
        kept, merged, filtered = self.pipeline(item, NullTracer())
        written = load_predictions(item["out"])
        if written != filtered:
            raise CheckFailed("saved ensemble output does not parse back to the records written")
        inputs = {d for m in kept for r in m for d in r.items}
        if any(d not in inputs for r in written for d in r.items):
            raise CheckFailed("ensemble output holds a detection that is none of its inputs")
        n_in, n_merged = sum(count_items(m) for m in kept), count_items(merged)
        item.update(sha256=sha256_file(item["out"]), output=filtered,
                    map=mean_average_precision(filtered, item["gts"])[0],
                    keep_ratio=n_merged / n_in,
                    drop_ratio=(n_merged - count_items(filtered)) / n_merged,
                    save_bytes=os.path.getsize(item["out"]))

    def op(self, st, k: int, tr):
        item = st["pool"][k]
        self.pipeline(item, tr)
        return item["out"]

    def check(self, st, k: int, out) -> bool:
        return sha256_file(out) == st["pool"][k]["sha256"]

    def golden(self, st) -> dict:
        return {"sha256": [i["sha256"] for i in st["pool"]], "mAP": [i["map"] for i in st["pool"]]}

    def facts(self, st) -> dict:
        return {"records.save_bytes": self.mean(st, lambda i: i["save_bytes"]),
                "metrics.candidate_pairs": self.mean(
                    st, lambda i: candidate_pairs(i["output"], i["gts"])),
                "postprocess.ensemble_keep_ratio": self.mean(st, lambda i: i["keep_ratio"]),
                "postprocess.ignore_drop_ratio": self.mean(st, lambda i: i["drop_ratio"])}

    def scored(self, item) -> tuple:
        return item["output"], item["gts"]

    def probe_input(self, st):
        first = st["pool"][0]
        return first["output"], first["gts"], first["camera"], first["models"], first["regions"]

    def inputs(self, item) -> list:
        return item["models"]


WORKLOADS = {w.name: w for w in (ScoreSparse, SweepDense, PostEnsemble)}


def probe(wl: Workload, st, tr, passes: int) -> dict:
    """Exercise every layer on this workload's data, outside the timed loop.

    Layers on the operation's own path are reported from the traced loop;
    the probe gives the rest, so every per-layer metric is measured on every
    workload. The eval and post-processing part repeats ``passes`` times;
    the sweep probes, the most expensive, run once per sweep input.
    """
    preds, gts, camera, models, regions = wl.probe_input(st)
    files = {"camera": wl.path("probe-camera.json"), "pred": wl.path("probe-pred.jsonl"),
             "gt": wl.path("probe-gt.jsonl")}
    save_camera(camera, files["camera"])
    save_predictions(preds, files["pred"])
    save_ground_truth(gts, files["gt"])
    report_path = wl.path("probe-report.json")
    for p in range(passes):
        tr.op_id = f"probe-{p}"
        with tr.span("records.load_camera"):
            load_camera(files["camera"])
        with tr.span("records.load_predictions"):
            loaded = load_predictions(files["pred"])
        with tr.span("records.load_ground_truth"):
            loaded_gts = load_ground_truth(files["gt"])
        with tr.span("metrics.mean_average_precision"):
            _, report = mean_average_precision(loaded, loaded_gts)
        with tr.span("metrics.report"):
            report.to_text()
            with open(report_path, "w", encoding="utf-8") as handle:
                json.dump(report.to_json_dict(), handle, indent=2)
                handle.write("\n")
        argv = ["eval", "--pred", files["pred"], "--gt", files["gt"], "--camera", files["camera"],
                "--out", report_path]
        with redirect_stdout(io.StringIO()), tr.span("cli.main_eval"):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"pose6d eval exited with {code}")
        with tr.span("records.save_predictions"):
            save_predictions(loaded, wl.path("probe-save.jsonl"))
        with tr.span("postprocess.recover_xy_records"):
            recovered = [recover_xy_records(m, camera) for m in models]
        with tr.span("postprocess.apply_confidence_threshold"):
            kept = [apply_confidence_threshold(m, POST_THRESHOLD) for m in recovered]
        with tr.span("postprocess.ensemble_max"):
            merged = ensemble_max(kept)
        with tr.span("postprocess.filter_ignore"):
            filtered = filter_ignore(merged, regions)
        rot_pairs = _rotation_pairs(preds, gts)
        with tr.span("geometry.angular_error"):
            for q_gt, q_pred in rot_pairs:
                angular_error(q_gt, q_pred)
        box_pairs = _box_pairs(kept)
        with tr.span("geometry.iou_2d"):
            for a, b in box_pairs:
                iou_2d(a, b)
    with tr.span("postprocess.sweep_threshold"):
        sweep_threshold(preds, gts)
    for k, (sweep_preds, sweep_gts) in enumerate(wl.sweep_inputs(st)):
        tr.op_id = f"probe-sweep{k}"
        with tr.span("postprocess.sweep_unshared"):
            for t in ThresholdSweep().thresholds():
                mean_average_precision(apply_confidence_threshold(sweep_preds, t), sweep_gts)
    n_merged = count_items(merged)
    return {"records.load_bytes": sum(os.path.getsize(p) for p in files.values()),
            "records.items": count_items(loaded) + count_items(loaded_gts),
            "records.save_bytes": os.path.getsize(wl.path("probe-save.jsonl")),
            "metrics.tp": report.tp, "metrics.detections": report.tp + report.fp,
            "postprocess.ensemble_keep_ratio": n_merged / sum(count_items(m) for m in kept),
            "postprocess.ignore_drop_ratio": (n_merged - count_items(filtered)) / n_merged,
            "geometry.angular_error_calls": len(rot_pairs),
            "geometry.iou_calls": len(box_pairs)}


def _rotation_pairs(preds, gts):
    """Same-class (gt, pred) rotations within the loosest translation gate."""
    gate = max(t for t, _ in DEFAULT_LADDER.pairs)
    gt_by_id = {r.image_id: r.items for r in gts}
    out = []
    for record in preds:
        for d in record.items:
            a = d.pose.translation
            for g in gt_by_id.get(record.image_id, ()):
                b = g.pose.translation
                if g.class_id == d.class_id and math.dist((a.x, a.y, a.z), (b.x, b.y, b.z)) <= gate:
                    out.append((g.pose.rotation, d.pose.rotation))
    return out


def _box_pairs(models):
    """Same-class box pairs of each image's pooled ensemble input."""
    pools: dict[str, list] = {}
    for records in models:
        for record in records:
            pools.setdefault(record.image_id, []).extend(record.items)
    out = []
    for pool in pools.values():
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                if a.class_id == b.class_id:
                    out.append((a.bbox, b.bbox))
    return out
