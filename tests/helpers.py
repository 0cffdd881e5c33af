"""Shared factories for building small scenes in tests."""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import combinations

import numpy as np

from pose6d import (
    Annotation,
    BBox2D,
    Detection,
    ImageRecord,
    MissingBoxError,
    NoiseSpec,
    NonFiniteError,
    Pose,
    Quaternion,
    RecoveryOverflowError,
    SceneSpec,
    Translation,
    angular_error,
    backproject,
    bbox_center,
    generate_scene,
    iou_2d,
    perturb,
)

IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)

# a noisy detector like the benchmark's: sigma_t 0.5 m, sigma_r 0.2 rad,
# miss 0.2, false positives 0.5 per object, true-positive confidence 0.3-1.0
CROWDED_NOISE = NoiseSpec(translation_sigma=0.5, rotation_sigma=0.2, miss_rate=0.2,
                          false_positive_rate=0.5, tp_confidence=(0.3, 1.0))


def det(x: float, y: float, z: float, *, confidence: float = 0.9, class_id: int = 0,
        quat: Quaternion = IDENTITY, bbox: BBox2D | None = None) -> Detection:
    return Detection(class_id=class_id, confidence=confidence, bbox=bbox,
                     pose=Pose(quat, Translation(x, y, z)))


def ann(x: float, y: float, z: float, *, class_id: int = 0,
        quat: Quaternion = IDENTITY, bbox: BBox2D | None = None) -> Annotation:
    return Annotation(class_id=class_id, pose=Pose(quat, Translation(x, y, z)), bbox=bbox)


def image(image_id: str, *items) -> ImageRecord:
    return ImageRecord(image_id=image_id, items=tuple(items))


def as_detection(a: Annotation, confidence: float) -> Detection:
    """Perfect detection carrying an annotation's pose and box."""
    return Detection(class_id=a.class_id, confidence=confidence, bbox=a.bbox, pose=a.pose)


def complementary_models(gt_records, n_models: int, confidence: float = 0.9):
    """Perfect single-model copies that each miss a disjoint third of objects.

    Object g (in global order) is missing from model ``g % n_models`` only,
    so the union of any two models already covers everything.
    """
    models = []
    for k in range(n_models):
        records = []
        g = 0
        for record in gt_records:
            dets = []
            for a in record.items:
                if g % n_models != k:
                    dets.append(as_detection(a, confidence))
                g += 1
            records.append(ImageRecord(record.image_id, tuple(dets)))
        models.append(records)
    return models


def with_extra(records, image_index: int, *extra):
    """Copy of ``records`` with detections appended to one image."""
    out = list(records)
    out[image_index] = replace(out[image_index],
                               items=out[image_index].items + tuple(extra))
    return out


def crowded_scene(seed: int):
    """(predictions, ground truth) of 6 images x 20-40 objects in 3 classes."""
    spec = SceneSpec(seed=seed, n_images=6, objects_per_image=(20, 40), n_classes=3,
                     noise=CROWDED_NOISE)
    gts, camera = generate_scene(spec)
    return perturb(gts, CROWDED_NOISE, seed + 1000, camera), gts


def greedy_ensemble(model_outputs, iou_threshold: float) -> list[ImageRecord]:
    """Max-ensembling written as plain greedy clustering, the referee of
    ``ensemble_max``: each image's pooled detections are visited by
    (-confidence, model index, input order); each unassigned one seeds a
    cluster and absorbs every later unassigned same-class detection whose
    IoU with the seed reaches the threshold. Seeds are returned in order."""
    pools: dict[str, list] = {}
    for model_idx, records in enumerate(model_outputs):
        for record in records:
            pool = pools.setdefault(record.image_id, [])
            for d in record.items:
                pool.append((d, model_idx, len(pool)))
    merged = []
    for image_id, pool in pools.items():
        pool = sorted(pool, key=lambda e: (-e[0].confidence, e[1], e[2]))
        assigned = [False] * len(pool)
        seeds = []
        for s, (seed, _, _) in enumerate(pool):
            if assigned[s]:
                continue
            assigned[s] = True
            seeds.append(seed)
            for c in range(s + 1, len(pool)):
                cand = pool[c][0]
                if (not assigned[c] and cand.class_id == seed.class_id
                        and iou_2d(cand.bbox, seed.bbox) >= iou_threshold):
                    assigned[c] = True
        merged.append(ImageRecord(image_id, tuple(seeds)))
    return merged


def reference_match_image(dets, anns, pairs):
    """Per pair, the (det index, gt index, distance, angle) hits of one image,
    written as the matching core first was; the referee of
    ``metrics._match_image``. Detections are visited by (-confidence, index);
    each takes the first candidate in (distance, index) order that is free
    and passes both gates. Angles are cached by (det, gt) across pairs."""
    loosest = max(t_m for t_m, _ in pairs)
    targets: dict[int, list] = {}
    for j, a in enumerate(anns):
        t = a.pose.translation
        targets.setdefault(a.class_id, []).append((j, (t.x, t.y, t.z)))
    visits = []
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i)):
        t = dets[i].pose.translation
        p = (t.x, t.y, t.z)
        near = sorted((dist, j) for j, g in targets.get(dets[i].class_id, ())
                      if (dist := math.dist(p, g)) <= loosest)
        if near:
            visits.append((i, near))
    angles: dict[tuple[int, int], float] = {}
    out = []
    for t_m, r_rad in pairs:
        taken: set[int] = set()
        hits = []
        for i, near in visits:
            for dist, j in near:
                if dist > t_m:
                    break
                if j in taken:
                    continue
                rot = angles.get((i, j))
                if rot is None:
                    rot = angles[i, j] = angular_error(anns[j].pose.rotation, dets[i].pose.rotation)
                if rot <= r_rad:
                    taken.add(j)
                    hits.append((i, j, dist, rot))
                    break
        out.append(hits)
    return out


def reference_evaluation(pred_records, gt_records, ladder):
    """``(buckets, last)`` built as ``metrics.Evaluation`` first built them,
    from one tuple of TP flags per detection: ``buckets[c]`` is class c's
    negated confidences in ranking order (stable, so ties keep image, then
    input order), per pair its TP array and precision array, and its
    ground-truth count; ``last`` per image, in ``Evaluation``'s image order,
    its reference hits at the last pair with its detection and ground-truth
    counts."""
    pred_by_id = {r.image_id: r for r in pred_records}
    gt_by_id = {r.image_id: r for r in gt_records}
    gt_count = Counter(a.class_id for r in gt_records for a in r.items)
    rows = defaultdict(list, {c: [] for c in gt_count})
    last = []
    for image_id in list(gt_by_id) + [i for i in pred_by_id if i not in gt_by_id]:
        dets = pred_by_id[image_id].items if image_id in pred_by_id else ()
        anns = gt_by_id[image_id].items if image_id in gt_by_id else ()
        per_pair = reference_match_image(dets, anns, ladder.pairs)
        matched = [{h[0] for h in hits} for hits in per_pair]
        for i, d in enumerate(dets):
            rows[d.class_id].append((d.confidence, tuple(i in m for m in matched)))
        last.append((per_pair[-1], len(dets), len(anns)))
    buckets = {}
    for c, class_rows in rows.items():
        class_rows.sort(key=lambda r: -r[0])
        flags = np.array([r[1] for r in class_rows], dtype=bool).reshape(-1, len(ladder.pairs))
        columns = [(tp, np.cumsum(tp, dtype=np.float64) / np.arange(1, tp.size + 1, dtype=np.float64))
                   for tp in np.ascontiguousarray(flags.T)]
        buckets[c] = ([-r[0] for r in class_rows], columns, gt_count[c])
    return buckets, last


def reference_per_class_ap(buckets, threshold):
    """Per class with a detection left or ground truth, the AP of each pair's
    confidence >= threshold prefix, scored one 1-D array at a time."""
    out = {}
    for c, (neg_conf, columns, num_gt) in sorted(buckets.items()):
        k = sum(n <= -threshold for n in neg_conf)
        if not (k or num_gt):
            continue
        aps = []
        for tp, precision in columns:
            tp, precision = tp[:k], precision[:k]
            if num_gt == 0 or not tp.size:
                aps.append(0.0)
            else:
                envelope = np.maximum.accumulate(precision[::-1])[::-1]
                aps.append(float(envelope[tp].sum() / num_gt))
        out[c] = tuple(aps)
    return out


def report_statistics(last) -> dict:
    """The report's last-pair fields computed from ``reference_evaluation``'s
    per-image hits and counts, as the package's statistics functions once
    computed them from one matching per image: the matched detections and
    ground truth, and the unmatched rest of each. The referee of
    ``mean_average_precision``'s report built from the matching's hits. The
    error statistics are None without a match, and precision or recall is
    None when its denominator is zero."""
    trans_errors = [dist for hits, _, _ in last for _, _, dist, _ in hits]
    rot_errors = [angle for hits, _, _ in last for _, _, _, angle in hits]
    tp = sum(len({i for i, *_ in hits}) for hits, _, _ in last)
    fp = sum(len(set(range(n_dets)) - {i for i, *_ in hits}) for hits, n_dets, _ in last)
    fn = sum(len(set(range(n_gts)) - {j for _, j, *_ in hits}) for hits, _, n_gts in last)
    return {"mae_trans": float(sum(trans_errors) / len(trans_errors)) if tp else None,
            "rot_error_mean": float(sum(rot_errors) / len(rot_errors)) if tp else None,
            "rot_error_median": float(statistics.median(rot_errors)) if tp else None,
            "precision": tp / (tp + fp) if tp + fp else None,
            "recall": tp / (tp + fn) if tp + fn else None,
            "tp": tp, "fp": fp, "fn": fn}


def reference_box_check(x1, y1, x2, y2) -> None:
    """The box rule checked field by field, as ``BBox2D`` first checked it;
    the referee of its one-sum fast test. An int beyond the float range
    counts as not finite."""
    def finite(value) -> bool:
        try:
            return math.isfinite(value)
        except OverflowError:
            return False

    if not all(map(finite, (x1, y1, x2, y2))):
        raise ValueError(f"box coordinates must be finite, got ({x1}, {y1}, {x2}, {y2})")
    if not (x1 < x2 and y1 < y2):
        raise ValueError(f"degenerate box ({x1}, {y1}, {x2}, {y2}): requires x1 < x2 and y1 < y2")
    area = (x2 - x1) * (y2 - y1)
    if not finite(area):
        raise ValueError(f"box width, height and area must be finite, got ({x1}, {y1}, {x2}, {y2})")
    if not area > 0.0:
        raise ValueError(f"box area must be positive, got ({x1}, {y1}, {x2}, {y2}) with area {area}")


def covered_by_inclusion_exclusion(box: BBox2D, rects) -> float:
    """Fraction of ``box`` covered by the union of ``rects``, by inclusion-exclusion."""
    total = 0.0
    for k in range(1, len(rects) + 1):
        for combo in combinations(rects, k):
            x1 = max([box.x1] + [r.x1 for r in combo])
            y1 = max([box.y1] + [r.y1 for r in combo])
            x2 = min([box.x2] + [r.x2 for r in combo])
            y2 = min([box.y2] + [r.y2 for r in combo])
            if x1 < x2 and y1 < y2:
                total += (-1) ** (k + 1) * (x2 - x1) * (y2 - y1)
    return total / box.area()


def reference_thresholds(sweep) -> list[float]:
    """``ThresholdSweep.thresholds`` as first written: every point rounded to
    12 decimals and clamped into ``[lo, hi]``."""
    return [min(max(round(sweep.lo + i * sweep.step, 12), sweep.lo), sweep.hi)
            for i in range(sweep._size())]


def reference_recover_xy_records(records, k) -> list[ImageRecord]:
    """``recover_xy_records`` rebuilt through the public constructors, as it
    was first written: ``bbox_center`` and ``backproject`` give the
    translation and ``Detection`` checks the whole result. A refusal is
    located by counting items, with the package's messages."""
    out = []
    for record in records:
        items = []
        for i, d in enumerate(record.items):
            where = f"image {record.image_id!r}, item {i}"
            if d.bbox is None:
                raise MissingBoxError(f"recover_xy requires items with a bbox; {where} has none")
            u, v = bbox_center(d.bbox)
            pose = Pose(d.pose.rotation, backproject(u, v, d.pose.translation.z, k))
            try:
                items.append(Detection(d.class_id, d.confidence, d.bbox, pose))
            except NonFiniteError as exc:
                raise RecoveryOverflowError(f"recover_xy overflows at {where}: {exc}") from None
        out.append(ImageRecord(record.image_id, tuple(items)))
    return out
