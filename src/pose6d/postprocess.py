"""Post-processing stages for detection outputs.

Four stages, applied in this order by the CLI when combined:

1. ``recover_xy_records``: keep only the predicted depth and re-derive the
   lateral position by back-projecting the 2D box center at that depth.
2. ``apply_confidence_threshold``: drop detections below a cutoff
   (boundary kept); ``sweep_threshold`` picks the cutoff by evaluated mAP.
3. ``ensemble_max``: keep a detection of the pooled models iff its IoU with
   every better kept same-class one is below a threshold, which equals
   greedy clustering that keeps each cluster's best member unchanged.
4. ``filter_ignore``: drop detections whose box overlaps the union of an
   image's ignore rectangles by more than a fraction of its own area.

All functions are pure: they return new records and never mutate inputs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .geometry import BBox2D, CameraIntrinsics, Pose, Translation, _halved_iou, _reals
from .metrics import DEFAULT_LADDER, Evaluation, NoClassesError, ThresholdLadder, _check_threshold, _class_mean
from .records import (Annotation, Detection, IgnoreRegions, ImageRecord, NonFiniteError,
                      _index_by_image, _item_at, _new, _non_finite_pose, _refuse_kind, _set_bbox,
                      _set_class_id, _set_confidence, _set_pose, _set_rotation, _set_translation,
                      _set_tx, _set_ty, _set_tz)

_MAX_GRID_POINTS = 100_001  # a 1e-5 step over [0, 1]


class EmptyEnsembleError(ValueError):
    """Ensemble of zero model outputs is undefined."""


class MissingBoxError(ValueError):
    """A stage that reads 2D boxes got an item without one."""


class RecoveryOverflowError(NonFiniteError):
    """A lateral position recovered from a box center is beyond the float range."""


def _missing_box(stage: str, record: ImageRecord, item, where: str = "") -> MissingBoxError:
    return MissingBoxError(f"{stage} requires items with a bbox; {where}{_item_at(record, item)} "
                           "has none")


@dataclass(frozen=True, slots=True)
class EnsembleConfig:
    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not _reals(self.iou_threshold):
            raise ValueError(f"iou_threshold must be a number, got {self.iou_threshold!r}")
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")


@dataclass(frozen=True, slots=True)
class ThresholdSweep:
    lo: float = 0.1
    hi: float = 0.8
    step: float = 0.05

    def __post_init__(self) -> None:
        for name, value in (("lo", self.lo), ("hi", self.hi), ("step", self.step)):
            if not _reals(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"sweep bounds must satisfy 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")
        if not self.step >= 1e-9:  # well above the 1e-12 rounding of grid points
            raise ValueError(f"step must be at least 1e-9, got {self.step}")
        if (size := self._size()) > _MAX_GRID_POINTS:
            raise ValueError(f"grid of {size} points exceeds the cap of {_MAX_GRID_POINTS}")

    def _size(self) -> int:
        return int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1

    def thresholds(self) -> list[float]:
        """Grid lo, lo+step, ... up to hi inclusive, strictly increasing; each
        point is rounded to 12 decimals and clamped into [lo, hi], which only
        the ends need: a step >= 1e-9 dwarfs the 5e-13 rounding."""
        grid = [round(self.lo + i * self.step, 12) for i in range(self._size())]
        grid[0] = max(grid[0], self.lo)
        grid[-1] = min(grid[-1], self.hi)
        return grid


def recover_xy_records(records: Sequence[ImageRecord], k: CameraIntrinsics) -> list[ImageRecord]:
    """The records with each detection's (x, y) back-projected from its box
    center at its z (``backproject``'s arithmetic) and checked finite; the rest
    is the detection's own, stored through the slots of a new ``Translation``,
    ``Pose`` and ``Detection`` with no ``__init__``. MissingBoxError,
    RecoveryOverflowError and the ValueError for an item that is not a
    Detection name the image and item."""
    fx, fy, cx, cy = k.fx, k.fy, k.cx, k.cy
    out = []
    for record in records:
        items = []
        try:
            for det in record.items:
                if (box := det.bbox) is None:
                    raise _missing_box("recover_xy", record, det)
                pose = det.pose
                z = pose.translation.z
                x = ((box.x1 + box.x2) * 0.5 - cx) * z / fx
                y = ((box.y1 + box.y2) * 0.5 - cy) * z / fy
                if not (math.isfinite(x) and math.isfinite(y)):
                    pose = Pose(pose.rotation, Translation(x, y, z))
                    raise RecoveryOverflowError(f"recover_xy overflows at {_item_at(record, det)}: "
                                                + _non_finite_pose("detection", pose))
                _set_tx(t := _new(Translation), x)
                _set_ty(t, y)
                _set_tz(t, z)
                _set_rotation(new_pose := _new(Pose), pose.rotation)
                _set_translation(new_pose, t)
                _set_class_id(moved := _new(Detection), det.class_id)
                _set_confidence(moved, det.confidence)
                _set_bbox(moved, box)
                _set_pose(moved, new_pose)
                items.append(moved)
        except AttributeError:
            _refuse_kind("recover_xy", record, (Detection,))
            raise
        out.append(ImageRecord(record.image_id, tuple(items)))
    return out


def apply_confidence_threshold(records: Sequence[ImageRecord], threshold: float) -> list[ImageRecord]:
    """Keep detections with confidence >= threshold; images always survive.
    An item that is not a Detection raises ValueError at its image and item."""
    _check_threshold(threshold)
    out = []
    for r in records:
        try:
            kept = tuple(d for d in r.items if d.confidence >= threshold)
        except AttributeError:
            _refuse_kind("apply_confidence_threshold", r, (Detection,))
            raise
        out.append(ImageRecord(r.image_id, kept))
    return out


def _covered_fraction(box: BBox2D, rects: Sequence[tuple[float, float, float, float]]) -> float:
    """Fraction of ``box`` covered by the union of ``rects`` (``(x1, y1, x2, y2)`` tuples)."""
    bx1, by1, bx2, by2 = box.x1, box.y1, box.x2, box.y2
    clipped = []
    for rx1, ry1, rx2, ry2 in rects:
        x1, y1 = (bx1 if bx1 > rx1 else rx1), (by1 if by1 > ry1 else ry1)  # max and min,
        x2, y2 = (bx2 if bx2 < rx2 else rx2), (by2 if by2 < ry2 else ry2)  # without a call
        if x1 < x2 and y1 < y2:
            clipped.append((x1, y1, x2, y2))
    if not clipped:
        return 0.0
    xs = sorted({v for c in clipped for v in (c[0], c[2])})
    ys = sorted({v for c in clipped for v in (c[1], c[3])})
    covered = 0.0
    for i in range(len(xs) - 1):
        mx = (xs[i] + xs[i + 1]) * 0.5
        for j in range(len(ys) - 1):
            my = (ys[j] + ys[j + 1]) * 0.5
            if any(c[0] <= mx <= c[2] and c[1] <= my <= c[3] for c in clipped):
                covered += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return covered / box.area()


def filter_ignore(records: Sequence[ImageRecord], regions: Iterable[IgnoreRegions],
                  overlap_frac: float = 0.5) -> list[ImageRecord]:
    """Drop items whose box-overlap fraction with ignore rects exceeds the cutoff.

    An item is dropped iff area(bbox intersect union(rects)) / area(bbox)
    is strictly greater than ``overlap_frac``; the boundary case is kept.
    Works on detection and annotation records alike, but every item in a
    touched image must be one of them (ValueError otherwise) and carry a
    bbox (MissingBoxError otherwise).
    """
    _check_threshold(overlap_frac, "overlap_frac")
    rects_by_id: dict[str, list[tuple[float, float, float, float]]] = {}
    for r in regions:  # each rect unpacked once; an image_id may repeat
        rects_by_id.setdefault(r.image_id, []).extend((b.x1, b.y1, b.x2, b.y2) for b in r.rects)
    out = []
    for record in records:
        rects = rects_by_id.get(record.image_id)
        if not rects:
            out.append(record)
            continue
        kept = []
        try:
            for item in record.items:
                if item.bbox is None:
                    raise _missing_box("filter_ignore", record, item)
                if _covered_fraction(item.bbox, rects) <= overlap_frac:
                    kept.append(item)
        except AttributeError:
            _refuse_kind("filter_ignore", record, (Detection, Annotation))
            raise
        out.append(ImageRecord(record.image_id, tuple(kept)))
    return out


def ensemble_max(model_outputs: Sequence[Sequence[ImageRecord]],
                 config: EnsembleConfig = EnsembleConfig()) -> list[ImageRecord]:
    """Merge several models' detections, keeping the best of each same-class overlap.

    Detections of one image are pooled across models and scanned in
    descending confidence (ties: lower model index, then input order). One
    is kept, unchanged and in scan order, iff its IoU with each detection
    kept before it for its class is below the threshold: greedy same-class
    clustering, whose seeds absorb later detections at IoU >= threshold,
    keeps the same ones. Image order follows first appearance across
    models; the image set is the union. An image_id repeated within one
    model's output raises ValueError, as does an item that is not a
    Detection, and a detection without a box MissingBoxError.
    """
    model_outputs = list(model_outputs)
    if not model_outputs:
        raise EmptyEnsembleError("ensemble needs at least one model output")
    pools: dict[str, list[Detection]] = {}
    inputs = []  # each model's records by image_id, to locate an item of the wrong kind
    try:
        for m, records in enumerate(model_outputs):
            inputs.append(by_id := _index_by_image(records, "predictions"))
            for record in by_id.values():
                for det in record.items:
                    if det.bbox is None:
                        raise _missing_box("ensemble_max", record, det, f"input {m}, ")
                pools.setdefault(record.image_id, []).extend(record.items)
        for pool in pools.values():
            pool.sort(key=attrgetter("confidence"), reverse=True)  # stable: model, then input order
    except AttributeError:
        for m, by_id in enumerate(inputs):
            for record in by_id.values():
                _refuse_kind("ensemble_max", record, (Detection,), f"input {m}, ")
        raise
    threshold, merged = config.iou_threshold, []
    for image_id, pool in pools.items():
        kept_boxes: dict[int, list[tuple[float, float, float, float, float]]] = {}
        kept = []
        for det in pool:
            box = det.bbox
            x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
            area = (x2 - x1) * (y2 - y1)
            boxes = kept_boxes.setdefault(det.class_id, [])
            for kx1, ky1, kx2, ky2, k_area in boxes:  # geometry.iou_2d's arithmetic, inlined
                ix = (x2 if x2 < kx2 else kx2) - (x1 if x1 > kx1 else kx1)
                iy = (y2 if y2 < ky2 else ky2) - (y1 if y1 > ky1 else ky1)
                if ix > 0.0 and iy > 0.0 and (
                        (inter := ix * iy) / (union := area + k_area - inter) >= threshold
                        or union == math.inf and _halved_iou(inter, area, k_area) >= threshold):
                    break
            else:
                boxes.append((x1, y1, x2, y2, area))
                kept.append(det)
        merged.append(ImageRecord(image_id, tuple(kept)))
    return merged


def sweep_threshold(
    pred_records: Sequence[ImageRecord],
    gt_records: Sequence[ImageRecord],
    sweep: ThresholdSweep = ThresholdSweep(),
    ladder: ThresholdLadder = DEFAULT_LADDER,
) -> tuple[list[tuple[float, float]], float]:
    """Evaluate mAP at every threshold on the grid where some class is left.

    Returns ``(curve, best)`` where ``curve`` is a list of
    ``(threshold, mAP)`` in grid order and ``best`` is the threshold with
    the highest mAP, ties resolved toward the smallest threshold. Matching
    runs once, on the unthresholded input (see ``metrics.Evaluation``), and
    each point costs one bisect: t keeps the n most confident detections, so
    points that keep the same n share one score.
    NoClassesError is raised when no class is left at any point.
    """
    evaluation = Evaluation(pred_records, gt_records, ladder)
    ranked = sorted(n for neg_conf, *_ in evaluation.buckets.values() for n in neg_conf)
    by_count: dict[int, float] = {}
    curve = []
    for t in sweep.thresholds():
        n = bisect.bisect_right(ranked, -t)
        if n not in by_count:
            try:
                by_count[n] = _class_mean(evaluation.per_class_ap(t))
            except NoClassesError:
                if not curve:
                    raise
                break  # a higher threshold keeps fewer detections: no later point is defined
        curve.append((t, by_count[n]))
    return curve, max(curve, key=lambda e: e[1])[0]  # max keeps the first of equals
