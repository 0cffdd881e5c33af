"""Post-processing stages for detection outputs.

Four stages, applied in this order by the CLI when combined:

1. ``recover_xy``: keep only the predicted depth and re-derive the lateral
   position by back-projecting the 2D box center at that depth.
2. ``apply_confidence_threshold``: drop detections below a cutoff
   (boundary kept); ``sweep_threshold`` picks the cutoff by evaluated mAP.
3. ``ensemble_max``: merge several models' outputs per image by greedy
   same-class box clustering, keeping each cluster's highest-confidence
   member unchanged.
4. ``filter_ignore``: drop detections whose box overlaps the union of an
   image's ignore rectangles by more than a fraction of its own area.

All functions are pure: they return new records and never mutate inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .geometry import BBox2D, CameraIntrinsics, Pose, backproject, bbox_center, iou_2d
from .metrics import DEFAULT_LADDER, Evaluation, ThresholdLadder, _check_threshold, _class_mean
from .records import Detection, IgnoreRegions, ImageRecord, _index_by_image

_MAX_GRID_POINTS = 100_001  # a 1e-5 step over [0, 1]


class EmptyEnsembleError(ValueError):
    """Ensemble of zero model outputs is undefined."""


@dataclass(frozen=True)
class EnsembleConfig:
    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")


@dataclass(frozen=True)
class ThresholdSweep:
    lo: float = 0.1
    hi: float = 0.8
    step: float = 0.05

    def __post_init__(self) -> None:
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
        point is rounded to 12 decimals and clamped into [lo, hi]."""
        return [min(max(round(self.lo + i * self.step, 12), self.lo), self.hi)
                for i in range(self._size())]


def _require_bbox(det: Detection, stage: str) -> BBox2D:
    if det.bbox is None:
        raise ValueError(f"{stage} requires detections with a bbox")
    return det.bbox


def recover_xy(det: Detection, k: CameraIntrinsics) -> Detection:
    """Replace (x, y) with the box center back-projected at the predicted z."""
    box = _require_bbox(det, "recover_xy")
    u, v = bbox_center(box)
    t = backproject(u, v, det.pose.translation.z, k)
    return Detection(det.class_id, det.confidence, box, Pose(det.pose.rotation, t))


def recover_xy_records(records: Sequence[ImageRecord], k: CameraIntrinsics) -> list[ImageRecord]:
    return [replace(r, items=tuple(recover_xy(d, k) for d in r.items)) for r in records]


def apply_confidence_threshold(records: Sequence[ImageRecord], threshold: float) -> list[ImageRecord]:
    """Keep detections with confidence >= threshold; images always survive."""
    _check_threshold(threshold)
    return [replace(r, items=tuple(d for d in r.items if d.confidence >= threshold))
            for r in records]


def _covered_fraction(box: BBox2D, rects: Sequence[BBox2D]) -> float:
    """Fraction of ``box`` covered by the union of ``rects``."""
    clipped = []
    for r in rects:
        x1, y1 = max(box.x1, r.x1), max(box.y1, r.y1)
        x2, y2 = min(box.x2, r.x2), min(box.y2, r.y2)
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
    touched image must carry a bbox.
    """
    if not (0.0 <= overlap_frac <= 1.0):
        raise ValueError(f"overlap_frac must be within [0, 1], got {overlap_frac}")
    rects_by_id: dict[str, tuple[BBox2D, ...]] = {}
    for region in regions:
        rects_by_id[region.image_id] = rects_by_id.get(region.image_id, ()) + region.rects
    out = []
    for record in records:
        rects = rects_by_id.get(record.image_id)
        if not rects:
            out.append(record)
            continue
        kept = []
        for item in record.items:
            if item.bbox is None:
                raise ValueError("filter_ignore requires items with a bbox")
            if _covered_fraction(item.bbox, rects) <= overlap_frac:
                kept.append(item)
        out.append(replace(record, items=tuple(kept)))
    return out


def ensemble_max(model_outputs: Sequence[Sequence[ImageRecord]],
                 config: EnsembleConfig = EnsembleConfig()) -> list[ImageRecord]:
    """Merge several models' detections by greedy same-class box clustering.

    Detections of one image are pooled across models and visited in
    descending confidence (ties: lower model index, then input order).
    Each unassigned detection seeds a cluster and absorbs every unassigned
    same-class detection whose IoU with the seed reaches the threshold.
    Seeds are emitted unchanged, in cluster-creation order, so every output
    detection is one of the inputs. Image order follows first appearance
    across models; the image set is the union. An image_id repeated within
    one model's output raises ValueError.
    """
    if not model_outputs:
        raise EmptyEnsembleError("ensemble needs at least one model output")
    pools: dict[str, list[tuple[Detection, int, int]]] = {}
    for model_idx, records in enumerate(model_outputs):
        for record in _index_by_image(records, "predictions").values():
            pool = pools.setdefault(record.image_id, [])
            for det in record.items:
                _require_bbox(det, "ensemble_max")
                pool.append((det, model_idx, len(pool)))
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
                        and iou_2d(cand.bbox, seed.bbox) >= config.iou_threshold):
                    assigned[c] = True
        merged.append(ImageRecord(image_id=image_id, items=tuple(seeds)))
    return merged


def sweep_threshold(
    pred_records: Sequence[ImageRecord],
    gt_records: Sequence[ImageRecord],
    sweep: ThresholdSweep = ThresholdSweep(),
    ladder: ThresholdLadder = DEFAULT_LADDER,
) -> tuple[list[tuple[float, float]], float]:
    """Evaluate mAP at every threshold on the grid.

    Returns ``(curve, best)`` where ``curve`` is a list of
    ``(threshold, mAP)`` in grid order and ``best`` is the threshold with
    the highest mAP, ties resolved toward the smallest threshold. Matching
    runs once, on the unthresholded input (see ``metrics.Evaluation``).
    """
    evaluation = Evaluation(pred_records, gt_records, ladder)
    curve = [(t, _class_mean(evaluation.per_class_ap(t))) for t in sweep.thresholds()]
    return curve, max(curve, key=lambda e: e[1])[0]  # max keeps the first of equals
