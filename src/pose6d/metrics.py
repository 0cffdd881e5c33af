"""Evaluation: pose matching, average precision, and error statistics.

Matching is greedy per image and per threshold pair: predictions are
visited in descending confidence (ties: input order) and each takes the
nearest-by-translation unmatched ground-truth object of the same class
that satisfies both ``||T - T_hat|| <= t_m`` and
``angular_error <= r_rad`` (ties: lowest ground-truth index). A threshold
ladder is an ordered list of such ``(t_m, r_rad)`` pairs; AP is computed
per class and per pair over the dataset-wide confidence ranking with the
all-points precision envelope, and mAP is the mean over classes of the
mean over pairs.

``match``, ``mean_average_precision`` and ``sweep_threshold`` share one
matching core, ``Evaluation``: match once, score many (see its docstring).

Scalar error statistics in the report (translation MAE, angular error
mean/median, precision/recall, TP/FP/FN counts) are computed from the
matching at the last ladder pair, which for the default strict-to-loose
ladder maximizes match coverage.

Ladder files are JSON arrays of ``{"trans_m": .., "rot_deg": ..}``;
degrees are converted to radians at load time.
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import angular_error
from .records import (Annotation, Detection, ImageRecord, ParseError, ValidationError,
                      _index_by_image, _number, _read_json)


class NoMatchesError(ValueError):
    """Statistic over matched pairs is undefined: there are none."""


class NoClassesError(ValueError):
    """mAP is undefined: no class appears in ground truth or predictions."""


@dataclass(frozen=True)
class ThresholdLadder:
    """Ordered (translation meters, rotation radians) threshold pairs."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("ladder must contain at least one threshold pair")
        for t_m, r_rad in self.pairs:
            if not (t_m > 0.0 and r_rad > 0.0):
                raise ValueError(f"thresholds must be positive, got ({t_m}, {r_rad})")


DEFAULT_LADDER = ThresholdLadder(pairs=(
    (0.5, math.radians(5.0)),
    (1.0, math.radians(10.0)),
    (2.0, math.radians(20.0)),
    (4.0, math.radians(40.0)),
))


def parse_ladder(data: object) -> ThresholdLadder:
    if not isinstance(data, list) or not data:
        raise ParseError(1, "", "ladder must be a non-empty JSON array")
    pairs = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ParseError(1, f"[{i}]", "must be an object with trans_m and rot_deg")
        for key in ("trans_m", "rot_deg"):
            if key not in entry:
                raise ParseError(1, f"[{i}].{key}", "missing required key")
            if not _number(1, entry[key], f"[{i}].{key}") > 0.0:
                raise ValidationError(1, f"[{i}].{key}", f"must be positive, got {entry[key]}")
        pairs.append((float(entry["trans_m"]), math.radians(float(entry["rot_deg"]))))
    return ThresholdLadder(pairs=tuple(pairs))


def load_ladder(path: str) -> ThresholdLadder:
    return parse_ladder(_read_json(path))


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching of one image at one threshold pair.

    ``pairs`` holds (prediction index, ground-truth index) in the order
    predictions were matched; ``trans_errors``/``rot_errors`` align with it.
    """

    pairs: tuple[tuple[int, int], ...]
    unmatched_pred: tuple[int, ...]
    unmatched_gt: tuple[int, ...]
    trans_errors: tuple[float, ...]
    rot_errors: tuple[float, ...]


def _match_image(dets: Sequence[Detection], anns: Sequence[Annotation],
                 pairs: Sequence[tuple[float, float]]) -> list[list[tuple]]:
    """Per pair, the (det index, gt index, distance, angle) hits in visiting order.

    Candidates are sorted by (distance, index), so the first that is free
    and passes both gates of a pair is the nearest valid one.
    """
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


def _match_result(hits: Sequence[tuple], num_dets: int, num_gts: int) -> MatchResult:
    """The MatchResult of one pair's ``_match_image`` hits."""
    matched, taken = {h[0] for h in hits}, {h[1] for h in hits}
    return MatchResult(
        pairs=tuple((h[0], h[1]) for h in hits),
        unmatched_pred=tuple(i for i in range(num_dets) if i not in matched),
        unmatched_gt=tuple(j for j in range(num_gts) if j not in taken),
        trans_errors=tuple(h[2] for h in hits), rot_errors=tuple(h[3] for h in hits))


def match(preds: Sequence[Detection], gts: Sequence[Annotation],
          pair: tuple[float, float]) -> MatchResult:
    """Greedily match one image's detections to its ground truth."""
    ladder = ThresholdLadder(pairs=(tuple(pair),))
    return _match_result(_match_image(preds, gts, ladder.pairs)[0], len(preds), len(gts))


def _precision(tp: np.ndarray) -> np.ndarray:
    """Precision at each rank of a ranked boolean TP array: cumulative TP / rank."""
    return np.cumsum(tp, dtype=np.float64) / np.arange(1, tp.size + 1, dtype=np.float64)


def _prefix_ap(tp: np.ndarray, precision: np.ndarray, num_gt: int) -> float:
    """AP of a ranked TP array given its ``_precision``; both may be prefixes
    of a longer ranking's arrays, because a prefix of a cumulative sum is the
    cumulative sum of the prefix."""
    if num_gt == 0:
        return 0.0 if tp.size else 1.0
    if not tp.size:
        return 0.0
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    # recall advances by exactly 1/num_gt at each TP rank, so the envelope
    # integral collapses to a sum over TP ranks
    return float(envelope[tp].sum() / num_gt)


def average_precision(flags: Sequence[bool], num_gt: int) -> float:
    """All-points interpolated AP from a confidence-ranked TP/FP sequence.

    ``flags[k]`` is True when the detection at rank k is a true positive.
    With no ground truth the AP is 0.0 as soon as any prediction exists;
    the fully degenerate case (no flags, no ground truth) is defined as
    1.0 for callers that force such a class in.
    """
    if num_gt < 0:
        raise ValueError(f"num_gt must be >= 0, got {num_gt}")
    tp = np.asarray(flags, dtype=bool)
    return _prefix_ap(tp, _precision(tp), num_gt)


@dataclass
class EvaluationReport:
    """Per-class AP across the ladder plus scalar error statistics."""

    ladder: ThresholdLadder
    per_class_ap: dict[int, tuple[float, ...]]
    mean_ap: float
    mae_trans: float | None
    rot_error_mean: float | None
    rot_error_median: float | None
    precision: float | None
    recall: float | None
    tp: int
    fp: int
    fn: int

    def to_json_dict(self) -> dict:
        return {
            "mAP": self.mean_ap,
            "ladder": [{"trans_m": t, "rot_deg": math.degrees(r)} for t, r in self.ladder.pairs],
            "per_class": {
                str(c): {"ap_per_pair": list(aps), "mean_ap": _mean(aps)}
                for c, aps in sorted(self.per_class_ap.items())
            },
            "mae_trans": self.mae_trans,
            "angular_error": {"mean_rad": self.rot_error_mean, "median_rad": self.rot_error_median},
            "precision": self.precision,
            "recall": self.recall,
            "counts": {"tp": self.tp, "fp": self.fp, "fn": self.fn},
        }

    def to_text(self) -> str:
        classes = sorted(self.per_class_ap)
        header = f"{'ladder pair':<20}" + "".join(f"{'AP[' + str(c) + ']':>12}" for c in classes)
        lines = [header, "-" * len(header)]
        for p, (t_m, r_rad) in enumerate(self.ladder.pairs):
            label = f"{t_m:.2f} m / {math.degrees(r_rad):4.1f} deg"
            row = f"{label:<20}" + "".join(f"{self.per_class_ap[c][p]:>12.3f}" for c in classes)
            lines.append(row)
        lines.append(f"{'class mean':<20}"
                     + "".join(f"{_mean(self.per_class_ap[c]):>12.3f}" for c in classes))
        lines.append("")
        lines.append(f"mAP        {self.mean_ap:.3f}")
        t_m, r_rad = self.ladder.pairs[-1]
        at = f"(at {t_m:.2f} m / {math.degrees(r_rad):.1f} deg)"
        lines.append(f"MAE_trans  {_fmt(self.mae_trans, ' m')} {at}")
        lines.append(f"rot error  mean {_fmt(self.rot_error_mean, ' rad')}, "
                     f"median {_fmt(self.rot_error_median, ' rad')} {at}")
        lines.append(f"precision  {_fmt(self.precision)}   recall {_fmt(self.recall)}   "
                     f"(TP {self.tp}  FP {self.fp}  FN {self.fn})")
        return "\n".join(lines) + "\n"


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values))


def _fmt(value: float | None, suffix: str = "") -> str:
    return "n/a" if value is None else f"{value:.6f}{suffix}"


def translation_mae(matches: Iterable[MatchResult]) -> float:
    """Mean Euclidean translation error over all matched pairs."""
    errors = [e for m in matches for e in m.trans_errors]
    if not errors:
        raise NoMatchesError("translation MAE is undefined without matches")
    return float(sum(errors) / len(errors))


def rotation_error_stats(matches: Iterable[MatchResult]) -> tuple[float, float]:
    """(mean, median) angular error in radians over all matched pairs."""
    errors = [e for m in matches for e in m.rot_errors]
    if not errors:
        raise NoMatchesError("rotation error statistics are undefined without matches")
    return float(sum(errors) / len(errors)), float(statistics.median(errors))


def precision_recall(matches: Iterable[MatchResult]) -> tuple[float | None, float | None]:
    """(precision, recall); a side is None when its denominator is zero."""
    tp = fp = fn = 0
    for m in matches:
        tp += len(m.pairs)
        fp += len(m.unmatched_pred)
        fn += len(m.unmatched_gt)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return precision, recall


def _check_threshold(threshold: float, name: str = "threshold") -> None:
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"{name} must be within [0, 1], got {threshold}")


class Evaluation:
    """A dataset matched once at every ladder pair, then scored per threshold.

    Images are aligned by ``image_id``; an image on one side only adds
    misses or false positives. Per image, each same-class distance is
    computed once and each angle at most once, within the loosest gate.
    ``buckets[c]`` holds class c's negated confidences in ranking order,
    per pair a boolean TP array and its precision array (cumulative TP /
    rank), both built once over the whole bucket, and its ground-truth
    count; ``last`` each image's last-pair matching. ``per_class_ap(t)``
    scores the confidence >= t prefix of each bucket from prefixes of those
    arrays. That equals thresholding at t and matching again: a threshold
    cuts a suffix of the greedy visiting order and leaves the matching of
    the rest unchanged.
    """

    def __init__(self, pred_records: Sequence[ImageRecord], gt_records: Sequence[ImageRecord],
                 ladder: ThresholdLadder = DEFAULT_LADDER):
        pred_by_id = _index_by_image(pred_records, "predictions")
        gt_by_id = _index_by_image(gt_records, "ground truth")
        gt_count = Counter(a.class_id for r in gt_records for a in r.items)
        rows = defaultdict(list, {c: [] for c in gt_count})
        self.last: list[MatchResult] = []
        for image_id in list(gt_by_id) + [i for i in pred_by_id if i not in gt_by_id]:
            dets = pred_by_id[image_id].items if image_id in pred_by_id else ()
            anns = gt_by_id[image_id].items if image_id in gt_by_id else ()
            per_pair = _match_image(dets, anns, ladder.pairs)
            matched = [{h[0] for h in hits} for hits in per_pair]
            for i, d in enumerate(dets):
                rows[d.class_id].append((d.confidence, tuple(i in m for m in matched)))
            self.last.append(_match_result(per_pair[-1], len(dets), len(anns)))
        self.buckets: dict[int, tuple[list[float], list[tuple[np.ndarray, np.ndarray]], int]] = {}
        for c, class_rows in rows.items():
            class_rows.sort(key=lambda r: -r[0])  # stable: ties keep image, then input order
            flags = np.array([r[1] for r in class_rows], dtype=bool).reshape(-1, len(ladder.pairs))
            columns = [(tp, _precision(tp)) for tp in np.ascontiguousarray(flags.T)]
            self.buckets[c] = ([-r[0] for r in class_rows], columns, gt_count[c])

    def per_class_ap(self, threshold: float = 0.0) -> dict[int, tuple[float, ...]]:
        """AP per class and pair over the detections with confidence >= threshold;
        classes with neither ground truth nor a detection left are excluded."""
        _check_threshold(threshold)
        out = {}
        for c, (neg_conf, columns, num_gt) in sorted(self.buckets.items()):
            k = bisect.bisect_right(neg_conf, -threshold)
            if k or num_gt:
                out[c] = tuple(_prefix_ap(tp[:k], precision[:k], num_gt)
                               for tp, precision in columns)
        if not out:
            raise NoClassesError("no class appears in ground truth or predictions")
        return out


def _class_mean(per_class_ap: dict[int, tuple[float, ...]]) -> float:
    """mAP: the mean over classes of the mean over ladder pairs."""
    return _mean([_mean(aps) for aps in per_class_ap.values()])


def mean_average_precision(
    pred_records: Sequence[ImageRecord],
    gt_records: Sequence[ImageRecord],
    ladder: ThresholdLadder = DEFAULT_LADDER,
) -> tuple[float, EvaluationReport]:
    """Evaluate predictions against ground truth over a threshold ladder.

    Returns ``(mAP, report)``. Images are aligned by ``image_id``; images
    present on only one side contribute misses or false positives. Classes
    absent from both sides are excluded from the mean; if no class appears
    at all, NoClassesError is raised.
    """
    evaluation = Evaluation(pred_records, gt_records, ladder)
    per_class_ap = evaluation.per_class_ap()
    mean_ap = _class_mean(per_class_ap)

    last = evaluation.last
    try:
        mae: float | None = translation_mae(last)
        rot_mean, rot_median = rotation_error_stats(last)
    except NoMatchesError:
        mae = rot_mean = rot_median = None
    precision, recall = precision_recall(last)
    tp = sum(len(m.pairs) for m in last)
    fp = sum(len(m.unmatched_pred) for m in last)
    fn = sum(len(m.unmatched_gt) for m in last)

    report = EvaluationReport(
        ladder=ladder,
        per_class_ap=per_class_ap,
        mean_ap=mean_ap,
        mae_trans=mae,
        rot_error_mean=rot_mean,
        rot_error_median=rot_median,
        precision=precision,
        recall=recall,
        tp=tp, fp=fp, fn=fn,
    )
    return mean_ap, report
