"""Evaluation: pose matching, average precision, and the score report.

Matching is greedy per image and per threshold pair: predictions are
visited in descending confidence (ties: input order) and each takes the
nearest-by-translation unmatched ground-truth object of the same class
that satisfies both ``||T - T_hat|| <= t_m`` and
``angular_error <= r_rad`` (ties: lowest ground-truth index). Every item
holds a unit quaternion, so matching takes each angle from the unit kernel
``geometry._unit_angle``, which gives ``angular_error``'s bits without its
two normalizing calls. A threshold ladder is an ordered list of such
``(t_m, r_rad)`` pairs; AP is computed per class and per pair over the
dataset-wide confidence ranking with the all-points precision envelope,
and mAP is the mean over classes of the mean over pairs.

``mean_average_precision`` and ``sweep_threshold`` share one matching
core, ``Evaluation``: match once, score many (see its docstring).

The report's error statistics (translation MAE, angular error
mean/median, precision/recall, TP/FP/FN counts) are computed by
``mean_average_precision`` from the hits of the matching at the last
ladder pair, which for the default strict-to-loose ladder maximizes match
coverage.
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .geometry import _reals, _unit_angle
from .records import Annotation, Detection, ImageRecord, _index_by_image, _refuse_kind


class NoClassesError(ValueError):
    """mAP is undefined: no class appears in ground truth or predictions."""


@dataclass(frozen=True, slots=True)
class ThresholdLadder:
    """Ordered (translation meters, rotation radians) threshold pairs."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, tuple):  # a list would not hash or equal the tuple ladder
            raise ValueError(f"ladder pairs must be a tuple, got {type(self.pairs).__name__}")
        if not self.pairs:
            raise ValueError("ladder must contain at least one threshold pair")
        for pair in self.pairs:
            try:  # math.isfinite, as a numpy float32 takes sys.float_info.max as inf
                valid = (isinstance(pair, tuple) and len(pair) == 2 and _reals(*pair)
                         and all(v > 0.0 and math.isfinite(v) for v in pair))
            except OverflowError:  # an int beyond the float range
                valid = False
            if not valid:
                raise ValueError(f"a ladder pair must be two finite positive numbers, got {pair!r}")


DEFAULT_LADDER = ThresholdLadder(pairs=(
    (0.5, math.radians(5.0)),
    (1.0, math.radians(10.0)),
    (2.0, math.radians(20.0)),
    (4.0, math.radians(40.0)),
))


def _match_image(dets: Sequence[Detection], anns: Sequence[Annotation],
                 pairs: Sequence[tuple[float, float]], loosest: float,
                 base: int) -> list[list[tuple]]:
    """Per pair, the (det index, gt index, distance, angle) hits in visiting
    order, each detection indexed from ``base``; ``loosest`` is the largest
    t_m of ``pairs``.

    Candidates are ``[distance, index, angle]`` entries sorted by (distance,
    index), so the first free one within both gates is the nearest valid one.
    """
    targets: dict[int, list] = {}
    for j, a in enumerate(anns):
        t = a.pose.translation
        targets.setdefault(a.class_id, []).append((j, (t.x, t.y, t.z)))
    visits = []
    for i, d in sorted(enumerate(dets, base), key=lambda e: -e[1].confidence):  # ties keep i
        if (cands := targets.get(d.class_id)) is None:
            continue
        t = d.pose.translation
        p = (t.x, t.y, t.z)
        near = [[dist, j, None] for j, g in cands if (dist := math.dist(p, g)) <= loosest]
        if near:
            near.sort()
            visits.append((i, d.pose.rotation, near))
    out = []
    for t_m, r_rad in pairs:
        taken: set[int] = set()
        hits = []
        for i, rotation, near in visits:
            for entry in near:
                dist, j, rot = entry
                if dist > t_m:
                    break
                if j in taken:
                    continue
                if rot is None:
                    rot = entry[2] = _unit_angle(anns[j].pose.rotation, rotation)
                if rot <= r_rad:
                    taken.add(j)
                    hits.append((i, j, dist, rot))
                    break
        out.append(hits)
    return out


def _precision(tp: np.ndarray) -> np.ndarray:
    """Precision at each rank of ranked boolean TP arrays (last axis): cumulative TP / rank."""
    return np.cumsum(tp, axis=-1, dtype=np.float64) / np.arange(1, tp.shape[-1] + 1)


def _prefix_aps(tp: np.ndarray, precision: np.ndarray, k: int, num_gt: int) -> tuple[float, ...]:
    """AP of the first k ranks of each row of ranked ``(rows x n)`` TP arrays,
    given their ``_precision``. The envelope (at each rank, the highest
    precision at that rank or later) is one max over all rows: a max does no
    rounding. Recall advances by 1/num_gt at each TP rank, so the integral
    collapses to a sum over TP ranks, one 1-D sum per row: a batched or
    zero-padded sum groups the additions differently and changes bits."""
    if not (k and num_gt):
        return (0.0 if k or num_gt else 1.0,) * len(tp)
    envelope = np.maximum.accumulate(precision[:, :k][:, ::-1], axis=1)[:, ::-1]
    return tuple(float(np.add.reduce(e[t]) / num_gt) for e, t in zip(envelope, tp[:, :k]))


def average_precision(flags: Sequence[bool], num_gt: int) -> float:
    """All-points interpolated AP from a confidence-ranked TP/FP sequence.

    ``flags[k]`` is True when the detection at rank k is a true positive.
    With no ground truth the AP is 0.0 as soon as any prediction exists;
    the fully degenerate case (no flags, no ground truth) is defined as
    1.0 for callers that force such a class in. ``num_gt`` must be an int
    no smaller than the number of true positives.
    """
    if type(num_gt) is bool or not isinstance(num_gt, int):
        raise ValueError(f"num_gt must be an int, got {num_gt!r}")
    if num_gt < 0:
        raise ValueError(f"num_gt must be >= 0, got {num_gt}")
    tp = np.fromiter(flags, dtype=bool).reshape(1, -1)  # an iterator too, which asarray wraps whole
    if (hits := int(np.count_nonzero(tp))) > num_gt:
        raise ValueError(f"{hits} true positives exceed num_gt={num_gt}")
    return _prefix_aps(tp, _precision(tp), tp.shape[1], num_gt)[0]


@dataclass(slots=True)
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


def _check_threshold(threshold: float, name: str = "threshold") -> None:
    # a float skips _reals' ABC test: the sweep checks each of its points
    if type(threshold) is not float and not _reals(threshold):
        raise ValueError(f"{name} must be a number, got {threshold!r}")
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"{name} must be within [0, 1], got {threshold}")


class Evaluation:
    """A dataset matched once at every ladder pair, then scored per threshold.

    Images are aligned by ``image_id``; an image on one side only adds
    misses or false positives. Per image, each same-class distance is
    computed once and each angle at most once, within the loosest gate.
    ``buckets[c]`` holds, in class order, class c's negated confidences in
    ranking order, its ``(pairs x n)`` boolean TP and precision (cumulative
    TP / rank) arrays, built once, its ground-truth count, and per prefix
    length the number of ranks in it that are a TP at some pair. Scoring the
    confidence >= t prefix of each bucket, ``per_class_ap(t)`` takes one
    envelope per class, then per pair a 1-D sum at its TP ranks (a batched
    sum rounds differently). That equals thresholding at t and matching
    again: a threshold cuts a suffix of the greedy visiting order and leaves
    the rest's matching unchanged. A class's AP is kept by that TP count, so
    a sweep scores each class once per count, not once per grid point: past
    the last TP rank of a prefix only FP ranks follow, whose precision never
    exceeds the rank before, so they change neither the envelope at a TP
    rank nor which ranks are summed. For the report, it keeps the last pair's
    hits, dataset-wide in image order, with the detection and ground-truth
    totals.
    """

    def __init__(self, pred_records: Sequence[ImageRecord], gt_records: Sequence[ImageRecord],
                 ladder: ThresholdLadder = DEFAULT_LADDER):
        pred_by_id = _index_by_image(pred_records, "predictions")
        gt_by_id = _index_by_image(gt_records, "ground truth")
        # as floats: against a numpy float32 gate, a distance would compare in float32
        pairs = [(float(t_m), float(r_rad)) for t_m, r_rad in ladder.pairs]
        loosest = max(t_m for t_m, _ in pairs)
        hits: list[list[tuple]] = [[] for _ in pairs]  # dataset-wide, per pair
        dets: list[Detection] = []  # indexed by flat detection index
        members: dict[int, list[int]] = defaultdict(list)  # flat detection indices per class
        confidences: list[float] = []
        try:
            gt_count = Counter(a.class_id for r in gt_by_id.values() for a in r.items)
            for image_id in list(gt_by_id) + [i for i in pred_by_id if i not in gt_by_id]:
                anns = gt_by_id[image_id].items if image_id in gt_by_id else ()
                items = pred_by_id[image_id].items if image_id in pred_by_id else ()
                for flat, found in zip(hits, _match_image(items, anns, pairs, loosest, len(dets))):
                    flat += found
                dets += items
            for i, d in enumerate(dets):
                members[d.class_id].append(i)
                confidences.append(d.confidence)
        except AttributeError:
            for by_id, kind, side in ((pred_by_id, Detection, "predictions, "),
                                      (gt_by_id, Annotation, "ground truth, ")):
                for record in by_id.values():
                    _refuse_kind("scoring", record, (kind,), side)
            raise
        flags = np.zeros((len(hits), len(dets)), dtype=bool)
        for row, flat in zip(flags, hits):
            row[[h[0] for h in flat]] = True
        self._last_pair = (hits[-1], len(dets), sum(gt_count.values()))
        neg_conf = -np.array(confidences, dtype=np.float64)
        hit = flags.any(axis=0)  # per detection: a TP at some pair
        self.buckets: dict[int, tuple[list[float], np.ndarray, np.ndarray, int, list[int]]] = {}
        for c in sorted(gt_count.keys() | members.keys()):
            index = np.array(members.get(c, ()), dtype=np.intp)
            index = index[np.argsort(neg_conf[index], kind="stable")]  # ties: image, input order
            tp = flags[:, index]
            self.buckets[c] = (neg_conf[index].tolist(), tp, _precision(tp), gt_count[c],
                               list(accumulate(hit[index].tolist(), initial=0)))
        self._aps: dict[tuple[int, int], tuple[float, ...]] = {}  # by (class, TP count)

    def per_class_ap(self, threshold: float = 0.0) -> dict[int, tuple[float, ...]]:
        """AP per class and pair over the detections with confidence >= threshold;
        classes with neither ground truth nor a detection left are excluded."""
        _check_threshold(threshold)
        out = {}
        for c, (neg_conf, tp, precision, num_gt, tp_counts) in self.buckets.items():
            k = bisect.bisect_right(neg_conf, -threshold)
            if k or num_gt:
                # kept by TP count but scored at the real k: at k = 0 a class
                # with no ground truth would score 1, not 0
                key = (c, tp_counts[k])
                if key not in self._aps:
                    self._aps[key] = _prefix_aps(tp, precision, k, num_gt)
                out[c] = self._aps[key]
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

    # the last pair's statistics straight from its hits: the unmatched counts
    # are the items less the hits
    hits, num_dets, num_gts = evaluation._last_pair
    trans_errors, rot_errors = [h[2] for h in hits], [h[3] for h in hits]
    tp, fp, fn = len(hits), num_dets - len(hits), num_gts - len(hits)
    return mean_ap, EvaluationReport(
        ladder=ladder, per_class_ap=per_class_ap, mean_ap=mean_ap,
        mae_trans=_mean(trans_errors) if tp else None,
        rot_error_mean=_mean(rot_errors) if tp else None,
        rot_error_median=float(statistics.median(rot_errors)) if tp else None,
        precision=tp / (tp + fp) if tp + fp else None,
        recall=tp / (tp + fn) if tp + fn else None, tp=tp, fp=fp, fn=fn)
