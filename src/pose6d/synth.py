"""Synthetic scenes with a brute-force evaluation oracle.

Scenes are deterministic functions of a seed. Randomness comes from the
counter-based Philox generator; every image gets its own stream derived
via ``numpy.random.SeedSequence(seed, spawn_key=(purpose, image_index))``
(purpose 0: generation, 1: perturbation, 2: lateral corruption), so scene
content does not depend on iteration order and re-running with one seed
reproduces files byte for byte.

Objects are car-sized: every ground-truth box is the projected footprint
of a fixed 4.5 x 1.8 x 1.5 m extent, centered on the projected object
center (see ``geometry.extent_bbox``). Pose jitter uses a half-normal
magnitude (``|N(0, sigma)|``) along an isotropic random direction, for
translations in meters and rotations in radians about a random axis, so
the expected translation error at sigma is ``sigma * sqrt(2 / pi)``. A
translation jitter that leaves depth ``<= 0`` is drawn again (magnitude and
direction, from the same stream), and so is a translation magnitude or a
rotation angle that overflows to infinity: a run without one draws nothing
extra, and one with redraws, a sigma near the depths, has a smaller mean error.

``oracle_map`` re-derives mAP by exhaustive quadratic enumeration in pure
Python. Apart from shared geometry primitives it is written independently
of the metrics module, as a cross-check for evaluations of up to
``MAX_ORACLE_DETECTIONS`` detections (crowded multi-image scenes fit;
beyond that it refuses rather than crawl).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Pose,
    Quaternion,
    Translation,
    _reals,
    angular_error,
    backproject,
    extent_bbox,
    quat_multiply,
    quat_normalize,
)
from .metrics import DEFAULT_LADDER, NoClassesError, ThresholdLadder
from .records import Annotation, Detection, ImageRecord, _index_by_image

CAR_EXTENT = (4.5, 1.8, 1.5)  # length, width, height in meters

MAX_ORACLE_DETECTIONS = 2000

_DEFAULT_DEPTH_RANGE = (8.0, 50.0)

_CAMERA = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0)

# Depths, in meters, at which the car's box (``extent_bbox`` of CAR_EXTENT
# through _CAMERA) is finite and non-degenerate. Its center projects inside
# the 1920 x 1080 image and its half-extents are 2250 / z and 750 / z px. At
# 1e9 m the half-height, 7.5e-7 px, is over a million ulps of a coordinate
# below 2048, so x1 < x2 and y1 < y2; at 1e-9 m the box is 4.5e12 x 1.5e12 px,
# with an area of 6.75e24. It overflows below about 2e-151 m and collapses to
# a point beyond about 1e16 m.
_DEPTH_BOUND = (1e-9, 1e9)

_LATERAL_RANGE = (0.6, 1.5)  # meters

_MAX_DRAW = 2**63 - 1  # numpy draws integers as int64: the largest count it can draw

# Objects a scene may hold, counting an empty image as one. A generation
# takes about 35 us per object in a 100,000-object scene (2 vCPUs, Python
# 3.11; about 20 us in a small one), so under a minute at the cap; perturbing
# and writing the files take about 2.5 times that.
_MAX_OBJECTS = 1_000_000


class TooLargeError(ValueError):
    """Input exceeds the oracle's exhaustive-regime size cap."""


def _integers(*values: object) -> bool:
    """Whether numpy can draw a count or seed from each value: ``operator.index``
    takes it, as it takes ``numpy.int64``, and it is not a bool, which it takes
    as 0 or 1."""
    try:
        for value in values:
            operator.index(value)
    except TypeError:
        return False
    return bool not in map(type, values)


def _pair(name: str, value: object, of: str = "numbers") -> tuple:
    """The two values ``value`` unpacks into; anything else is a ValueError
    that names the field."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair of {of}, got {value!r}") from None
    return lo, hi


@dataclass(frozen=True, slots=True)
class NoiseSpec:
    """Perturbation model applied to ground truth to fake detector output."""

    translation_sigma: float = 0.0
    rotation_sigma: float = 0.0
    miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    tp_confidence: tuple[float, float] = (1.0, 1.0)
    fp_confidence: tuple[float, float] = (0.05, 0.5)

    def __post_init__(self) -> None:
        for name, sigma in (("translation_sigma", self.translation_sigma),
                            ("rotation_sigma", self.rotation_sigma)):
            if not _reals(sigma):
                raise ValueError(f"{name} must be a number, got {sigma!r}")
            if not (0.0 <= sigma < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
        for name, rate in (("miss_rate", self.miss_rate),
                           ("false_positive_rate", self.false_positive_rate)):
            if not _reals(rate):
                raise ValueError(f"{name} must be a number, got {rate!r}")
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        for name, pair in (("tp_confidence", self.tp_confidence),
                           ("fp_confidence", self.fp_confidence)):
            lo, hi = _pair(name, pair)
            if not _reals(lo, hi):
                raise ValueError(f"{name} must hold numbers, got ({lo!r}, {hi!r})")
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")


@dataclass(frozen=True, slots=True)
class SceneSpec:
    """Parameters of a synthetic multi-image scene."""

    seed: int = 0
    n_images: int = 5
    objects_per_image: tuple[int, int] = (1, 4)
    depth_range: tuple[float, float] = _DEFAULT_DEPTH_RANGE
    n_classes: int = 1
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("n_images", self.n_images)):
            if not _integers(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        lo, hi = _pair("objects_per_image", self.objects_per_image, "integers")
        if not _integers(lo, hi):
            raise ValueError(f"objects_per_image must hold integers, got ({lo!r}, {hi!r})")
        if not (0 <= lo <= hi):
            raise ValueError(f"objects_per_image must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
        zlo, zhi = _pair("depth_range", self.depth_range)
        if not _reals(zlo, zhi):
            raise ValueError(f"depth_range must hold numbers, got ({zlo!r}, {zhi!r})")
        if not (0.0 < zlo <= zhi < math.inf):
            raise ValueError(f"depth_range must satisfy 0 < lo <= hi < inf, got ({zlo}, {zhi})")
        if not (_DEPTH_BOUND[0] <= zlo and zhi <= _DEPTH_BOUND[1]):
            raise ValueError(f"depth_range must lie within [{_DEPTH_BOUND[0]:g}, "
                             f"{_DEPTH_BOUND[1]:g}] m, where a car's box is finite and "
                             f"non-degenerate, got ({zlo}, {zhi})")
        if not _integers(self.n_classes):
            raise ValueError(f"n_classes must be an integer, got {self.n_classes!r}")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        if max(hi, self.n_classes) > _MAX_DRAW:
            raise ValueError(f"n_classes and objects_per_image must be at most {_MAX_DRAW}, "
                             f"numpy's int64 draw range, got {self.n_classes} and ({lo}, {hi})")
        if self.n_images * max(hi, 1) > _MAX_OBJECTS:
            raise ValueError(f"a scene holds at most {_MAX_OBJECTS} objects, counting an empty "
                             f"image as one, got n_images={self.n_images} with up to {hi} each")


def _check_seed(seed: int) -> None:
    if not _integers(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def _stream(seed: int, purpose: int, image_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, image_index))
    return np.random.Generator(np.random.Philox(seq))


def _unit_vector(rng: np.random.Generator, size: int) -> list[float]:
    """A normal draw scaled to unit length, as Python floats. Its norm is
    ``np.linalg.norm``'s arithmetic on a 1-D float vector (``sqrt(v.dot(v))``)
    without that function's dispatch, so the bits are the same."""
    while True:
        v = rng.normal(size=size)
        n = math.sqrt(v.dot(v))
        if n > 1e-12:
            return [c / n for c in v.tolist()]


def _random_quat(rng: np.random.Generator) -> Quaternion:
    return Quaternion(*_unit_vector(rng, 4))


def _sample_object(rng: np.random.Generator, spec_camera: CameraIntrinsics,
                   depth_range: tuple[float, float], n_classes: int) -> tuple[int, Pose]:
    width = 2.0 * spec_camera.cx
    height = 2.0 * spec_camera.cy
    z = float(rng.uniform(depth_range[0], depth_range[1]))
    u = float(rng.uniform(0.1 * width, 0.9 * width))
    v = float(rng.uniform(0.1 * height, 0.9 * height))
    t = backproject(u, v, z, spec_camera)
    class_id = int(rng.integers(0, n_classes))
    return class_id, Pose(_random_quat(rng), t)


def generate_scene(spec: SceneSpec) -> tuple[list[ImageRecord], CameraIntrinsics]:
    """Generate ground-truth records (and the camera) for a scene spec."""
    records = []
    for i in range(spec.n_images):
        rng = _stream(spec.seed, 0, i)
        count = int(rng.integers(spec.objects_per_image[0], spec.objects_per_image[1] + 1))
        anns = []
        for _ in range(count):
            class_id, pose = _sample_object(rng, _CAMERA, spec.depth_range, spec.n_classes)
            bbox = extent_bbox(pose.translation, CAR_EXTENT[0], CAR_EXTENT[2], _CAMERA)
            anns.append(Annotation(class_id=class_id, pose=pose, bbox=bbox))
        records.append(ImageRecord(image_id=f"img_{i:04d}", items=tuple(anns)))
    return records, _CAMERA


def _jitter_translation(rng: np.random.Generator, t: Translation, sigma: float) -> Translation:
    if sigma == 0.0:
        return t
    while True:
        magnitude = abs(float(rng.normal(0.0, sigma)))
        dx, dy, dz = _unit_vector(rng, 3)
        z = t.z + magnitude * dz
        if z > 0.0 and magnitude < math.inf:
            return Translation(t.x + magnitude * dx, t.y + magnitude * dy, z)


def _jitter_rotation(rng: np.random.Generator, q: Quaternion, sigma: float) -> Quaternion:
    if sigma == 0.0:
        return q
    while (angle := abs(float(rng.normal(0.0, sigma)))) == math.inf:  # sin(inf) raises
        pass
    ax, ay, az = _unit_vector(rng, 3)
    half = 0.5 * angle
    s = math.sin(half)
    dq = Quaternion(math.cos(half), s * ax, s * ay, s * az)
    return quat_normalize(quat_multiply(dq, q))


def perturb(gt_records: Sequence[ImageRecord], noise: NoiseSpec, seed: int,
            camera: CameraIntrinsics) -> list[ImageRecord]:
    """Derive detector-like predictions from ground truth under a noise model.

    Surviving objects keep their ground-truth box (2D detectors are treated
    as accurate; the pose head is what gets noisy) and appear in annotation
    order. False positives are appended after them, sampled like scene
    objects within the depth span of the input (class drawn from the
    classes present). With all-zero noise the output equals the ground
    truth with confidence 1.
    """
    _check_seed(seed)
    gt_records = list(gt_records)  # read twice below
    all_items = [a for r in gt_records for a in r.items]
    classes = sorted({a.class_id for a in all_items})
    if all_items:
        depths = [a.pose.translation.z for a in all_items]
        depth_range = (min(depths), max(max(depths), min(depths) + 1e-6))
    else:
        depth_range = _DEFAULT_DEPTH_RANGE
    out = []
    for i, record in enumerate(gt_records):
        rng = _stream(seed, 1, i)
        dets = []
        for ann in record.items:
            if noise.miss_rate > 0.0 and float(rng.random()) < noise.miss_rate:
                continue
            t = _jitter_translation(rng, ann.pose.translation, noise.translation_sigma)
            q = _jitter_rotation(rng, ann.pose.rotation, noise.rotation_sigma)
            conf = float(rng.uniform(noise.tp_confidence[0], noise.tp_confidence[1]))
            dets.append(Detection(class_id=ann.class_id, confidence=conf,
                                  bbox=ann.bbox, pose=Pose(q, t)))
        if noise.false_positive_rate > 0.0 and record.items:
            n_fp = int(rng.binomial(len(record.items), noise.false_positive_rate))
            for _ in range(n_fp):
                _, pose = _sample_object(rng, camera, depth_range, 1)
                class_id = int(classes[int(rng.integers(0, len(classes)))]) if classes else 0
                conf = float(rng.uniform(noise.fp_confidence[0], noise.fp_confidence[1]))
                bbox = extent_bbox(pose.translation, CAR_EXTENT[0], CAR_EXTENT[2], camera)
                dets.append(Detection(class_id=class_id, confidence=conf, bbox=bbox, pose=pose))
        out.append(ImageRecord(image_id=record.image_id, items=tuple(dets)))
    return out


def corrupt_xy(pred_records: Sequence[ImageRecord], seed: int) -> list[ImageRecord]:
    """Push every detection's (x, y) sideways while keeping z and the box.

    This manufactures the failure mode ``recover_xy_records`` repairs: lateral
    position off by a distance drawn from ``_LATERAL_RANGE``, depth and 2D
    box intact.
    """
    _check_seed(seed)
    out = []
    for i, record in enumerate(pred_records):
        rng = _stream(seed, 2, i)
        dets = []
        for det in record.items:
            theta = float(rng.uniform(0.0, math.tau))
            magnitude = float(rng.uniform(*_LATERAL_RANGE))
            t = det.pose.translation
            moved = Translation(t.x + magnitude * math.cos(theta),
                                t.y + magnitude * math.sin(theta), t.z)
            dets.append(Detection(det.class_id, det.confidence, det.bbox,
                                  Pose(det.pose.rotation, moved)))
        out.append(ImageRecord(image_id=record.image_id, items=tuple(dets)))
    return out


def oracle_map(pred_records: Sequence[ImageRecord], gt_records: Sequence[ImageRecord],
               ladder: ThresholdLadder = DEFAULT_LADDER) -> float:
    """Brute-force mAP, written independently of metrics.

    Builds the full ranked TP/FP table per class and threshold pair with
    plain quadratic loops, computes precision and recall at every rank,
    and integrates the running precision envelope segment by segment.
    Refuses more than MAX_ORACLE_DETECTIONS total detections. Like
    metrics, it rejects a repeated image_id.
    """
    pred_map = {i: r.items for i, r in _index_by_image(pred_records, "predictions").items()}
    total = sum(map(len, pred_map.values()))
    if total > MAX_ORACLE_DETECTIONS:
        raise TooLargeError(f"{total} detections exceed the oracle cap of {MAX_ORACLE_DETECTIONS}")
    gt_map = {i: r.items for i, r in _index_by_image(gt_records, "ground truth").items()}
    image_ids = list(gt_map) + [i for i in pred_map if i not in gt_map]
    images = [(pred_map.get(i, ()), gt_map.get(i, ())) for i in image_ids]

    classes = {item.class_id for dets, anns in images for item in dets + anns}
    if not classes:
        raise NoClassesError("no class appears in ground truth or predictions")

    class_means = []
    for c in sorted(classes):
        num_gt = sum(1 for _, anns in images for a in anns if a.class_id == c)
        pair_aps = []
        for t_m, r_rad in ladder.pairs:
            t_m, r_rad = float(t_m), float(r_rad)  # a numpy float32 gate would compare in float32
            rows = []  # (confidence, image seq, det index, is TP)
            for seq, (dets, anns) in enumerate(images):
                cdets = [(i, d) for i, d in enumerate(dets) if d.class_id == c]
                cgts = [a for a in anns if a.class_id == c]
                used = [False] * len(cgts)
                for i, det in sorted(cdets, key=lambda e: (-e[1].confidence, e[0])):
                    dt = det.pose.translation
                    best = -1
                    best_dist = None
                    for j, gt in enumerate(cgts):
                        if used[j]:
                            continue
                        gt_t = gt.pose.translation
                        dist = math.sqrt((dt.x - gt_t.x) ** 2 + (dt.y - gt_t.y) ** 2
                                         + (dt.z - gt_t.z) ** 2)
                        if dist > t_m:
                            continue
                        if best_dist is not None and dist >= best_dist:
                            continue
                        if angular_error(gt.pose.rotation, det.pose.rotation) > r_rad:
                            continue
                        best = j
                        best_dist = dist
                    if best >= 0:
                        used[best] = True
                    rows.append((det.confidence, seq, i, best >= 0))
            rows.sort(key=lambda r: (-r[0], r[1], r[2]))
            if num_gt == 0:
                pair_aps.append(0.0 if rows else 1.0)
                continue
            if not rows:
                pair_aps.append(0.0)
                continue
            tp_cum = 0
            precisions = []
            recalls = []
            for rank, row in enumerate(rows, start=1):
                if row[3]:
                    tp_cum += 1
                precisions.append(tp_cum / rank)
                recalls.append(tp_cum / num_gt)
            envelope = precisions[:]
            for k in range(len(envelope) - 2, -1, -1):
                envelope[k] = max(envelope[k], envelope[k + 1])
            ap = 0.0
            previous_recall = 0.0
            for k in range(len(rows)):
                ap += (recalls[k] - previous_recall) * envelope[k]
                previous_recall = recalls[k]
            pair_aps.append(ap)
        class_means.append(sum(pair_aps) / len(pair_aps))
    return sum(class_means) / len(class_means)
