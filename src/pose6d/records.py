"""Detection and annotation records: the types and their invariants.

A ``Detection`` or ``Annotation`` holds an int ``class_id`` >= 0, a
``Pose`` of a ``Quaternion`` and a ``Translation`` with z > 0, all finite,
an optional ``BBox2D``, and for a detection a ``confidence`` in [0, 1];
no number may be a bool. The quaternion is unit, one that
``quat_normalize`` returns unchanged; any other is refused, so matching
takes its angles without normalizing. An ``ImageRecord`` holds a non-empty
``image_id`` and a tuple of items, an ``IgnoreRegions`` one of boxes.
Each type checks its invariants when it is constructed.

One table of bound slot setters stores values that a caller has checked
already, with no ``__init__``: the reader in ``formats`` and lateral
recovery in ``postprocess`` build through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .geometry import _UNIT_NORM_SQ_TOL, BBox2D, Pose, Quaternion, Translation


class NonFiniteError(ValueError):
    """A detection or annotation pose has a NaN or infinite component."""


def _non_finite_pose(kind: str, pose: Pose) -> str:
    return f"{kind} has a non-finite pose: {pose}"


def _check_item(item: Detection | Annotation, kind: str) -> None:
    """The item invariants that ``Detection`` and ``Annotation`` check when
    built: a Pose of a Quaternion and a Translation with z > 0 (so not NaN),
    a finite pose of numbers that are not bools, a unit quaternion, a BBox2D
    or no box, an int class_id >= 0. The reader checks the same in its own
    one test."""
    pose, bbox = item.pose, item.bbox
    if not (isinstance(pose, Pose) and isinstance(pose.rotation, Quaternion)
            and isinstance(pose.translation, Translation)):
        raise ValueError(f"{kind} pose must be a Pose of a Quaternion and a Translation, "
                         f"got {pose!r}")
    if bbox is not None and not isinstance(bbox, BBox2D):
        raise ValueError(f"{kind} bbox must be a BBox2D or None, got {bbox!r}")
    t, q = pose.translation, pose.rotation
    try:
        if not t.z > 0.0:
            raise ValueError(f"{kind} depth must be positive, got z={t.z}")
        if not (math.isfinite(t.x) and math.isfinite(t.y) and math.isfinite(t.z) and math.isfinite(q.w)
                and math.isfinite(q.x) and math.isfinite(q.y) and math.isfinite(q.z)):
            raise NonFiniteError(_non_finite_pose(kind, pose))
    except OverflowError:  # an int beyond the float range
        raise NonFiniteError(_non_finite_pose(kind, pose)) from None
    except TypeError:  # a value that does not compare or convert as a number
        raise ValueError(f"{kind} pose must hold numbers, got {pose!r}") from None
    if (type(t.x) is bool or type(t.y) is bool or type(t.z) is bool or type(q.w) is bool
            or type(q.x) is bool or type(q.y) is bool or type(q.z) is bool):
        raise ValueError(f"{kind} has a bool in its pose: {pose}")
    try:  # a float quaternion's squared norm, in Quaternion.dot's order
        norm_sq = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z
    except (OverflowError, TypeError):  # an int's square or a Decimal added to a float
        norm_sq = None
    if type(norm_sq) is not float:  # an int's, or a numpy float32's: test the floats written
        w, x, y, z = float(q.w), float(q.x), float(q.y), float(q.z)
        norm_sq = w * w + x * x + y * y + z * z
    if abs(norm_sq - 1.0) > _UNIT_NORM_SQ_TOL:  # the reader's test, and quat_normalize's
        raise ValueError(f"{kind} rotation must be a unit quaternion (normalize it with "
                         f"quat_normalize first), got {q} with squared norm {norm_sq!r}")
    if isinstance(item.class_id, bool) or not isinstance(item.class_id, int) or item.class_id < 0:
        raise ValueError(f"{kind} class_id must be an integer >= 0, got {item.class_id!r}")


@dataclass(frozen=True, slots=True)
class Detection:
    class_id: int
    confidence: float
    bbox: BBox2D | None
    pose: Pose

    def __post_init__(self) -> None:
        try:
            if not (0.0 <= self.confidence <= 1.0):
                raise ValueError(f"confidence must be within [0, 1], got {self.confidence}")
        except TypeError:  # a value that does not compare as a number
            raise ValueError(f"confidence must be a number, got {self.confidence!r}") from None
        if type(self.confidence) is bool:
            raise ValueError(f"confidence must be a number, got {self.confidence}")
        _check_item(self, "detection")


@dataclass(frozen=True, slots=True)
class Annotation:
    class_id: int
    pose: Pose
    bbox: BBox2D | None = None

    def __post_init__(self) -> None:
        _check_item(self, "annotation")


def _check_record(image_id: object, items: object, field: str) -> None:
    """A record's id is a non-empty str and its items a tuple, so it hashes
    and reads back equal to itself."""
    if not isinstance(image_id, str) or not image_id:
        raise ValueError(f"image_id must be a non-empty string, got {image_id!r}")
    if not isinstance(items, tuple):
        raise ValueError(f"{field} must be a tuple, got {type(items).__name__}")


@dataclass(frozen=True, slots=True)
class ImageRecord:
    image_id: str
    items: tuple

    def __post_init__(self) -> None:
        _check_record(self.image_id, self.items, "items")


def _index_by_image(records: Sequence[ImageRecord], what: str) -> dict[str, ImageRecord]:
    """Records by ``image_id``, in input order; a repeated id raises ValueError."""
    out: dict[str, ImageRecord] = {}
    for record in records:
        if record.image_id in out:
            raise ValueError(f"duplicate image_id {record.image_id!r} in {what}")
        out[record.image_id] = record
    return out


@dataclass(frozen=True, slots=True)
class IgnoreRegions:
    image_id: str
    rects: tuple[BBox2D, ...]

    def __post_init__(self) -> None:
        _check_record(self.image_id, self.rects, "rects")
        for rect in self.rects:
            if not isinstance(rect, BBox2D):
                raise ValueError(f"rects must hold BBox2D boxes, got {rect!r}")


def _slot_setters(cls: type) -> tuple:
    """The bound ``__set__`` of each of ``cls``'s field slots, in field order."""
    return tuple(vars(cls)[f.name].__set__ for f in fields(cls))


_new = object.__new__
_set_qw, _set_qx, _set_qy, _set_qz = _slot_setters(Quaternion)
_set_tx, _set_ty, _set_tz = _slot_setters(Translation)
_set_rotation, _set_translation = _slot_setters(Pose)
_set_x1, _set_y1, _set_x2, _set_y2 = _slot_setters(BBox2D)
_set_class_id, _set_confidence, _set_bbox, _set_pose = _slot_setters(Detection)
_set_ann_class_id, _set_ann_pose, _set_ann_bbox = _slot_setters(Annotation)
