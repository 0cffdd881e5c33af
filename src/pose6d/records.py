"""Detection and annotation records plus their file formats.

Canonical interchange is JSON Lines, one image per line:

- predictions: ``{"image_id": str, "detections": [<item>, ...]}``
- ground truth: ``{"image_id": str, "annotations": [<item>, ...]}``
- ignore regions: ``{"image_id": str, "rects": [[x1, y1, x2, y2], ...]}``

Each item carries ``class_id`` (int), ``translation`` ``[x, y, z]`` in
meters, a rotation as exactly one of ``quaternion`` ``[w, x, y, z]`` or
``euler`` ``[roll, pitch, yaw]`` (radians), an optional ``bbox``
``[x1, y1, x2, y2]`` in pixels, and for detections a ``confidence`` in
[0, 1]. Quaternions are normalized at load time and written at full
round-trip precision, so ``parse(serialize(records))`` reproduces
field-exactly any records built with unit quaternions. The three kinds
share one reader and one writer, driven by one table. Every file is read
as UTF-8; a byte that is not is a ParseError at its line.

One builder, ``_build_item``, makes every item: it checks the item's shape
(exact JSON types, list lengths, one rotation), type-checks its numbers in
one test over all of them, and leaves every value to the constructors.
Only a line with an item that fails is read again on the located path. It
checks shape field by field (a ParseError, or a non-finite number's
ValidationError, at the first bad field), then builds the item through the
same builder, whose value refusal becomes a ValidationError at the item;
both carry the 1-based line number and the field path. So the fast path
changes no message and no record. Lateral recovery makes its detections
from validated ones, in ``_recovered``, which no reader uses.

A single-class CSV compatibility reader takes rows ``image_id, S``, where
``S`` repeats ``pitch yaw roll x y z confidence`` groups; each is built as
the item ``{"class_id": 0, "confidence": c, "euler": [roll, pitch, yaw],
"translation": [x, y, z]}`` at ``group[g]``. Output is always canonical JSONL.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

from .geometry import (
    BBox2D,
    CameraIntrinsics,
    EulerAngles,
    Pose,
    Quaternion,
    Translation,
    _slot_init,
    quat_from_euler,
    quat_normalize,
)


class _LocatedError(ValueError):
    """An input error at a 1-based line and field path."""

    def __init__(self, line: int, path: str, message: str):
        super().__init__(f"line {line}: {path}: {message}" if path else f"line {line}: {message}")
        self.line = line
        self.path = path


class ParseError(_LocatedError):
    """Input text that does not decode into the expected shape."""


class ValidationError(_LocatedError):
    """Decoded value that violates a record invariant."""


class NonFiniteError(ValueError):
    """A detection or annotation pose has a NaN or infinite component."""


class RecoveryOverflowError(NonFiniteError):
    """A lateral position recovered from a box center is beyond the float range."""


class MissingBoxError(ValueError):
    """A stage that reads 2D boxes got an item without one."""


def _item_at(record: ImageRecord, item) -> str:
    """``item``'s place in ``record``. The stages scan in order and refuse
    the first bad item, so no earlier item equals it."""
    return f"image {record.image_id!r}, item {record.items.index(item)}"


def _missing_box(stage: str, record: ImageRecord, item, where: str = "") -> MissingBoxError:
    return MissingBoxError(f"{stage} requires items with a bbox; {where}{_item_at(record, item)} "
                           "has none")


def _non_finite_pose(kind: str, pose: Pose) -> str:
    return f"{kind} has a non-finite pose: {pose}"


def _check_item(item: Detection | Annotation, kind: str) -> None:
    """The reader's item invariants: z > 0 (so not NaN), a finite pose, an int class_id >= 0."""
    t, q = item.pose.translation, item.pose.rotation
    if not t.z > 0.0:
        raise ValueError(f"{kind} depth must be positive, got z={t.z}")
    if not (math.isfinite(t.x) and math.isfinite(t.y) and math.isfinite(t.z) and math.isfinite(q.w)
            and math.isfinite(q.x) and math.isfinite(q.y) and math.isfinite(q.z)):
        raise NonFiniteError(_non_finite_pose(kind, item.pose))
    if isinstance(item.class_id, bool) or not isinstance(item.class_id, int) or item.class_id < 0:
        raise ValueError(f"{kind} class_id must be an integer >= 0, got {item.class_id!r}")


@_slot_init
@dataclass(frozen=True, slots=True)
class Detection:
    class_id: int
    confidence: float
    bbox: BBox2D | None
    pose: Pose

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be within [0, 1], got {self.confidence}")
        _check_item(self, "detection")


@_slot_init
@dataclass(frozen=True, slots=True)
class Annotation:
    class_id: int
    pose: Pose
    bbox: BBox2D | None = None

    def __post_init__(self) -> None:
        _check_item(self, "annotation")


_new = object.__new__
_set_x, _set_y, _set_z = Translation.x.__set__, Translation.y.__set__, Translation.z.__set__
_set_rotation, _set_translation = Pose.rotation.__set__, Pose.translation.__set__
_set_class_id, _set_confidence = Detection.class_id.__set__, Detection.confidence.__set__
_set_bbox, _set_pose = Detection.bbox.__set__, Detection.pose.__set__


def _recovered(items: tuple, k: CameraIntrinsics, record: ImageRecord | None = None) -> tuple:
    """``items``, validated detections, with x and y back-projected from each
    box center at its z (``backproject``'s arithmetic) and checked by
    ``_check_item``'s rule; the rest is the detection's own. The new
    ``Translation``, ``Pose`` and ``Detection`` are stored through their
    slots, with no ``__init__`` to run. MissingBoxError and
    RecoveryOverflowError are raised where found, naming the image and item
    when ``items`` are ``record``'s."""
    fx, fy, cx, cy = k.fx, k.fy, k.cx, k.cy
    out = []
    for det in items:
        if (box := det.bbox) is None:
            if record is None:
                raise MissingBoxError("recover_xy requires a detection with a bbox")
            raise _missing_box("recover_xy", record, det)
        pose = det.pose
        z = pose.translation.z
        x = ((box.x1 + box.x2) * 0.5 - cx) * z / fx
        y = ((box.y1 + box.y2) * 0.5 - cy) * z / fy
        if not (math.isfinite(x) and math.isfinite(y)):
            where = "" if record is None else f" at {_item_at(record, det)}"
            raise RecoveryOverflowError(f"recover_xy overflows{where}: " + _non_finite_pose(
                "detection", Pose(pose.rotation, Translation(x, y, z))))
        _set_x(t := _new(Translation), x)
        _set_y(t, y)
        _set_z(t, z)
        _set_rotation(new_pose := _new(Pose), pose.rotation)
        _set_translation(new_pose, t)
        _set_class_id(moved := _new(Detection), det.class_id)
        _set_confidence(moved, det.confidence)
        _set_bbox(moved, box)
        _set_pose(moved, new_pose)
        out.append(moved)
    return tuple(out)


def _check_record(image_id: object, items: object, field: str) -> None:
    """A record's id is a non-empty str and its items a tuple, so it hashes
    and reads back equal to itself."""
    if not isinstance(image_id, str) or not image_id:
        raise ValueError(f"image_id must be a non-empty string, got {image_id!r}")
    if not isinstance(items, tuple):
        raise ValueError(f"{field} must be a tuple, got {type(items).__name__}")


@_slot_init
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


@_slot_init
@dataclass(frozen=True, slots=True)
class IgnoreRegions:
    image_id: str
    rects: tuple[BBox2D, ...]

    def __post_init__(self) -> None:
        _check_record(self.image_id, self.rects, "rects")


Lines = Union[IO[str], Iterable[str]]


def _iter_lines(stream: Lines) -> Iterator[tuple[int, str]]:
    for number, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if line.strip():
            yield number, line


def _get_image_id(number: int, image_id: object, seen: set[str]) -> str:
    if not isinstance(image_id, str) or not image_id:
        raise ParseError(number, "image_id", "must be a non-empty string")
    if image_id in seen:
        raise ParseError(number, "image_id", f"duplicate image_id {image_id!r}")
    seen.add(image_id)
    return image_id


def _number(number: int, value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(number, path, f"must be a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an int literal beyond the float range reads as 1e400 does
        out = math.inf if value > 0 else -math.inf
    if not math.isfinite(out):
        raise ValidationError(number, path, f"must be finite, got {out}")
    return out


def _number_list(number: int, value: object, count: int, path: str) -> list[float]:
    if not isinstance(value, list) or len(value) != count:
        raise ParseError(number, path, f"must be a list of {count} numbers")
    return [_number(number, v, f"{path}[{i}]") for i, v in enumerate(value)]


def _named_numbers(number: int, obj: object, keys: Sequence[str], path: str = "") -> list[float]:
    """The numbers at ``keys`` of the JSON object ``obj`` at ``path``, read key
    by key in order: a missing key is a ParseError, then ``_number`` checks it."""
    if not isinstance(obj, dict):
        raise ParseError(number, path, f"expected a JSON object, got {type(obj).__name__}")
    values = []
    for key in keys:
        field = f"{path}.{key}" if path else key
        if key not in obj:
            raise ParseError(number, field, "missing required key")
        values.append(_number(number, obj[key], field))
    return values


def _located(number: int, path: str, build: Callable, *args):
    """``build(*args)``, with the ValueError it raises located at ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValidationError(number, path, str(exc)) from exc


def _parse_item(kind: type, number: int, obj: object, path: str) -> Detection | Annotation | BBox2D:
    """One ``kind`` item (detection, annotation or box), located: its shape is
    checked field by field, so the first bad field is named, then
    ``_build_item`` makes it, and a value refusal is located at the item."""
    if kind is BBox2D:
        _number_list(number, obj, 4, path)
        return _located(number, path, _build_item, kind, obj)
    if not isinstance(obj, dict):
        raise ParseError(number, path, f"expected an object, got {type(obj).__name__}")
    class_id = obj.get("class_id")
    if isinstance(class_id, bool) or not isinstance(class_id, int):
        raise ParseError(number, f"{path}.class_id", "must be an integer")
    if kind is Detection:
        _number(number, obj.get("confidence"), f"{path}.confidence")
    if obj.get("bbox") is not None:
        _number_list(number, obj["bbox"], 4, f"{path}.bbox")
    if ("quaternion" in obj) == ("euler" in obj):
        raise ParseError(number, path, "exactly one of 'quaternion' or 'euler' is required")
    rotation, count = ("quaternion", 4) if "quaternion" in obj else ("euler", 3)
    _number_list(number, obj[rotation], count, f"{path}.{rotation}")
    _number_list(number, obj.get("translation"), 3, f"{path}.translation")
    return _located(number, path, _build_item, kind, obj)


_FLOAT, _NUMBER = frozenset((float,)), frozenset((float, int))  # exact: a bool is no number


def _floats(value: object, count: int) -> list[float]:
    """``value`` as floats when it is a list of ``count`` ints or floats, else TypeError."""
    if type(value) is list and len(value) == count:
        if _FLOAT.issuperset(map(type, value)):
            return value
        if _NUMBER.issuperset(map(type, value)):
            return list(map(float, value))
    raise TypeError(value)


def _build_item(kind: type, obj: object):
    """The one item builder: it checks only the shape of ``obj`` and leaves
    every value to the constructors, so where ``_parse_item`` would fail on
    shape it raises KeyError, TypeError, ValueError or OverflowError instead.
    An item's numbers are type-checked once, as one list, and a list of the
    wrong length fails the arity of the constructor it is passed to; only an
    item with a number to convert (an int) takes ``_floats`` list by list."""
    if kind is BBox2D:
        return BBox2D(*_floats(obj, 4))
    if type(obj) is not dict or type(obj["class_id"]) is not int or (
            ("euler" in obj) == ("quaternion" in obj)):
        raise TypeError(obj)
    euler = "euler" in obj
    rotation = obj["euler"] if euler else obj["quaternion"]
    translation, bbox = obj["translation"], obj.get("bbox")
    confidence = obj["confidence"] if kind is Detection else 0.0
    if not (type(rotation) is list and type(translation) is list
            and (bbox is None or type(bbox) is list)
            and _FLOAT.issuperset(map(type, [confidence, *rotation, *translation, *(bbox or ())]))):
        rotation, translation = _floats(rotation, 3 if euler else 4), _floats(translation, 3)
        bbox = None if bbox is None else _floats(bbox, 4)
        confidence, = _floats([confidence], 1)
    rotation = (quat_from_euler(EulerAngles(*rotation)) if euler
                else quat_normalize(Quaternion(*rotation)))
    pose = Pose(rotation, Translation(*translation))
    bbox = None if bbox is None else BBox2D(*bbox)
    if kind is Annotation:
        return Annotation(obj["class_id"], pose, bbox)
    return Detection(obj["class_id"], confidence, bbox, pose)


def _box_values(box: BBox2D) -> list[float]:
    return [box.x1, box.y1, box.x2, box.y2]


def _item_dict(item: Detection | Annotation) -> dict:
    out: dict = {"class_id": item.class_id}
    if isinstance(item, Detection):
        out["confidence"] = item.confidence
    if item.bbox is not None:
        out["bbox"] = _box_values(item.bbox)
    q = item.pose.rotation
    t = item.pose.translation
    out["quaternion"] = [q.w, q.x, q.y, q.z]
    out["translation"] = [t.x, t.y, t.z]
    return out


# list key of a JSONL line -> (record type, its item field, item type, item
# writer, what the records are called in messages)
_KINDS: dict[str, tuple[type, str, type, Callable, str]] = {
    "detections": (ImageRecord, "items", Detection, _item_dict, "predictions"),
    "annotations": (ImageRecord, "items", Annotation, _item_dict, "ground truth"),
    "rects": (IgnoreRegions, "rects", BBox2D, _box_values, "ignore regions"),
}


def _parse_jsonl(stream: Lines, key: str) -> list:
    """Read JSONL whose lines carry ``image_id`` and a ``key`` list of items."""
    record_type, _, kind, _, _ = _KINDS[key]
    build = partial(_build_item, kind)
    records = []
    seen: set[str] = set()
    for number, line in _iter_lines(stream):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(number, "", f"invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise ParseError(number, "", f"expected a JSON object, got {type(obj).__name__}")
        image_id = _get_image_id(number, obj.get("image_id"), seen)
        items = obj.get(key)
        if not isinstance(items, list):
            raise ParseError(number, key, "must be a list")
        try:
            built = tuple(map(build, items))
        except (KeyError, TypeError, ValueError, OverflowError):  # locate the fault
            built = tuple(_parse_item(kind, number, item, f"{key}[{i}]")
                          for i, item in enumerate(items))
        records.append(record_type(image_id, built))
    return records


def _serialize_jsonl(records: Iterable, stream: IO[str], key: str) -> None:
    """Write records as canonical JSONL (inverse of ``_parse_jsonl``).

    The invariants the reader checks across records are checked first, so
    a refusal (ValueError) writes nothing: each image_id once, and every
    item of the file's kind. Each record and item checks its own values
    when it is built."""
    _, field, kind, write_item, what = _KINDS[key]
    records = list(records)
    for record in _index_by_image(records, what).values():
        for i, item in enumerate(getattr(record, field)):
            if not isinstance(item, kind):
                raise ValueError(f"image_id {record.image_id!r}: {key}[{i}]: expected "
                                 f"{kind.__name__}, got {type(item).__name__}")
    for record in records:
        obj = {"image_id": record.image_id, key: [write_item(i) for i in getattr(record, field)]}
        stream.write(json.dumps(obj) + "\n")


def parse_predictions(stream: Lines) -> list[ImageRecord]:
    """Read prediction JSONL into one ImageRecord of Detections per image."""
    return _parse_jsonl(stream, "detections")


def parse_ground_truth(stream: Lines) -> list[ImageRecord]:
    """Read ground-truth JSONL into one ImageRecord of Annotations per image."""
    return _parse_jsonl(stream, "annotations")


def parse_ignore(stream: Lines) -> list[IgnoreRegions]:
    """Read ignore-region JSONL (one set of rectangles per image)."""
    return _parse_jsonl(stream, "rects")


def parse_csv_compat(stream: Lines) -> list[ImageRecord]:
    """Read single-class CSV rows ``image_id, pitch yaw roll x y z confidence ...``."""
    records: list[ImageRecord] = []
    seen: set[str] = set()
    for number, line in _iter_lines(stream):
        if "," not in line:
            raise ParseError(number, "", "expected 'image_id, prediction string'")
        image_id, _, body = line.partition(",")
        image_id = _get_image_id(number, image_id.strip(), seen)
        tokens = body.split()
        if len(tokens) % 7 != 0:
            raise ParseError(number, "", f"token count {len(tokens)} is not a multiple of 7")
        dets = []
        for g in range(len(tokens) // 7):
            path = f"group[{g}]"
            vals = []
            for offset, name in enumerate(("pitch", "yaw", "roll", "x", "y", "z", "confidence")):
                token = tokens[g * 7 + offset]
                try:
                    value = float(token)
                except ValueError as exc:
                    raise ParseError(number, f"{path}.{name}", f"not a number: {token!r}") from exc
                vals.append(_number(number, value, f"{path}.{name}"))
            pitch, yaw, roll, x, y, z, confidence = vals
            dets.append(_located(number, path, _build_item, Detection, {
                "class_id": 0, "confidence": confidence, "euler": [roll, pitch, yaw],
                "translation": [x, y, z]}))
        records.append(ImageRecord(image_id=image_id, items=tuple(dets)))
    return records


def serialize_predictions(records: Iterable[ImageRecord], stream: IO[str]) -> None:
    """Write prediction records as canonical JSONL (inverse of parse_predictions)."""
    _serialize_jsonl(records, stream, "detections")


def serialize_ground_truth(records: Iterable[ImageRecord], stream: IO[str]) -> None:
    """Write ground-truth records as canonical JSONL (inverse of parse_ground_truth)."""
    _serialize_jsonl(records, stream, "annotations")


def serialize_ignore(regions: Iterable[IgnoreRegions], stream: IO[str]) -> None:
    _serialize_jsonl(regions, stream, "rects")


def _load(path: str, parse: Callable[[IO[str]], object]):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle)
    except UnicodeDecodeError:  # its offset is within a read chunk: decode once more
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:  # lines counted as the text reader splits them
            before = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).getvalue()
            raise ParseError(before.count("\n") + 1, "", f"byte {exc.start} of {path} is not "
                             f"UTF-8 ({exc.reason})") from None
        raise


def _save(records: Iterable, path: str, serialize: Callable[[Iterable, IO[str]], None]) -> None:
    """Serialize ``records`` before ``path`` is opened, so a refusal neither
    creates nor truncates the file."""
    text = io.StringIO()
    serialize(records, text)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.getvalue())


def load_predictions(path: str) -> list[ImageRecord]:
    return _load(path, parse_predictions)


def load_ground_truth(path: str) -> list[ImageRecord]:
    return _load(path, parse_ground_truth)


def load_ignore(path: str) -> list[IgnoreRegions]:
    return _load(path, parse_ignore)


def load_csv_compat(path: str) -> list[ImageRecord]:
    return _load(path, parse_csv_compat)


def save_predictions(records: Iterable[ImageRecord], path: str) -> None:
    _save(records, path, serialize_predictions)


def save_ground_truth(records: Iterable[ImageRecord], path: str) -> None:
    _save(records, path, serialize_ground_truth)


def save_ignore(regions: Iterable[IgnoreRegions], path: str) -> None:
    _save(regions, path, serialize_ignore)


def _read_json(path: str) -> object:
    """Decode a whole JSON file; a syntax error raises ParseError at its line."""
    try:
        return _load(path, json.load)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, "", f"invalid JSON ({exc.msg})") from exc


def load_camera(path: str) -> CameraIntrinsics:
    """Read pinhole intrinsics from a JSON file with keys fx, fy, cx, cy."""
    values = _named_numbers(1, _read_json(path), ("fx", "fy", "cx", "cy"))
    return _located(1, "fx/fy", CameraIntrinsics, *values)


def save_camera(k: CameraIntrinsics, path: str) -> None:
    _save({"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy}, path,
          lambda obj, stream: stream.write(json.dumps(obj) + "\n"))
