"""The file formats: prediction, ground-truth and ignore JSON Lines, the
single-class CSV, camera JSON and ladder JSON. The package reads every
file here, and ``_write`` is its one function that opens a file for
writing: each writer, ``cli``'s report and sweep curve too, makes its whole
text first, so a refusal writes nothing.

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
as UTF-8; a byte that is not is a ParseError at its line. A line is read
through ``_build_item``; only a line with an item that it refuses is read
again on the located path, ``_parse_item``, which names the first bad
field, so the fast path changes no message and no record.

A single-class CSV compatibility reader takes rows ``image_id, S``, where
``S`` repeats ``pitch yaw roll x y z confidence`` groups; each is built as
the item ``{"class_id": 0, "confidence": c, "euler": [roll, pitch, yaw],
"translation": [x, y, z]}`` at ``group[g]``. Output is always canonical JSONL.

Ladder files are JSON arrays of ``{"trans_m": .., "rot_deg": ..}``;
degrees are converted to radians at load time.
"""

from __future__ import annotations

import io
import json
import math
from functools import partial
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

from .geometry import (BBox2D, CameraIntrinsics, EulerAngles, Pose, Quaternion, Translation,
                       _UNIT_NORM_SQ_TOL, quat_from_euler, quat_normalize)
from .metrics import ThresholdLadder
from .records import (Annotation, Detection, IgnoreRegions, ImageRecord, _index_by_image, _new,
                      _set_ann_bbox, _set_ann_class_id, _set_ann_pose, _set_bbox, _set_class_id,
                      _set_confidence, _set_pose, _set_qw, _set_qx, _set_qy, _set_qz,
                      _set_rotation, _set_translation, _set_tx, _set_ty, _set_tz, _set_x1,
                      _set_x2, _set_y1, _set_y2, _slot_setters)


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
    """The one item builder: it checks the shape of ``obj``, so where
    ``_parse_item`` would fail on shape it raises KeyError, TypeError,
    ValueError or OverflowError instead. An item's numbers are type-checked
    once, as one list; only an item with a number to convert (an int) takes
    ``_floats`` list by list. Its values are then checked in one test, no
    looser than the constructors, and stored through the slots with no
    ``__init__``; an item that fails the test (or whose finite terms sum
    beyond the float range) is built by ``_construct_item``, whose
    constructors refuse it or build the same record."""
    if kind is BBox2D:
        return BBox2D(*_floats(obj, 4))
    if type(obj) is not dict or type(class_id := obj["class_id"]) is not int or (
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
    # Every number is a float now. A sum of floats is finite only if every
    # term is, and a squared norm (in Quaternion.dot's order) within 1e-12 of
    # 1 is one that quat_normalize returns unchanged.
    tx, ty, tz = translation
    total = tx + ty + tz
    if euler:
        q = quat_from_euler(EulerAngles(*rotation))
        total += q.w + q.x + q.y + q.z
        valid = True
    else:
        w, x, y, z = rotation
        valid = abs(w * w + x * x + y * y + z * z - 1.0) <= _UNIT_NORM_SQ_TOL
    if bbox is not None:
        x1, y1, x2, y2 = bbox
        area = (x2 - x1) * (y2 - y1)
        valid = valid and x1 < x2 and y1 < y2 and area > 0.0
        total += x1 + y1 + x2 + y2 + area
    if not (valid and tz > 0.0 and 0.0 <= confidence <= 1.0 and class_id >= 0
            and math.isfinite(total)):
        return _construct_item(kind, class_id, confidence, euler, rotation, translation, bbox)
    if not euler:
        _set_qw(q := _new(Quaternion), w)
        _set_qx(q, x)
        _set_qy(q, y)
        _set_qz(q, z)
    _set_tx(t := _new(Translation), tx)
    _set_ty(t, ty)
    _set_tz(t, tz)
    _set_rotation(pose := _new(Pose), q)
    _set_translation(pose, t)
    if bbox is not None:
        _set_x1(bbox := _new(BBox2D), x1)
        _set_y1(bbox, y1)
        _set_x2(bbox, x2)
        _set_y2(bbox, y2)
    if kind is Annotation:
        _set_ann_class_id(item := _new(Annotation), class_id)
        _set_ann_pose(item, pose)
        _set_ann_bbox(item, bbox)
        return item
    _set_class_id(item := _new(Detection), class_id)
    _set_confidence(item, confidence)
    _set_bbox(item, bbox)
    _set_pose(item, pose)
    return item


def _construct_item(kind: type, class_id: int, confidence: float, euler: bool,
                    rotation: list[float], translation: list[float], bbox: list[float] | None):
    """The item built through its constructors: the refusal path, with their messages."""
    rotation = (quat_from_euler(EulerAngles(*rotation)) if euler
                else quat_normalize(Quaternion(*rotation)))
    pose = Pose(rotation, Translation(*translation))
    bbox = None if bbox is None else BBox2D(*bbox)
    if kind is Annotation:
        return Annotation(class_id, pose, bbox)
    return Detection(class_id, confidence, bbox, pose)


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
    set_image_id, set_items = _slot_setters(record_type)
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
        # _get_image_id has checked the id and the items are a tuple
        set_image_id(record := _new(record_type), image_id)
        set_items(record, built)
        records.append(record)
    return records


def _jsonl(records: Iterable, key: str) -> str:
    """Records as canonical JSONL text (inverse of ``_parse_jsonl``).

    The invariants the reader checks across records are checked first, each
    a ValueError, in this order: each image_id once, then every item of the
    file's kind. Each record and item checks its own values when it is built."""
    _, field, kind, write_item, what = _KINDS[key]
    records = list(records)
    for record in _index_by_image(records, what).values():
        for i, item in enumerate(getattr(record, field)):
            if not isinstance(item, kind):
                raise ValueError(f"image_id {record.image_id!r}: {key}[{i}]: expected "
                                 f"{kind.__name__}, got {type(item).__name__}")
    objs = ({"image_id": r.image_id, key: [write_item(i) for i in getattr(r, field)]} for r in records)
    return "".join(json.dumps(obj) + "\n" for obj in objs)


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
    set_image_id, set_items = _slot_setters(ImageRecord)
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
        # _get_image_id has checked the id and the items are a tuple
        set_image_id(record := _new(ImageRecord), image_id)
        set_items(record, tuple(dets))
        records.append(record)
    return records


def serialize_predictions(records: Iterable[ImageRecord], stream: IO[str]) -> None:
    """Write prediction records as canonical JSONL (inverse of parse_predictions)."""
    stream.write(_jsonl(records, "detections"))


def serialize_ground_truth(records: Iterable[ImageRecord], stream: IO[str]) -> None:
    """Write ground-truth records as canonical JSONL (inverse of parse_ground_truth)."""
    stream.write(_jsonl(records, "annotations"))


def serialize_ignore(regions: Iterable[IgnoreRegions], stream: IO[str]) -> None:
    stream.write(_jsonl(regions, "rects"))


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


def _write(path: str, text: str) -> None:
    """The one place a file is opened for writing. Callers make the whole
    text first, so a refusal neither creates nor truncates the file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_predictions(path: str) -> list[ImageRecord]:
    return _load(path, parse_predictions)


def load_ground_truth(path: str) -> list[ImageRecord]:
    return _load(path, parse_ground_truth)


def load_ignore(path: str) -> list[IgnoreRegions]:
    return _load(path, parse_ignore)


def load_csv_compat(path: str) -> list[ImageRecord]:
    return _load(path, parse_csv_compat)


def save_predictions(records: Iterable[ImageRecord], path: str) -> None:
    _write(path, _jsonl(records, "detections"))


def save_ground_truth(records: Iterable[ImageRecord], path: str) -> None:
    _write(path, _jsonl(records, "annotations"))


def save_ignore(regions: Iterable[IgnoreRegions], path: str) -> None:
    _write(path, _jsonl(regions, "rects"))


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
    _write(path, json.dumps({"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy}) + "\n")


def parse_ladder(data: object) -> ThresholdLadder:
    if not isinstance(data, list) or not data:
        raise ParseError(1, "", "ladder must be a non-empty JSON array")
    pairs = []
    for i, entry in enumerate(data):
        trans_m, rot_deg = _named_numbers(1, entry, ("trans_m", "rot_deg"), f"[{i}]")
        try:
            pairs += ThresholdLadder(pairs=((trans_m, math.radians(rot_deg)),)).pairs
        except ValueError as exc:  # worded in the file's units
            raise ValidationError(1, f"[{i}]", "a ladder pair must be two finite positive "
                                  f"numbers, got trans_m={trans_m}, rot_deg={rot_deg} "
                                  f"({math.radians(rot_deg)} rad)") from exc
    return ThresholdLadder(pairs=tuple(pairs))


def load_ladder(path: str) -> ThresholdLadder:
    return parse_ladder(_read_json(path))
