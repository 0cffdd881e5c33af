"""Malformed-input corpus for the record readers, and the transcript it gives.

Builds several hundred inputs for the four readers (predictions, ground
truth, ignore regions and the single-class CSV): valid items with each
field, and each element of each list field, replaced by a wrong type, a
bool, an int, a huge int, NaN, an infinity, an extreme magnitude or a
wrong shape, plus line-level faults (bad JSON, bad or repeated ids,
missing lists) and a few valid inputs. Each case is read with the public
``parse_*`` function and gives one JSON line: the error type, line, field
path and message, or, for an accepted input, the records written back as
canonical JSONL.

    PYTHONPATH=src python3 scripts/reader_corpus.py > tests/data/reader_transcript.jsonl

``tests/test_scripts.py`` compares the committed transcript with a fresh
one, so a change to any reader message, to what a reader accepts or to
the bytes it writes back shows up as a diff of that file.
"""

from __future__ import annotations

import io
import json
from typing import Iterator

from pose6d import (
    parse_csv_compat,
    parse_ground_truth,
    parse_ignore,
    parse_predictions,
    serialize_ground_truth,
    serialize_ignore,
    serialize_predictions,
)

HUGE = 10 ** 400
MISSING = object()

# (label, replacement) for a whole field and for one element of a list field
VALUES = [
    ("missing", MISSING), ("null", None), ("true", True), ("false", False),
    ("string", "1.0"), ("list", []), ("object", {}), ("int 0", 0), ("int -1", -1),
    ("int 1", 1), ("int 2", 2), ("0.0", 0.0), ("-0.0", -0.0), ("-1.5", -1.5),
    ("1.5", 1.5), ("1e308", 1e308), ("-1e308", -1e308), ("5e-324", 5e-324),
    ("NaN", float("nan")), ("Infinity", float("inf")), ("-Infinity", float("-inf")),
    ("huge int", HUGE), ("-huge int", -HUGE),
]
ELEMENT_VALUES = [(label, value) for label, value in VALUES
                  if label not in ("missing", "false", "list", "object", "int 1", "int 2", "0.0",
                                   "-1.5", "1.5", "5e-324")]

DETECTION = {"class_id": 3, "confidence": 0.75, "bbox": [10.0, 20.0, 110.0, 220.0],
             "quaternion": [0.5, 0.5, 0.5, 0.5], "translation": [1.5, -2.0, 12.0]}
LISTS = {"bbox": 4, "quaternion": 4, "euler": 3, "translation": 3}

# reader name -> (reader, the writer its records go back out through)
READERS = {
    "predictions": (parse_predictions, serialize_predictions),
    "ground_truth": (parse_ground_truth, serialize_ground_truth),
    "ignore": (parse_ignore, serialize_ignore),
    "csv": (parse_csv_compat, serialize_predictions),
}


def _line(key: str, items: list, image_id: object = "img") -> str:
    return json.dumps({"image_id": image_id, key: items})


def _with(item: dict, field: str, value: object) -> dict:
    out = dict(item)
    if value is MISSING:
        out.pop(field, None)
    else:
        out[field] = value
    return out


def _item_cases(base: dict) -> Iterator[tuple[str, object]]:
    """(label, item) for every field and list element of ``base`` replaced."""
    for field in base:
        for label, value in VALUES:
            yield f"{field} = {label}", _with(base, field, value)
        count = LISTS.get(field)
        if count is None:
            continue
        good = base[field]
        yield f"{field} short", _with(base, field, good[:-1])
        yield f"{field} long", _with(base, field, good + [0.0])
        for i in range(count):
            for label, value in ELEMENT_VALUES:
                values = list(good)
                values[i] = value
                yield f"{field}[{i}] = {label}", _with(base, field, values)


def _special_items(base: dict) -> Iterator[tuple[str, object]]:
    """(label, item) for Euler items, rotation clashes and edge values of each list."""
    euler = _with(base, "quaternion", MISSING)
    euler["euler"] = [0.1, -0.2, 0.3]
    yield "euler instead of quaternion", euler
    for label, item in _item_cases(euler):
        if label.startswith("euler"):
            yield f"euler item: {label}", item
    yield "both rotations", dict(base, euler=[0.0, 0.0, 0.0])
    yield "extra key", dict(base, score=2.0)
    for label, quaternion in [
        ("zero", [0.0, 0.0, 0.0, 0.0]), ("tiny", [1e-13, 0.0, 0.0, 0.0]),
        ("non-unit", [2.0, 0.0, 0.0, 0.0]), ("ints", [1, 0, 0, 0]),
        ("overflowing norm", [1e308, 0.0, 0.0, 0.0]),
        ("overflowing norm, negative", [0.0, -1e308, 1e308, 0.0]),
        ("subnormal", [5e-324, 0.0, 0.0, 0.0]),
    ]:
        yield f"quaternion {label}", dict(base, quaternion=quaternion)
    for label, bbox in [
        ("degenerate", [10.0, 20.0, 10.0, 220.0]), ("inverted", [110.0, 20.0, 10.0, 220.0]),
        ("width overflows", [-1e308, 0.0, 1e308, 1.0]),
        ("height overflows", [0.0, -1e308, 1.0, 1e308]),
        ("area overflows", [0.0, 0.0, 1e200, 1e200]),
        ("area underflows", [0.0, 0.0, 1e-200, 1e-200]), ("ints", [1, 2, 3, 4]),
    ]:
        yield f"bbox {label}", dict(base, bbox=bbox)
    for label, translation in [("z = 0", [0.0, 0.0, 0.0]), ("z < 0", [0.0, 0.0, -5.0]),
                               ("ints", [1, 2, 3])]:
        yield f"translation {label}", dict(base, translation=translation)
    for label, value in [("list", [1, 2]), ("string", "item"), ("int", 7), ("null", None),
                         ("true", True)]:
        yield f"item is {label}", value


def _line_cases(key: str, good: object, bad: object) -> Iterator[tuple[str, str]]:
    """Line-level faults of a JSONL reader whose list is named ``key``."""
    yield "invalid JSON", "{broken"
    yield "line is a list", "[]"
    yield "line is null", "null"
    yield "image_id missing", json.dumps({key: [good]})
    for label, image_id in [("empty", ""), ("int", 7), ("null", None)]:
        yield f"image_id {label}", _line(key, [good], image_id)
    yield "list missing", json.dumps({"image_id": "img"})
    for label, value in [("null", None), ("object", {}), ("string", "x")]:
        yield f"list is {label}", json.dumps({"image_id": "img", key: value})
    yield "empty list", _line(key, [])
    yield "duplicate image_id", _line(key, [good], "a") + "\n" + _line(key, [], "a")
    yield "bad item on line 3 after a blank line", "\n".join(
        [_line(key, [good], "a"), "", _line(key, [good, bad], "b")])
    yield "valid two lines", _line(key, [good, good], "a") + "\n" + _line(key, [good], "b")


def cases() -> Iterator[tuple[str, str, str]]:
    """(reader, label, text) for every case of the corpus."""
    annotation = _with(DETECTION, "confidence", MISSING)
    for reader, key, base in [("predictions", "detections", DETECTION),
                              ("ground_truth", "annotations", annotation)]:
        yield reader, "valid", _line(key, [base])
        for label, item in list(_item_cases(base)) + list(_special_items(base)):
            yield reader, label, _line(key, [item])
        for label, text in _line_cases(key, base, _with(base, "class_id", -1)):
            yield reader, label, text
    rect = [10.0, 20.0, 110.0, 220.0]
    yield "ignore", "valid", _line("rects", [rect])
    for label, value in VALUES:
        if value is not MISSING:
            yield "ignore", f"rect = {label}", _line("rects", [value])
    yield "ignore", "rect short", _line("rects", [rect[:3]])
    yield "ignore", "rect long", _line("rects", [rect + [0.0]])
    for i in range(4):
        for label, value in ELEMENT_VALUES:
            values = list(rect)
            values[i] = value
            yield "ignore", f"rect[{i}] = {label}", _line("rects", [values])
    for label, bad in [("degenerate", [1.0, 1.0, 1.0, 2.0]),
                       ("width overflows", [-1e308, 0.0, 1e308, 1.0]),
                       ("area underflows", [0.0, 0.0, 1e-200, 1e-200])]:
        yield "ignore", f"rect {label}", _line("rects", [bad])
    for label, text in _line_cases("rects", rect, [0.0, 0.0, 0.0, 0.0]):
        yield "ignore", label, text
    yield from _csv_cases()


def _csv_cases() -> Iterator[tuple[str, str, str]]:
    """(reader, label, text) for the CSV reader: every token of a group replaced."""
    group = ["0.1", "-0.2", "0.3", "1.5", "-2.0", "12.0", "0.75"]
    yield "csv", "valid", "img, " + " ".join(group)
    yield "csv", "valid two groups", "img, " + " ".join(group + group)
    yield "csv", "empty body", "img,"
    names = ("pitch", "yaw", "roll", "x", "y", "z", "confidence")
    for i, name in enumerate(names):
        for token in ("abc", "nan", "inf", "-inf", "1e400", "1" + "0" * 400, "0", "-1"):
            tokens = list(group)
            tokens[i] = token
            label = token if len(token) < 10 else "huge int"
            yield "csv", f"{name} = {label}", "img, " + " ".join(tokens)
    yield "csv", "confidence above 1", "img, " + " ".join(group[:6] + ["1.5"])
    yield "csv", "six tokens", "img, " + " ".join(group[:6])
    yield "csv", "no comma", "img " + " ".join(group)
    yield "csv", "empty image_id", ", " + " ".join(group)
    yield "csv", "duplicate image_id", "a,\na,"
    yield "csv", "bad second group on line 3 after a blank line", (
        "a,\n\nb, " + " ".join(group + group[:5] + ["0", "0.5"]))


def outcome(reader: str, text: str) -> dict:
    """What the reader makes of ``text``: its records written back, or its error."""
    parse, serialize = READERS[reader]
    try:
        records = parse(io.StringIO(text))
    except Exception as exc:  # every failure is part of the transcript
        out = {"error": type(exc).__name__}
        if hasattr(exc, "line"):
            out.update(line=exc.line, path=exc.path)
        out["message"] = str(exc)
        return out
    written = io.StringIO()
    serialize(records, written)
    return {"written": written.getvalue()}


def transcript() -> list[str]:
    """One JSON line per case: reader, case label and outcome."""
    return [json.dumps({"reader": reader, "case": label, **outcome(reader, text)})
            for reader, label, text in cases()]


def main() -> int:
    for line in transcript():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
