"""Record parsing, validation, and serialization tests."""

import io
import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pose6d import (
    Annotation,
    BBox2D,
    CameraIntrinsics,
    Detection,
    EulerAngles,
    IgnoreRegions,
    ImageRecord,
    NonFiniteError,
    ParseError,
    Pose,
    Quaternion,
    SceneSpec,
    Translation,
    ValidationError,
    generate_scene,
    load_camera,
    load_ground_truth,
    load_ignore,
    load_predictions,
    parse_csv_compat,
    parse_ground_truth,
    parse_ignore,
    parse_predictions,
    perturb,
    quat_from_euler,
    quat_normalize,
    save_camera,
    save_ground_truth,
    save_ignore,
    save_predictions,
    serialize_ground_truth,
    serialize_ignore,
    serialize_predictions,
)

from pose6d import formats, records as records_module

from helpers import CROWDED_NOISE, IDENTITY, ann, det, image

HALF_SQRT2 = math.sqrt(0.5)


def roundtrip(records, serialize=serialize_predictions, parse=parse_predictions):
    buffer = io.StringIO()
    serialize(records, buffer)
    return parse(io.StringIO(buffer.getvalue()))


def pred_line(**overrides) -> str:
    obj = {
        "image_id": "img_a",
        "detections": [{
            "class_id": 0,
            "confidence": 0.9,
            "quaternion": [1.0, 0.0, 0.0, 0.0],
            "translation": [1.0, 2.0, 10.0],
        }],
    }
    if "detections" in overrides:
        obj["detections"] = overrides.pop("detections")
    elif overrides:
        obj["detections"][0].update(overrides)
    return json.dumps(obj)


def gt_line(drop=(), **overrides) -> str:
    item = {"class_id": 0, "quaternion": [1.0, 0.0, 0.0, 0.0], "translation": [1.0, 2.0, 10.0]}
    item.update(overrides)
    for key in drop:
        del item[key]
    return json.dumps({"image_id": "img_a", "annotations": [item]})


unit_interval = st.floats(0.0, 1.0)
coords = st.floats(-1e6, 1e6)
depths = st.floats(0.001, 1e6)


@st.composite
def unit_quaternions(draw):
    comps = [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    if sum(c * c for c in comps) < 1e-4:
        comps = [1.0, 0.0, 0.0, 0.0]
    return quat_normalize(Quaternion(*comps))


@st.composite
def detections(draw):
    quat = draw(unit_quaternions())
    bbox = None
    if draw(st.booleans()):
        x1, y1 = draw(coords), draw(coords)
        bbox = BBox2D(x1, y1, x1 + draw(st.floats(0.1, 100.0)), y1 + draw(st.floats(0.1, 100.0)))
    return Detection(
        class_id=draw(st.integers(0, 50)),
        confidence=draw(unit_interval),
        bbox=bbox,
        pose=Pose(quat, Translation(draw(coords), draw(coords), draw(depths))),
    )


@st.composite
def annotations(draw):
    d = draw(detections())
    return Annotation(class_id=d.class_id, pose=d.pose, bbox=d.bbox)


@st.composite
def boxes(draw):
    x1, y1 = draw(coords), draw(coords)
    return BBox2D(x1, y1, x1 + draw(st.floats(0.1, 100.0)), y1 + draw(st.floats(0.1, 100.0)))


@st.composite
def image_records(draw, items=detections, ids=None, containers=st.just(tuple)):
    """1-3 records of 0-3 items held in a drawn container type; ids
    ``img_0``, ``img_1``, ... or drawn from ``ids``."""
    n = draw(st.integers(0, 3))
    return [
        ImageRecord(image_id=f"img_{i}" if ids is None else draw(ids),
                    items=draw(containers)(draw(items()) for _ in range(n)))
        for i in range(draw(st.integers(1, 3)))
    ]


NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def loose_items(draw, kind):
    """A Detection or Annotation whose fields now and then break an item
    invariant: NaN or inf, a bool for a number, a depth <= 0, a negative or
    bool class_id, a confidence outside [0, 1], a degenerate box, a
    quaternion scaled off unit (by 2, by 1e-13 or by 1e308). A float field
    is now and then a numpy float32 or float64 of its value.
    Building a bad item raises ValueError out of the draw."""
    def rare():  # one draw in twenty
        return draw(st.integers(0, 19)) == 0

    def field(valid, *bad):  # one draw in twenty takes a bad value
        return draw(st.sampled_from(bad) if rare() else valid)

    def numpy(*values):  # now and then the values as numpy floats of one type
        if not rare():
            return values
        with np.errstate(over="ignore"):  # a float32 beyond its range is inf
            return tuple(map(draw(st.sampled_from([np.float32, np.float64])), values))

    finite = st.floats(allow_nan=False, allow_infinity=False)
    bbox = None
    if draw(st.booleans()):
        x1, y1 = field(coords, *NON_FINITE, False), field(coords, *NON_FINITE)
        bbox = BBox2D(*numpy(x1, y1, x1 + field(st.floats(0.1, 100.0), 0.0, math.inf),
                             y1 + field(st.floats(0.1, 100.0), -1.0, math.nan)))
    q = draw(unit_quaternions())
    scale = field(st.just(1.0), 2.0, 1e-13, 1e308)
    fields = {
        "class_id": field(st.integers(0, 50), -1, True, False),
        "bbox": bbox,
        "pose": Pose(Quaternion(*numpy(*(scale * c for c in (q.w, q.x, q.y, q.z)))),
                     Translation(*numpy(field(finite, *NON_FINITE, True), field(finite, *NON_FINITE),
                                        field(st.floats(0.0, exclude_min=True, allow_infinity=False),
                                              0.0, -1.0, True, *NON_FINITE)))),
    }
    if kind is Detection:
        fields["confidence"], = numpy(field(unit_interval, -0.1, 1.5, math.nan, True, False))
    return kind(**fields)


@st.composite
def mixed_items(draw, kind):
    """``loose_items`` of ``kind``, or now and then of the other item kind."""
    other = Annotation if kind is Detection else Detection
    return draw(loose_items(other if draw(st.integers(0, 9)) == 0 else kind))


# valid ids, of which a short list repeats often, and ids no reader accepts
LOOSE_IDS = st.one_of(st.sampled_from(["a", "b", "img_0"]), st.sampled_from(["", 7, None]))


# item and rect containers: the tuple records hold, and a list
LOOSE_CONTAINERS = st.sampled_from([tuple, list])


@st.composite
def ignore_records(draw, containers=st.just(tuple)):
    return [IgnoreRegions(f"img_{i}", draw(containers)(draw(boxes())
                                                       for _ in range(draw(st.integers(0, 3)))))
            for i in range(draw(st.integers(1, 3)))]


class TestPredictionRoundTrip:
    def test_known_records_survive_field_exactly(self):
        records = [
            image("img_a",
                  det(1.0, 2.0, 10.0, confidence=0.875, bbox=BBox2D(10.0, 20.0, 30.0, 40.0)),
                  det(-0.5, 0.25, 7.0, confidence=0.1, class_id=3,
                      quat=quat_normalize(Quaternion(0.3, -0.4, 0.5, 0.7)))),
            image("img_b"),
        ]
        assert roundtrip(records) == records

    @given(image_records())
    def test_random_records_survive_field_exactly(self, records):
        assert roundtrip(records) == records

    def test_file_round_trip(self, tmp_path):
        records = [image("only", det(0.5, -1.5, 12.0, confidence=1.0 / 3.0))]
        path = str(tmp_path / "preds.jsonl")
        save_predictions(records, path)
        assert load_predictions(path) == records

    def test_serialization_always_writes_quaternions(self):
        buffer = io.StringIO()
        serialize_predictions([image("a", det(0.0, 0.0, 5.0))], buffer)
        obj = json.loads(buffer.getvalue())
        assert "quaternion" in obj["detections"][0]
        assert "euler" not in obj["detections"][0]
        assert "bbox" not in obj["detections"][0]

    def test_euler_input_matches_direct_conversion(self):
        line = json.dumps({"image_id": "a", "detections": [{
            "class_id": 0, "confidence": 0.5,
            "euler": [0.3, 0.1, 0.2], "translation": [0.0, 0.0, 5.0],
        }]})
        [record] = parse_predictions([line])
        expected = quat_from_euler(EulerAngles(roll=0.3, pitch=0.1, yaw=0.2))
        assert record.items[0].pose.rotation == expected

    def test_non_unit_quaternion_is_normalized_at_load(self):
        line = pred_line(quaternion=[2.0, 0.0, 0.0, 0.0])
        [record] = parse_predictions([line])
        assert record.items[0].pose.rotation == Quaternion(1.0, 0.0, 0.0, 0.0)

    def test_overflowing_quaternion_reads_as_its_direction_and_round_trips(self):
        # its squared norm overflowed, so it used to read as the zero quaternion,
        # which the writer saved and the reader then refused
        [record] = parse_predictions([pred_line(quaternion=[1e308, 0.0, 0.0, 0.0])])
        assert record.items[0].pose.rotation == Quaternion(1.0, 0.0, 0.0, 0.0)
        assert roundtrip([record]) == [record]

    def test_blank_lines_are_skipped_but_numbering_is_kept(self):
        text = "\n" + pred_line() + "\n\n{bad json\n"
        with pytest.raises(ParseError) as err:
            parse_predictions(io.StringIO(text))
        assert err.value.line == 4


class TestGroundTruthRoundTrip:
    def test_known_records(self, tmp_path):
        records = [image("img_a",
                         ann(1.0, 2.0, 10.0, bbox=BBox2D(0.0, 0.0, 5.0, 5.0)),
                         ann(0.0, 0.0, 30.0, class_id=2))]
        path = str(tmp_path / "gt.jsonl")
        save_ground_truth(records, path)
        assert load_ground_truth(path) == records

    @given(image_records(items=annotations))
    def test_random_records_survive_field_exactly(self, records):
        assert roundtrip(records, serialize_ground_truth, parse_ground_truth) == records

    def test_no_confidence_key_in_output(self, tmp_path):
        path = str(tmp_path / "gt.jsonl")
        save_ground_truth([image("a", ann(0.0, 0.0, 5.0))], path)
        with open(path, encoding="utf-8") as handle:
            obj = json.loads(handle.read())
        assert "confidence" not in obj["annotations"][0]


class TestIgnoreRoundTrip:
    def test_round_trip(self, tmp_path):
        regions = [IgnoreRegions("a", (BBox2D(0.0, 0.0, 10.0, 10.0),
                                       BBox2D(5.0, 5.0, 8.0, 9.0))),
                   IgnoreRegions("b", ())]
        path = str(tmp_path / "ignore.jsonl")
        save_ignore(regions, path)
        with open(path, encoding="utf-8") as handle:
            assert parse_ignore(handle) == regions

    @given(ignore_records())
    def test_random_regions_survive_field_exactly(self, regions):
        assert roundtrip(regions, serialize_ignore, parse_ignore) == regions

    def test_bad_rect_is_located(self):
        buffer = io.StringIO()
        serialize_ignore([IgnoreRegions("a", ())], buffer)
        line = json.dumps({"image_id": "b", "rects": [[0, 0, 10, 10], [5, 5, 1, 9]]})
        with pytest.raises(ValidationError) as err:
            parse_ignore(io.StringIO(buffer.getvalue() + line + "\n"))
        assert err.value.line == 2
        assert err.value.path == "rects[1]"


class TestParseErrors:
    @pytest.mark.parametrize("line, exc_type, path_part", [
        ("{not json", ParseError, ""),
        ("[1, 2]", ParseError, ""),
        (json.dumps({"detections": []}), ParseError, "image_id"),
        (json.dumps({"image_id": "", "detections": []}), ParseError, "image_id"),
        (json.dumps({"image_id": "a", "detections": {}}), ParseError, "detections"),
        # a value rule is the constructor's, located at the item
        (pred_line(confidence=1.5), ValidationError, "detections[0]"),
        (pred_line(confidence=-0.1), ValidationError, "detections[0]"),
        (pred_line(confidence=True), ParseError, "detections[0].confidence"),
        (pred_line(quaternion=[0.0, 0.0, 0.0, 0.0]), ValidationError, "detections[0]"),
        (pred_line(quaternion=[1.0, 0.0, 0.0]), ParseError, "detections[0].quaternion"),
        (pred_line(euler=[0.0, 0.0, 0.0]), ParseError, "detections[0]"),
        (pred_line(detections=[{"class_id": 0, "confidence": 0.5,
                                "translation": [0, 0, 5]}]), ParseError, "detections[0]"),
        (pred_line(translation=[0.0, 0.0, 0.0]), ValidationError, "detections[0]"),
        (pred_line(translation=[0.0, 0.0, -4.0]), ValidationError, "detections[0]"),
        (pred_line(translation=[0.0, "Infinity", 5.0]), ParseError, "detections[0].translation[1]"),
        (pred_line(bbox=[10.0, 0.0, 5.0, 5.0]), ValidationError, "detections[0]"),
        (pred_line(bbox=[10.0, 0.0, 5.0]), ParseError, "detections[0].bbox"),
        (pred_line(class_id=1.5), ParseError, "detections[0].class_id"),
        (pred_line(class_id=-2), ValidationError, "detections[0]"),
    ])
    def test_bad_line_is_located_with_field_path(self, line, exc_type, path_part):
        with pytest.raises(exc_type) as err:
            parse_predictions([line])
        assert err.value.line == 1
        assert err.value.path == path_part

    @pytest.mark.parametrize("line, exc_type, message", [
        (gt_line(drop=["translation"]), ParseError,
         "annotations[0].translation: must be a list of 3 numbers"),
        (gt_line(translation=[0.0, 5.0]), ParseError,
         "annotations[0].translation: must be a list of 3 numbers"),
        (gt_line(translation=[0.0, "5", 10.0]), ParseError,
         "annotations[0].translation[1]: must be a number, got str"),
        (gt_line(translation=[0.0, 0.0, math.inf]), ValidationError,
         "annotations[0].translation[2]: must be finite, got inf"),
        # an int literal beyond the float range used to escape as OverflowError
        (gt_line(translation=[10 ** 400, 0.0, 10.0]), ValidationError,
         "annotations[0].translation[0]: must be finite, got inf"),
        (gt_line(quaternion=[1.0, -10 ** 400, 0.0, 0.0]), ValidationError,
         "annotations[0].quaternion[1]: must be finite, got -inf"),
        (gt_line(translation=[0.0, 0.0, 0.0]), ValidationError,
         "annotations[0]: annotation depth must be positive, got z=0.0"),
        (gt_line(translation=[0.0, 0.0, -3]), ValidationError,
         "annotations[0]: annotation depth must be positive, got z=-3.0"),
        (gt_line(bbox=[10.0, 0.0, 5.0, 5.0]), ValidationError,
         "annotations[0]: degenerate box (10.0, 0.0, 5.0, 5.0): requires x1 < x2 and y1 < y2"),
        (gt_line(bbox=[-1e308, 0.0, 1e308, 1.0]), ValidationError,
         "annotations[0]: box width, height and area must be finite, "
         "got (-1e+308, 0.0, 1e+308, 1.0)"),
        (gt_line(bbox=[0.0, 0.0, 1e-200, 1e-200]), ValidationError,
         "annotations[0]: box area must be positive, "
         "got (0.0, 0.0, 1e-200, 1e-200) with area 0.0"),
        (gt_line(bbox=[0.0, 0.0, 5.0]), ParseError,
         "annotations[0].bbox: must be a list of 4 numbers"),
        # a shape fault is reported before a value fault anywhere in the item
        (gt_line(bbox=[10.0, 0.0, 5.0, 5.0], drop=["translation"]), ParseError,
         "annotations[0].translation: must be a list of 3 numbers"),
        (gt_line(bbox=[0.0, 0.0, 5.0, True]), ParseError,
         "annotations[0].bbox[3]: must be a number, got bool"),
        (gt_line(euler=[0.0, 0.0, 0.0]), ParseError,
         "annotations[0]: exactly one of 'quaternion' or 'euler' is required"),
        (gt_line(drop=["quaternion"]), ParseError,
         "annotations[0]: exactly one of 'quaternion' or 'euler' is required"),
        (gt_line(drop=["quaternion"], euler=[0.0, 0.0]), ParseError,
         "annotations[0].euler: must be a list of 3 numbers"),
        (gt_line(drop=["quaternion"], euler=[0.0, None, 0.0]), ParseError,
         "annotations[0].euler[1]: must be a number, got NoneType"),
        (gt_line(quaternion=[0.0, 0.0, 0.0, 0.0]), ValidationError,
         "annotations[0]: cannot normalize quaternion with norm 0.0"),
        (gt_line(quaternion="identity"), ParseError,
         "annotations[0].quaternion: must be a list of 4 numbers"),
        (gt_line(drop=["class_id"]), ParseError, "annotations[0].class_id: must be an integer"),
        (gt_line(class_id="0"), ParseError, "annotations[0].class_id: must be an integer"),
        (gt_line(class_id=-1), ValidationError,
         "annotations[0]: annotation class_id must be an integer >= 0, got -1"),
        (json.dumps({"image_id": "a", "annotations": [3]}), ParseError,
         "annotations[0]: expected an object, got int"),
    ])
    def test_bad_ground_truth_line_message(self, line, exc_type, message):
        with pytest.raises(exc_type) as err:
            parse_ground_truth([line])
        assert type(err.value) is exc_type
        assert str(err.value) == f"line 1: {message}"

    @pytest.mark.parametrize("rects, exc_type, message", [
        ({}, ParseError, "rects: must be a list"),
        ([5], ParseError, "rects[0]: must be a list of 4 numbers"),
        ([[0.0, 0.0, 1.0]], ParseError, "rects[0]: must be a list of 4 numbers"),
        ([[0.0, 0.0, 1.0, 1.0, 1.0]], ParseError, "rects[0]: must be a list of 4 numbers"),
        ([[0.0, 0.0, "1", 1.0]], ParseError, "rects[0][2]: must be a number, got str"),
        ([[0.0, 0.0, math.inf, 1.0]], ValidationError, "rects[0][2]: must be finite, got inf"),
        ([[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 1.0, 1.0]], ValidationError,
         "rects[1]: degenerate box (2.0, 2.0, 1.0, 1.0): requires x1 < x2 and y1 < y2"),
        ([[0.0, 0.0, 1e-200, 1e-200]], ValidationError,
         "rects[0]: box area must be positive, got (0.0, 0.0, 1e-200, 1e-200) with area 0.0"),
    ])
    def test_bad_ignore_line_message(self, rects, exc_type, message):
        with pytest.raises(exc_type) as err:
            parse_ignore(["", json.dumps({"image_id": "a", "rects": rects})])
        assert type(err.value) is exc_type
        assert str(err.value) == f"line 2: {message}"

    def test_infinity_literal_is_rejected_as_non_finite(self):
        # json.loads accepts bare Infinity tokens; validation must not
        line = pred_line().replace("10.0", "Infinity")
        with pytest.raises(ValidationError) as err:
            parse_predictions([line])
        assert "finite" in str(err.value)

    def test_duplicate_image_id_is_rejected(self):
        line = pred_line()
        with pytest.raises(ParseError) as err:
            parse_predictions([line, line])
        assert err.value.line == 2
        assert "duplicate" in str(err.value)

    def test_ground_truth_requires_annotations_key(self):
        with pytest.raises(ParseError) as err:
            parse_ground_truth([json.dumps({"image_id": "a", "detections": []})])
        assert err.value.path == "annotations"

    def test_errors_are_value_errors(self):
        assert issubclass(ParseError, ValueError)
        assert issubclass(ValidationError, ValueError)


class TestEveryConstructibleRecordRoundTrips:
    @pytest.mark.parametrize("kind, serialize, parse", [
        (Detection, serialize_predictions, parse_predictions),
        (Annotation, serialize_ground_truth, parse_ground_truth),
    ], ids=["predictions", "ground truth"])
    # most drawn records hold an item that is refused, and a numpy float is
    # one draw in twenty: enough examples that some are built and written
    @settings(max_examples=400)
    @given(data=st.data())
    def test_built_records_read_back_or_cannot_be_built(self, kind, serialize, parse, data):
        # a record that constructs and writes must be one the reader accepts:
        # inf, a negative or bool class_id, an infinite box, an empty or int
        # image_id, a repeated image_id or an item of the other kind used to
        # construct, save, and then fail to load; a list of items read back
        # as an unequal tuple; a quaternion of norm 2 read back normalized,
        # and json refused a numpy float32 field with a TypeError
        try:
            records = data.draw(image_records(items=lambda: mixed_items(kind), ids=LOOSE_IDS,
                                              containers=LOOSE_CONTAINERS))
        except ValueError:
            return
        ids = [r.image_id for r in records]
        refusable = len(set(ids)) < len(ids) or not all(
            isinstance(item, kind) for r in records for item in r.items)
        buffer = io.StringIO()
        try:
            serialize(records, buffer)
        except ValueError:
            assert refusable and buffer.getvalue() == ""
            return
        assert not refusable
        assert parse(io.StringIO(buffer.getvalue())) == records

    @given(data=st.data())
    def test_built_regions_read_back_or_cannot_be_built(self, data):
        try:
            regions = data.draw(ignore_records(containers=LOOSE_CONTAINERS))
        except ValueError:
            return
        buffer = io.StringIO()
        serialize_ignore(regions, buffer)
        assert parse_ignore(io.StringIO(buffer.getvalue())) == regions


def slot_stored(cls, *values):
    """A ``cls`` stored field by field through its slots, without ``__init__``'s checks."""
    built = object.__new__(cls)
    for set_field, value in zip(records_module._slot_setters(cls), values):
        set_field(built, value)
    return built


class TestWriterRefusesWhatItsReaderRefuses:
    """Each record invariant the reader checks holds where the record is built
    or is checked by the writer before it writes anything."""

    @pytest.mark.parametrize("make", [lambda i: ImageRecord(i, ()), lambda i: IgnoreRegions(i, ())],
                             ids=["ImageRecord", "IgnoreRegions"])
    @pytest.mark.parametrize("image_id", ["", 7, None, b"a"])
    def test_image_id_must_be_a_non_empty_string(self, make, image_id):
        with pytest.raises(ValueError) as err:
            make(image_id)
        assert str(err.value) == f"image_id must be a non-empty string, got {image_id!r}"

    @pytest.mark.parametrize("make, field", [(lambda v: ImageRecord("a", v), "items"),
                                             (lambda v: IgnoreRegions("a", v), "rects")],
                             ids=["ImageRecord", "IgnoreRegions"])
    @pytest.mark.parametrize("value", [[], None, iter(())], ids=["list", "None", "iterator"])
    def test_items_must_be_a_tuple(self, make, field, value):
        # a list constructed, failed to hash and read back as an unequal tuple
        with pytest.raises(ValueError) as err:
            make(value)
        assert str(err.value) == f"{field} must be a tuple, got {type(value).__name__}"

    @pytest.mark.parametrize("rect", [(0, 0, 1, 1), [0.0, 0.0, 1.0, 1.0], None],
                             ids=["tuple", "list", "None"])
    def test_a_rect_must_be_a_box(self, rect):
        # a tuple rect constructed, and filter_ignore then raised AttributeError
        with pytest.raises(ValueError) as err:
            IgnoreRegions("a", (BBox2D(0.0, 0.0, 1.0, 1.0), rect))
        assert str(err.value) == f"rects must hold BBox2D boxes, got {rect!r}"

    WRITERS = [
        (serialize_predictions, save_predictions, lambda i: image(i), "predictions"),
        (serialize_ground_truth, save_ground_truth, lambda i: image(i), "ground truth"),
        (serialize_ignore, save_ignore, lambda i: IgnoreRegions(i, ()), "ignore regions"),
    ]

    @pytest.mark.parametrize("serialize, save, make, what", WRITERS,
                             ids=["predictions", "ground truth", "ignore"])
    def test_a_repeated_image_id_is_refused_before_writing(self, tmp_path, serialize, save,
                                                           make, what):
        records = [make("a"), make("b"), make("a")]
        buffer = io.StringIO()
        with pytest.raises(ValueError, match=f"^duplicate image_id 'a' in {what}$"):
            serialize(iter(records), buffer)
        assert buffer.getvalue() == ""
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="^duplicate image_id 'a'"):
            save(records, str(path))
        assert not path.exists()
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^duplicate image_id 'a'"):
            save(records, str(path))
        assert path.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("serialize, records, message", [
        (serialize_predictions, [image("z"), image("a", det(0.0, 0.0, 10.0), ann(0.0, 0.0, 10.0))],
         "image_id 'a': detections[1]: expected Detection, got Annotation"),
        (serialize_ground_truth, [image("z"), image("b", det(0.0, 0.0, 10.0))],
         "image_id 'b': annotations[0]: expected Annotation, got Detection"),
        # the constructor refuses a rect that is not a box, so this region is
        # stored through its slots, as a build with no __init__ could store it
        (serialize_ignore, [IgnoreRegions("z", ()), slot_stored(IgnoreRegions, "c",
                                                                (ann(0.0, 0.0, 10.0),))],
         "image_id 'c': rects[0]: expected BBox2D, got Annotation"),
    ], ids=["annotation in predictions", "detection in ground truth", "annotation in ignore"])
    def test_an_item_of_the_wrong_kind_is_refused_before_writing(self, serialize, records,
                                                                 message):
        buffer = io.StringIO()
        with pytest.raises(ValueError) as err:
            serialize(records, buffer)
        assert str(err.value) == message
        assert buffer.getvalue() == ""

    # a later record holds a value the writer refuses: a Fraction that no
    # float holds exactly, which the constructors accept
    THIRD = Fraction(1, 3)
    JSON_REFUSED = [
        (serialize_predictions, save_predictions, image("a", det(0.0, 0.0, 10.0)),
         image("b", det(0.0, 0.0, 10.0, confidence=THIRD))),
        (serialize_predictions, save_predictions, image("a", det(0.0, 0.0, 10.0)),
         image("b", det(THIRD, 0.0, 10.0))),
        (serialize_predictions, save_predictions, image("a", det(0.0, 0.0, 10.0)),
         image("b", det(0.0, 0.0, 10.0, bbox=BBox2D(THIRD, 0.0, 1.0, 1.0)))),
        (serialize_ground_truth, save_ground_truth, image("a", ann(0.0, 0.0, 10.0)),
         image("b", ann(0.0, 0.0, 10.0, quat=Quaternion(Fraction(3, 5), Fraction(4, 5), 0.0,
                                                        0.0)))),
        (serialize_ground_truth, save_ground_truth, image("a", ann(0.0, 0.0, 10.0)),
         image("b", ann(0.0, 0.0, 10.0, bbox=BBox2D(0.0, 0.0, 1.0, Fraction(4, 3))))),
        (serialize_ignore, save_ignore, IgnoreRegions("a", (BBox2D(0.0, 0.0, 1.0, 1.0),)),
         IgnoreRegions("b", (BBox2D(0.0, THIRD, 1.0, 1.0),))),
    ]
    JSON_REFUSED_IDS = ["prediction confidence", "prediction translation", "prediction box",
                        "ground-truth quaternion", "ground-truth box", "ignore rect"]
    REFUSED = r"^cannot write a Fraction \(Fraction\(\d, \d\)\): only a real number that a " \
              r"float holds exactly is written$"

    @pytest.mark.parametrize("serialize, save, first, second", JSON_REFUSED, ids=JSON_REFUSED_IDS)
    def test_a_value_json_refuses_leaves_the_stream_empty(self, serialize, save, first, second):
        # the first record's line was written before json refused the second
        buffer = io.StringIO()
        with pytest.raises(ValueError, match=self.REFUSED):
            serialize([first, second], buffer)
        assert buffer.getvalue() == ""

    @pytest.mark.parametrize("serialize, save, first, second", JSON_REFUSED, ids=JSON_REFUSED_IDS)
    def test_a_value_json_refuses_leaves_the_old_file(self, tmp_path, serialize, save, first,
                                                       second):
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match=self.REFUSED):
            save([first, second], str(path))
        assert not path.exists()
        save([first], str(path))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=self.REFUSED):
            save([first, second], str(path))
        assert path.read_bytes() == before

    # each raised json's TypeError ("Object of type float32 is not JSON
    # serializable"); a numpy float32 is no float, but a float holds it exactly
    F32 = np.float32(0.1)
    NUMPY_WRITTEN = [
        (serialize_predictions, parse_predictions, image("b", det(0.0, 0.0, 10.0, confidence=F32))),
        (serialize_predictions, parse_predictions, image("b", det(F32, 0.0, np.float32(10.0)))),
        (serialize_predictions, parse_predictions,
         image("b", det(0.0, 0.0, 10.0, bbox=BBox2D(F32, 0.0, 1.0, 1.0)))),
        (serialize_ground_truth, parse_ground_truth,
         image("b", ann(0.0, 0.0, 10.0, quat=Quaternion(np.float32(1.0), 0.0, 0.0, 0.0)))),
        (serialize_ignore, parse_ignore, IgnoreRegions("b", (BBox2D(0.0, F32, 1.0, 1.0),))),
    ]

    @pytest.mark.parametrize("serialize, parse, record", NUMPY_WRITTEN,
                             ids=["prediction confidence", "prediction translation",
                                  "prediction box", "ground-truth quaternion", "ignore rect"])
    def test_a_numpy_float_is_written_as_the_float_it_equals(self, serialize, parse, record):
        assert roundtrip([record], serialize, parse) == [record]

    def test_a_numpy_float_writes_the_digits_of_its_float(self):
        buffer = io.StringIO()
        serialize_predictions([image("a", det(0.0, 0.0, 10.0, confidence=self.F32))], buffer)
        assert '"confidence": 0.10000000149011612,' in buffer.getvalue()


WILD = [None, True, False, "1", [], {}, 0, -1, 2, 10 ** 400, -10 ** 400, 1e308, -1e308,
        0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf]
ITEM_LISTS = {"bbox": 4, "quaternion": 4, "euler": 3, "translation": 3}


@st.composite
def item_objects(draw):
    """A decoded item: mostly valid, with 0-3 mutations of the kinds a reader
    must refuse or convert (wild values for a field or one list element, ints
    for floats, short, long or all-zero lists, missing, extra or clashing
    keys), or a value that is not an object at all."""
    def num(lo, hi):  # one number in four is an int literal, which reads as a float
        return draw(st.integers(math.ceil(lo), math.floor(hi)) if draw(st.integers(0, 3)) == 0
                    else st.floats(lo, hi))

    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(WILD))
    obj = {"class_id": draw(st.integers(0, 5)), "confidence": num(0.0, 1.0),
           "translation": [num(-10.0, 10.0), num(-10.0, 10.0), num(0.001, 100.0)]}
    if draw(st.booleans()):
        x1, y1 = num(-1e6, 1e6), num(-1e6, 1e6)
        obj["bbox"] = [x1, y1, x1 + num(0.1, 50.0), y1 + num(0.1, 50.0)]
    rotation = draw(st.sampled_from(["quaternion", "euler"]))
    obj[rotation] = [num(-4.0, 4.0) for _ in range(ITEM_LISTS[rotation])]
    keys = ["class_id", "confidence", *ITEM_LISTS, "extra"]
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(keys))
        how = draw(st.sampled_from(["value", "element", "int", "short", "long", "zeros",
                                    "drop"]))
        value = obj.get(key)
        if how == "drop":
            obj.pop(key, None)
        elif how in ("value", "int") or not isinstance(value, list) or not value:
            obj[key] = (draw(st.integers(-3, 3)) if how == "int" else draw(st.sampled_from(WILD)))
        elif how == "element":
            value[draw(st.integers(0, len(value) - 1))] = draw(st.sampled_from(WILD + [1, 3]))
        else:
            obj[key] = {"short": value[:-1], "long": value + [0.5],
                        "zeros": [0.0] * len(value)}[how]
    return obj


def outcome(build):
    """``repr`` of what ``build()`` returns, or the type and message of what it raises."""
    try:
        return repr(build())
    except Exception as exc:  # the comparison covers every kind of failure
        return type(exc), str(exc)


class TestFastPathChangesNoResult:
    @pytest.mark.parametrize("kind, key, parse", [
        (Detection, "detections", parse_predictions),
        (Annotation, "annotations", parse_ground_truth),
    ], ids=["predictions", "ground truth"])
    @settings(max_examples=300)
    @given(obj=item_objects())
    def test_reader_agrees_with_the_located_path(self, kind, key, parse, obj):
        line = json.dumps({"image_id": "a", key: [obj]})
        read = outcome(lambda: parse([line])[0].items[0])
        located = outcome(lambda: formats._parse_item(kind, 1, json.loads(line)[key][0],
                                                             f"{key}[0]"))
        assert read == located

    def test_clean_files_never_take_the_located_path(self, tmp_path, monkeypatch):
        # a fast path that always fell back would still give every right
        # answer, and so would an item builder that always took its constructors
        calls, constructed = [], []
        located, construct = formats._parse_item, formats._construct_item
        monkeypatch.setattr(formats, "_parse_item",
                            lambda *args: calls.append(args) or located(*args))
        monkeypatch.setattr(formats, "_construct_item",
                            lambda *args: constructed.append(args) or construct(*args))
        gts, camera = generate_scene(SceneSpec(seed=0, n_images=40, objects_per_image=(1, 6),
                                               n_classes=5, noise=CROWDED_NOISE))
        preds = perturb(gts, CROWDED_NOISE, 1, camera)
        regions = [IgnoreRegions(r.image_id, tuple(d.bbox for d in r.items)) for r in preds]
        for save, load, records in [(save_predictions, load_predictions, preds),
                                    (save_ground_truth, load_ground_truth, gts),
                                    (save_ignore, load_ignore, regions)]:
            path = str(tmp_path / "records.jsonl")
            save(records, path)
            assert load(path) == records
        assert sum(len(r.items) for r in preds + gts) > 200
        assert calls == constructed == []
        with pytest.raises(ValidationError):  # the counts are live
            parse_predictions([pred_line(class_id=-1)])
        assert len(calls) == 1
        assert len(constructed) == 2  # on the fast path, then on the located one

    def test_an_item_holding_an_int_is_built_by_the_constructors(self, monkeypatch):
        # the reader tests each number of an item in place: a float file
        # never constructs (the test above), and an item holding an int is
        # converted and built by the constructors, once, into its float twin
        constructed = []
        construct = formats._construct_item
        monkeypatch.setattr(formats, "_construct_item",
                            lambda *args: constructed.append(args) or construct(*args))
        for parse, line in [(parse_predictions, pred_line), (parse_ground_truth, gt_line)]:
            twin, = parse([line(quaternion=[1.0, 0.0, 0.0, 0.0], bbox=[10.0, 20.0, 30.0, 40.0])])
            assert constructed == []
            read, = parse([line(quaternion=[1, 0, 0, 0], bbox=[10, 20, 30, 40])])
            assert len(constructed) == 1
            assert (repr(read), read) == (repr(twin), twin)
            constructed.clear()

    @pytest.mark.parametrize("key, field, index", [
        (key, field, index) for key in ("detections", "annotations")
        for field, count in [("confidence", 1), ("quaternion", 4), ("euler", 3),
                             ("translation", 3), ("bbox", 4)]
        for index in ([None] if field == "confidence" else range(count))
        if (key, field) != ("annotations", "confidence")])
    def test_a_bool_is_refused_at_its_field(self, key, field, index):
        item = {"class_id": 0, "confidence": 0.9, "bbox": [10.0, 20.0, 30.0, 40.0],
                "translation": [1.0, 2.0, 10.0]}
        item["euler" if field == "euler" else "quaternion"] = (
            [0.1, 0.2, 0.3] if field == "euler" else [1.0, 0.0, 0.0, 0.0])
        if key == "annotations":
            del item["confidence"]
        if index is None:
            item[field] = True
        else:
            item[field][index] = True
        path = f"{key}[0].{field}" + ("" if index is None else f"[{index}]")
        parse = parse_predictions if key == "detections" else parse_ground_truth
        with pytest.raises(ParseError) as err:
            parse([json.dumps({"image_id": "a", key: [item]})])
        assert str(err.value) == f"line 1: {path}: must be a number, got bool"


FINITE_POSE = Pose(IDENTITY, Translation(1.0, 2.0, 10.0))
ITEM_KINDS = [
    ("detection", lambda pose, class_id=0: Detection(class_id, 0.9, None, pose)),
    ("annotation", lambda pose, class_id=0: Annotation(class_id, pose)),
]


def pose_with(component: str, value: float) -> Pose:
    """FINITE_POSE with one translation or quaternion component set to ``value``."""
    part, field = component.split(".")
    if part == "translation":
        return replace(FINITE_POSE, translation=replace(FINITE_POSE.translation, **{field: value}))
    return replace(FINITE_POSE, rotation=replace(FINITE_POSE.rotation, **{field: value}))


class TestFileQuaternionsAreNormalized:
    # an item holds a unit quaternion, but a file's is normalized when read:
    # a detector writes its quaternions rounded, to float32 say
    @pytest.mark.parametrize("quaternion, expected", [
        ([2.0, 0.0, 0.0, 0.0], Quaternion(1.0, 0.0, 0.0, 0.0)),
        ([2, 0, 0, 0], Quaternion(1.0, 0.0, 0.0, 0.0)),
        ([1e308, 0.0, 0.0, 0.0], Quaternion(1.0, 0.0, 0.0, 0.0)),
        ([0.70710677, 0.70710677, 0.0, 0.0], Quaternion(HALF_SQRT2, HALF_SQRT2, 0.0, 0.0)),
    ], ids=["2", "int 2", "1e308", "float32-rounded"])
    @pytest.mark.parametrize("parse, line", [(parse_predictions, pred_line),
                                             (parse_ground_truth, gt_line)],
                             ids=["predictions", "ground truth"])
    def test_a_non_unit_quaternion_reads_as_unit(self, parse, line, quaternion, expected):
        record, = parse([line(quaternion=quaternion)])
        assert record.items[0].pose.rotation == expected

    @pytest.mark.parametrize("quaternion", [[1e-13, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    def test_a_quaternion_too_short_to_normalize_is_refused(self, quaternion):
        with pytest.raises(ValidationError, match=r"^line 1: detections\[0\]: cannot normalize "):
            parse_predictions([pred_line(quaternion=quaternion)])


class TestConstructorValidation:
    # NaN fails every "beyond the gate" comparison, so a NaN pose used to
    # match the ground truth at its place and score mAP 1.0; now no such
    # item exists to be matched, scored, post-processed or saved
    @pytest.mark.parametrize("value", [
        *NON_FINITE,
        # ints beyond the float range: the finiteness check raised OverflowError
        pytest.param(10 ** 400, id="int 1e400"), pytest.param(-10 ** 400, id="int -1e400"),
    ])
    @pytest.mark.parametrize("component", [
        "translation.x", "translation.y",
        "rotation.w", "rotation.x", "rotation.y", "rotation.z",
    ])
    @pytest.mark.parametrize("kind, make", ITEM_KINDS, ids=["detection", "annotation"])
    def test_a_non_finite_pose_cannot_be_built(self, kind, make, component, value):
        pose = pose_with(component, value)
        message = f"^{kind} has a non-finite pose: {re.escape(repr(pose))}$"
        with pytest.raises(NonFiniteError, match=message):
            make(pose)
        with pytest.raises(NonFiniteError, match=message):  # replace re-runs the checks
            replace(make(FINITE_POSE), pose=pose)

    @pytest.mark.parametrize("kind, make", ITEM_KINDS, ids=["detection", "annotation"])
    def test_an_infinite_depth_is_non_finite(self, kind, make):
        # z > 0 holds for +inf, so the finiteness check is what refuses it
        with pytest.raises(NonFiniteError, match=f"^{kind} has a non-finite pose"):
            make(pose_with("translation.z", math.inf))

    @pytest.mark.parametrize("class_id", [-1, True, 1.5])
    @pytest.mark.parametrize("kind, make", ITEM_KINDS, ids=["detection", "annotation"])
    def test_class_id_must_be_an_integer_at_least_zero(self, kind, make, class_id):
        message = f"{kind} class_id must be an integer >= 0, got {class_id!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(FINITE_POSE, class_id)

    # (2, 0, 0, 0) built, read back as (1, 0, 0, 0), so parse(serialize(r))
    # != r, and matching normalized it silently: mAP 1.0 against an identity
    # ground truth; (1e-13, 0, 0, 0) built, and the reader then refused it
    @pytest.mark.parametrize("w", [2.0, 1e-13, 1e308, 2, pytest.param(10 ** 200, id="int 1e200")])
    @pytest.mark.parametrize("kind, make", ITEM_KINDS, ids=["detection", "annotation"])
    def test_a_non_unit_quaternion_cannot_be_built(self, kind, make, w):
        quat = Quaternion(w, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError) as err:
            make(Pose(quat, FINITE_POSE.translation))
        assert str(err.value) == (f"{kind} rotation must be a unit quaternion (normalize it with "
                                  f"quat_normalize first), got {quat} with squared norm "
                                  f"{float(w) * float(w)!r}")

    @pytest.mark.parametrize("kind, make", ITEM_KINDS, ids=["detection", "annotation"])
    def test_a_float32_quaternion_is_tested_in_the_floats_written(self, kind, make):
        # float32 arithmetic gives its squared norm as exactly 1, but the
        # floats it is written as give 1 + 4.8e-8, which the reader normalizes
        quat = Quaternion(np.float32(0.6), np.float32(0.8), 0.0, 0.0)
        with pytest.raises(ValueError, match=f"^{kind} rotation must be a unit quaternion .* "
                                             f"with squared norm 1.0000000476837165$"):
            make(Pose(quat, FINITE_POSE.translation))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, make", ITEM_KINDS, ids=["detection", "annotation"])
    def test_a_float32_quaternion_whose_square_overflows_is_named(self, kind, make):
        # squared in float32 it overflowed, with numpy's RuntimeWarning, which
        # under -W error escaped in place of this ValueError
        quat = Quaternion(*map(np.float32, (2e19, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match=f"^{kind} rotation must be a unit quaternion .* "
                                             r"with squared norm 3\.999999984405158e\+38$"):
            make(Pose(quat, FINITE_POSE.translation))

    @pytest.mark.parametrize("quat", [
        Quaternion(2.0, 0.0, 0.0, 0.0), Quaternion(1e308, 0.0, 0.0, 0.0),
        Quaternion(np.float32(HALF_SQRT2), np.float32(HALF_SQRT2), 0.0, 0.0),
        Quaternion(0.0, 0.0, 0.0, 3),
    ], ids=["2", "1e308", "float32", "int"])
    @pytest.mark.parametrize("kind, make", ITEM_KINDS, ids=["detection", "annotation"])
    def test_what_quat_normalize_returns_can_be_built(self, kind, make, quat):
        unit = quat_normalize(quat)
        assert quat_normalize(unit) is unit
        item = make(Pose(unit, FINITE_POSE.translation))
        assert item.pose.rotation is unit

    def test_detection_confidence_range(self):
        with pytest.raises(ValueError):
            det(0.0, 0.0, 5.0, confidence=1.2)

    def test_annotation_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            ann(0.0, 0.0, -5.0)

    def test_detection_depth_must_be_positive(self):
        box = BBox2D(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError, match=r"^detection depth must be positive, got z=-5$"):
            Detection(0, 0.9, box, Pose(IDENTITY, Translation(0, 0, -5)))

    # each built, wrote true or false, and was refused on reading ("must be a
    # number, got bool"); a bool is an int, so it compared and summed as 0 or 1
    @pytest.mark.parametrize("make, message", [
        (lambda: Detection(0, True, None, FINITE_POSE), "confidence must be a number, got True"),
        (lambda: det(0.0, 0.0, True), "detection has a bool in its pose: "
         f"{Pose(IDENTITY, Translation(0.0, 0.0, True))}"),
        (lambda: det(0.0, 0.0, 10.0, bbox=BBox2D(False, False, True, True)),
         "box coordinates must be numbers, not bools, got (False, False, True, True)"),
        (lambda: det(0.0, 0.0, 10.0, quat=Quaternion(True, 0, 0, 0)),
         "detection has a bool in its pose: "
         f"{Pose(Quaternion(True, 0, 0, 0), Translation(0.0, 0.0, 10.0))}"),
    ], ids=["confidence", "z", "box", "quaternion"])
    def test_a_bool_in_a_float_field_cannot_be_built(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    # each built, and serialize_predictions, ensemble_max, filter_ignore and
    # recover_xy_records then raised AttributeError on a box; a pose that is
    # not a Pose of a Quaternion and a Translation raised it at construction
    @pytest.mark.parametrize("make, message", [
        (lambda: Detection(0, 0.5, (0.0, 0.0, 1.0, 1.0), FINITE_POSE),
         "detection bbox must be a BBox2D or None, got (0.0, 0.0, 1.0, 1.0)"),
        (lambda: Annotation(0, FINITE_POSE, [0.0, 0.0, 1.0, 1.0]),
         "annotation bbox must be a BBox2D or None, got [0.0, 0.0, 1.0, 1.0]"),
        (lambda: Detection(0, 0.5, None, "x"),
         "detection pose must be a Pose of a Quaternion and a Translation, got 'x'"),
        (lambda: Annotation(0, Pose((1.0, 0.0, 0.0, 0.0), FINITE_POSE.translation)),
         "annotation pose must be a Pose of a Quaternion and a Translation, got "
         f"{Pose((1.0, 0.0, 0.0, 0.0), FINITE_POSE.translation)!r}"),
        (lambda: replace(det(0.0, 0.0, 10.0), pose=Pose(IDENTITY, (1.0, 2.0, 10.0))),
         "detection pose must be a Pose of a Quaternion and a Translation, got "
         f"{Pose(IDENTITY, (1.0, 2.0, 10.0))!r}"),
    ], ids=["detection box", "annotation box", "detection pose", "rotation", "replace"])
    def test_a_box_or_pose_of_another_type_cannot_be_built(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    # each raised TypeError from a comparison or math.isfinite
    def test_a_non_number_confidence_cannot_be_built(self):
        with pytest.raises(ValueError) as err:
            Detection(0, "0.5", None, FINITE_POSE)
        assert str(err.value) == "confidence must be a number, got '0.5'"

    @pytest.mark.parametrize("component", [
        "translation.x", "translation.z", "rotation.w", "rotation.x", "rotation.y", "rotation.z",
    ])
    @pytest.mark.parametrize("kind, make", ITEM_KINDS, ids=["detection", "annotation"])
    def test_a_non_number_in_a_pose_cannot_be_built(self, kind, make, component):
        pose = pose_with(component, "1")
        with pytest.raises(ValueError) as err:
            make(pose)
        assert str(err.value) == f"{kind} pose must hold numbers, got {pose!r}"

    @pytest.mark.parametrize("z", [0.0, -1e-300, math.nan])
    @pytest.mark.parametrize("make, kind", [(det, "detection"), (ann, "annotation")])
    def test_depth_message_is_shared(self, make, kind, z):
        with pytest.raises(ValueError) as err:
            make(0.0, 0.0, z)
        assert str(err.value) == f"{kind} depth must be positive, got z={z}"


class TestCsvCompat:
    LINE = "img_a, 0.1 0.2 0.3 1.0 2.0 10.0 0.9"

    def test_groups_become_detections(self):
        [record] = parse_csv_compat([self.LINE])
        assert record.image_id == "img_a"
        [d] = record.items
        assert d.class_id == 0
        assert d.confidence == 0.9
        assert d.bbox is None
        assert d.pose.translation == Translation(1.0, 2.0, 10.0)
        # token order is pitch yaw roll
        assert d.pose.rotation == quat_from_euler(EulerAngles(roll=0.3, pitch=0.1, yaw=0.2))

    def test_multiple_groups_per_row(self):
        line = "img_a, 0 0 0 1 2 10 0.9 0 0 0 3 4 20 0.8"
        [record] = parse_csv_compat([line])
        assert [d.confidence for d in record.items] == [0.9, 0.8]

    def test_empty_row_gives_empty_image(self):
        [record] = parse_csv_compat(["img_a, "])
        assert record.items == ()

    def test_matches_equivalent_jsonl(self):
        jsonl = json.dumps({"image_id": "img_a", "detections": [{
            "class_id": 0, "confidence": 0.9,
            "euler": [0.3, 0.1, 0.2], "translation": [1.0, 2.0, 10.0],
        }]})
        assert parse_csv_compat([self.LINE]) == parse_predictions([jsonl])

    @given(st.lists(st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=7, max_size=7),
           st.one_of(st.none(), st.tuples(st.integers(0, 6),
                                          st.sampled_from([math.nan, math.inf, -math.inf]))))
    @example([0.1, 0.2, 0.3, 1.0, 2.0, 10.0, 0.9], None)
    @example([0.1, 0.2, 0.3, 1.0, 2.0, 10.0, 0.9], (5, math.inf))
    def test_a_group_reads_as_its_euler_item(self, values, non_finite):
        # one builder makes both: equal detections, or one refusal whose text
        # differs only in the path (group[0].z against detections[0].translation[2])
        if non_finite is not None:
            values[non_finite[0]] = non_finite[1]
        pitch, yaw, roll, x, y, z, confidence = values
        csv_line = "img_a, " + " ".join(map(repr, values))
        jsonl = json.dumps({"image_id": "img_a", "detections": [{
            "class_id": 0, "confidence": confidence, "euler": [roll, pitch, yaw],
            "translation": [x, y, z]}]})
        outcomes = []
        for parse, line in ((parse_csv_compat, csv_line), (parse_predictions, jsonl)):
            try:
                outcomes.append(parse([line]))
            except (ParseError, ValidationError) as exc:
                outcomes.append((type(exc), str(exc).removeprefix(f"line 1: {exc.path}: ")))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("line, exc_type, message", [
        ("no-comma-here", ParseError, "expected 'image_id, prediction string'"),
        (", 0 0 0 1 2 10 0.9", ParseError, "image_id: must be a non-empty string"),
        ("img_a, 0 0 0 1 2 10", ParseError, "token count 6 is not a multiple of 7"),
        ("img_a, 0 0 0 1 2 10 oops", ParseError, "group[0].confidence: not a number: 'oops'"),
        # a value rule is the constructor's, located at the group
        ("img_a, 0 0 0 1 2 10 1.5", ValidationError,
         "group[0]: confidence must be within [0, 1], got 1.5"),
        ("img_a, 0 0 0 1 2 -10 0.9", ValidationError,
         "group[0]: detection depth must be positive, got z=-10.0"),
        ("img_a, 0 0 0 1 2 0 0.9", ValidationError,
         "group[0]: detection depth must be positive, got z=0.0"),
        ("img_a, 0 0 0 1 2 inf 0.9", ValidationError, "group[0].z: must be finite, got inf"),
    ])
    def test_bad_rows(self, line, exc_type, message):
        with pytest.raises(exc_type) as err:
            parse_csv_compat([line])
        assert type(err.value) is exc_type
        assert str(err.value) == f"line 1: {message}"

    def test_duplicate_image_id(self):
        with pytest.raises(ParseError):
            parse_csv_compat([self.LINE, self.LINE])


class TestCameraFile:
    def test_round_trip(self, tmp_path):
        camera = CameraIntrinsics(fx=1234.5, fy=987.25, cx=960.0, cy=540.0)
        path = str(tmp_path / "camera.json")
        save_camera(camera, path)
        assert load_camera(path) == camera

    def test_a_refused_save_leaves_the_old_file(self, tmp_path):
        # it truncated the file and left '{"fx": ' before json refused the value
        path = tmp_path / "camera.json"
        save_camera(CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0), str(path))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"^cannot write a Fraction \(Fraction\(1, 3\)\)"):
            save_camera(CameraIntrinsics(Fraction(1, 3), 1000.0, 960.0, 540.0), str(path))
        assert path.read_bytes() == before

    def test_a_numpy_float_round_trips(self, tmp_path):
        # json refused a numpy float32 with a TypeError
        camera = CameraIntrinsics(np.float32(1234.5), 987.25, np.float32(960.1), 540.0)
        path = str(tmp_path / "camera.json")
        save_camera(camera, path)
        assert load_camera(path) == camera

    @pytest.mark.parametrize("payload, exc_type, message", [
        ("{bad", ParseError, "invalid JSON (Expecting property name enclosed in double quotes)"),
        ("[]", ParseError, "expected a JSON object, got list"),
        (json.dumps({"fx": 1000.0, "fy": 1000.0, "cx": 960.0}), ParseError,
         "cy: missing required key"),
        (json.dumps({"fx": 0.0, "fy": 1000.0, "cx": 960.0, "cy": 540.0}), ValidationError,
         "fx/fy: focal lengths must be positive, got fx=0.0, fy=1000.0"),
        (json.dumps({"fx": "wide", "fy": 1000.0, "cx": 960.0, "cy": 540.0}), ParseError,
         "fx: must be a number, got str"),
        # keys are read in order fx, fy, cx, cy, and each is missing before it is bad
        (json.dumps({"fx": "wide", "cx": 960.0}), ParseError, "fx: must be a number, got str"),
        (json.dumps({"fy": True, "cx": "a", "cy": 540.0}), ParseError, "fx: missing required key"),
        (json.dumps({"fx": 1000.0, "fy": math.inf}), ValidationError, "fy: must be finite, got inf"),
    ])
    def test_bad_camera_files(self, tmp_path, payload, exc_type, message):
        path = tmp_path / "camera.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(exc_type) as err:
            load_camera(str(path))
        assert type(err.value) is exc_type
        assert str(err.value) == f"line 1: {message}"
