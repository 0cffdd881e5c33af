"""Construction, layout and copy semantics of the package's dataclasses.

Every dataclass in ``pose6d`` is declared with ``slots=True``: an instance
is one allocation, with no ``__dict__`` and no weak references. The value
and record types are also frozen and keep the dataclass's own ``__init__``:
its parameters and defaults, its ``TypeError`` for a bad call, and their
checks on every construction. ``dataclasses.replace`` builds through
``__init__``, so it re-runs those checks. What the reader and lateral
recovery store through the slots, with no ``__init__``, behaves exactly as
what the constructors build.
"""

import copy
import dataclasses
import importlib
import inspect
import io
import json
import pickle
import pkgutil
import weakref

import pytest

import pose6d
from pose6d import (
    Annotation,
    BBox2D,
    CameraIntrinsics,
    Detection,
    EnsembleConfig,
    EulerAngles,
    EvaluationReport,
    IgnoreRegions,
    ImageRecord,
    LossWeights,
    NoiseSpec,
    Pose,
    Quaternion,
    SceneSpec,
    ThresholdLadder,
    ThresholdSweep,
    Translation,
    parse_ground_truth,
    parse_predictions,
    quat_from_euler,
    recover_xy_records,
    serialize_ground_truth,
    serialize_predictions,
)

from helpers import ann, det, image

BOX = BBox2D(10.0, 20.0, 110.0, 80.0)
POSE = Pose(Quaternion(0.5, 0.5, 0.5, 0.5), Translation(1.0, -2.0, 10.0))

# one instance of each value and record type
VALUES = [
    POSE.rotation,
    EulerAngles(0.1, 0.2, 0.3),
    POSE.translation,
    POSE,
    CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0),
    BOX,
    det(1.0, -2.0, 10.0, confidence=0.75, class_id=3, quat=POSE.rotation, bbox=BOX),
    ann(1.0, -2.0, 10.0, class_id=3, bbox=BOX),
    image("img_0", det(0.0, 0.0, 5.0), det(1.0, 0.0, 5.0)),
    IgnoreRegions("img_0", (BOX,)),
]

# one instance of every other dataclass
OTHERS = [
    ThresholdLadder(((2.0, 0.5),)),
    EvaluationReport(ThresholdLadder(((2.0, 0.5),)), {0: (1.0,)}, 1.0, 0.25, 0.125, 0.125,
                     1.0, 0.5, 1, 0, 1),
    EnsembleConfig(),
    ThresholdSweep(),
    NoiseSpec(),
    SceneSpec(),
    LossWeights(),
]

# a field value each type's checks refuse, for the types that have checks
REFUSED = {
    CameraIntrinsics: {"fx": 0.0},
    BBox2D: {"x2": 0.0},
    Detection: {"confidence": 2.0},
    Annotation: {"class_id": -1},
    ImageRecord: {"image_id": ""},
    IgnoreRegions: {"image_id": ""},
}

COPIES = [lambda value: pickle.loads(pickle.dumps(value)), copy.copy, copy.deepcopy,
          dataclasses.replace]


def _type_name(value) -> str:
    return type(value).__name__


def package_dataclasses() -> set[type]:
    """Every dataclass defined in one of ``pose6d``'s modules."""
    found = set()
    for info in pkgutil.iter_modules(pose6d.__path__, prefix="pose6d."):
        module = importlib.import_module(info.name)
        found.update(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                     if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__)
    return found


def test_every_dataclass_is_slotted():
    samples = VALUES + OTHERS
    assert package_dataclasses() == {type(value) for value in samples}
    for value in samples:
        assert "__slots__" in vars(type(value)), _type_name(value)
        assert not hasattr(value, "__dict__"), _type_name(value)
        with pytest.raises(TypeError):
            weakref.ref(value)


@pytest.mark.parametrize("value", VALUES, ids=_type_name)
def test_copies_replace_and_assignment_behave_as_on_a_frozen_dataclass(value):
    for copy_of in COPIES:
        other = copy_of(value)
        assert (other, hash(other), repr(other)) == (value, hash(value), repr(value))
    if type(value) in REFUSED:  # replace builds through __init__, so it re-runs the checks
        with pytest.raises(ValueError):
            dataclasses.replace(value, **REFUSED[type(value)])
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))


def assert_like_constructed(value, constructed):
    """``value`` is laid out, hashed, copied, replaced and frozen as ``constructed`` is."""
    expected = (constructed, hash(constructed), repr(constructed))
    assert type(value) is type(constructed)
    assert (value, hash(value), repr(value)) == expected
    assert not hasattr(value, "__dict__"), _type_name(value)
    for copy_of in COPIES:
        other = copy_of(value)
        assert (other, hash(other), repr(other)) == expected
    if type(value) in REFUSED:
        with pytest.raises(ValueError):
            dataclasses.replace(value, **REFUSED[type(value)])
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))


def test_a_recovered_detection_is_laid_out_and_copied_like_a_constructed_one():
    # recovery stores the new Translation, Pose and Detection through their
    # slots, without running __init__
    camera = CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0)
    moved = det(99.0, 99.0, 10.0, confidence=0.75, class_id=3, quat=POSE.rotation, bbox=BOX)
    [record] = recover_xy_records([image("a", moved)], camera)
    [recovered] = record.items
    constructed = Detection(3, 0.75, BOX, Pose(POSE.rotation, Translation(-9.0, -4.9, 10.0)))
    for value, like in [(recovered, constructed), (recovered.pose, constructed.pose),
                        (recovered.pose.translation, constructed.pose.translation)]:
        assert_like_constructed(value, like)


@pytest.mark.parametrize("serialize, parse, constructed", [
    (serialize_predictions, parse_predictions, VALUES[6]),
    (serialize_ground_truth, parse_ground_truth, VALUES[7]),
], ids=["Detection", "Annotation"])
def test_a_read_record_is_laid_out_and_copied_like_a_constructed_one(serialize, parse,
                                                                     constructed):
    # the reader stores the record, its item and the item's parts through
    # their slots, without running __init__
    buffer = io.StringIO()
    serialize([image("img_0", constructed)], buffer)
    [record] = parse(io.StringIO(buffer.getvalue()))
    [item] = record.items
    for value, like in [(record, image("img_0", constructed)), (item, constructed),
                        (item.bbox, constructed.bbox), (item.pose, constructed.pose),
                        (item.pose.rotation, constructed.pose.rotation),
                        (item.pose.translation, constructed.pose.translation)]:
        assert_like_constructed(value, like)


def test_a_read_euler_item_is_laid_out_and_copied_like_a_constructed_one():
    line = json.dumps({"image_id": "img_0", "detections": [{
        "class_id": 3, "confidence": 0.75, "euler": [0.1, 0.2, 0.3],
        "translation": [1.0, -2.0, 10.0]}]})
    [record] = parse_predictions([line])
    [item] = record.items
    constructed = Detection(3, 0.75, None, Pose(quat_from_euler(EulerAngles(0.1, 0.2, 0.3)),
                                                Translation(1.0, -2.0, 10.0)))
    for value, like in [(record, image("img_0", constructed)), (item, constructed),
                        (item.pose, constructed.pose),
                        (item.pose.translation, constructed.pose.translation)]:
        assert_like_constructed(value, like)


# each value and record type's constructor arguments, in field order
ARGS = {
    Quaternion: (0.5, -0.5, 0.5, -0.5),
    EulerAngles: (0.1, 0.2, 0.3),
    Translation: (1.0, -2.0, 10.0),
    Pose: (POSE.rotation, POSE.translation),
    CameraIntrinsics: (1000.0, 1000.0, 960.0, 540.0),
    BBox2D: (10.0, 20.0, 110.0, 80.0),
    Detection: (3, 0.75, BOX, POSE),
    Annotation: (3, POSE, BOX),
    ImageRecord: ("img_0", (VALUES[6],)),
    IgnoreRegions: ("img_0", (BOX,)),
}
TYPES = list(ARGS)
CHECKED = [cls for cls in TYPES if hasattr(cls, "__post_init__")]


def _kwargs(cls) -> dict:
    return {f.name: value for f, value in zip(dataclasses.fields(cls), ARGS[cls])}


def test_the_value_and_record_types_are_the_sampled_ones_and_six_have_checks():
    assert TYPES == [type(value) for value in VALUES]
    assert CHECKED == list(REFUSED) == [CameraIntrinsics, BBox2D, Detection, Annotation,
                                         ImageRecord, IgnoreRegions]


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_signature_lists_the_fields_in_order_with_their_defaults(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)]
    assert [p.annotation for p in params] == [f.type for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_store_the_objects_passed(cls):
    positional, keyword = cls(*ARGS[cls]), cls(**_kwargs(cls))
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    for built in (positional, keyword):
        for name, value in _kwargs(cls).items():
            assert getattr(built, name) is value, name


def test_a_default_is_the_dataclass_default():
    assert Annotation(3, POSE).bbox is None
    assert Annotation(3, POSE) == Annotation(class_id=3, pose=POSE, bbox=None)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_a_missing_extra_or_repeated_argument_is_a_type_error(cls):
    args, kwargs = ARGS[cls], _kwargs(cls)
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        cls(**{k: v for k, v in kwargs.items() if k != first})
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*args, None, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**kwargs, extra=None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*args, **{first: args[0]})


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_post_init_runs_on_every_construction(cls, monkeypatch):
    seen = []
    check = cls.__post_init__

    def counting(self):
        seen.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    built = [cls(*ARGS[cls]), cls(**_kwargs(cls))]
    built.append(dataclasses.replace(built[0]))
    assert len(seen) == 3
    assert all(a is b for a, b in zip(seen, built))


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_a_refused_value_is_refused_by_every_way_of_building(cls):
    kwargs = {**_kwargs(cls), **REFUSED[cls]}
    for build in (lambda: cls(*kwargs.values()), lambda: cls(**kwargs),
                  lambda: dataclasses.replace(cls(*ARGS[cls]), **REFUSED[cls])):
        with pytest.raises(ValueError):
            build()
