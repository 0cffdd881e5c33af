"""The ``__init__`` that ``geometry._slot_init`` gives the value and record types.

It stores each field through its slot's member descriptor and then runs
``__post_init__``; to a caller it must look and act like the dataclass's
own: the same parameters and defaults, the same objects stored, the same
``TypeError`` for a bad call, and the checks on every construction.
"""

import dataclasses
import inspect

import pytest

from pose6d import (
    Annotation,
    BBox2D,
    CameraIntrinsics,
    Detection,
    EulerAngles,
    IgnoreRegions,
    ImageRecord,
    Pose,
    Quaternion,
    Translation,
)
from pose6d.geometry import _slot_init

QUAT = Quaternion(0.5, 0.5, 0.5, 0.5)
BOX = BBox2D(10.0, 20.0, 110.0, 80.0)
POSE = Pose(QUAT, Translation(1.0, -2.0, 10.0))
DETECTION = Detection(3, 0.75, BOX, POSE)

# each type's arguments, in field order
ARGS = {
    Quaternion: (0.5, -0.5, 0.5, -0.5),
    EulerAngles: (0.1, 0.2, 0.3),
    Translation: (1.0, -2.0, 10.0),
    Pose: (QUAT, POSE.translation),
    CameraIntrinsics: (1000.0, 1000.0, 960.0, 540.0),
    BBox2D: (10.0, 20.0, 110.0, 80.0),
    Detection: (3, 0.75, BOX, POSE),
    Annotation: (3, POSE, BOX),
    ImageRecord: ("img_0", (DETECTION,)),
    IgnoreRegions: ("img_0", (BOX,)),
}
TYPES = list(ARGS)
CHECKED = [cls for cls in TYPES if hasattr(cls, "__post_init__")]


def _kwargs(cls) -> dict:
    return {f.name: value for f, value in zip(dataclasses.fields(cls), ARGS[cls])}


def test_the_ten_types_use_the_generated_init_and_six_have_checks():
    for cls in TYPES:
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        names = cls.__init__.__code__.co_names
        assert "__setattr__" not in names, cls.__name__
        assert [n for n in names if n.startswith("_set_")] == [
            f"_set_{f.name}" for f in dataclasses.fields(cls)]
    assert CHECKED == [CameraIntrinsics, BBox2D, Detection, Annotation, ImageRecord, IgnoreRegions]


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


@pytest.mark.parametrize("cls, field, refused", [
    (CameraIntrinsics, "fx", 0.0),
    (BBox2D, "x2", 0.0),
    (Detection, "confidence", 2.0),
    (Annotation, "class_id", -1),
    (ImageRecord, "image_id", ""),
    (IgnoreRegions, "rects", [BOX]),
], ids=lambda value: getattr(value, "__name__", None))
def test_a_refused_value_is_refused_by_every_way_of_building(cls, field, refused):
    kwargs = {**_kwargs(cls), field: refused}
    for build in (lambda: cls(*kwargs.values()), lambda: cls(**kwargs),
                  lambda: dataclasses.replace(cls(*ARGS[cls]), **{field: refused})):
        with pytest.raises(ValueError):
            build()


def test_a_slotted_dataclass_with_a_default_and_a_check():
    @_slot_init
    @dataclasses.dataclass(frozen=True, slots=True)
    class Span:
        lo: float
        hi: float = 1.0

        def __post_init__(self):
            if not self.lo < self.hi:
                raise ValueError("lo must be below hi")

    assert (Span(0.5).lo, Span(0.5).hi) == (0.5, 1.0)
    assert Span(hi=3.0, lo=2.0) == Span(2.0, 3.0)
    assert str(inspect.signature(Span)) == "(lo: float, hi: float = 1.0) -> None"
    with pytest.raises(ValueError):
        Span(2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Span(0.5).lo = 0.0


def test_a_field_without_a_slot_is_refused():
    @dataclasses.dataclass(frozen=True)
    class Unslotted:
        x: float

    with pytest.raises(TypeError, match=r"^Unslotted\.x is not stored in a slot$"):
        _slot_init(Unslotted)
    assert "_set_x" not in Unslotted.__init__.__code__.co_names


@pytest.mark.parametrize("spec", [dataclasses.field(default_factory=list),
                                  dataclasses.field(default=0, kw_only=True),
                                  dataclasses.field(default=0, init=False)],
                         ids=["default_factory", "kw_only", "init=False"])
def test_a_field_that_is_not_a_plain_parameter_is_refused(spec):
    @dataclasses.dataclass(frozen=True, slots=True)
    class Odd:
        x: float
        y: object = spec

    init = Odd.__init__
    with pytest.raises(TypeError, match=r"^Odd: a stored-per-slot __init__ cannot take the "
                                        r"dataclass's parameters \(self, x: float"):
        _slot_init(Odd)
    assert Odd.__init__ is init


def test_an_init_only_variable_is_refused():
    @dataclasses.dataclass(frozen=True, slots=True)
    class WithInitVar:
        x: float
        scale: dataclasses.InitVar[float] = 1.0

    with pytest.raises(TypeError, match=r"parameters \(self, x: float, "
                                        r"scale: dataclasses.InitVar\[float\] = 1.0\) -> None$"):
        _slot_init(WithInitVar)
