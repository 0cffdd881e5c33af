"""Layout and copy semantics of the package's dataclasses.

Every dataclass in ``pose6d`` is declared with ``slots=True``: an instance
is one allocation, with no ``__dict__`` and no weak references. The value
and record types are also frozen, and ``dataclasses.replace`` builds
through ``__init__``, so it re-runs their checks.
"""

import copy
import dataclasses
import importlib
import inspect
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
    recover_xy,
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


def test_a_recovered_detection_is_laid_out_and_copied_like_a_constructed_one():
    # recovery stores the new Translation, Pose and Detection through their
    # slots, without running __init__
    camera = CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0)
    recovered = recover_xy(det(99.0, 99.0, 10.0, confidence=0.75, class_id=3,
                               quat=POSE.rotation, bbox=BOX), camera)
    constructed = Detection(3, 0.75, BOX, Pose(POSE.rotation, Translation(-9.0, -4.9, 10.0)))
    assert (recovered, hash(recovered), repr(recovered)) == (
        constructed, hash(constructed), repr(constructed))
    for value in (recovered, recovered.pose, recovered.pose.translation):
        assert not hasattr(value, "__dict__"), _type_name(value)
    for copy_of in COPIES:
        other = copy_of(recovered)
        assert (other, hash(other), repr(other)) == (
            constructed, hash(constructed), repr(constructed))
    with pytest.raises(ValueError):
        dataclasses.replace(recovered, **REFUSED[Detection])
    with pytest.raises(dataclasses.FrozenInstanceError):
        recovered.confidence = 0.5
