"""Referees at full size: the brute-force oracle and the per-threshold sweep.

``oracle_map`` is written independently of the metrics module, and a sweep
recomputed as one ``apply_confidence_threshold`` + ``mean_average_precision``
call per grid point shares no work between thresholds. Both are compared
with the package's scoring on crowded scenes shaped like the benchmark's
``sweep-dense`` workload and on adversarial hand-made scenes.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose6d import (
    DEFAULT_LADDER,
    EulerAngles,
    NoClassesError,
    ThresholdLadder,
    ThresholdSweep,
    angular_error,
    apply_confidence_threshold,
    mean_average_precision,
    oracle_map,
    quat_from_euler,
    sweep_threshold,
)

from helpers import IDENTITY, ann, as_detection, crowded_scene, det, image


def rotated(roll: float):
    return quat_from_euler(EulerAngles(roll=roll, pitch=0.0, yaw=0.0))


def unshared_sweep(preds, gts, sweep=ThresholdSweep(), ladder=DEFAULT_LADDER):
    curve = [(t, mean_average_precision(apply_confidence_threshold(preds, t), gts, ladder)[0])
             for t in sweep.thresholds()]
    best = max(curve, key=lambda e: (e[1], -e[0]))[0]
    return curve, best


def outcome(fn, *args):
    """``fn(*args)``, or NoClassesError when it raised that."""
    try:
        return fn(*args)
    except NoClassesError:
        return NoClassesError


def assert_refereed(preds, gts, ladder=DEFAULT_LADDER, sweep=ThresholdSweep()):
    """mAP agrees with the oracle; the sweep equals its per-threshold recomputation."""
    try:
        expected = oracle_map(preds, gts, ladder)
    except ValueError:  # no class anywhere
        with pytest.raises(NoClassesError):
            mean_average_precision(preds, gts, ladder)
    else:
        assert mean_average_precision(preds, gts, ladder)[0] == pytest.approx(expected, abs=1e-12)
    assert outcome(sweep_threshold, preds, gts, sweep, ladder) == outcome(
        unshared_sweep, preds, gts, sweep, ladder)


class TestCrowdedScenes:
    @pytest.mark.parametrize("seed", [700, 701, 702])
    def test_oracle_agrees_at_full_size(self, seed):
        preds, gts = crowded_scene(seed)
        assert sum(len(r.items) for r in preds) > 150
        value, _ = mean_average_precision(preds, gts)
        assert value == pytest.approx(oracle_map(preds, gts), abs=1e-12)

    @pytest.mark.parametrize("seed", [700, 703])
    def test_sweep_equals_per_threshold_evaluation(self, seed):
        preds, gts = crowded_scene(seed)
        curve, best = sweep_threshold(preds, gts)
        ref_curve, ref_best = unshared_sweep(preds, gts)
        assert curve == ref_curve
        assert best == ref_best
        assert len({value for _, value in curve}) > 1  # the grid actually cuts detections

    def test_sweep_on_a_fine_grid_equals_per_threshold_evaluation(self):
        preds, gts = crowded_scene(704)
        sweep = ThresholdSweep(lo=0.0, hi=1.0, step=0.01)
        assert sweep_threshold(preds, gts, sweep) == unshared_sweep(preds, gts, sweep)


class TestAdversarialScenes:
    def test_confidence_ties_across_images(self):
        gts = [image("a", ann(0.0, 0.0, 10.0)), image("b", ann(0.0, 0.0, 10.0))]
        preds = [image("a", det(30.0, 0.0, 40.0, confidence=0.5)),   # miss, ranked first
                 image("b", det(0.0, 0.0, 10.0, confidence=0.5),
                        det(9.0, 9.0, 30.0, confidence=0.5))]
        value, _ = mean_average_precision(preds, gts)
        assert value == pytest.approx(0.25)  # ranks: FP (a), TP (b), FP (b)
        assert_refereed(preds, gts)
        swapped = [image("a", *preds[1].items), image("b", *preds[0].items)]
        assert mean_average_precision(swapped, gts)[0] == pytest.approx(0.5)
        assert_refereed(swapped, gts)

    def test_duplicate_boxes_match_once(self):
        gts = [image("a", ann(0.0, 0.0, 10.0, class_id=1))]
        hit = as_detection(gts[0].items[0], 0.6)
        preds = [image("a", hit, hit, hit)]
        _, report = mean_average_precision(preds, gts)
        assert (report.tp, report.fp) == (1, 2)
        assert_refereed(preds, gts)

    def test_distances_and_angles_exactly_at_a_gate(self):
        # each gate equals the error it is compared with, bit for bit
        ladder = ThresholdLadder(pairs=((1.0, angular_error(IDENTITY, rotated(0.1))),
                                        (2.0, angular_error(IDENTITY, rotated(0.2)))))
        gts = [image("a", ann(0.0, 0.0, 10.0), ann(10.0, 0.0, 10.0), ann(20.0, 0.0, 10.0))]
        preds = [image("a",
                       # on both gates of the first pair
                       det(1.0, 0.0, 10.0, confidence=0.9, quat=rotated(0.1)),
                       # just beyond 1 m
                       det(math.nextafter(11.0, 12.0), 0.0, 10.0, confidence=0.8),
                       # on both gates of the second pair
                       det(20.0, 2.0, 10.0, confidence=0.7, quat=rotated(0.2)))]
        _, report = mean_average_precision(preds, gts, ladder)
        assert report.per_class_ap[0][0] == pytest.approx(1.0 / 3.0)
        assert_refereed(preds, gts, ladder)

    def test_classes_only_in_predictions(self):
        gts = [image("a", ann(0.0, 0.0, 10.0))]
        preds = [image("a", as_detection(gts[0].items[0], 0.9),
                       det(5.0, 0.0, 20.0, class_id=4, confidence=0.15),
                       det(8.0, 0.0, 20.0, class_id=5, confidence=0.42))]
        curve, _ = sweep_threshold(preds, gts)
        values = dict(curve)
        assert values[0.1] == pytest.approx(1.0 / 3.0)
        assert values[0.2] == pytest.approx(0.5)   # class 4 gone, class 5 left
        assert values[0.45] == 1.0                 # both prediction-only classes gone
        assert_refereed(preds, gts)

    def test_images_on_one_side_only(self):
        gts = [image("a", ann(0.0, 0.0, 10.0)), image("gt-only", ann(1.0, 1.0, 12.0))]
        preds = [image("a", det(0.0, 0.0, 10.0, confidence=0.4)),
                 image("pred-only", det(0.0, 0.0, 10.0, confidence=0.7))]
        value, report = mean_average_precision(preds, gts)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert value == pytest.approx(0.25)
        assert_refereed(preds, gts)

    def test_sweep_raises_where_the_last_class_disappears(self):
        preds = [image("a", det(0.0, 0.0, 10.0, confidence=0.3))]
        gts = [image("a")]
        with pytest.raises(NoClassesError):
            sweep_threshold(preds, gts)
        with pytest.raises(NoClassesError):
            unshared_sweep(preds, gts)
        # a grid that stops before the detection is cut scores normally
        curve, best = sweep_threshold(preds, gts, ThresholdSweep(lo=0.1, hi=0.3, step=0.1))
        assert curve == [(0.1, 0.0), (0.2, 0.0), (0.3, 0.0)] and best == 0.1


HIT = ann(0.0, 0.0, 10.0)


class TestRejectedInputs:
    """The oracle refuses what the metric refuses, with the same error type."""

    @pytest.mark.parametrize("preds, gts, message", [
        # keeping the last record, the oracle scored this 0.0
        ([image("a", as_detection(HIT, 0.9)), image("a", det(30.0, 0.0, 10.0, confidence=0.8))],
         [image("a", HIT)], "duplicate image_id 'a' in predictions"),
        ([image("a", as_detection(HIT, 0.9))], [image("a", HIT), image("a", HIT)],
         "duplicate image_id 'a' in ground truth"),
    ], ids=["predictions", "ground truth"])
    def test_a_repeated_image_id_raises_the_metrics_error(self, preds, gts, message):
        for score in (oracle_map, mean_average_precision):
            with pytest.raises(ValueError, match=f"^{message}$"):
                score(preds, gts)


# small lattice scenes: many exact distance ties, exact gate hits, confidence
# ties within and across images, classes and images present on one side only
COORDS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])
CONFIDENCES = st.sampled_from([0.1, 0.25, 0.5, 0.5, 0.75, 1.0])
QUATS = st.sampled_from([IDENTITY, rotated(math.radians(5.0)), rotated(math.radians(20.0))])
CLASSES = st.integers(0, 2)


@st.composite
def lattice_item(draw, detection: bool):
    x, y = draw(COORDS), draw(COORDS)
    kwargs = {"class_id": draw(CLASSES), "quat": draw(QUATS)}
    if detection:
        return det(x, y, 10.0, confidence=draw(CONFIDENCES), **kwargs)
    return ann(x, y, 10.0, **kwargs)


@st.composite
def lattice_scene(draw):
    ids = [f"img{i}" for i in range(draw(st.integers(1, 4)))]
    gt_ids = [i for i in ids if draw(st.booleans())]
    pred_ids = [i for i in ids if draw(st.booleans())]
    gts = [image(i, *draw(st.lists(lattice_item(False), max_size=5))) for i in gt_ids]
    preds = [image(i, *draw(st.lists(lattice_item(True), max_size=6))) for i in pred_ids]
    return preds, gts


@settings(max_examples=150, deadline=None)
@given(lattice_scene())
def test_lattice_scenes_are_refereed(scene):
    preds, gts = scene
    assert_refereed(preds, gts, sweep=ThresholdSweep(lo=0.0, hi=1.0, step=0.25))
