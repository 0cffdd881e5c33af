"""Referees at full size: the brute-force oracle and the per-threshold sweep.

``oracle_map`` is written independently of the metrics module, and a sweep
recomputed as one ``apply_confidence_threshold`` + ``mean_average_precision``
call per grid point shares no work between thresholds. Both are compared
with the package's scoring on crowded scenes shaped like the benchmark's
``sweep-dense`` workload and on adversarial hand-made scenes.

The matching core and its ranking are refereed by the code they replaced,
kept in ``tests/helpers.py``: ``_match_image`` must give the same hits, and
``Evaluation`` the same per-class AP at every threshold, and ``match`` the
same last-pair ``MatchResult``s, bit for bit. The report's last-pair
statistics, built from the matching's hits, must equal those the referee
computes from the reference ``MatchResult``s with its own arithmetic, and
``BBox2D``'s one-sum fast test must accept and refuse exactly what its
field-by-field checks do, with the same exception.

Post-processing has two more: ``ensemble_max`` is refereed by greedy
clustering written out (``helpers.greedy_ensemble``), and the ignore
filter's union area by inclusion-exclusion.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose6d import (
    BBox2D,
    DEFAULT_LADDER,
    EnsembleConfig,
    EulerAngles,
    NoClassesError,
    ThresholdLadder,
    ThresholdSweep,
    angular_error,
    apply_confidence_threshold,
    ensemble_max,
    iou_2d,
    match,
    mean_average_precision,
    oracle_map,
    quat_from_euler,
    sweep_threshold,
)

from pose6d.metrics import Evaluation, _match_image
from pose6d.postprocess import _covered_fraction

from helpers import (
    IDENTITY,
    ann,
    as_detection,
    covered_by_inclusion_exclusion,
    crowded_scene,
    det,
    greedy_ensemble,
    image,
    reference_evaluation,
    reference_match_image,
    reference_box_check,
    reference_per_class_ap,
    report_statistics,
)


def rotated(roll: float):
    return quat_from_euler(EulerAngles(roll=roll, pitch=0.0, yaw=0.0))


def unshared_sweep(preds, gts, sweep=ThresholdSweep(), ladder=DEFAULT_LADDER):
    """One evaluation per grid point; a point where no class is left is left out."""
    curve = []
    for t in sweep.thresholds():
        try:
            curve.append((t, mean_average_precision(
                apply_confidence_threshold(preds, t), gts, ladder)[0]))
        except NoClassesError:
            pass
    if not curve:
        raise NoClassesError("no class is left at any grid point")
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

    def test_sweep_leaves_out_the_points_past_the_last_class(self):
        preds = [image("a", det(0.0, 0.0, 10.0, confidence=0.3))]
        gts = [image("a")]
        curve, best = sweep_threshold(preds, gts)
        assert curve == [(t, 0.0) for t in (0.1, 0.15, 0.2, 0.25, 0.3)] and best == 0.1
        assert unshared_sweep(preds, gts) == (curve, best)
        # a grid that starts past the detection has no point left
        above = ThresholdSweep(lo=0.35, hi=0.8)
        with pytest.raises(NoClassesError):
            sweep_threshold(preds, gts, above)
        with pytest.raises(NoClassesError):
            unshared_sweep(preds, gts, above)


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


# crowded lattice scenes for the matching referee: a few positions, so
# coincident ground truth (distance ties) is common; few confidences, so ties
# within and across images; classes drawn per side, so some are on one side
# only; images may be empty or on one side only
CROWD_COORDS = st.sampled_from([0.0, 0.5, 1.0, 1.5])
CROWD_CONFIDENCES = [0.2, 0.4, 0.4, 0.6, 0.9]
MATCH_LADDERS = [
    DEFAULT_LADDER,
    ThresholdLadder(pairs=((2.0, math.radians(40.0)), (0.5, math.radians(5.0)))),  # loose first
    ThresholdLadder(pairs=((1.0, math.radians(40.0)), (0.25, math.radians(20.0)),
                           (1.5, math.radians(5.0)))),
    ThresholdLadder(pairs=((1.0, math.radians(10.0)),)),
    ThresholdLadder(pairs=((0.5, angular_error(IDENTITY, rotated(math.radians(20.0)))),)),
]
# on every confidence, between each two, and both ends
MATCH_THRESHOLDS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95, 1.0]


@st.composite
def crowded_side(draw, ids, classes, detection: bool):
    records = []
    for i in ids:
        items = []
        for _ in range(draw(st.integers(0, 10))):
            x, y = draw(CROWD_COORDS), draw(CROWD_COORDS)
            kwargs = {"class_id": draw(st.sampled_from(classes)), "quat": draw(QUATS)}
            items.append(det(x, y, 10.0, confidence=draw(st.sampled_from(CROWD_CONFIDENCES)),
                             **kwargs) if detection else ann(x, y, 10.0, **kwargs))
        records.append(image(i, *items))
    return records


@st.composite
def crowded_lattice(draw):
    """Classes 0 and 1 may appear on both sides, 2 in ground truth only, 3 in
    predictions only."""
    sides = {f"img{i}": draw(st.sampled_from(["both", "both", "both", "gt", "pred"]))
             for i in range(draw(st.integers(1, 4)))}
    gts = draw(crowded_side([i for i, side in sides.items() if side != "pred"],
                            draw(st.sampled_from([[0], [0, 1], [0, 2], [0, 1, 2]])), False))
    preds = draw(crowded_side([i for i, side in sides.items() if side != "gt"],
                              draw(st.sampled_from([[0], [0, 1], [1, 3], [0, 1, 3]])), True))
    return preds, gts


@settings(max_examples=300, deadline=None)
@given(crowded_lattice(), st.sampled_from(MATCH_LADDERS))
def test_matching_and_ranking_equal_the_reference_bit_for_bit(scene, ladder):
    preds, gts = scene
    gt_by_id = {r.image_id: r.items for r in gts}
    pred_by_id = {r.image_id: r.items for r in preds}
    for record in preds:
        anns = gt_by_id.get(record.image_id, ())
        assert repr(_match_image(record.items, anns, ladder.pairs)) == repr(
            reference_match_image(record.items, anns, ladder.pairs))
    evaluation = Evaluation(preds, gts, ladder)
    buckets, last = reference_evaluation(preds, gts, ladder)
    order = list(gt_by_id) + [i for i in pred_by_id if i not in gt_by_id]
    assert repr([match(pred_by_id.get(i, ()), gt_by_id.get(i, ()), ladder.pairs[-1])
                 for i in order]) == repr(last)
    for t in MATCH_THRESHOLDS:
        expected = reference_per_class_ap(buckets, t)
        if expected:
            assert repr(evaluation.per_class_ap(t)) == repr(expected)
        else:
            with pytest.raises(NoClassesError):
                evaluation.per_class_ap(t)


@settings(max_examples=300, deadline=None)
@given(crowded_lattice(), st.sampled_from(MATCH_LADDERS))
def test_report_equals_the_statistics_of_the_match_results_bit_for_bit(scene, ladder):
    preds, gts = scene
    try:
        _, report = mean_average_precision(preds, gts, ladder)
    except NoClassesError:  # no item on either side: there is no report
        assert not any(r.items for r in preds + gts)
        return
    expected = report_statistics(reference_evaluation(preds, gts, ladder)[1])
    assert repr({field: getattr(report, field) for field in expected}) == repr(expected)


@pytest.mark.parametrize("preds, gts", [
    ([image("a", det(30.0, 0.0, 10.0))], [image("a", ann(0.0, 0.0, 10.0))]),  # too far
    ([image("a", det(0.0, 0.0, 10.0, class_id=1))], [image("a", ann(0.0, 0.0, 10.0))]),
    ([image("a", det(0.0, 0.0, 10.0))], [image("b", ann(0.0, 0.0, 10.0))]),  # other images
    ([], [image("a", ann(0.0, 0.0, 10.0))]),
    ([image("a", det(0.0, 0.0, 10.0))], []),
], ids=["too far", "other class", "other image", "no predictions", "no ground truth"])
def test_a_report_without_matches_has_no_error_statistics(preds, gts):
    _, report = mean_average_precision(preds, gts)
    expected = report_statistics(reference_evaluation(preds, gts, DEFAULT_LADDER)[1])
    assert repr({field: getattr(report, field) for field in expected}) == repr(expected)
    assert report.tp == 0
    assert (report.mae_trans, report.rot_error_mean, report.rot_error_median) == (None,) * 3


def refusal(build, *args):
    """None when ``build(*args)`` returns, else the type and message it raised."""
    try:
        build(*args)
    except Exception as exc:  # the referee compares whatever is raised
        return type(exc), str(exc)
    return None


# every kind of value a box rule can trip on: both infinities, NaN, signed
# zeros, subnormals, values whose sum or product overflows, and ints beyond
# the float range, alone or cancelling in a sum
BOX_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0,
                     1e308, -1e308, 1.5e308, sys.float_info.max, -sys.float_info.max,
                     0, 1, -1, 10 ** 308, 10 ** 400, -10 ** 400, 10 ** 400 + 1, True, False]),
    st.floats(),
    st.integers(-10 ** 400, 10 ** 400))


@settings(max_examples=2000, deadline=None)
@given(BOX_VALUES, BOX_VALUES, BOX_VALUES, BOX_VALUES)
def test_box_fast_test_agrees_with_the_field_checks(x1, y1, x2, y2):
    assert refusal(BBox2D, x1, y1, x2, y2) == refusal(reference_box_check, x1, y1, x2, y2)


@pytest.mark.parametrize("coords, expected", [
    # a naive 0 < area < inf test accepts these: the area is an int
    ((0, 0, 10 ** 400, 1), (ValueError, "box coordinates must be finite, "
                                        f"got (0, 0, {10 ** 400}, 1)")),
    ((10 ** 400, 0, 10 ** 400 + 1, 1), (ValueError, "box coordinates must be finite, "
                                                    f"got ({10 ** 400}, 0, {10 ** 400 + 1}, 1)")),
    ((-10 ** 400, 0, 10 ** 400, 1), (ValueError, "box coordinates must be finite, "
                                                 f"got ({-10 ** 400}, 0, {10 ** 400}, 1)")),
    # each int is in the float range, their area is not
    ((-10 ** 308, -10 ** 308, 10 ** 308, 10 ** 308), (
        ValueError, "box width, height and area must be finite, "
                    f"got ({-10 ** 308}, {-10 ** 308}, {10 ** 308}, {10 ** 308})")),
    # the coordinates' sum overflows, the box is fine
    ((1e308, 0.0, 1.5e308, 1.0), None),
    ((-1.5e308, 0.0, -1e308, 1.0), None),
    # its area overflows
    ((-1e308, -1e308, 1e308, 1e308), (ValueError, "box width, height and area must be finite, "
                                                   "got (-1e+308, -1e+308, 1e+308, 1e+308)")),
    ((0.0, 0.0, 5e-324, 5e-324), (ValueError, "box area must be positive, "
                                              "got (0.0, 0.0, 5e-324, 5e-324) with area 0.0")),
    ((0.0, math.nan, 1.0, 1.0), (ValueError, "box coordinates must be finite, got (0.0, nan, 1.0, 1.0)")),
], ids=["int area", "huge ints, small area", "cancelling ints", "int area overflows",
        "sum overflows", "sum overflows negative", "area overflows", "area underflows", "nan"])
def test_box_fast_test_pinned_cases(coords, expected):
    assert refusal(BBox2D, *coords) == refusal(reference_box_check, *coords) == expected


# boxes on a half-unit grid, so identical boxes, shared edges and IoUs of
# exactly 1/2, 1/3 or 1/4 are common
GRID = st.integers(0, 8).map(lambda v: v * 0.5)
SIDES = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
TINY = 5e-324  # the smallest positive threshold


@st.composite
def grid_box(draw) -> BBox2D:
    x1, y1 = draw(GRID), draw(GRID)
    return BBox2D(x1, y1, x1 + draw(SIDES), y1 + draw(SIDES))


@st.composite
def ensemble_input(draw):
    """1-4 models over up to 3 images (each model lists a subset, in its own
    order) with 1-3 classes and a few confidences, so ties are common."""
    n_classes = draw(st.integers(1, 3))
    models = []
    for _ in range(draw(st.integers(1, 4))):
        ids = draw(st.permutations(["a", "b", "c"]))[:draw(st.integers(0, 3))]
        models.append([image(i, *(
            det(float(k), 0.0, 10.0, confidence=draw(CONFIDENCES), bbox=draw(grid_box()),
                class_id=draw(st.integers(0, n_classes - 1)))
            for k in range(draw(st.integers(0, 6))))) for i in ids])
    return models


@settings(max_examples=300, deadline=None)
@given(ensemble_input(), st.one_of(st.sampled_from([TINY, 0.25, 1 / 3, 0.5, 1.0]),
                                   st.floats(TINY, 1.0)))
def test_ensemble_keeps_what_greedy_clustering_keeps(models, threshold):
    out = ensemble_max(models, EnsembleConfig(threshold))
    expected = greedy_ensemble(models, threshold)
    assert out == expected
    assert all(a is b for got, want in zip(out, expected) for a, b in zip(got.items, want.items))


FREE = st.floats(-1e3, 1e3)


@st.composite
def free_box(draw) -> BBox2D:
    x1, y1 = draw(FREE), draw(FREE)
    return BBox2D(x1, y1, x1 + draw(st.floats(1e-3, 1e3)), y1 + draw(st.floats(1e-3, 1e3)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(free_box(), grid_box()), st.one_of(free_box(), grid_box()))
def test_ensemble_merges_at_exactly_the_iou_of_iou_2d(kept_box, box):
    """The scan's IoU is ``iou_2d(candidate, kept)`` to the bit: the pair
    merges at that value as threshold, and not at the next float above it."""
    kept = det(0.0, 0.0, 10.0, confidence=0.9, bbox=kept_box)
    cand = det(1.0, 0.0, 10.0, confidence=0.8, bbox=box)
    iou = iou_2d(box, kept_box)
    if iou > 0.0:
        assert ensemble_max([[image("a", kept, cand)]], EnsembleConfig(iou))[0].items == (kept,)
    above = math.nextafter(iou, 2.0)
    if above <= 1.0:
        assert ensemble_max([[image("a", kept, cand)]], EnsembleConfig(above))[0].items == (
            kept, cand)


@settings(max_examples=300, deadline=None)
@given(st.one_of(free_box(), grid_box()), st.lists(st.one_of(free_box(), grid_box()),
                                                   min_size=1, max_size=3))
def test_covered_fraction_is_the_inclusion_exclusion_area(box, rects):
    got = _covered_fraction(box, [(r.x1, r.y1, r.x2, r.y2) for r in rects])
    assert got == pytest.approx(covered_by_inclusion_exclusion(box, rects), rel=1e-12, abs=0.0)
