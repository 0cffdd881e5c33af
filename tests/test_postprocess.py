"""Recovery, thresholding, ignore filtering, ensembling, and sweep tests."""

import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from pose6d import (
    BBox2D,
    CameraIntrinsics,
    DEFAULT_LADDER,
    Detection,
    EmptyEnsembleError,
    EnsembleConfig,
    IgnoreRegions,
    ImageRecord,
    MissingBoxError,
    NonFiniteError,
    Pose,
    Quaternion,
    RecoveryOverflowError,
    ThresholdLadder,
    ThresholdSweep,
    Translation,
    apply_confidence_threshold,
    ensemble_max,
    extent_bbox,
    filter_ignore,
    mean_average_precision,
    oracle_map,
    recover_xy_records,
    sweep_threshold,
)

from helpers import (ann, as_detection, crowded_scene, det, image, reference_evaluation,
                     reference_recover_xy_records, reference_thresholds, with_extra)
from test_records import mixed_items

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0)

MAX_FLOAT = 1.7976931348623157e308
# finite coordinates, in pixels or meters, and out to the float range, where
# a center or its back-projection overflows
COORDS = (st.floats(-1e4, 1e4) | st.floats(-MAX_FLOAT, MAX_FLOAT)
          | st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e308, 5e-324]))
# positive finite depths and focal lengths, from the smallest subnormal up
POSITIVE = (st.floats(1e-3, 1e4) | st.floats(5e-324, MAX_FLOAT)
            | st.sampled_from([1e-300, 1.0, 1e200, MAX_FLOAT]))
ROTATIONS = [Quaternion(1.0, 0.0, 0.0, 0.0), Quaternion(0.5, 0.5, 0.5, 0.5)]
CAMERAS = st.builds(CameraIntrinsics, POSITIVE, POSITIVE, COORDS, COORDS) | st.just(K)


@st.composite
def boxes(draw) -> BBox2D:
    x1, x2 = sorted((draw(COORDS), draw(COORDS)))
    y1, y2 = sorted((draw(COORDS), draw(COORDS)))
    try:
        return BBox2D(x1, y1, x2, y2)
    except ValueError:  # degenerate, or a width or area beyond the float range
        reject()


@st.composite
def detections(draw) -> Detection:
    """A detection anywhere in depth, box-less about one time in eight; its x
    and y are what recovery replaces."""
    box = None if draw(st.integers(0, 7)) == 5 else draw(boxes())  # not an end, which draws favour
    return Detection(draw(st.integers(0, 2)), draw(st.floats(0.0, 1.0)), box,
                     Pose(draw(st.sampled_from(ROTATIONS)),
                          Translation(draw(COORDS), draw(COORDS), draw(POSITIVE))))


# one to three images, not all empty
RECORDS = st.lists(st.lists(detections(), max_size=4), min_size=1, max_size=3).filter(any).map(
    lambda images: [ImageRecord(f"img{i}", tuple(items)) for i, items in enumerate(images)])


def outcome(call):
    """A call's records, as themselves and as their repr, or the type and
    message of its refusal."""
    try:
        records = call()
    except ValueError as exc:
        return type(exc), str(exc)
    return records, repr(records)


def recover_one(detection: Detection) -> Detection:
    """``detection`` recovered as the one item of a one-image record."""
    [record] = recover_xy_records([image("a", detection)], K)
    [fixed] = record.items
    return fixed


class TestRecoverXy:
    def test_box_center_overrides_lateral_position(self):
        wrong = det(99.0, -99.0, 10.0, bbox=BBox2D(1150.0, 630.0, 1170.0, 650.0))
        fixed = recover_one(wrong)
        assert fixed.pose.translation == Translation(2.0, 1.0, 10.0)

    def test_everything_but_x_y_is_preserved(self):
        original = det(99.0, -99.0, 10.0, confidence=0.42, class_id=3,
                       bbox=BBox2D(1150.0, 630.0, 1170.0, 650.0))
        fixed = recover_one(original)
        assert fixed.class_id == original.class_id
        assert fixed.confidence == original.confidence
        assert fixed.bbox is original.bbox
        assert fixed.pose.rotation is original.pose.rotation
        assert fixed.pose.translation.z == original.pose.translation.z

    def test_round_trips_a_consistent_detection(self):
        t = Translation(3.0, -1.5, 25.0)
        consistent = det(t.x, t.y, t.z, bbox=extent_bbox(t, 4.5, 1.5, K))
        fixed = recover_one(consistent)
        assert fixed.pose.translation.x == pytest.approx(t.x, abs=1e-9)
        assert fixed.pose.translation.y == pytest.approx(t.y, abs=1e-9)

    def test_the_records_variant_names_the_first_box_less_detection(self):
        boxed = det(0.0, 0.0, 10.0, bbox=BBox2D(950.0, 530.0, 970.0, 550.0))
        records = [image("a", boxed), image("b", boxed, boxed, det(0.0, 0.0, 10.0),
                                            det(1.0, 0.0, 10.0))]
        with pytest.raises(MissingBoxError) as err:
            recover_xy_records(records, K)
        assert str(err.value) == "recover_xy requires items with a bbox; image 'b', item 2 has none"

    def test_a_box_center_beyond_the_float_range_is_refused_where_it_is_found(self):
        # the reader accepts this detection; recovering it exited 1 with the
        # constructor's unlocated NonFiniteError
        far = det(0.0, 0.0, 1e200, bbox=BBox2D(1e200, 0.0, 2e200, 1.0))
        pose = ("Pose(rotation=Quaternion(w=1.0, x=0.0, y=0.0, z=0.0), "
                "translation=Translation(x=inf, y=-5.394999999999999e+199, z=1e+200))")
        boxed = det(0.0, 0.0, 10.0, bbox=BBox2D(950.0, 530.0, 970.0, 550.0))
        records = [image("a", boxed), image("b", boxed, far, det(0.0, 0.0, 10.0), far)]
        with pytest.raises(RecoveryOverflowError) as err:  # before the box-less item 2
            recover_xy_records(records, K)
        assert str(err.value) == ("recover_xy overflows at image 'b', item 1: "
                                  f"detection has a non-finite pose: {pose}")
        assert issubclass(RecoveryOverflowError, NonFiniteError)

    @settings(max_examples=500, deadline=None)
    @given(RECORDS, CAMERAS)
    @example([image("a", det(0.0, 0.0, 1e200, bbox=BBox2D(1e200, 0.0, 2e200, 1.0)))], K)
    @example([image("a", det(0.0, 0.0, 1.0, bbox=BBox2D(1e308, 0.0, 1.7e308, 1.0)))], K)
    @example([image("a", det(0.0, 0.0, 1.0, bbox=BBox2D(1.0, 0.0, 3.0, 1.0)))],
             CameraIntrinsics(5e-324, 1.0, 0.0, 0.0))
    @example([image("a"), image("b", det(0.0, 0.0, 10.0))], K)
    def test_the_records_variant_equals_a_rebuild_through_the_constructors(self, records, k):
        assert outcome(lambda: recover_xy_records(records, k)) == outcome(
            lambda: reference_recover_xy_records(records, k))

    def test_records_variant_maps_every_detection(self):
        records = [image("a", det(9.0, 9.0, 10.0, bbox=BBox2D(1150.0, 630.0, 1170.0, 650.0))),
                   image("b")]
        out = recover_xy_records(records, K)
        assert out[0].items[0].pose.translation == Translation(2.0, 1.0, 10.0)
        assert out[1].items == ()


class TestConfidenceThreshold:
    def test_boundary_confidence_is_kept(self):
        records = [image("a",
                         det(0.0, 0.0, 10.0, confidence=0.05),
                         det(0.0, 0.0, 11.0, confidence=0.5),
                         det(0.0, 0.0, 12.0, confidence=0.95))]
        [out] = apply_confidence_threshold(records, 0.5)
        assert [d.confidence for d in out.items] == [0.5, 0.95]

    def test_emptied_images_survive(self):
        records = [image("a", det(0.0, 0.0, 10.0, confidence=0.1))]
        [out] = apply_confidence_threshold(records, 0.9)
        assert out.image_id == "a"
        assert out.items == ()

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_threshold_range_is_validated(self, threshold):
        with pytest.raises(ValueError):
            apply_confidence_threshold([], threshold)


class TestANonNumberIsNoThreshold:
    # a bool took True as 1 and False as 0: the threshold kept only confidence
    # 1.0, the filter dropped nothing, and the sweep built; each other value
    # raised TypeError from a comparison or a subtraction
    RECORDS = [image("a", det(0.0, 0.0, 10.0, confidence=1.0, bbox=BBox2D(0.0, 0.0, 4.0, 4.0)))]

    @pytest.mark.parametrize("build, message", [
        (lambda: apply_confidence_threshold(TestANonNumberIsNoThreshold.RECORDS, True),
         "threshold must be a number, got True"),
        (lambda: filter_ignore(TestANonNumberIsNoThreshold.RECORDS,
                               [IgnoreRegions("a", (BBox2D(0.0, 0.0, 4.0, 4.0),))], True),
         "overlap_frac must be a number, got True"),
        (lambda: EnsembleConfig(iou_threshold=True), "iou_threshold must be a number, got True"),
        (lambda: ThresholdSweep(lo=False, hi=True, step=0.5), "lo must be a number, got False"),
        (lambda: ThresholdSweep(lo=0.0, hi=1.0, step=True), "step must be a number, got True"),
        (lambda: CameraIntrinsics(1000.0, True, 960.0, 540.0),
         "camera intrinsics must be numbers, got fx=1000.0, fy=True, cx=960.0, cy=540.0"),
        (lambda: apply_confidence_threshold([], "0.5"), "threshold must be a number, got '0.5'"),
        (lambda: filter_ignore([], [], None), "overlap_frac must be a number, got None"),
        (lambda: EnsembleConfig("a"), "iou_threshold must be a number, got 'a'"),
        (lambda: ThresholdSweep(lo=None), "lo must be a number, got None"),
        # Decimal is no numbers.Real: it compared with floats, then hi - lo raised
        (lambda: ThresholdSweep(lo=Decimal("0.1")), "lo must be a number, got Decimal('0.1')"),
        (lambda: ThresholdSweep(hi="0.8"), "hi must be a number, got '0.8'"),
        (lambda: ThresholdSweep(step=[0.05]), "step must be a number, got [0.05]"),
        # it built, and project and extent_bbox then raised TypeError
        (lambda: CameraIntrinsics(Decimal(1000), 1000.0, 960.0, 540.0),
         "camera intrinsics must be numbers, got fx=Decimal('1000'), fy=1000.0, cx=960.0, "
         "cy=540.0"),
    ], ids=["bool threshold", "bool overlap_frac", "bool iou_threshold", "bool sweep bounds",
            "bool sweep step", "bool camera", "threshold", "overlap_frac", "iou_threshold",
            "sweep lo", "decimal lo", "sweep hi", "sweep step", "decimal camera"])
    def test_is_refused(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_numpy_floats_still_work(self):
        f32 = np.float32
        assert apply_confidence_threshold(self.RECORDS, f32(0.5)) == self.RECORDS
        assert filter_ignore(self.RECORDS, [], f32(0.5)) == self.RECORDS
        assert EnsembleConfig(f32(0.5)).iou_threshold == 0.5
        assert ThresholdSweep(lo=f32(0.25), hi=f32(0.75), step=f32(0.25))._size() == 3

    def test_a_numpy_ladder_scores_as_its_float_twin(self):
        # ThresholdLadder refused a numpy float32 that every threshold accepts.
        # A detection 0.50000001 m from its target misses a 0.5 m gate, but
        # compared in float32 that distance rounds to 0.5 and would match.
        f32 = np.float32
        ladder = ThresholdLadder(((f32(0.5), f32(0.1)), (f32(2.0), f32(0.5))))
        twin = ThresholdLadder(tuple((float(t), float(r)) for t, r in ladder.pairs))
        preds = [image("a", det(0.50000001, 0.0, 10.0, confidence=0.9),
                       det(5.0, 0.0, 10.0, confidence=0.4))]
        gts = [image("a", ann(0.0, 0.0, 10.0), ann(5.0, 0.0, 11.0))]
        assert (mean_average_precision(preds, gts, ladder)
                == mean_average_precision(preds, gts, twin))
        assert mean_average_precision(preds, gts, twin)[1].per_class_ap == {0: (0.0, 1.0)}
        assert oracle_map(preds, gts, ladder) == oracle_map(preds, gts, twin) == 0.5
        sweep = ThresholdSweep(0.0, 1.0, 0.25)
        assert (sweep_threshold(preds, gts, sweep, ladder)
                == sweep_threshold(preds, gts, sweep, twin))


class TestIgnoreFilter:
    BOX = BBox2D(0.0, 0.0, 10.0, 10.0)

    def run(self, rects, overlap_frac=0.5):
        records = [image("a", det(0.0, 0.0, 10.0, bbox=self.BOX))]
        regions = [IgnoreRegions("a", tuple(rects))]
        [out] = filter_ignore(records, regions, overlap_frac)
        return len(out.items)

    def test_quarter_coverage_is_kept(self):
        assert self.run([BBox2D(0.0, 0.0, 5.0, 5.0)]) == 1

    def test_exact_half_coverage_is_kept(self):
        assert self.run([BBox2D(0.0, 0.0, 10.0, 5.0)]) == 1

    def test_coverage_above_half_is_dropped(self):
        assert self.run([BBox2D(0.0, 0.0, 10.0, 6.0)]) == 0

    def test_overlapping_rects_are_counted_once(self):
        # two rects of fraction 0.3 each, overlapping: union covers 0.45
        rects = [BBox2D(0.0, 0.0, 10.0, 3.0), BBox2D(0.0, 1.5, 10.0, 4.5)]
        assert self.run(rects) == 1
        # the same two rects with a naive sum (0.6) would have dropped it
        assert self.run(rects, overlap_frac=0.44) == 0

    def test_union_covering_everything_drops_the_box(self):
        assert self.run([BBox2D(0.0, 0.0, 6.0, 10.0), BBox2D(4.0, 0.0, 10.0, 10.0)]) == 0

    def test_disjoint_rect_changes_nothing(self):
        assert self.run([BBox2D(50.0, 50.0, 60.0, 60.0)]) == 1

    def test_rects_for_one_image_are_merged_across_entries(self):
        records = [image("a", det(0.0, 0.0, 10.0, bbox=self.BOX))]
        regions = [IgnoreRegions("a", (BBox2D(0.0, 0.0, 6.0, 10.0),)),
                   IgnoreRegions("a", (BBox2D(4.0, 0.0, 10.0, 10.0),))]
        [out] = filter_ignore(records, regions)
        assert out.items == ()

    def test_images_without_regions_pass_through_untouched(self):
        records = [image("other", det(0.0, 0.0, 10.0))]  # no bbox, and that is fine
        assert filter_ignore(records, [IgnoreRegions("a", (self.BOX,))]) == records

    def test_touched_images_require_bboxes(self):
        # raised a bare "filter_ignore requires items with a bbox", naming no image
        boxed = det(0.0, 0.0, 10.0, bbox=self.BOX)
        records = [image("a", boxed, det(0.0, 0.0, 10.0), det(1.0, 0.0, 10.0))]
        with pytest.raises(MissingBoxError) as err:
            filter_ignore(records, [IgnoreRegions("a", (self.BOX,))])
        assert str(err.value) == "filter_ignore requires items with a bbox; image 'a', item 1 has none"

    def test_filters_annotations_the_same_way(self):
        records = [image("a",
                         ann(0.0, 0.0, 10.0, bbox=self.BOX),
                         ann(1.0, 1.0, 20.0, bbox=BBox2D(500.0, 500.0, 510.0, 510.0)))]
        regions = [IgnoreRegions("a", (BBox2D(0.0, 0.0, 10.0, 6.0),))]
        [out] = filter_ignore(records, regions)
        assert len(out.items) == 1
        assert out.items[0].bbox.x1 == 500.0

    @pytest.mark.parametrize("frac", [-0.01, 1.01])
    def test_overlap_fraction_is_validated(self, frac):
        with pytest.raises(ValueError):
            filter_ignore([], [], frac)


def boxed_det(x: float, z: float, *, confidence: float, class_id: int = 0):
    t = Translation(x, 0.0, z)
    return det(t.x, t.y, t.z, confidence=confidence, class_id=class_id,
               bbox=extent_bbox(t, 4.5, 1.5, K))


class TestEnsembleMax:
    def test_duplicates_across_models_collapse_to_one(self):
        d = boxed_det(0.0, 10.0, confidence=0.9)
        merged = ensemble_max([[image("a", d)], [image("a", d)]])
        assert merged == [image("a", d)]

    def test_a_repeated_image_within_one_model_is_rejected(self):
        d = boxed_det(0.0, 10.0, confidence=0.9)
        with pytest.raises(ValueError, match=r"^duplicate image_id 'a' in predictions$"):
            ensemble_max([[image("b", d)], [image("a", d), image("a", d)]])

    def test_the_most_confident_overlap_wins_and_is_emitted_unchanged(self):
        strong = boxed_det(0.0, 10.0, confidence=0.9)
        weak = boxed_det(0.05, 10.0, confidence=0.8)
        [out] = ensemble_max([[image("a", weak)], [image("a", strong)]])
        assert out.items == (strong,)

    def test_low_overlap_keeps_both(self):
        left = boxed_det(-30.0, 10.0, confidence=0.9)
        right = boxed_det(30.0, 10.0, confidence=0.8)
        [out] = ensemble_max([[image("a", left)], [image("a", right)]])
        assert out.items == (left, right)

    def test_other_classes_never_merge(self):
        d0 = boxed_det(0.0, 10.0, confidence=0.9)
        d1 = boxed_det(0.0, 10.0, confidence=0.8, class_id=1)
        [out] = ensemble_max([[image("a", d0)], [image("a", d1)]])
        assert out.items == (d0, d1)

    def test_output_order_is_confidence_descending(self):
        lo = boxed_det(-30.0, 10.0, confidence=0.3)
        hi = boxed_det(30.0, 10.0, confidence=0.9)
        [out] = ensemble_max([[image("a", lo, hi)]])
        assert out.items == (hi, lo)

    def test_single_model_keeps_the_detection_multiset(self):
        records = [image("a", boxed_det(-30.0, 10.0, confidence=0.4),
                         boxed_det(30.0, 10.0, confidence=0.9)),
                   image("b")]
        merged = ensemble_max([records])
        assert {d for r in merged for d in r.items} == {d for r in records for d in r.items}

    def test_merging_is_idempotent(self):
        models = [[image("a", boxed_det(0.0, 10.0, confidence=0.9))],
                  [image("a", boxed_det(0.1, 10.0, confidence=0.7),
                         boxed_det(40.0, 12.0, confidence=0.5))]]
        once = ensemble_max(models)
        assert ensemble_max([once]) == once

    def test_image_order_follows_first_appearance(self):
        models = [[image("a", boxed_det(0.0, 10.0, confidence=0.9))],
                  [image("b", boxed_det(0.0, 10.0, confidence=0.8)),
                   image("a")]]
        merged = ensemble_max(models)
        assert [r.image_id for r in merged] == ["a", "b"]

    def test_complementary_models_recover_full_coverage(self):
        gts = [image("a", ann(-20.0, 0.0, 10.0, bbox=extent_bbox(Translation(-20.0, 0.0, 10.0), 4.5, 1.5, K)),
                     ann(20.0, 0.0, 10.0, bbox=extent_bbox(Translation(20.0, 0.0, 10.0), 4.5, 1.5, K)))]
        model_one = [image("a", as_detection(gts[0].items[0], 0.9))]
        model_two = [image("a", as_detection(gts[0].items[1], 0.9))]
        for single in (model_one, model_two):
            value, _ = mean_average_precision(single, gts)
            assert value == 0.5
        merged_value, _ = mean_average_precision(ensemble_max([model_one, model_two]), gts)
        assert merged_value == 1.0

    def test_zero_models_is_an_error(self):
        with pytest.raises(EmptyEnsembleError):
            ensemble_max([])
        with pytest.raises(EmptyEnsembleError):  # an empty iterator is truthy: it returned []
            ensemble_max(iter([]))

    def test_iterators_merge_as_lists_do(self):
        models = [[image("a", boxed_det(0.0, 10.0, confidence=0.9))],
                  [image("a", boxed_det(0.1, 10.0, confidence=0.7),
                         boxed_det(40.0, 12.0, confidence=0.5)), image("b")]]
        assert ensemble_max(iter(map(iter, models))) == ensemble_max(models)

    def test_identical_boxes_whose_union_overflows_merge(self):
        # the two areas sum past the float range: the IoU read 0 and both were kept
        d = det(0.0, 0.0, 10.0, confidence=0.9, bbox=BBox2D(0.0, 0.0, 1e154, 1.5e154))
        assert ensemble_max([[image("a", d)], [image("a", d)]]) == [image("a", d)]

    def test_detections_need_bboxes(self):
        # raised a bare "ensemble_max requires detections with a bbox"
        boxed = det(0.0, 0.0, 10.0, bbox=BBox2D(0.0, 0.0, 1.0, 1.0))
        models = [[image("a", boxed)], [image("a", boxed), image("b", boxed, boxed, det(0.0, 0.0, 10.0))]]
        with pytest.raises(MissingBoxError) as err:
            ensemble_max(models)
        assert str(err.value) == ("ensemble_max requires items with a bbox; input 1, image 'b', "
                                  "item 2 has none")
        assert issubclass(MissingBoxError, ValueError)

    @pytest.mark.parametrize("kwargs", [
        {"iou_threshold": 0.0},
        {"iou_threshold": 1.2},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            EnsembleConfig(**kwargs)


BOXED = det(0.0, 0.0, 10.0, bbox=BBox2D(950.0, 530.0, 970.0, 550.0))
BOXED_ANN = ann(0.0, 0.0, 10.0, bbox=BBox2D(950.0, 530.0, 970.0, 550.0))


class TestItemsOfTheWrongKind:
    # each raised AttributeError from the first field the stage read
    @pytest.mark.parametrize("run, message", [
        (lambda: recover_xy_records([image("a", BOXED), image("b", BOXED, BOXED_ANN)], K),
         "recover_xy: image 'b', item 1: expected Detection, got Annotation"),
        (lambda: recover_xy_records(iter([image("a", BOXED, "x")]), K),
         "recover_xy: image 'a', item 1: expected Detection, got str"),
        (lambda: apply_confidence_threshold([image("a", BOXED), image("b", "x")], 0.3),
         "apply_confidence_threshold: image 'b', item 0: expected Detection, got str"),
        (lambda: apply_confidence_threshold([image("a", BOXED, BOXED_ANN)], 0.3),
         "apply_confidence_threshold: image 'a', item 1: expected Detection, got Annotation"),
        (lambda: ensemble_max([[image("a", BOXED)],
                               [image("b", BOXED), image("a", BOXED, BOXED_ANN)]]),
         "ensemble_max: input 1, image 'a', item 1: expected Detection, got Annotation"),
        (lambda: ensemble_max([[image("a", BOXED)], [image("a", BOXED, "x")]]),
         "ensemble_max: input 1, image 'a', item 1: expected Detection, got str"),
        (lambda: filter_ignore([image("a", BOXED, BOXED_ANN, "x")],
                               [IgnoreRegions("a", (BBox2D(0.0, 0.0, 1.0, 1.0),))]),
         "filter_ignore: image 'a', item 2: expected Detection or Annotation, got str"),
    ], ids=["recover annotation", "recover str", "threshold str", "threshold annotation",
            "ensemble annotation", "ensemble str", "filter str"])
    def test_is_refused_where_it_is_found(self, run, message):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == message


@st.composite
def loose_records(draw):
    """Records on distinct image ids holding the ``mixed_items`` that construct,
    detections mostly, and now and then a str."""
    def built():
        if draw(st.integers(0, 19)) == 0:
            return ["x"]
        try:
            return [draw(mixed_items(Detection))]
        except ValueError:  # a drawn item that its constructor refuses
            return []

    return [ImageRecord(image_id, tuple(item for _ in range(draw(st.integers(0, 4)))
                                        for item in built()))
            for image_id in draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True,
                                          max_size=3))]


WRONG_KIND = re.compile(r"(recover_xy|apply_confidence_threshold|ensemble_max|filter_ignore): "
                        r"(input \d, )?image '[abc]', item \d: expected Detection( or Annotation)?, "
                        r"got (Annotation|str)")


def returned(call):
    """The records ``call`` returns, or None when it refuses by name: a
    MissingBoxError, a RecoveryOverflowError, or an item of the wrong kind."""
    try:
        return call()
    except (MissingBoxError, RecoveryOverflowError):
        return None
    except ValueError as exc:
        assert WRONG_KIND.fullmatch(str(exc)), exc
        return None


def is_kept_from(out: ImageRecord, records) -> bool:
    """Whether each item of ``out`` is, in order, one of the items of the
    input records with its image_id."""
    pool = iter([item for r in records if r.image_id == out.image_id for item in r.items])
    return all(any(item is candidate for candidate in pool) for item in out.items)


class TestEveryConstructibleRecordPostProcesses:
    # the library property for the post stages: whatever the constructors
    # build is post-processed into records or refused by name
    @settings(max_examples=200, deadline=None)
    @given(loose_records(), CAMERAS)
    def test_recovery_keeps_every_count(self, records, camera):
        out = returned(lambda: recover_xy_records(records, camera))
        if out is not None:
            assert [(r.image_id, len(r.items)) for r in out] == [
                (r.image_id, len(r.items)) for r in records]

    @settings(max_examples=200, deadline=None)
    @given(loose_records(), st.floats(0.0, 1.0))
    def test_the_threshold_keeps_input_items(self, records, threshold):
        out = returned(lambda: apply_confidence_threshold(records, threshold))
        if out is not None:
            assert [r.image_id for r in out] == [r.image_id for r in records]
            assert all(is_kept_from(r, records) for r in out)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(loose_records(), min_size=1, max_size=3), st.floats(0.0, 1.0, exclude_min=True))
    def test_the_ensemble_keeps_input_items(self, outputs, iou_threshold):
        out = returned(lambda: ensemble_max(outputs, EnsembleConfig(iou_threshold)))
        if out is not None:
            pooled = [r for records in outputs for r in records]
            assert sorted(r.image_id for r in out) == sorted({r.image_id for r in pooled})
            assert all(all(any(item is i for r in pooled for i in r.items) for item in o.items)
                       for o in out)

    @settings(max_examples=200, deadline=None)
    @given(loose_records(), st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), boxes())),
           st.floats(0.0, 1.0))
    def test_the_ignore_filter_keeps_input_items(self, records, rects, overlap_frac):
        regions = [IgnoreRegions(image_id, (rect,)) for image_id, rect in rects]
        out = returned(lambda: filter_ignore(records, regions, overlap_frac))
        if out is not None:
            assert [r.image_id for r in out] == [r.image_id for r in records]
            assert all(is_kept_from(r, records) for r in out)


class TestThresholdSweepGrid:
    def test_default_grid(self):
        grid = ThresholdSweep().thresholds()
        assert grid == [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45,
                        0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8]

    def test_inclusive_upper_bound(self):
        assert ThresholdSweep(lo=0.2, hi=0.4, step=0.1).thresholds() == [0.2, 0.3, 0.4]

    def test_degenerate_range_is_a_single_point(self):
        assert ThresholdSweep(lo=0.3, hi=0.3, step=0.05).thresholds() == [0.3]

    def test_step_larger_than_the_range(self):
        assert ThresholdSweep(lo=0.1, hi=0.2, step=0.5).thresholds() == [0.1]

    @pytest.mark.parametrize("lo, hi, step, expected", [
        (0.0, 1.0, 1.0 / (3.0 - 5e-10), [0.0, 0.333333333389, 0.666666666778, 1.0]),
        (0.1, 0.8, 0.7 / (2.0 - 5e-10), [0.1, 0.450000000087, 0.8]),
    ])
    def test_rounding_never_carries_the_last_point_past_hi(self, lo, hi, step, expected):
        # unclamped, the last points were 1.000000000167 and 0.800000000175
        assert ThresholdSweep(lo=lo, hi=hi, step=step).thresholds() == expected

    @pytest.mark.parametrize("lo, hi, step", [
        (0.0, 1e-12, 1e-13),  # gave six 0.0 points
        (0.9562671161355, 0.9562671161517821, 1e-12),  # repeated a point
        (0.0, 1.0, 9.99e-10),
    ])
    def test_steps_below_the_floor_are_rejected(self, lo, hi, step):
        with pytest.raises(ValueError, match=f"^step must be at least 1e-9, got {step}$"):
            ThresholdSweep(lo=lo, hi=hi, step=step)

    def test_the_cap_allows_a_1e_5_step_over_the_unit_interval(self):
        grid = ThresholdSweep(lo=0.0, hi=1.0, step=1e-5).thresholds()
        assert len(grid) == 100_001
        assert grid[-1] == 1.0

    @pytest.mark.parametrize("lo, hi, step, points", [
        (0.0, 1.0, 1e-9, 1_000_000_000),  # built as one list before any point was scored
        (0.0, 1.0, 0.99999e-5, 100_002),
        (0.1, 0.8, 1e-6, 700_001),
    ])
    def test_grids_beyond_the_cap_are_rejected(self, lo, hi, step, points):
        with pytest.raises(ValueError, match=f"^grid of {points} points exceeds the cap of 100001$"):
            ThresholdSweep(lo=lo, hi=hi, step=step)

    def test_rounding_never_puts_the_first_point_below_lo(self):
        # unclamped, the first point was 0.956267116135
        grid = ThresholdSweep(lo=0.9562671161355, hi=0.95626712, step=1e-9).thresholds()
        assert grid[:2] == [0.9562671161355, 0.956267117135]

    @given(st.floats(0.0, 1.0), st.floats(0.0, 2000.0), st.floats(1e-9, 1.0))
    @example(0.9562671161355, 10.0, 1e-9)
    def test_grid_is_strictly_increasing_within_its_bounds(self, lo, points, step):
        hi = min(lo + points * step, 1.0)
        grid = ThresholdSweep(lo=lo, hi=hi, step=step).thresholds()
        assert lo <= grid[0] and grid[-1] <= hi
        assert all(a < b for a, b in zip(grid, grid[1:]))

    @given(st.floats(0.0, 1.0), st.integers(0, 2000), st.floats(0.0, 1.0, exclude_max=True),
           st.one_of(st.just(1e-9), st.floats(1e-9, 1.0)))
    @example(0.9562671161355, 10, 0.0, 1e-9)
    @example(0.0, 3, 0.0, 1.0 / (3.0 - 5e-10))
    @example(0.1234567890123456, 0, 0.5, 0.05)
    def test_grid_equals_the_reference_grid(self, lo, points, fraction, step):
        # hi lies anywhere between grid points; points == 0 gives a one-point grid
        sweep = ThresholdSweep(lo=lo, hi=min(lo + (points + fraction) * step, 1.0), step=step)
        assert list(map(repr, sweep.thresholds())) == list(map(repr, reference_thresholds(sweep)))

    @pytest.mark.parametrize("kwargs", [
        {"lo": 0.5, "hi": 0.4},
        {"lo": -0.1},
        {"hi": 1.1},
        {"step": 0.0},
        {"step": -0.05},
    ])
    def test_bounds_validation(self, kwargs):
        with pytest.raises(ValueError):
            ThresholdSweep(**kwargs)


class TestSweepThreshold:
    def perfect_scene(self):
        gts = [image("a", ann(-20.0, 0.0, 10.0), ann(20.0, 0.0, 10.0)),
               image("b", ann(0.0, 5.0, 15.0), ann(0.0, -5.0, 15.0))]
        confs = iter((0.9, 0.8, 0.85, 0.7))
        preds = [image(r.image_id, *(as_detection(a, next(confs)) for a in r.items))
                 for r in gts]
        return preds, gts

    def test_flat_curve_breaks_ties_toward_the_smallest_threshold(self):
        preds, gts = self.perfect_scene()
        curve, best = sweep_threshold(preds, gts)
        assert best == 0.1
        assert [t for t, _ in curve] == ThresholdSweep().thresholds()
        assert all(value == 1.0 for t, value in curve if t <= 0.7)

    def test_iterators_sweep_as_lists_do(self):
        # the ground truth was read twice, so an iterator of it scored 0.0
        preds, gts = self.perfect_scene()
        assert sweep_threshold(iter(preds), iter(gts)) == sweep_threshold(preds, gts)

    def test_cutting_a_junk_class_lifts_the_mean(self):
        preds, gts = self.perfect_scene()
        junk_confs = [0.05, 0.12, 0.28, 0.26, 0.18]
        preds[0] = image("a", *preds[0].items,
                         *(det(float(30 + 10 * i), 20.0, 40.0, class_id=1, confidence=c)
                           for i, c in enumerate(junk_confs[:3])))
        preds[1] = image("b", *preds[1].items,
                         *(det(float(30 + 10 * i), 20.0, 40.0, class_id=1, confidence=c)
                           for i, c in enumerate(junk_confs[3:])))
        curve, best = sweep_threshold(preds, gts)
        by_threshold = dict(curve)
        assert by_threshold[0.1] == 0.5   # junk class present: AP 0 drags the mean
        assert by_threshold[0.25] == 0.5  # 0.28 and 0.26 still survive here
        assert by_threshold[0.3] == 1.0   # junk class gone entirely
        assert best == 0.3

    def test_a_grid_ending_at_one_sweeps_to_one(self):
        preds, gts = self.perfect_scene()
        curve, _ = sweep_threshold(preds, gts, ThresholdSweep(lo=0.0, hi=1.0, step=1.0 / (3.0 - 5e-10)))
        assert curve[-1] == (1.0, 0.0)

    def test_custom_grid_and_ladder_are_honored(self):
        preds, gts = self.perfect_scene()
        curve, best = sweep_threshold(preds, gts, ThresholdSweep(lo=0.2, hi=0.3, step=0.1))
        assert [t for t, _ in curve] == [0.2, 0.3]
        assert best == 0.2

    def test_sweep_computes_no_more_angles_than_one_evaluation(self, monkeypatch):
        # matching is shared across the grid, so a 15-point sweep does the
        # angle work of a single mAP call on the unthresholded input
        import pose6d.metrics

        calls = 0
        real = pose6d.metrics._unit_angle

        def counting(q_gt, q_pred):
            nonlocal calls
            calls += 1
            return real(q_gt, q_pred)

        monkeypatch.setattr(pose6d.metrics, "_unit_angle", counting)
        preds, gts = crowded_scene(700)
        mean_average_precision(preds, gts)
        per_evaluation, calls = calls, 0
        sweep_threshold(preds, gts)
        assert len(ThresholdSweep().thresholds()) == 15
        assert 0 < calls <= per_evaluation

    def test_sweep_builds_each_bucket_array_once(self, monkeypatch):
        # each class's (pairs x n) TP and precision arrays are built once, when
        # the input is matched; grid points only take prefixes
        import pose6d.metrics

        shapes = []
        real = pose6d.metrics._precision

        def counting(tp):
            shapes.append(tp.shape)
            return real(tp)

        monkeypatch.setattr(pose6d.metrics, "_precision", counting)
        preds, gts = crowded_scene(700)
        classes = {i.class_id for r in preds + gts for i in r.items}
        sweep_threshold(preds, gts)
        assert len(classes) == 3 and len(ThresholdSweep().thresholds()) == 15
        assert len(shapes) == len(classes)
        assert {rows for rows, _ in shapes} == {len(DEFAULT_LADDER.pairs)}
        assert sum(n for _, n in shapes) == sum(len(r.items) for r in preds)

    def test_each_class_is_scored_once_per_tp_count(self, monkeypatch):
        # a class's AP is kept by the number of ranks of its prefix that are a
        # TP at some pair, so a fine grid scores each (class, count) once
        import pose6d.metrics

        scored = []
        real = pose6d.metrics._prefix_aps

        def counting(tp, precision, k, num_gt):
            scored.append((id(tp), int(tp[:, :k].any(axis=0).sum())))
            return real(tp, precision, k, num_gt)

        monkeypatch.setattr(pose6d.metrics, "_prefix_aps", counting)
        preds, gts = crowded_scene(700)
        grid = ThresholdSweep(lo=0.0, hi=1.0, step=0.001).thresholds()
        evaluation = pose6d.metrics.Evaluation(preds, gts)
        for t in grid:
            evaluation.per_class_ap(t)
        buckets, _ = reference_evaluation(preds, gts, DEFAULT_LADDER)
        distinct = set()
        for c, (neg_conf, columns, _) in buckets.items():
            hits = [any(tp[r] for tp, _ in columns) for r in range(len(neg_conf))]
            distinct |= {(c, sum(h for n, h in zip(neg_conf, hits) if n <= -t)) for t in grid}
        assert len(scored) == len(set(scored)) == len(distinct)
        assert len(scored) < len(grid) * len(buckets) / 10

    def test_sweep_scores_once_per_number_of_kept_detections(self, monkeypatch):
        # a threshold keeps the n most confident detections; grid points that
        # keep the same n share one score
        import pose6d.metrics

        thresholds = []
        real = pose6d.metrics.Evaluation.per_class_ap

        def counting(self, threshold=0.0):
            thresholds.append(threshold)
            return real(self, threshold)

        monkeypatch.setattr(pose6d.metrics.Evaluation, "per_class_ap", counting)
        preds, gts = crowded_scene(700)
        sweep = ThresholdSweep(lo=0.0, hi=1.0, step=0.001)
        curve, _ = sweep_threshold(preds, gts, sweep)
        confidences = [d.confidence for r in preds for d in r.items]
        kept = [sum(c >= t for c in confidences) for t in sweep.thresholds()]
        assert len(curve) == len(kept) == 1001
        assert len(thresholds) == len(set(kept)) < len(curve) / 4
        assert [sum(c >= t for c in confidences) for t in thresholds] == sorted(set(kept), reverse=True)
