"""Matching, average precision, and evaluation report tests."""

import io
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose6d import (
    DEFAULT_LADDER,
    Annotation,
    Detection,
    EulerAngles,
    ImageRecord,
    NoClassesError,
    NonFiniteError,
    NoiseSpec,
    ParseError,
    SceneSpec,
    ThresholdLadder,
    ValidationError,
    average_precision,
    generate_scene,
    load_ladder,
    mean_average_precision,
    parse_ladder,
    perturb,
    quat_from_euler,
    sweep_threshold,
)

from pose6d.metrics import Evaluation, _match_image

from helpers import ann, as_detection, crowded_scene, det, image
from test_records import loose_items

PAIR = (1.0, math.radians(10.0))


def rotated(roll: float):
    return quat_from_euler(EulerAngles(roll=roll, pitch=0.0, yaw=0.0))


def noisy_scene(seed: int):
    spec = SceneSpec(seed=seed, n_images=4, objects_per_image=(1, 3),
                     n_classes=1 + seed % 3,
                     noise=NoiseSpec(translation_sigma=0.7, rotation_sigma=0.18,
                                     miss_rate=0.2, false_positive_rate=0.4,
                                     tp_confidence=(0.4, 1.0)))
    gt_records, camera = generate_scene(spec)
    return perturb(gt_records, spec.noise, spec.seed, camera), gt_records


class TestLadder:
    def test_default_ladder_pairs(self):
        assert DEFAULT_LADDER.pairs == (
            (0.5, math.radians(5.0)),
            (1.0, math.radians(10.0)),
            (2.0, math.radians(20.0)),
            (4.0, math.radians(40.0)),
        )

    @pytest.mark.parametrize("pairs", [
        (), ((0.0, 0.1),), ((1.0, -0.1),),
        # each built and scored before, and the report then wrote Infinity or true
        ((math.inf, 0.1),), ((True, 0.1),),
        # failed with a bare "too many values to unpack"
        ((1.0, 0.1, 7),),
        ((1.0, math.nan),), ((10**400, 0.1),), ((1.0,),), (("1", 0.1),), ([1.0, 0.1],),
        # a float32 inf: sys.float_info.max, cast to float32 to compare with it, is inf too
        ((np.float32(math.inf), 0.1),),
    ])
    def test_invalid_ladders_are_rejected(self, pairs):
        with pytest.raises(ValueError, match=r"^(ladder must contain at least one threshold pair"
                                             r"|a ladder pair must be two finite positive numbers,"
                                             r" got .*)$"):
            ThresholdLadder(pairs=pairs)

    @pytest.mark.parametrize("pairs", [[(1.0, 0.1)], [], None], ids=["list", "empty list", "None"])
    def test_pairs_must_be_a_tuple(self, pairs):
        # a list ladder constructed, failed to hash and was unequal to the tuple ladder
        with pytest.raises(ValueError) as err:
            ThresholdLadder(pairs)
        assert str(err.value) == f"ladder pairs must be a tuple, got {type(pairs).__name__}"

    def test_a_rejected_pair_is_named(self):
        with pytest.raises(ValueError) as err:
            ThresholdLadder(pairs=((1.0, 0.1), (math.inf, 0.1)))
        assert str(err.value) == "a ladder pair must be two finite positive numbers, got (inf, 0.1)"

    def test_parse_ladder_converts_degrees(self):
        ladder = parse_ladder([{"trans_m": 1, "rot_deg": 10},
                               {"trans_m": 2.5, "rot_deg": 45}])
        assert ladder.pairs == ((1.0, math.radians(10.0)), (2.5, math.radians(45.0)))

    @pytest.mark.parametrize("data, exc_type", [
        ([], ParseError),
        ({"trans_m": 1}, ParseError),
        ([[1, 10]], ParseError),
        ([{"trans_m": 1}], ParseError),
        ([{"trans_m": True, "rot_deg": 10}], ParseError),
        ([{"trans_m": 0, "rot_deg": 10}], ValidationError),
        ([{"trans_m": 1, "rot_deg": 10 ** 400}], ValidationError),
        ([{"trans_m": -10 ** 400, "rot_deg": 10}], ValidationError),
        # a positive rot_deg that underflows to 0 rad escaped as an unlocated ValueError
        ([{"trans_m": 1, "rot_deg": 5e-324}], ValidationError),
    ])
    def test_parse_ladder_errors(self, data, exc_type):
        with pytest.raises(exc_type):
            parse_ladder(data)

    @pytest.mark.parametrize("entry, kind", [([1, 10], "list"), ("1, 10", "str"), (None, "NoneType")])
    def test_an_entry_that_is_no_object_is_named(self, entry, kind):
        with pytest.raises(ParseError) as err:
            parse_ladder([{"trans_m": 1, "rot_deg": 5}, entry])
        assert str(err.value) == f"line 1: [1]: expected a JSON object, got {kind}"

    @pytest.mark.parametrize("entry, shown", [
        # the refusal printed the pair in meters and radians: got (1.0, -0.017453292519943295)
        ({"trans_m": 1, "rot_deg": -1}, "trans_m=1.0, rot_deg=-1.0 (-0.017453292519943295 rad)"),
        ({"trans_m": 0, "rot_deg": 5}, "trans_m=0.0, rot_deg=5.0 (0.08726646259971647 rad)"),
        ({"trans_m": 1, "rot_deg": 5e-324}, "trans_m=1.0, rot_deg=5e-324 (0.0 rad)"),
    ])
    def test_a_refused_ladder_pair_is_shown_as_written(self, entry, shown):
        with pytest.raises(ValidationError) as err:
            parse_ladder([{"trans_m": 1, "rot_deg": 5}, entry])
        assert str(err.value) == ("line 1: [1]: a ladder pair must be two finite positive numbers, "
                                  f"got {shown}")

    def test_load_ladder_round_trip(self, tmp_path):
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps([{"trans_m": 0.25, "rot_deg": 2.5}]), encoding="utf-8")
        assert load_ladder(str(path)).pairs == ((0.25, math.radians(2.5)),)


def hits(preds, gts):
    """The (det, gt, distance, angle) hits of one image at PAIR, in visiting order."""
    return _match_image(preds, gts, (PAIR,), PAIR[0], 0)[0]


class TestMatch:
    def test_higher_confidence_claims_the_target_first(self):
        gts = [ann(0.0, 0.0, 10.0)]
        preds = [det(0.5, 0.0, 10.0, confidence=0.9),   # farther but more confident
                 det(0.1, 0.0, 10.0, confidence=0.8)]   # nearer yet outranked
        assert hits(preds, gts) == [(0, 0, 0.5, 0.0)]

    def test_each_detection_takes_the_nearest_free_target(self):
        gts = [ann(0.4, 0.0, 10.0), ann(0.1, 0.0, 10.0)]
        preds = [det(0.0, 0.0, 10.0, confidence=0.9)]
        assert hits(preds, gts) == [(0, 1, 0.1, 0.0)]

    def test_distance_tie_goes_to_the_lower_target_index(self):
        gts = [ann(0.3, 0.0, 10.0), ann(-0.3, 0.0, 10.0)]
        preds = [det(0.0, 0.0, 10.0)]
        assert hits(preds, gts) == [(0, 0, 0.3, 0.0)]

    def test_confidence_tie_goes_to_the_earlier_detection(self):
        gts = [ann(0.0, 0.0, 10.0)]
        preds = [det(0.1, 0.0, 10.0, confidence=0.7),
                 det(0.05, 0.0, 10.0, confidence=0.7)]
        assert hits(preds, gts) == [(0, 0, 0.1, 0.0)]

    def test_both_gates_must_hold(self):
        gts = [ann(0.0, 0.0, 10.0)]
        too_far = det(2.0, 0.0, 10.0)
        too_rotated = det(0.0, 0.0, 10.0, quat=rotated(math.radians(20.0)))
        assert hits([too_far], gts) == []
        assert hits([too_rotated], gts) == []

    def test_boundary_distances_and_angles_count_as_matches(self):
        gts = [ann(0.0, 0.0, 10.0)]
        at_edge = det(1.0, 0.0, 10.0, quat=rotated(math.radians(10.0) - 1e-12))
        assert hits([at_edge], gts) == [(0, 0, 1.0, pytest.approx(math.radians(10.0) - 1e-12))]

    def test_rotation_gate_does_not_block_a_farther_candidate(self):
        # the nearest target fails the angle check; the detection must still
        # claim the farther one that passes both gates
        gts = [ann(0.2, 0.0, 10.0, quat=rotated(math.radians(30.0))),
               ann(0.5, 0.0, 10.0)]
        assert hits([det(0.0, 0.0, 10.0)], gts) == [(0, 1, 0.5, 0.0)]

    def test_class_mismatch_never_matches(self):
        gts = [ann(0.0, 0.0, 10.0, class_id=1)]
        assert hits([det(0.0, 0.0, 10.0, class_id=0)], gts) == []

    def test_targets_are_matched_at_most_once(self):
        gts = [ann(0.0, 0.0, 10.0)]
        preds = [det(0.1, 0.0, 10.0, confidence=0.9),
                 det(0.2, 0.0, 10.0, confidence=0.8)]
        assert hits(preds, gts) == [(0, 0, 0.1, 0.0)]


class TestNonFinitePoses:
    def test_is_a_value_error(self):
        assert issubclass(NonFiniteError, ValueError)


class TestAveragePrecision:
    @pytest.mark.parametrize("flags, num_gt, expected", [
        ([True], 1, 1.0),
        ([True, False], 1, 1.0),          # trailing miss cannot hurt
        ([False, True], 1, 0.5),
        ([True, False, True], 2, 5.0 / 6.0),
        ([True, True], 3, 2.0 / 3.0),
        ([False, False], 2, 0.0),
        ([], 5, 0.0),
        ([], 0, 1.0),                     # degenerate forced-in class
        ([False], 0, 0.0),
    ])
    def test_known_values(self, flags, num_gt, expected):
        assert average_precision(flags, num_gt) == pytest.approx(expected)

    def test_perfect_ranking_is_exactly_one(self):
        assert average_precision([True] * 7, 7) == 1.0

    @pytest.mark.parametrize("flags", [[False], [False, True], [True, False, True]])
    def test_an_iterator_scores_as_a_list_does(self, flags):
        # asarray made an iterator one truthy object, so iter([False]) scored 1.0
        assert average_precision(iter(flags), 2) == average_precision(flags, 2)

    def test_negative_gt_count_is_rejected(self):
        with pytest.raises(ValueError):
            average_precision([True], -1)

    # each returned an AP no ranking can have: 2.0, 2.0 and 1.0
    @pytest.mark.parametrize("flags, num_gt, message", [
        ([True, True], 1, "2 true positives exceed num_gt=1"),
        ([True], 0.5, "num_gt must be an int, got 0.5"),
        ([True], True, "num_gt must be an int, got True"),
    ], ids=["more hits than targets", "float count", "bool count"])
    def test_an_impossible_gt_count_is_rejected(self, flags, num_gt, message):
        with pytest.raises(ValueError) as err:
            average_precision(flags, num_gt)
        assert str(err.value) == message

    @given(st.lists(st.booleans(), max_size=30), st.integers(0, 10))
    def test_bounded_when_targets_cover_the_hits(self, flags, extra_gt):
        num_gt = sum(flags) + extra_gt
        value = average_precision(flags, num_gt)
        assert 0.0 <= value <= 1.0

    @given(st.lists(st.booleans(), min_size=1, max_size=30), st.integers(0, 10))
    def test_trailing_misses_never_change_the_value(self, flags, extra_gt):
        num_gt = max(1, sum(flags) + extra_gt)
        assert average_precision(flags + [False], num_gt) == average_precision(flags, num_gt)


def rebuilt_average_precision(flags, num_gt):
    """Reference AP with every array rebuilt from ``flags`` alone, as a float
    array: prefix scoring must reproduce its bits."""
    if num_gt == 0:
        return 0.0 if flags else 1.0
    if not flags:
        return 0.0
    tp = np.asarray(flags, dtype=np.float64)
    precision = np.cumsum(tp) / np.arange(1, tp.size + 1, dtype=np.float64)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(envelope[tp.astype(bool)].sum() / num_gt)


# a detection of kind 0 sits on its own object, kind 1 1.5 m from it (a hit
# at the loose pair only), kind 2 50 m from every object (a false positive)
PREFIX_LADDER = ThresholdLadder(pairs=((1.0, math.radians(10.0)), (2.0, math.radians(20.0))))
CONFIDENCES = (0.0, 0.25, 0.5, 0.75, 1.0)  # few values, so ties are common


class TestPrefixScoring:
    """``Evaluation.per_class_ap(t)`` scores prefixes of arrays built once per
    bucket; each cut must give the bits of scoring that prefix from scratch."""

    @given(st.lists(st.tuples(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(CONFIDENCES)),
                                       max_size=12),
                              st.integers(0, 3)),
                    min_size=1, max_size=3))
    def test_every_cut_equals_average_precision_of_that_prefix(self, classes):
        dets, anns, expected_rows = [], [], {}
        for c, (drawn, extra_gt) in enumerate(classes):
            for kind, confidence in drawn:
                x = 100.0 * len(anns)
                if kind < 2:
                    anns.append(ann(x, 0.0, 50.0, class_id=c))
                dets.append(det(x + (0.0, 1.5, 50.0)[kind], 0.0, 50.0, class_id=c,
                                confidence=confidence))
            for _ in range(extra_gt):
                anns.append(ann(100.0 * len(anns), 0.0, 50.0, class_id=c))
            ranked = sorted(drawn, key=lambda d: -d[1])  # stable, like the bucket
            columns = [[kind == 0 for kind, _ in ranked], [kind < 2 for kind, _ in ranked]]
            num_gt = sum(kind < 2 for kind, _ in drawn) + extra_gt
            expected_rows[c] = ([conf for _, conf in ranked], columns, num_gt)
        evaluation = Evaluation([image("a", *dets)], [image("a", *anns)], PREFIX_LADDER)
        for t in CONFIDENCES:
            expected = {}
            for c, (confs, columns, num_gt) in expected_rows.items():
                k = sum(conf >= t for conf in confs)
                if k or num_gt:
                    expected[c] = tuple(average_precision(flags[:k], num_gt) for flags in columns)
                    assert expected[c] == tuple(rebuilt_average_precision(flags[:k], num_gt)
                                                for flags in columns)
            if not expected:
                with pytest.raises(NoClassesError):
                    evaluation.per_class_ap(t)
            else:
                assert evaluation.per_class_ap(t) == expected


class TestMatchingWork:
    @pytest.mark.parametrize("ladder", [
        DEFAULT_LADDER,
        ThresholdLadder(pairs=((2.0, math.radians(20.0)), (0.5, math.radians(5.0)),
                               (1.0, math.radians(40.0)))),
    ], ids=["default", "non-monotone"])
    def test_each_angle_is_computed_at_most_once(self, monkeypatch, ladder):
        # one evaluation computes the angle of a (detection, ground truth)
        # pair at most once, whichever ladder pairs revisit it
        import pose6d.metrics

        calls = Counter()
        real = pose6d.metrics._unit_angle

        def counting(q_gt, q_pred):
            calls[id(q_gt), id(q_pred)] += 1
            return real(q_gt, q_pred)

        monkeypatch.setattr(pose6d.metrics, "_unit_angle", counting)
        preds, gts = crowded_scene(700)
        rotations = [i.pose.rotation for r in preds + gts for i in r.items]
        assert len({id(q) for q in rotations}) == len(rotations)  # ids name the pair
        Evaluation(preds, gts, ladder)
        assert len(calls) > 100 and max(calls.values()) == 1


def perfect_setup():
    gt_records = [
        image("a", ann(0.0, 0.0, 10.0), ann(3.0, 1.0, 20.0)),
        image("b", ann(-2.0, 0.5, 15.0)),
    ]
    confs = iter((0.9, 0.8, 0.7))
    pred_records = [
        image(r.image_id, *(as_detection(a, next(confs)) for a in r.items))
        for r in gt_records
    ]
    return pred_records, gt_records


class TestMeanAveragePrecision:
    def test_iterators_score_as_lists_do(self):
        # the ground truth was read twice, so an iterator of it scored 0.0
        preds, gts = perfect_setup()
        expected = mean_average_precision(preds, gts)
        assert expected[0] == 1.0
        assert mean_average_precision(iter(preds), iter(gts)) == expected

    def test_perfect_predictions_score_exactly_one(self):
        preds, gts = perfect_setup()
        value, report = mean_average_precision(preds, gts)
        assert value == 1.0
        assert report.mean_ap == 1.0
        assert report.mae_trans == 0.0
        assert report.rot_error_mean == 0.0
        assert report.rot_error_median == 0.0
        assert report.precision == 1.0 and report.recall == 1.0
        assert (report.tp, report.fp, report.fn) == (3, 0, 0)

    def test_false_positive_only_class_halves_the_mean(self):
        preds, gts = perfect_setup()
        preds[0] = image("a", *preds[0].items, det(5.0, 5.0, 30.0, class_id=7, confidence=0.3))
        value, report = mean_average_precision(preds, gts)
        assert report.per_class_ap[7] == (0.0,) * 4
        assert report.per_class_ap[0] == (1.0,) * 4
        assert value == 0.5

    def test_undetected_class_halves_the_mean(self):
        preds, gts = perfect_setup()
        gts[1] = image("b", *gts[1].items, ann(4.0, -1.0, 40.0, class_id=2))
        value, report = mean_average_precision(preds, gts)
        assert value == 0.5
        assert report.fn == 1

    def test_prediction_only_image_contributes_false_positives(self):
        preds, gts = perfect_setup()
        preds.append(image("zzz", det(1.0, 1.0, 11.0, confidence=0.05)))
        value, report = mean_average_precision(preds, gts)
        assert report.fp == 1
        assert value == 1.0  # ranked below every hit, so the envelope is unchanged

    def test_ground_truth_only_image_contributes_misses(self):
        preds, gts = perfect_setup()
        gts.append(image("ghost", ann(0.0, 0.0, 12.0)))
        value, report = mean_average_precision(preds, gts)
        assert report.fn == 1
        assert value == pytest.approx(0.75)

    def test_false_positive_above_the_hit_costs_half(self):
        gts = [image("a", ann(0.0, 0.0, 10.0))]
        preds = [image("a",
                       det(50.0, 50.0, 90.0, confidence=0.9),
                       det(0.0, 0.0, 10.0, confidence=0.8))]
        value, report = mean_average_precision(preds, gts)
        assert value == pytest.approx(0.5)
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)

    def test_duplicate_image_ids_are_rejected(self):
        preds, gts = perfect_setup()
        with pytest.raises(ValueError, match="duplicate"):
            mean_average_precision(preds + [image("a")], gts)
        with pytest.raises(ValueError, match="duplicate"):
            mean_average_precision(preds, gts + [image("b")])

    def test_no_classes_anywhere_is_an_error(self):
        with pytest.raises(NoClassesError):
            mean_average_precision([image("a")], [image("a")])

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, math.nan])
    def test_scoring_threshold_outside_the_unit_interval_is_rejected(self, threshold):
        preds, gts = perfect_setup()
        with pytest.raises(ValueError, match="threshold"):
            Evaluation(preds, gts).per_class_ap(threshold)

    def test_a_bool_scoring_threshold_is_rejected(self):
        # True scored as the threshold 1
        preds, gts = perfect_setup()
        with pytest.raises(ValueError) as err:
            Evaluation(preds, gts).per_class_ap(True)
        assert str(err.value) == "threshold must be a number, got True"

    # each raised AttributeError from the first field that scoring read
    @pytest.mark.parametrize("preds, gts, message", [
        ([image("a", det(0.0, 0.0, 10.0)), image("b", det(0.0, 0.0, 10.0), ann(0.0, 0.0, 10.0))],
         [image("a", ann(0.0, 0.0, 10.0))],
         "scoring: predictions, image 'b', item 1: expected Detection, got Annotation"),
        ([image("a", det(0.0, 0.0, 10.0))], [image("b"), image("a", ann(0.0, 0.0, 10.0), "x")],
         "scoring: ground truth, image 'a', item 1: expected Annotation, got str"),
    ], ids=["predictions", "ground truth"])
    def test_an_item_of_the_wrong_kind_is_named(self, preds, gts, message):
        for score in (mean_average_precision, sweep_threshold):
            with pytest.raises(ValueError) as err:
                score(preds, gts)
            assert str(err.value) == message

    def test_a_scoring_threshold_that_is_no_number_is_rejected(self):
        # '0.5' raised TypeError from its comparison with 0.0
        preds, gts = perfect_setup()
        with pytest.raises(ValueError) as err:
            Evaluation(preds, gts).per_class_ap("0.5")
        assert str(err.value) == "threshold must be a number, got '0.5'"

    @pytest.mark.parametrize("seed", [5, 19])
    def test_record_order_changes_nothing(self, seed):
        preds, gts = noisy_scene(seed)
        shuffled = list(preds)
        random.Random(seed).shuffle(shuffled)
        value, _ = mean_average_precision(preds, gts)
        value_shuffled, _ = mean_average_precision(shuffled, gts)
        assert value == value_shuffled

    @pytest.mark.parametrize("seed", [7, 23])
    def test_monotone_confidence_rescaling_changes_nothing(self, seed):
        from dataclasses import replace

        preds, gts = noisy_scene(seed)
        rescaled = [
            image(r.image_id, *(replace(d, confidence=0.25 + 0.5 * d.confidence)
                                for d in r.items))
            for r in preds
        ]
        value, _ = mean_average_precision(preds, gts)
        value_rescaled, _ = mean_average_precision(rescaled, gts)
        assert value == value_rescaled

    @pytest.mark.parametrize("seed", list(range(12)))
    def test_relaxing_thresholds_never_reduces_ap_on_sampled_scenes(self, seed):
        preds, gts = noisy_scene(seed)
        _, report = mean_average_precision(preds, gts)
        for aps in report.per_class_ap.values():
            for tighter, looser in zip(aps, aps[1:]):
                assert looser >= tighter - 1e-12


class TestScalarStats:
    def test_stats_over_two_matches(self):
        gts = [image("a", ann(0.0, 0.0, 10.0), ann(5.0, 0.0, 10.0))]
        preds = [image("a", det(0.3, 0.0, 10.0, confidence=0.9),
                       det(5.0, 0.4, 10.0, confidence=0.8, quat=rotated(0.1)))]
        _, report = mean_average_precision(preds, gts)
        assert report.mae_trans == pytest.approx(0.35)
        assert report.rot_error_mean == pytest.approx(0.05, abs=1e-12)
        assert report.rot_error_median == pytest.approx(0.05, abs=1e-12)
        assert (report.precision, report.recall) == (1.0, 1.0)
        assert (report.tp, report.fp, report.fn) == (2, 0, 0)

    @pytest.mark.parametrize("preds, gts, precision, recall, counts", [
        ([image("a")], [image("a", ann(0.0, 0.0, 10.0))], None, 0.0, (0, 0, 1)),
        ([image("a", det(0.0, 0.0, 10.0))], [image("a")], 0.0, None, (0, 1, 0)),
    ], ids=["no predictions", "no ground truth"])
    def test_a_side_goes_none_without_its_denominator(self, preds, gts, precision, recall,
                                                      counts):
        _, report = mean_average_precision(preds, gts)
        assert (report.precision, report.recall) == (precision, recall)
        assert (report.tp, report.fp, report.fn) == counts
        assert (report.mae_trans, report.rot_error_mean, report.rot_error_median) == (None,) * 3


@st.composite
def loose_scenes(draw):
    """Prediction and ground-truth records on up to three shared image ids,
    holding the ``loose_items`` that construct; each built annotation is now
    and then also a detection of its class and pose, so some match."""
    def built(kind):
        try:
            return [draw(loose_items(kind))]
        except ValueError:  # a drawn item that its constructor refuses
            return []

    preds, gts = [], []
    for image_id in draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3)):
        anns = [a for _ in range(draw(st.integers(0, 4))) for a in built(Annotation)]
        dets = [d for _ in range(draw(st.integers(0, 4))) for d in built(Detection)]
        dets += [Detection(a.class_id, draw(st.sampled_from([0.0, 0.5, 1.0])), a.bbox, a.pose)
                 for a in anns if draw(st.booleans())]
        for side, items in ((preds, dets), (gts, anns)):
            if items or draw(st.booleans()):
                side.append(ImageRecord(image_id, tuple(items)))
    return preds, gts


class TestEveryConstructibleRecordScores:
    # the library property for scoring: whatever the constructors build
    # scores within [0, 1] with counts that add up, or is a named refusal
    @settings(max_examples=300, deadline=None)
    @given(loose_scenes())
    def test_map_is_a_fraction_and_the_counts_add_up(self, scene):
        preds, gts = scene
        num_dets = sum(len(r.items) for r in preds)
        num_gts = sum(len(r.items) for r in gts)
        try:
            value, report = mean_average_precision(preds, gts)
        except NoClassesError:
            assert num_dets == num_gts == 0
            return
        assert 0.0 <= value <= 1.0
        assert all(0.0 <= ap <= 1.0 for aps in report.per_class_ap.values() for ap in aps)
        assert (report.tp + report.fp, report.tp + report.fn) == (num_dets, num_gts)

    @settings(max_examples=300, deadline=None)
    @given(loose_scenes())
    def test_every_swept_map_is_a_fraction(self, scene):
        try:
            curve, best = sweep_threshold(*scene)
        except NoClassesError:
            assert not any(r.items for r in scene[1])  # a class in ground truth always scores
            return
        assert all(0.0 <= value <= 1.0 for _, value in curve)
        assert best in [t for t, _ in curve]


class TestReportOutput:
    def test_json_dict_shape(self):
        preds, gts = perfect_setup()
        _, report = mean_average_precision(preds, gts)
        payload = report.to_json_dict()
        assert set(payload) == {"mAP", "ladder", "per_class", "mae_trans",
                                "angular_error", "precision", "recall", "counts"}
        assert payload["mAP"] == 1.0
        assert payload["per_class"]["0"]["mean_ap"] == 1.0
        assert payload["counts"] == {"tp": 3, "fp": 0, "fn": 0}
        json.dumps(payload)  # must be serializable as-is

    def test_text_table_lists_every_ladder_pair(self):
        preds, gts = perfect_setup()
        _, report = mean_average_precision(preds, gts)
        text = report.to_text()
        assert "mAP" in text
        assert text.count("deg") >= len(DEFAULT_LADDER.pairs)

    def test_text_table_handles_undefined_stats(self):
        _, report = mean_average_precision(
            [image("a")], [image("a", ann(0.0, 0.0, 10.0))])
        assert "n/a" in report.to_text()
