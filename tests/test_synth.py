"""Synthetic scene generation, perturbation, and oracle tests."""

import hashlib
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pose6d import (
    CAR_EXTENT,
    MAX_ORACLE_DETECTIONS,
    CameraIntrinsics,
    NoClassesError,
    NoiseSpec,
    SceneSpec,
    TooLargeError,
    angular_error,
    corrupt_xy,
    generate_scene,
    mean_average_precision,
    oracle_map,
    parse_ground_truth,
    parse_predictions,
    perturb,
    project,
    serialize_ground_truth,
    serialize_predictions,
)

from pose6d.synth import _unit_vector

from helpers import ann, as_detection, det, image

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)

INT64_MAX = 2**63 - 1


def assert_round_trips(records, preds):
    for parse, serialize, written in ((parse_ground_truth, serialize_ground_truth, records),
                                      (parse_predictions, serialize_predictions, preds)):
        stream = io.StringIO()
        serialize(written, stream)
        assert parse(stream.getvalue().splitlines()) == written


def edges(lo, hi, *values):
    """Any float in [lo, hi], or one of the given edge values."""
    return st.sampled_from(values) | st.floats(lo, hi)


SIGMAS = edges(0.0, sys.float_info.max, 5e-324, 1e-300, 0.5, 10.0, 1e308, sys.float_info.max)
RATES = edges(0.0, 1.0, 0.0, 5e-324, 0.5, 1.0)
DEPTHS = edges(1e-9, 1e9, 1e-9, 8.0, 50.0, 1e9)
CONFIDENCES = edges(0.0, 1.0, 0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0)


@st.composite
def ordered(draw, values):
    return tuple(sorted((draw(values), draw(values))))


@st.composite
def specs(draw):
    """A scene spec at the edges of what SceneSpec and NoiseSpec accept, with
    at most three images of at most four objects."""
    noise = NoiseSpec(translation_sigma=draw(SIGMAS), rotation_sigma=draw(SIGMAS),
                      miss_rate=draw(RATES), false_positive_rate=draw(RATES),
                      tp_confidence=draw(ordered(CONFIDENCES)),
                      fp_confidence=draw(ordered(CONFIDENCES)))
    return SceneSpec(seed=draw(st.sampled_from([0, 1, 2**32, INT64_MAX, 2**128])
                               | st.integers(0, 2**64)),
                     n_images=draw(st.integers(0, 3)),
                     objects_per_image=draw(ordered(st.integers(0, 4))),
                     depth_range=draw(ordered(DEPTHS)),
                     n_classes=draw(st.sampled_from([1, 2, INT64_MAX]) | st.integers(1, INT64_MAX)),
                     noise=noise)


class TestGenerateScene:
    def test_same_spec_reproduces_identical_records(self):
        spec = SceneSpec(seed=42, n_images=6, objects_per_image=(1, 4), n_classes=3)
        first, camera_a = generate_scene(spec)
        second, camera_b = generate_scene(spec)
        assert first == second
        assert camera_a == camera_b

    def test_different_seeds_differ(self):
        a, _ = generate_scene(SceneSpec(seed=1, n_images=3))
        b, _ = generate_scene(SceneSpec(seed=2, n_images=3))
        assert a != b

    def test_scene_respects_the_spec(self):
        spec = SceneSpec(seed=9, n_images=10, objects_per_image=(2, 5),
                         depth_range=(10.0, 30.0), n_classes=4)
        records, camera = generate_scene(spec)
        assert [r.image_id for r in records] == [f"img_{i:04d}" for i in range(10)]
        width, height = 2.0 * camera.cx, 2.0 * camera.cy
        for record in records:
            assert 2 <= len(record.items) <= 5
            for a in record.items:
                assert 0 <= a.class_id < 4
                assert 10.0 <= a.pose.translation.z <= 30.0
                u, v = project(a.pose.translation, camera)
                assert 0.1 * width <= u <= 0.9 * width
                assert 0.1 * height <= v <= 0.9 * height
                assert a.bbox is not None

    def test_boxes_are_centered_on_the_projection(self):
        records, camera = generate_scene(SceneSpec(seed=3, n_images=2))
        for record in records:
            for a in record.items:
                u, v = project(a.pose.translation, camera)
                cu = (a.bbox.x1 + a.bbox.x2) * 0.5
                cv = (a.bbox.y1 + a.bbox.y2) * 0.5
                assert cu == pytest.approx(u, abs=1e-9)
                assert cv == pytest.approx(v, abs=1e-9)
                assert a.bbox.x2 - a.bbox.x1 == pytest.approx(
                    camera.fx * CAR_EXTENT[0] / a.pose.translation.z, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"n_images": -1},
        {"objects_per_image": (3, 1)},
        {"depth_range": (0.0, 10.0)},
        {"n_classes": 0},
        {"seed": -1},
        {"depth_range": (8.0, math.inf)},
        # beyond the depth bound; the first three built a box that overflowed
        # or collapsed mid-generation
        {"depth_range": (8.0, 1e308)},
        {"depth_range": (8.0, 1e17)},
        {"depth_range": (1e-300, 1e-300)},
        {"depth_range": (1e-300, 50.0)},
        {"depth_range": (8.0, 1.0000001e9)},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            SceneSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, got", [
        # numpy's integers() raised "high is out of bounds for int64" mid-generation
        ({"n_classes": 10**20}, "100000000000000000000 and (1, 4)"),
        ({"n_classes": 2**63}, "9223372036854775808 and (1, 4)"),
        ({"objects_per_image": (1, 10**20)}, "1 and (1, 100000000000000000000)"),
        ({"objects_per_image": (2**63, 2**63)}, "1 and (9223372036854775808, 9223372036854775808)"),
    ])
    def test_counts_beyond_numpys_draw_range_are_refused(self, kwargs, got):
        with pytest.raises(ValueError) as err:
            SceneSpec(**kwargs)
        assert str(err.value) == ("n_classes and objects_per_image must be at most "
                                  f"9223372036854775807, numpy's int64 draw range, got {got}")

    @pytest.mark.parametrize("kwargs, got", [
        ({"n_images": 250_001}, "n_images=250001 with up to 4 each"),
        ({"n_images": 1, "objects_per_image": (0, 1_000_001)}, "n_images=1 with up to 1000001 each"),
        # an empty image counts as one
        ({"n_images": 1_000_001, "objects_per_image": (0, 0)}, "n_images=1000001 with up to 0 each"),
        ({"n_images": 2**63, "objects_per_image": (2**62, 2**62)},
         f"n_images={2**63} with up to {2**62} each"),
    ])
    def test_a_scene_beyond_the_object_cap_is_refused(self, kwargs, got):
        # only refusals: a scene near the cap takes minutes to generate
        with pytest.raises(ValueError) as err:
            SceneSpec(**kwargs)
        assert str(err.value) == ("a scene holds at most 1000000 objects, counting an empty "
                                  f"image as one, got {got}")

    def test_the_largest_class_count_numpy_draws_is_generated(self):
        spec = SceneSpec(seed=3, n_images=4, n_classes=INT64_MAX, noise=NoiseSpec(
            false_positive_rate=1.0))
        records, camera = generate_scene(spec)
        preds = perturb(records, spec.noise, spec.seed, camera)
        assert all(0 <= a.class_id <= INT64_MAX for r in records for a in r.items)
        assert_round_trips(records, preds)

    @pytest.mark.parametrize("depth", [1e-9, 1e9])
    def test_a_scene_at_either_end_of_the_bound_is_generated_and_perturbed(self, depth):
        spec = SceneSpec(seed=5, n_images=20, objects_per_image=(1, 4), depth_range=(depth, depth))
        records, camera = generate_scene(spec)
        noise = NoiseSpec(translation_sigma=0.5, rotation_sigma=0.1, miss_rate=0.2,
                          false_positive_rate=0.5)
        preds = perturb(records, noise, seed=5, camera=camera)
        assert sum(len(r.items) for r in records) > 0
        assert sum(len(r.items) for r in preds) > 0
        for record in records:
            for a in record.items:
                assert a.pose.translation.z == depth
                assert 0.0 < a.bbox.area() < math.inf
        assert_round_trips(records, preds)

    @settings(max_examples=200, deadline=None)
    @given(specs())
    def test_every_accepted_spec_is_generated_perturbed_and_round_trips(self, spec):
        records, camera = generate_scene(spec)
        preds = perturb(records, spec.noise, spec.seed, camera)
        assert len(records) == len(preds) == spec.n_images
        assert_round_trips(records, preds)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(translation_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(miss_rate=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(tp_confidence=(0.9, 0.1))
        for name in ("translation_sigma", "rotation_sigma"):
            for sigma in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    NoiseSpec(**{name: sigma})

    @pytest.mark.parametrize("kwargs, message", [
        # the first two built, then generate_scene raised TypeError
        ({"n_images": 2.5}, "n_images must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        # these drew 1-2 objects, classes {0, 1}, and seed 1's scene
        ({"objects_per_image": (1.5, 2.5)}, "objects_per_image must hold integers, got (1.5, 2.5)"),
        ({"n_classes": 2.5}, "n_classes must be an integer, got 2.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"objects_per_image": (1, np.True_)}, "objects_per_image must hold integers, got (1, np.True_)"),
        # a TypeError at construction
        ({"depth_range": ("1", "2")}, "depth_range must hold numbers, got ('1', '2')"),
        ({"depth_range": (True, 2.0)}, "depth_range must hold numbers, got (True, 2.0)"),
        # a bare unpacking TypeError
        ({"objects_per_image": 3}, "objects_per_image must be a pair of integers, got 3"),
        ({"depth_range": None}, "depth_range must be a pair of numbers, got None"),
    ], ids=["float n_images", "float seed", "float counts", "float n_classes", "bool seed",
            "numpy bool count", "str depths", "bool depth", "int counts", "None depths"])
    def test_a_spec_numpy_cannot_draw_is_refused(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            SceneSpec(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        ({"translation_sigma": True}, "translation_sigma must be a number, got True"),
        ({"rotation_sigma": "0.1"}, "rotation_sigma must be a number, got '0.1'"),
        ({"miss_rate": None}, "miss_rate must be a number, got None"),
        ({"false_positive_rate": False}, "false_positive_rate must be a number, got False"),
        ({"tp_confidence": (0.5, True)}, "tp_confidence must hold numbers, got (0.5, True)"),
        ({"fp_confidence": ("0.1", 0.5)}, "fp_confidence must hold numbers, got ('0.1', 0.5)"),
        # a bare unpacking TypeError, then a ValueError that named no field
        ({"tp_confidence": 1.0}, "tp_confidence must be a pair of numbers, got 1.0"),
        ({"fp_confidence": (0.1, 0.2, 0.3)},
         "fp_confidence must be a pair of numbers, got (0.1, 0.2, 0.3)"),
    ], ids=["bool sigma", "str sigma", "None rate", "bool rate", "bool confidence",
            "str confidence", "number confidence", "three confidences"])
    def test_a_noise_spec_of_non_numbers_is_refused(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            NoiseSpec(**kwargs)
        assert str(err.value) == message

    def test_numpy_integers_draw_as_ints_do(self):
        ints = SceneSpec(seed=7, n_images=3, objects_per_image=(1, 5), n_classes=4)
        numpy_ints = SceneSpec(seed=np.int64(7), n_images=np.int64(3),
                               objects_per_image=(np.int64(1), np.uint8(5)), n_classes=np.int64(4))
        assert generate_scene(numpy_ints) == generate_scene(ints)
        records, camera = generate_scene(ints)
        noise = NoiseSpec(translation_sigma=0.5, false_positive_rate=0.5)
        preds = perturb(records, noise, 7, camera)
        assert perturb(records, noise, np.int64(7), camera) == preds
        assert corrupt_xy(preds, np.int64(7)) == corrupt_xy(preds, 7)

    @pytest.mark.parametrize("seed", [1.5, True])
    @pytest.mark.parametrize("draw", [
        lambda records, camera, seed: perturb(records, NoiseSpec(), seed, camera),
        lambda records, camera, seed: corrupt_xy(records, seed),
    ], ids=["perturb", "corrupt_xy"])
    def test_a_seed_that_is_no_integer_is_refused_on_entry(self, draw, seed):
        # 1.5 raised numpy's TypeError, and True drew seed 1's noise
        records, camera = generate_scene(SceneSpec(seed=2, n_images=2))
        preds = perturb(records, NoiseSpec(), 2, camera)
        with pytest.raises(ValueError) as err:
            draw(preds, camera, seed)
        assert str(err.value) == f"seed must be an integer, got {seed!r}"


class TestPerturb:
    def test_an_iterator_is_perturbed_as_a_list_is(self):
        # the records were read twice, so an iterator gave []
        records, camera = generate_scene(SceneSpec(seed=3, n_images=4))
        noise = NoiseSpec(translation_sigma=0.5, miss_rate=0.3, false_positive_rate=0.5)
        expected = perturb(records, noise, 5, camera)
        assert sum(len(r.items) for r in expected) > 0
        assert perturb(iter(records), noise, 5, camera) == expected

    def test_zero_noise_copies_the_scene_with_full_confidence(self):
        records, camera = generate_scene(SceneSpec(seed=7, n_images=4, objects_per_image=(1, 3)))
        preds = perturb(records, NoiseSpec(), seed=7, camera=camera)
        assert [r.image_id for r in preds] == [r.image_id for r in records]
        for pred_record, gt_record in zip(preds, records):
            assert len(pred_record.items) == len(gt_record.items)
            for d, a in zip(pred_record.items, gt_record.items):
                assert d.confidence == 1.0
                assert d.class_id == a.class_id
                assert d.bbox == a.bbox
                assert d.pose == a.pose  # bit-exact: no jitter is ever drawn

    def test_same_seed_reproduces_identical_predictions(self):
        records, camera = generate_scene(SceneSpec(seed=11, n_images=3))
        noise = NoiseSpec(translation_sigma=0.5, rotation_sigma=0.1,
                          miss_rate=0.3, false_positive_rate=0.5, tp_confidence=(0.4, 1.0))
        assert perturb(records, noise, 5, camera) == perturb(records, noise, 5, camera)
        assert perturb(records, noise, 5, camera) != perturb(records, noise, 6, camera)

    def test_certain_misses_empty_every_image(self):
        records, camera = generate_scene(SceneSpec(seed=2, n_images=3))
        preds = perturb(records, NoiseSpec(miss_rate=1.0), seed=0, camera=camera)
        assert all(r.items == () for r in preds)
        assert [r.image_id for r in preds] == [r.image_id for r in records]

    def test_certain_false_positives_add_one_per_object(self):
        records, camera = generate_scene(SceneSpec(seed=2, n_images=3, n_classes=2))
        classes = {a.class_id for r in records for a in r.items}
        noise = NoiseSpec(miss_rate=1.0, false_positive_rate=1.0, fp_confidence=(0.1, 0.4))
        preds = perturb(records, noise, seed=0, camera=camera)
        for pred_record, gt_record in zip(preds, records):
            assert len(pred_record.items) == len(gt_record.items)
            for d in pred_record.items:
                assert d.class_id in classes
                assert 0.1 <= d.confidence <= 0.4
                assert d.bbox is not None

    def test_survivor_confidence_stays_in_the_requested_range(self):
        records, camera = generate_scene(SceneSpec(seed=4, n_images=5, objects_per_image=(2, 4)))
        preds = perturb(records, NoiseSpec(tp_confidence=(0.6, 0.8)), seed=1, camera=camera)
        for record in preds:
            for d in record.items:
                assert 0.6 <= d.confidence <= 0.8

    def test_jitter_magnitudes_follow_the_half_normal_mean(self):
        spec = SceneSpec(seed=5, n_images=1000, objects_per_image=(1, 1))
        records, camera = generate_scene(spec)
        noise = NoiseSpec(translation_sigma=0.6, rotation_sigma=0.15)
        preds = perturb(records, noise, seed=5, camera=camera)
        t_errors = []
        r_errors = []
        for pred_record, gt_record in zip(preds, records):
            d, a = pred_record.items[0], gt_record.items[0]
            dt = d.pose.translation
            at = a.pose.translation
            t_errors.append(math.dist((dt.x, dt.y, dt.z), (at.x, at.y, at.z)))
            r_errors.append(angular_error(a.pose.rotation, d.pose.rotation))
        t_ratio = (sum(t_errors) / len(t_errors)) / (0.6 * HALF_NORMAL_MEAN)
        r_ratio = (sum(r_errors) / len(r_errors)) / (0.15 * HALF_NORMAL_MEAN)
        assert 0.9 < t_ratio < 1.1
        assert 0.9 < r_ratio < 1.1

    @pytest.mark.parametrize("seed", range(6))
    def test_a_jitter_behind_the_camera_is_drawn_again(self, seed):
        # raised "detection depth must be positive": sigma 10 m against depths from 8 m
        records, camera = generate_scene(SceneSpec(seed=seed, n_images=200))
        preds = perturb(records, NoiseSpec(translation_sigma=10.0), seed=seed, camera=camera)
        assert [len(r.items) for r in preds] == [len(r.items) for r in records]
        assert all(d.pose.translation.z > 0.0 for r in preds for d in r.items)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_jitter_magnitude_that_overflows_is_drawn_again(self, seed):
        # raised "detection has a non-finite pose": |normal(0, 1e308)| beyond the float range
        records, camera = generate_scene(SceneSpec(seed=seed, n_images=50))
        preds = perturb(records, NoiseSpec(translation_sigma=1e308), seed=seed, camera=camera)
        assert [len(r.items) for r in preds] == [len(r.items) for r in records]
        translations = [d.pose.translation for r in preds for d in r.items]
        assert all(math.isfinite(t.x) and math.isfinite(t.y) and 0.0 < t.z < math.inf
                   for t in translations)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_rotation_angle_that_overflows_is_drawn_again(self, seed):
        # raised "math domain error": sin of |normal(0, 1e308)| beyond the float range,
        # as pose6d synth --rot-sigma 1e308 --images 20 did for every seed from 0 to 7
        records, camera = generate_scene(SceneSpec(seed=seed, n_images=20))
        preds = perturb(records, NoiseSpec(rotation_sigma=1e308), seed=seed, camera=camera)
        assert [len(r.items) for r in preds] == [len(r.items) for r in records]
        assert_round_trips(records, preds)


class TestCorruptXy:
    def setup_preds(self):
        records, camera = generate_scene(SceneSpec(seed=6, n_images=4, objects_per_image=(1, 3)))
        return perturb(records, NoiseSpec(), seed=6, camera=camera)

    def test_depth_box_and_rotation_are_untouched(self):
        preds = self.setup_preds()
        moved = corrupt_xy(preds, seed=1)
        for before, after in zip(preds, moved):
            for d0, d1 in zip(before.items, after.items):
                assert d1.pose.translation.z == d0.pose.translation.z
                assert d1.bbox == d0.bbox
                assert d1.pose.rotation == d0.pose.rotation
                assert d1.confidence == d0.confidence

    def test_lateral_displacement_stays_in_range(self):
        preds = self.setup_preds()
        moved = corrupt_xy(preds, seed=1)
        for before, after in zip(preds, moved):
            for d0, d1 in zip(before.items, after.items):
                shift = math.hypot(d1.pose.translation.x - d0.pose.translation.x,
                                   d1.pose.translation.y - d0.pose.translation.y)
                assert 0.6 <= shift <= 1.5

    def test_deterministic_in_the_seed(self):
        preds = self.setup_preds()
        assert corrupt_xy(preds, seed=3) == corrupt_xy(preds, seed=3)
        assert corrupt_xy(preds, seed=3) != corrupt_xy(preds, seed=4)


PINNED_NOISE = NoiseSpec(translation_sigma=0.5, rotation_sigma=0.2, miss_rate=0.2,
                         false_positive_rate=0.5, tp_confidence=(0.3, 1.0))
PINNED_SCENES = {
    "crowded": {"n_images": 6, "objects_per_image": (20, 40), "n_classes": 3},
    "sparse": {"n_images": 125, "objects_per_image": (1, 4), "n_classes": 20},
}


class TestDrawsArePinned:
    """Every draw of generation, perturbation and lateral corruption, to the
    bit: a change to how synth computes its values must keep these hashes."""

    @pytest.mark.parametrize("scene, seed, digest", [
        pytest.param(scene, seed, digest, id=f"{scene}-{seed}") for scene, seed, digest in [
            ("crowded", 0, "490df1573f46848c0c13b33a6b6881ba545916cf574feb8348cb172078c03f5c"),
            ("crowded", 7, "4d8d683553d1c32a451e48e5c2f5703e794e4d64126dac17e15b6be0a5ab4d8e"),
            ("crowded", 2201, "2a320a019e364785ac7bb86ce30c9480eb847dabfed1f078d594a41cf48f6249"),
            ("sparse", 0, "da626f39960d283c0757c58d1a712b514b335b901020bf6477f7b6b5f1bb3532"),
            ("sparse", 7, "75dc52343d54cb8f826820724fa05bfa5450684dd1b1886163b2876bdf7727ae"),
            ("sparse", 2201, "cc6f95f8c861cbae4f00a01db5b3adb736d2f513c007bce0dae56c3e687c2c9a"),
        ]])
    def test_scene_perturbation_and_corruption_keep_their_bits(self, scene, seed, digest):
        gts, camera = generate_scene(SceneSpec(seed=seed, noise=PINNED_NOISE,
                                               **PINNED_SCENES[scene]))
        preds = perturb(gts, PINNED_NOISE, seed + 1, camera)
        moved = corrupt_xy(preds, seed + 2)
        text = repr((gts, preds, moved))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("size", [3, 4])
    def test_unit_vectors_are_numpys_normalised_draws(self, size):
        # the same stream twice: one through _unit_vector, one normalised by
        # np.linalg.norm, every component equal to the bit
        ours, reference = np.random.default_rng(size), np.random.default_rng(size)
        for _ in range(10_000):
            v = reference.normal(size=size)
            expected = v / np.linalg.norm(v)
            assert [float(c).hex() for c in _unit_vector(ours, size)] == [
                float(c).hex() for c in expected]


class TestOracle:
    def test_iterators_score_as_lists_do(self):
        # the predictions were totalled before they were indexed, so an
        # iterator of them scored 0.0
        records, camera = generate_scene(SceneSpec(seed=3, n_images=4))
        preds = perturb(records, NoiseSpec(translation_sigma=0.5, false_positive_rate=0.5), 5, camera)
        expected = oracle_map(preds, records)
        assert expected > 0.0
        assert oracle_map(iter(preds), iter(records)) == expected

    def test_perfect_single_detection(self):
        gts = [image("a", ann(0.0, 0.0, 10.0))]
        preds = [image("a", as_detection(gts[0].items[0], 1.0))]
        assert oracle_map(preds, gts) == 1.0

    def test_confident_miss_ranked_first_costs_half(self):
        gts = [image("a", ann(0.0, 0.0, 10.0))]
        preds = [image("a",
                       det(50.0, 50.0, 90.0, confidence=0.9),
                       det(0.0, 0.0, 10.0, confidence=0.8))]
        assert oracle_map(preds, gts) == pytest.approx(0.5)

    def test_trailing_miss_costs_nothing(self):
        gts = [image("a", ann(0.0, 0.0, 10.0))]
        preds = [image("a",
                       det(0.0, 0.0, 10.0, confidence=0.9),
                       det(50.0, 50.0, 90.0, confidence=0.1))]
        assert oracle_map(preds, gts) == 1.0

    def test_prediction_only_class_halves_the_mean(self):
        gts = [image("a", ann(0.0, 0.0, 10.0))]
        preds = [image("a",
                       as_detection(gts[0].items[0], 0.9),
                       det(5.0, 5.0, 50.0, class_id=1, confidence=0.2))]
        assert oracle_map(preds, gts) == pytest.approx(0.5)

    def test_prediction_only_image_counts(self):
        gts = [image("a", ann(0.0, 0.0, 10.0))]
        preds = [image("a", as_detection(gts[0].items[0], 0.9)),
                 image("b", det(0.0, 0.0, 10.0, confidence=0.95))]
        # the extra image's detection outranks the hit: precision drops to 1/2
        assert oracle_map(preds, gts) == pytest.approx(0.5)

    def test_refuses_oversized_inputs(self):
        n = MAX_ORACLE_DETECTIONS + 1
        preds = [image("a", *(det(float(i), 0.0, 10.0, confidence=0.5) for i in range(n)))]
        with pytest.raises(TooLargeError):
            oracle_map(preds, [image("a")])

    def test_no_classes_is_an_error(self):
        with pytest.raises(ValueError):
            oracle_map([image("a")], [image("a")])

    def test_no_classes_raises_the_same_error_as_the_metric(self):
        with pytest.raises(NoClassesError) as oracle_err:
            oracle_map([], [])
        with pytest.raises(NoClassesError) as metric_err:
            mean_average_precision([], [])
        assert type(oracle_err.value) is type(metric_err.value)
        assert str(oracle_err.value) == str(metric_err.value)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_the_ranking_formulation_on_noisy_scenes(self, seed):
        spec = SceneSpec(seed=seed, n_images=3, objects_per_image=(1, 2),
                         n_classes=1 + seed % 3,
                         noise=NoiseSpec(translation_sigma=0.6, rotation_sigma=0.15,
                                         miss_rate=0.25, false_positive_rate=0.5,
                                         tp_confidence=(0.4, 1.0), fp_confidence=(0.05, 0.8)))
        gt_records, camera = generate_scene(spec)
        preds = perturb(gt_records, spec.noise, spec.seed, camera)
        value, _ = mean_average_precision(preds, gt_records)
        assert value == pytest.approx(oracle_map(preds, gt_records), abs=1e-12)
