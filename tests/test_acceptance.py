"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v``. Every test prints
``criterion N (<label>): PASS|FAIL`` directly to the terminal (capture is
suspended for that one line), then asserts the same conditions.
"""

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np
import pytest

from pose6d import (
    CAR_EXTENT,
    DEFAULT_LADDER,
    BBox2D,
    CameraIntrinsics,
    EnsembleConfig,
    EulerAngles,
    GimbalLockWarning,
    IgnoreRegions,
    NoiseSpec,
    Quaternion,
    SceneSpec,
    ThresholdLadder,
    Translation,
    angular_error,
    average_precision,
    backproject,
    cls_cross_entropy,
    cls_cross_entropy_grad,
    corrupt_xy,
    ensemble_max,
    extent_bbox,
    filter_ignore,
    finite_diff_check,
    generate_scene,
    iou_2d,
    mean_average_precision,
    oracle_map,
    parse_csv_compat,
    parse_predictions,
    perturb,
    project,
    quat_from_euler,
    quat_mse,
    quat_mse_grad,
    quat_normalize,
    recover_xy_records,
    save_ground_truth,
    save_predictions,
    serialize_predictions,
    trans_mse,
    trans_mse_grad,
    euler_from_quat,
)
from pose6d.cli import EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, main
from pose6d.formats import save_camera

from helpers import ann, as_detection, complementary_models, det, image

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0)

STRICT_LADDER = ThresholdLadder(pairs=((0.5, math.radians(5.0)),))


@pytest.fixture
def report(capfd):
    def emit(number: int, label: str, passed: bool) -> None:
        with capfd.disabled():
            print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'}", flush=True)
    return emit


def noisy_spec(seed: int) -> SceneSpec:
    return SceneSpec(
        seed=seed, n_images=3, objects_per_image=(1, 2), n_classes=1 + seed % 3,
        noise=NoiseSpec(translation_sigma=0.6, rotation_sigma=0.15,
                        miss_rate=0.25, false_positive_rate=0.5,
                        tp_confidence=(0.4, 1.0), fp_confidence=(0.05, 0.8)),
    )


def test_criterion_1_oracle_agreement(report):
    """The ranking-based mAP equals a brute-force oracle on 50 seeded scenes."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        spec = noisy_spec(seed)
        gt_records, camera = generate_scene(spec)
        preds = perturb(gt_records, spec.noise, spec.seed, camera)
        value, _ = mean_average_precision(preds, gt_records)
        worst = max(worst, abs(value - oracle_map(preds, gt_records)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "brute-force oracle agreement", ok)
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_frozen_reference_values(report):
    """Hand-computed values for every formula, at tight tolerances."""
    checks = [
        iou_2d(BBox2D(0.0, 0.0, 2.0, 2.0), BBox2D(1.0, 1.0, 3.0, 3.0)) == 1.0 / 7.0,
        average_precision([True, False], 1) == 1.0,
        average_precision([False, True], 1) == 0.5,
        project(Translation(2.0, 1.0, 10.0), K) == (1160.0, 640.0),
        backproject(1160.0, 640.0, 10.0, K) == Translation(2.0, 1.0, 10.0),
        abs(cls_cross_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - math.log(2.0)) < 1e-12,
        abs(cls_cross_entropy(np.array([0.0, 1.0]), np.array([0.9, 0.1])) + math.log(0.1)) < 1e-12,
        quat_mse(Quaternion(1.0, 0.0, 0.0, 0.0), Quaternion(0.0, 1.0, 0.0, 0.0)) == 2.0,
        quat_mse(Quaternion(1.0, 0.0, 0.0, 0.0), Quaternion(-1.0, 0.0, 0.0, 0.0)) == 4.0,
        quat_mse(Quaternion(1.0, 0.0, 0.0, 0.0), Quaternion(-1.0, 0.0, 0.0, 0.0),
                 hemisphere_align=True) == 0.0,
        trans_mse(Translation(0.0, 0.0, 0.0), Translation(1.0, 2.0, 3.0)) == 14.0,
        abs(angular_error(Quaternion(1.0, 0.0, 0.0, 0.0),
                          Quaternion(math.cos(0.15), math.sin(0.15), 0.0, 0.0)) - 0.3) < 1e-12,
        DEFAULT_LADDER.pairs == ((0.5, math.radians(5.0)), (1.0, math.radians(10.0)),
                                 (2.0, math.radians(20.0)), (4.0, math.radians(40.0))),
    ]
    ok = all(checks)
    report(2, "frozen reference values", ok)
    assert checks == [True] * len(checks)


def test_criterion_3_perfect_scene_scores_exactly(report):
    """A noise-free scene scores mAP 1.0 and zero error, with no tolerance."""
    spec = SceneSpec(seed=3, n_images=5, objects_per_image=(1, 4), n_classes=2)
    gt_records, camera = generate_scene(spec)
    preds = perturb(gt_records, NoiseSpec(), spec.seed, camera)
    value, summary = mean_average_precision(preds, gt_records)
    ok = (value == 1.0 and summary.mae_trans == 0.0
          and summary.rot_error_mean == 0.0 and summary.rot_error_median == 0.0
          and summary.precision == 1.0 and summary.recall == 1.0
          and summary.fp == 0 and summary.fn == 0)
    report(3, "perfect scene scores exactly", ok)
    assert value == 1.0
    assert summary.mae_trans == 0.0
    assert summary.rot_error_mean == 0.0
    assert summary.rot_error_median == 0.0
    assert (summary.precision, summary.recall) == (1.0, 1.0)
    assert (summary.fp, summary.fn) == (0, 0)


def test_criterion_4_lateral_recovery_from_box_centers(report):
    """Sideways-corrupted detections fail the strict pair, then recover fully."""
    spec = SceneSpec(seed=11, n_images=4, objects_per_image=(1, 3))
    gt_records, camera = generate_scene(spec)
    preds = perturb(gt_records, NoiseSpec(), spec.seed, camera)
    corrupted = corrupt_xy(preds, seed=11)

    pre_map, pre_report = mean_average_precision(corrupted, gt_records, STRICT_LADDER)
    _, pre_default = mean_average_precision(corrupted, gt_records)
    recovered = recover_xy_records(corrupted, camera)
    post_map, post_report = mean_average_precision(recovered, gt_records, STRICT_LADDER)

    ok = (pre_map == 0.0 and pre_default.mae_trans > 0.5
          and post_map == 1.0 and post_report.mae_trans < 1e-9)
    report(4, "lateral recovery from box centers", ok)
    assert pre_map == 0.0                      # every shift exceeds the 0.5 m gate
    assert 0.5 < pre_default.mae_trans <= 1.5  # shifts were drawn from [0.6, 1.5]
    assert post_map == 1.0
    assert post_report.mae_trans < 1e-9


def test_criterion_5_complementary_model_ensembling(report):
    """Merging models that miss disjoint objects restores full coverage."""
    spec = SceneSpec(seed=21, n_images=4, objects_per_image=(3, 3))
    gt_records, camera = generate_scene(spec)
    base = perturb(gt_records, NoiseSpec(tp_confidence=(0.9, 0.9)), spec.seed, camera)
    assert all(len(p.items) == len(g.items) for p, g in zip(base, gt_records))
    models = complementary_models(gt_records, 3, confidence=0.9)

    single_maps = [mean_average_precision(m, gt_records)[0] for m in models]
    merged = ensemble_max(models, EnsembleConfig(iou_threshold=0.5))
    merged_map, _ = mean_average_precision(merged, gt_records)

    input_pool = {d for m in models for r in m for d in r.items}
    emitted_unchanged = all(d in input_pool for r in merged for d in r.items)

    ok = (all(v == pytest.approx(2.0 / 3.0) for v in single_maps)
          and merged_map == 1.0 and emitted_unchanged)
    report(5, "complementary-model ensembling", ok)
    for value in single_maps:
        assert value == pytest.approx(2.0 / 3.0)
    assert merged_map == 1.0
    assert emitted_unchanged


def test_criterion_6_ignore_region_filtering(report):
    """Dropping clutter inside ignore regions strictly improves the score."""
    targets = [
        [Translation(0.0, 0.0, 10.0), Translation(6.0, 0.0, 12.0)],
        [Translation(-4.0, 1.0, 15.0), Translation(3.0, -2.0, 20.0)],
    ]
    gt_records = []
    pred_records = []
    confs = iter((0.75, 0.7, 0.65, 0.6))
    for i, points in enumerate(targets):
        anns = tuple(ann(t.x, t.y, t.z, bbox=extent_bbox(t, CAR_EXTENT[0], CAR_EXTENT[2], K))
                     for t in points)
        gt_records.append(image(f"img_{i}", *anns))
        pred_records.append(image(f"img_{i}", *(as_detection(a, next(confs)) for a in anns)))

    clutter_box = extent_bbox(Translation(60.0, 30.0, 80.0), CAR_EXTENT[0], CAR_EXTENT[2], K)
    clutter = det(60.0, 30.0, 80.0, confidence=0.95, bbox=clutter_box)
    pred_records[0] = image("img_0", clutter, *pred_records[0].items)
    regions = [IgnoreRegions("img_0", (clutter_box,))]

    unfiltered, _ = mean_average_precision(pred_records, gt_records)
    filtered_preds = filter_ignore(pred_records, regions)
    filtered_gts = filter_ignore(gt_records, regions)
    filtered, _ = mean_average_precision(filtered_preds, filtered_gts)

    # boundary semantics: a box exactly half-covered stays
    half_covered = det(0.0, 0.0, 10.0, bbox=BBox2D(0.0, 0.0, 10.0, 10.0))
    [kept] = filter_ignore([image("x", half_covered)],
                           [IgnoreRegions("x", (BBox2D(0.0, 0.0, 10.0, 5.0),))])
    # union semantics: two overlapping rects cover 0.45, not their 0.6 sum
    [union_kept] = filter_ignore(
        [image("y", det(0.0, 0.0, 10.0, bbox=BBox2D(0.0, 0.0, 10.0, 10.0)))],
        [IgnoreRegions("y", (BBox2D(0.0, 0.0, 10.0, 3.0), BBox2D(0.0, 1.5, 10.0, 4.5)))])

    ok = (unfiltered == pytest.approx(0.8) and filtered == 1.0 and filtered > unfiltered
          and len(kept.items) == 1 and len(union_kept.items) == 1)
    report(6, "ignore-region filtering", ok)
    assert unfiltered == pytest.approx(0.8)
    assert filtered == 1.0
    assert len(kept.items) == 1
    assert len(union_kept.items) == 1


def test_criterion_7_analytic_gradients(report):
    """Every analytic gradient matches central differences within 1e-5."""
    rng = np.random.default_rng(1234)
    worst = 0.0

    target_t = Translation(0.5, -1.0, 3.0)
    for _ in range(100):
        point = rng.uniform(-5.0, 5.0, size=3)
        worst = max(worst, finite_diff_check(
            lambda v: trans_mse(target_t, Translation(*v)),
            lambda v: trans_mse_grad(target_t, Translation(*v)),
            point))

    target_q = Quaternion(0.5, 0.5, 0.5, 0.5)
    for _ in range(100):
        point = rng.uniform(-1.0, 1.0, size=4)
        worst = max(worst, finite_diff_check(
            lambda v: quat_mse(target_q, Quaternion(*v)),
            lambda v: quat_mse_grad(target_q, Quaternion(*v)),
            point))

    for _ in range(100):
        probs = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        probs /= probs.sum()
        y = np.zeros(4)
        y[rng.integers(0, 4)] = 1.0
        worst = max(worst, finite_diff_check(
            lambda v: cls_cross_entropy(y, v),
            lambda v: cls_cross_entropy_grad(y, v),
            probs, epsilon=1e-7))

    ok = worst < 1e-5
    report(7, "analytic gradients", ok)
    assert worst < 1e-5


def test_criterion_8_round_trip_fidelity(report):
    """Serialization, Euler, and pinhole round trips hold at 1e-9 or exactly."""
    spec = SceneSpec(seed=13, n_images=1000, objects_per_image=(0, 2), n_classes=3,
                     noise=NoiseSpec(translation_sigma=0.6, rotation_sigma=0.15,
                                     miss_rate=0.25, false_positive_rate=0.5,
                                     tp_confidence=(0.4, 1.0), fp_confidence=(0.05, 0.8)))
    gt_records, camera = generate_scene(spec)
    preds = perturb(gt_records, spec.noise, spec.seed, camera)
    assert len(preds) == 1000
    buffer = io.StringIO()
    serialize_predictions(preds, buffer)
    jsonl_exact = parse_predictions(io.StringIO(buffer.getvalue())) == preds

    csv_line = "img_a, 0.1 0.2 0.3 1.0 2.0 10.0 0.9"
    jsonl_line = json.dumps({"image_id": "img_a", "detections": [{
        "class_id": 0, "confidence": 0.9,
        "euler": [0.3, 0.1, 0.2], "translation": [1.0, 2.0, 10.0]}]})
    csv_equivalent = parse_csv_compat([csv_line]) == parse_predictions([jsonl_line])

    rng = np.random.default_rng(8)
    euler_worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GimbalLockWarning)
        for _ in range(1000):
            v = rng.normal(size=4)
            q = quat_normalize(Quaternion(*(float(c) for c in v)))
            euler_worst = max(euler_worst, angular_error(q, quat_from_euler(euler_from_quat(q))))

    pinhole_worst = 0.0
    for _ in range(1000):
        u, v, z = rng.uniform(0, 3840), rng.uniform(0, 2160), rng.uniform(0.5, 120)
        uu, vv = project(backproject(float(u), float(v), float(z), K), K)
        pinhole_worst = max(pinhole_worst, abs(uu - u), abs(vv - v))

    lock_quat = quat_from_euler(EulerAngles(roll=0.0, pitch=math.pi / 2.0, yaw=0.4))
    with pytest.warns(GimbalLockWarning):
        lock_angles = euler_from_quat(lock_quat)
    lock_round_trip = angular_error(lock_quat, quat_from_euler(lock_angles))

    ok = (jsonl_exact and csv_equivalent and euler_worst < 1e-9
          and pinhole_worst < 1e-9 and lock_round_trip < 1e-9)
    report(8, "round-trip fidelity", ok)
    assert jsonl_exact
    assert csv_equivalent
    assert euler_worst < 1e-9
    assert pinhole_worst < 1e-9
    assert lock_round_trip < 1e-9


def test_criterion_9_determinism_and_exit_codes(report, tmp_path):
    """Identical bytes across reruns; 0/1/2 exit codes."""
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    spec = noisy_spec(17)
    gt_records, camera = generate_scene(spec)
    preds = perturb(gt_records, spec.noise, spec.seed, camera)
    gt_path, pred_path = str(tmp_path / "gt.jsonl"), str(tmp_path / "pred.jsonl")
    camera_path = str(tmp_path / "camera.json")
    save_ground_truth(gt_records, gt_path)
    save_predictions(preds, pred_path)
    save_camera(camera, camera_path)

    outputs = []
    for name in ("r1.json", "r2.json"):
        report_path = tmp_path / name
        code, out = run(["eval", "--pred", pred_path, "--gt", gt_path,
                         "--camera", camera_path, "--out", str(report_path)])
        outputs.append((code, out, report_path.read_bytes()))
    eval_identical = (outputs[0][0] == EXIT_OK and outputs[0][1:] == outputs[1][1:])

    synth_blobs = []
    for name in ("s1", "s2"):
        out_dir = tmp_path / name
        code, _ = run(["synth", "--seed", "9", "--images", "3", "--trans-sigma", "0.4",
                       "--miss-rate", "0.2", "--fp-rate", "0.3", "--tp-conf", "0.4", "1.0",
                       "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        synth_blobs.append(tuple((out_dir / f).read_bytes()
                                 for f in ("gt.jsonl", "pred.jsonl", "camera.json")))
    synth_identical = synth_blobs[0] == synth_blobs[1]

    missing_code, _ = run(["eval", "--pred", str(tmp_path / "absent.jsonl"),
                           "--gt", gt_path, "--camera", camera_path])
    empty_gt = str(tmp_path / "empty_gt.jsonl")
    empty_pred = str(tmp_path / "empty_pred.jsonl")
    save_ground_truth([image("a")], empty_gt)
    save_predictions([image("a")], empty_pred)
    compute_code, _ = run(["eval", "--pred", empty_pred, "--gt", empty_gt,
                           "--camera", camera_path])

    ok = (eval_identical and synth_identical
          and missing_code == EXIT_INPUT and compute_code == EXIT_COMPUTE)
    report(9, "determinism and exit codes", ok)
    assert eval_identical
    assert synth_identical
    assert missing_code == EXIT_INPUT
    assert compute_code == EXIT_COMPUTE
