"""End-to-end command-line interface tests."""

import contextlib
import io
import json

import pytest

from pose6d import (
    BBox2D,
    CameraIntrinsics,
    IgnoreRegions,
    Translation,
    extent_bbox,
    load_predictions,
    save_camera,
    save_ground_truth,
    save_ignore,
    save_predictions,
)
from pose6d.cli import EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, main

from helpers import ann, as_detection, det, image

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0)
DEPTH_BOUND = ("depth_range must lie within [1e-09, 1e+09] m, where a car's box is finite and "
               "non-degenerate")
INT64_BOUND = ("n_classes and objects_per_image must be at most 9223372036854775807, numpy's "
               "int64 draw range")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def boxed(x, y, z):
    return extent_bbox(Translation(x, y, z), 4.5, 1.5, K)


@pytest.fixture
def camera_path(tmp_path):
    path = str(tmp_path / "camera.json")
    save_camera(K, path)
    return path


@pytest.fixture
def perfect_files(tmp_path, camera_path):
    gts = [image("a", ann(0.0, 0.0, 10.0), ann(5.0, 1.0, 20.0)),
           image("b", ann(-3.0, 0.5, 15.0))]
    confs = iter((0.9, 0.8, 0.7))
    preds = [image(r.image_id, *(as_detection(a, next(confs)) for a in r.items))
             for r in gts]
    gt_path = str(tmp_path / "gt.jsonl")
    pred_path = str(tmp_path / "pred.jsonl")
    save_ground_truth(gts, gt_path)
    save_predictions(preds, pred_path)
    return pred_path, gt_path, camera_path


class TestEval:
    def test_perfect_predictions_report_map_one(self, tmp_path, perfect_files):
        pred, gt, camera = perfect_files
        report_path = str(tmp_path / "report.json")
        code, out, err = run(["eval", "--pred", pred, "--gt", gt,
                              "--camera", camera, "--out", report_path])
        assert code == EXIT_OK
        assert err == ""
        assert "mAP        1.000" in out
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["mAP"] == 1.0
        assert report["counts"] == {"tp": 3, "fp": 0, "fn": 0}
        assert report["mae_trans"] == 0.0

    def test_custom_ladder_file(self, tmp_path, perfect_files):
        pred, gt, camera = perfect_files
        ladder_path = tmp_path / "ladder.json"
        ladder_path.write_text(json.dumps([{"trans_m": 0.1, "rot_deg": 1.0}]), encoding="utf-8")
        report_path = str(tmp_path / "report.json")
        code, _, _ = run(["eval", "--pred", pred, "--gt", gt, "--camera", camera,
                          "--ladder", str(ladder_path), "--out", report_path])
        assert code == EXIT_OK
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert len(report["ladder"]) == 1
        assert report["ladder"][0] == {"trans_m": 0.1, "rot_deg": 1.0}

    def test_csv_predictions(self, tmp_path, camera_path):
        gt_path = str(tmp_path / "gt.jsonl")
        save_ground_truth([image("a", ann(1.0, 2.0, 10.0))], gt_path)
        csv_path = tmp_path / "pred.csv"
        csv_path.write_text("a, 0 0 0 1.0 2.0 10.0 0.9\n", encoding="utf-8")
        report_path = str(tmp_path / "report.json")
        code, _, _ = run(["eval", "--pred", str(csv_path), "--format", "csv",
                          "--gt", gt_path, "--camera", camera_path, "--out", report_path])
        assert code == EXIT_OK
        with open(report_path, encoding="utf-8") as handle:
            assert json.load(handle)["mAP"] == 1.0

    def test_ignore_regions_drop_clutter_from_both_sides(self, tmp_path, camera_path):
        target = ann(0.0, 0.0, 10.0, bbox=boxed(0.0, 0.0, 10.0))
        clutter = det(80.0, 45.0, 100.0, confidence=0.95, bbox=boxed(80.0, 45.0, 100.0))
        gt_path, pred_path = str(tmp_path / "gt.jsonl"), str(tmp_path / "pred.jsonl")
        ignore_path = str(tmp_path / "ignore.jsonl")
        save_ground_truth([image("a", target)], gt_path)
        save_predictions([image("a", as_detection(target, 0.7), clutter)], pred_path)
        save_ignore([IgnoreRegions("a", (clutter.bbox,))], ignore_path)

        report_path = str(tmp_path / "plain.json")
        run(["eval", "--pred", pred_path, "--gt", gt_path, "--camera", camera_path,
             "--out", report_path])
        with open(report_path, encoding="utf-8") as handle:
            plain = json.load(handle)["mAP"]

        filtered_path = str(tmp_path / "filtered.json")
        code, _, _ = run(["eval", "--pred", pred_path, "--gt", gt_path, "--camera", camera_path,
                          "--ignore", ignore_path, "--out", filtered_path])
        assert code == EXIT_OK
        with open(filtered_path, encoding="utf-8") as handle:
            filtered = json.load(handle)["mAP"]
        assert plain == 0.5
        assert filtered == 1.0

    def test_camera_is_optional_without_ignore_regions(self, tmp_path, perfect_files):
        pred, gt, camera = perfect_files
        outputs = []
        for extra in (["--camera", camera], []):
            report_path = tmp_path / "report.json"
            code, out, err = run(["eval", "--pred", pred, "--gt", gt, "--out", str(report_path)]
                                 + extra)
            outputs.append((code, out, err, report_path.read_bytes()))
        assert outputs[0][0] == EXIT_OK
        assert outputs[1] == outputs[0]


class TestPost:
    def test_stages_apply_in_sequence(self, tmp_path, camera_path):
        # detection 1: laterally wrong but recoverable from its box
        broken = det(9.0, -9.0, 10.0, confidence=0.9, bbox=boxed(2.0, 1.0, 10.0))
        # detection 2: below the confidence cut
        weak = det(0.0, 0.0, 20.0, confidence=0.2, bbox=boxed(0.0, 0.0, 20.0))
        pred_path = str(tmp_path / "pred.jsonl")
        out_path = str(tmp_path / "out.jsonl")
        save_predictions([image("a", broken, weak)], pred_path)
        code, _, err = run(["post", "--pred", pred_path, "--camera", camera_path,
                            "--recover-xy", "--threshold", "0.5", "--out", out_path])
        assert code == EXIT_OK, err
        [record] = load_predictions(out_path)
        [fixed] = record.items
        assert fixed.confidence == 0.9
        assert fixed.pose.translation.x == pytest.approx(2.0, abs=1e-9)
        assert fixed.pose.translation.y == pytest.approx(1.0, abs=1e-9)
        assert fixed.pose.translation.z == 10.0

    def test_ignore_stage(self, tmp_path, camera_path):
        clutter = det(80.0, 45.0, 100.0, confidence=0.95, bbox=boxed(80.0, 45.0, 100.0))
        keeper = det(0.0, 0.0, 10.0, confidence=0.9, bbox=boxed(0.0, 0.0, 10.0))
        pred_path = str(tmp_path / "pred.jsonl")
        ignore_path = str(tmp_path / "ignore.jsonl")
        out_path = str(tmp_path / "out.jsonl")
        save_predictions([image("a", clutter, keeper)], pred_path)
        save_ignore([IgnoreRegions("a", (clutter.bbox,))], ignore_path)
        code, _, _ = run(["post", "--pred", pred_path, "--camera", camera_path,
                          "--ignore", ignore_path, "--out", out_path])
        assert code == EXIT_OK
        [record] = load_predictions(out_path)
        assert record.items == (keeper,)

    def test_camera_is_optional_without_lateral_recovery(self, tmp_path, camera_path):
        pred_path = str(tmp_path / "pred.jsonl")
        save_predictions([image("a", det(0.0, 0.0, 10.0, confidence=0.9),
                                det(1.0, 0.0, 20.0, confidence=0.2))], pred_path)
        written = []
        for extra in (["--camera", camera_path], []):
            out_path = tmp_path / "out.jsonl"
            code, _, err = run(["post", "--pred", pred_path, "--threshold", "0.5",
                                "--out", str(out_path)] + extra)
            assert (code, err) == (EXIT_OK, "")
            written.append(out_path.read_bytes())
        assert written[1] == written[0]
        assert len(load_predictions(str(out_path))[0].items) == 1


class TestEnsemble:
    def test_merges_model_files(self, tmp_path):
        strong = det(0.0, 0.0, 10.0, confidence=0.9, bbox=boxed(0.0, 0.0, 10.0))
        weak = det(0.05, 0.0, 10.0, confidence=0.8, bbox=boxed(0.05, 0.0, 10.0))
        paths = []
        for name, d in (("m1.jsonl", weak), ("m2.jsonl", strong)):
            path = str(tmp_path / name)
            save_predictions([image("a", d)], path)
            paths.append(path)
        out_path = str(tmp_path / "merged.jsonl")
        code, _, _ = run(["ensemble", *paths, "--iou", "0.5", "--out", out_path])
        assert code == EXIT_OK
        [record] = load_predictions(out_path)
        assert record.items == (strong,)


class TestSweep:
    def test_writes_curve_and_prints_the_best(self, tmp_path, perfect_files):
        pred, gt, _ = perfect_files
        curve_path = str(tmp_path / "curve.csv")
        code, out, _ = run(["sweep", "--pred", pred, "--gt", gt, "--out", curve_path])
        assert code == EXIT_OK
        assert out.strip() == "best threshold: 0.1 (mAP 1.000000)"
        with open(curve_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "threshold,map"
        assert len(lines) == 16  # header + 15 grid points
        assert lines[1] == "0.1,1.0"

    def test_custom_bounds(self, tmp_path, perfect_files):
        pred, gt, _ = perfect_files
        curve_path = str(tmp_path / "curve.csv")
        code, out, _ = run(["sweep", "--pred", pred, "--gt", gt,
                            "--lo", "0.2", "--hi", "0.4", "--step", "0.1",
                            "--out", curve_path])
        assert code == EXIT_OK
        with open(curve_path, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 4


    def test_without_ground_truth_writes_the_points_some_class_is_left_at(self, tmp_path):
        pred_path, gt_path = str(tmp_path / "pred.jsonl"), str(tmp_path / "gt.jsonl")
        save_predictions([image("a", det(0.0, 0.0, 10.0, confidence=0.3))], pred_path)
        save_ground_truth([], gt_path)
        out_path = tmp_path / "curve.csv"
        code, out, err = run(["sweep", "--pred", pred_path, "--gt", gt_path, "--lo", "0",
                              "--hi", "1", "--step", "0.1", "--out", str(out_path)])
        assert (code, out, err) == (EXIT_OK, "best threshold: 0.0 (mAP 0.000000)\n", "")
        assert out_path.read_text(encoding="utf-8") == (
            "threshold,map\n0.0,0.0\n0.1,0.0\n0.2,0.0\n0.3,0.0\n")


class TestSynth:
    def test_writes_a_parseable_scene(self, tmp_path):
        out_dir = tmp_path / "scene"
        code, out, _ = run(["synth", "--seed", "3", "--images", "4", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        assert "wrote 4 images" in out
        report_path = str(tmp_path / "report.json")
        code, _, _ = run(["eval", "--pred", str(out_dir / "pred.jsonl"),
                          "--gt", str(out_dir / "gt.jsonl"),
                          "--camera", str(out_dir / "camera.json"),
                          "--out", report_path])
        assert code == EXIT_OK
        with open(report_path, encoding="utf-8") as handle:
            assert json.load(handle)["mAP"] == 1.0  # zero-noise defaults

    @pytest.mark.parametrize("seed", range(8))
    def test_a_rotation_sigma_of_1e308_finishes(self, tmp_path, seed):
        # exited 1 with "math domain error": a drawn angle overflowed to infinity
        code, out, err = run(["synth", "--rot-sigma", "1e308", "--images", "20",
                              "--seed", str(seed), "--out-dir", str(tmp_path)])
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("wrote 20 images")

    def test_reruns_are_byte_identical(self, tmp_path):
        blobs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            args = ["synth", "--seed", "9", "--images", "3", "--classes", "2",
                    "--trans-sigma", "0.4", "--rot-sigma", "0.1", "--miss-rate", "0.2",
                    "--fp-rate", "0.3", "--tp-conf", "0.4", "1.0", "--out-dir", str(out_dir)]
            assert run(args)[0] == EXIT_OK
            blobs.append(tuple((out_dir / f).read_bytes()
                               for f in ("gt.jsonl", "pred.jsonl", "camera.json")))
        assert blobs[0] == blobs[1]


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, camera_path):
        missing = str(tmp_path / "nope.jsonl")
        code, _, err = run(["eval", "--pred", missing, "--gt", missing, "--camera", camera_path])
        assert code == EXIT_INPUT
        assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"

    def test_malformed_predictions(self, tmp_path, camera_path):
        pred_path = tmp_path / "bad.jsonl"
        pred_path.write_text("{broken\n", encoding="utf-8")
        gt_path = str(tmp_path / "gt.jsonl")
        save_ground_truth([image("a", ann(0.0, 0.0, 10.0))], gt_path)
        code, _, err = run(["eval", "--pred", str(pred_path), "--gt", gt_path,
                            "--camera", camera_path])
        assert code == EXIT_INPUT
        assert err == ("error: line 1: invalid JSON "
                       "(Expecting property name enclosed in double quotes)\n")

    def test_huge_integer_literal_is_an_input_error(self, tmp_path, perfect_files):
        # float() of it raised OverflowError, which escaped main as a traceback
        _, gt, camera = perfect_files
        pred_path = tmp_path / "huge.jsonl"
        item = {"class_id": 0, "confidence": 0.9, "quaternion": [1.0, 0.0, 0.0, 0.0],
                "translation": [10 ** 400, 0.0, 10.0]}
        pred_path.write_text(json.dumps({"image_id": "a", "detections": [item]}) + "\n",
                             encoding="utf-8")
        code, _, err = run(["eval", "--pred", str(pred_path), "--gt", gt, "--camera", camera])
        assert code == EXIT_INPUT
        assert err == "error: line 1: detections[0].translation[0]: must be finite, got inf\n"

    def test_invalid_camera_values(self, tmp_path, perfect_files):
        pred, gt, _ = perfect_files
        camera_path = tmp_path / "flat.json"
        camera_path.write_text(json.dumps({"fx": 0.0, "fy": 1000.0, "cx": 960.0, "cy": 540.0}),
                               encoding="utf-8")
        code, _, err = run(["eval", "--pred", pred, "--gt", gt, "--camera", str(camera_path)])
        assert code == EXIT_INPUT
        assert err == ("error: line 1: fx/fy: focal lengths must be positive, "
                       "got fx=0.0, fy=1000.0\n")

    @pytest.mark.parametrize("stage", ["--ignore", "--recover-xy"])
    def test_a_stage_that_reads_the_camera_requires_it(self, tmp_path, perfect_files, stage):
        pred, gt, _ = perfect_files
        out_path = tmp_path / "out"
        never_read = str(tmp_path / "missing.jsonl")  # the camera is checked first
        argv = (["eval", "--gt", gt, "--ignore", never_read] if stage == "--ignore"
                else ["post", "--recover-xy"])
        code, out, err = run(argv + ["--pred", pred, "--out", str(out_path)])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: {stage} requires --camera\n"
        assert not out_path.exists()

    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == EXIT_INPUT

    def test_no_arguments(self):
        assert run([])[0] == EXIT_INPUT

    def test_help_is_success(self):
        code, out, _ = run(["--help"])
        assert code == EXIT_OK
        assert "eval" in out

    def test_empty_scene_is_a_compute_error(self, tmp_path, camera_path):
        gt_path = str(tmp_path / "gt.jsonl")
        pred_path = str(tmp_path / "pred.jsonl")
        save_ground_truth([image("a")], gt_path)
        save_predictions([image("a")], pred_path)
        code, _, err = run(["eval", "--pred", pred_path, "--gt", gt_path,
                            "--camera", camera_path])
        assert code == EXIT_COMPUTE
        assert err == "error: no class appears in ground truth or predictions\n"

    def test_invalid_synth_spec(self, tmp_path):
        code, _, err = run(["synth", "--objects-min", "5", "--objects-max", "2",
                            "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_INPUT
        assert "objects_per_image" in err

    def test_invalid_sweep_bounds(self, tmp_path, perfect_files):
        pred, gt, _ = perfect_files
        code, _, _ = run(["sweep", "--pred", pred, "--gt", gt,
                          "--lo", "0.8", "--hi", "0.2", "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_INPUT

    def test_sweep_step_below_the_floor(self, tmp_path, perfect_files):
        pred, gt, _ = perfect_files
        code, _, err = run(["sweep", "--pred", pred, "--gt", gt,
                            "--step", "1e-13", "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_INPUT
        assert err == "error: step must be at least 1e-9, got 1e-13\n"

    @pytest.mark.parametrize("step", ["0", "1e-13"])
    def test_sweep_step_is_checked_before_any_file_is_read(self, tmp_path, step):
        # argparse refused 0 on its own terms; 1e-13 got past it to the missing file
        missing = str(tmp_path / "missing.jsonl")
        code, out, err = run(["sweep", "--pred", missing, "--gt", missing, "--step", step,
                              "--out", str(tmp_path / "c.csv")])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: step must be at least 1e-9, got {float(step)}\n"

    @pytest.mark.parametrize("command, option, message", [
        ("post", "--threshold=1.5", "threshold must be within [0, 1], got 1.5"),
        ("post", "--threshold=nan", "threshold must be within [0, 1], got nan"),
        ("post", "--ignore-overlap=-1", "overlap_frac must be within [0, 1], got -1.0"),
        ("eval", "--ignore-overlap=1.0000001", "overlap_frac must be within [0, 1], got 1.0000001"),
    ], ids=["post-threshold", "post-threshold-nan", "post-ignore-overlap", "eval-ignore-overlap"])
    def test_cutoffs_are_checked_by_the_library_before_any_file_is_read(
            self, tmp_path, command, option, message):
        missing = str(tmp_path / "missing.jsonl")
        inputs = {"post": ["--pred", missing], "eval": ["--pred", missing, "--gt", missing]}
        code, out, err = run([command, *inputs[command], option, "--out", str(tmp_path / "out")])
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_sweep_grid_beyond_the_cap(self, tmp_path, perfect_files):
        pred, gt, _ = perfect_files
        code, _, err = run(["sweep", "--pred", pred, "--gt", gt, "--lo", "0", "--hi", "1",
                            "--step", "1e-9", "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_INPUT
        assert err == "error: grid of 1000000000 points exceeds the cap of 100001\n"

    @pytest.mark.parametrize("options, message", [
        (["--depth-max=inf"], "depth_range must satisfy 0 < lo <= hi < inf, got (8.0, inf)"),
        (["--rot-sigma=inf"], "rotation_sigma must be finite and >= 0, got inf"),
        (["--trans-sigma=inf"], "translation_sigma must be finite and >= 0, got inf"),
        (["--seed=-1"], "seed must be >= 0, got -1"),
        # these three exited 1 with "box coordinates must be finite", "degenerate
        # box" and "box width, height and area must be finite"
        (["--depth-max=1e308"], f"{DEPTH_BOUND}, got (8.0, 1e+308)"),
        (["--depth-max=1e17"], f"{DEPTH_BOUND}, got (8.0, 1e+17)"),
        (["--depth-min=1e-300", "--depth-max=1e-300"], f"{DEPTH_BOUND}, got (1e-300, 1e-300)"),
        # these two exited 1 with "high is out of bounds for int64"
        (["--classes=100000000000000000000"], f"{INT64_BOUND}, got 100000000000000000000 and (1, 4)"),
        (["--objects-max=100000000000000000000"],
         f"{INT64_BOUND}, got 1 and (1, 100000000000000000000)"),
        # accepted, it would run for hours and exhaust memory before writing
        (["--images=250001"], "a scene holds at most 1000000 objects, counting an empty image "
                              "as one, got n_images=250001 with up to 4 each"),
    ], ids=["depth-max inf", "rot-sigma inf", "trans-sigma inf", "seed -1", "depth-max 1e308",
            "depth-max 1e17", "depth 1e-300", "classes 1e20", "objects-max 1e20",
            "images over the object cap"])
    def test_synth_values_the_spec_refuses(self, tmp_path, options, message):
        # these ended in an OverflowError traceback or exited 1 mid-generation
        out_dir = tmp_path / "scene"
        code, out, err = run(["synth", *options, "--out-dir", str(out_dir)])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("entry, message", [
        # float() of it raised OverflowError, which escaped main as a traceback
        (f'"trans_m": 1{"0" * 400}, "rot_deg": 5', "[0].trans_m: must be finite, got inf"),
        # it passed the reader's own positivity check and then exited 1, unlocated
        ('"trans_m": 1, "rot_deg": 5e-324',
         "[0]: a ladder pair must be two finite positive numbers, "
         "got trans_m=1.0, rot_deg=5e-324 (0.0 rad)"),
    ], ids=["huge integer", "rot_deg underflows to 0 rad"])
    def test_bad_ladder_value_is_a_located_input_error(self, tmp_path, perfect_files,
                                                        entry, message):
        pred, gt, _ = perfect_files
        ladder_path = tmp_path / "ladder.json"
        ladder_path.write_text(f"[{{{entry}}}]", encoding="utf-8")
        code, out, err = run(["eval", "--pred", pred, "--gt", gt, "--ladder", str(ladder_path)])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: line 1: {message}\n"

    def test_ensemble_iou_zero_is_an_input_error(self, tmp_path, perfect_files):
        pred, _, _ = perfect_files
        code, _, err = run(["ensemble", pred, "--iou", "0", "--out", str(tmp_path / "out.jsonl")])
        assert code == EXIT_INPUT
        assert err == "error: iou_threshold must be in (0, 1], got 0.0\n"

    def test_bad_ladder_file(self, tmp_path, perfect_files):
        pred, gt, camera = perfect_files
        ladder_path = tmp_path / "ladder.json"
        ladder_path.write_text("[]", encoding="utf-8")
        code, _, _ = run(["eval", "--pred", pred, "--gt", gt, "--camera", camera,
                          "--ladder", str(ladder_path)])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("command, message", [
        # exited 1 with a bare "ensemble_max requires detections with a bbox"
        (["ensemble", "BOXED", "BOXLESS"],
         "ensemble_max requires items with a bbox; input 1, image 'b', item 1 has none"),
        (["post", "--pred", "BOXLESS", "--recover-xy", "--camera", "CAMERA"],
         "recover_xy requires items with a bbox; image 'b', item 1 has none"),
        # exited 1 with a bare "filter_ignore requires items with a bbox"
        (["post", "--pred", "BOXLESS", "--ignore", "REGIONS"],
         "filter_ignore requires items with a bbox; image 'b', item 1 has none"),
        (["eval", "--pred", "BOXLESS", "--gt", "GT", "--camera", "CAMERA", "--ignore", "REGIONS"],
         "filter_ignore requires items with a bbox; image 'b', item 1 has none"),
    ], ids=["ensemble", "post recover-xy", "post ignore", "eval ignore"])
    def test_a_box_less_item_is_a_located_input_error(self, tmp_path, camera_path, command,
                                                      message):
        with_box = det(0.0, 0.0, 10.0, confidence=0.5, bbox=boxed(0.0, 0.0, 10.0))
        paths = {"BOXED": str(tmp_path / "boxed.jsonl"), "BOXLESS": str(tmp_path / "boxless.jsonl"),
                 "REGIONS": str(tmp_path / "regions.jsonl"), "CAMERA": camera_path,
                 "GT": str(tmp_path / "gt.jsonl")}
        save_ground_truth([image("b", ann(0.0, 0.0, 10.0))], paths["GT"])
        save_predictions([image("b", with_box, with_box)], paths["BOXED"])
        save_predictions([image("a"), image("b", with_box, det(0.0, 0.0, 10.0, confidence=0.5))],
                         paths["BOXLESS"])
        save_ignore([IgnoreRegions("b", (boxed(0.0, 0.0, 10.0),))], paths["REGIONS"])
        out = tmp_path / "out.jsonl"
        code, _, err = run([paths.get(a, a) for a in command] + ["--out", str(out)])
        assert (code, err) == (EXIT_INPUT, f"error: {message}\n")
        assert not out.exists()

    def test_a_recovered_position_beyond_the_float_range_is_a_located_input_error(
            self, tmp_path, camera_path):
        # exited 1 with the constructor's unlocated "detection has a non-finite pose"
        pred, out = str(tmp_path / "pred.jsonl"), tmp_path / "out.jsonl"
        far = det(0.0, 0.0, 1e200, bbox=BBox2D(1e200, 0.0, 2e200, 1.0))
        save_predictions([image("a", far)], pred)
        code, _, err = run(["post", "--pred", pred, "--recover-xy", "--camera", camera_path,
                            "--out", str(out)])
        assert code == EXIT_INPUT
        assert err.startswith("error: recover_xy overflows at image 'a', item 0: detection has a "
                              "non-finite pose: Pose(")
        assert not out.exists()

    @pytest.mark.parametrize("z, reason", [
        (1e17, "degenerate box (960.0, 540.0, 960.0, 540.0): requires x1 < x2 and y1 < y2"),
        (1e-200, "box width, height and area must be finite, got "
                 "(-2.25e+203, -7.5e+202, 2.25e+203, 7.5e+202)"),
    ])
    def test_a_box_less_annotation_whose_footprint_is_no_box_is_a_located_input_error(
            self, tmp_path, camera_path, z, reason):
        # each exited 1 with the box's unlocated message
        pred, gt, regions = (str(tmp_path / name) for name in ("pred.jsonl", "gt.jsonl",
                                                               "regions.jsonl"))
        save_predictions([image("b")], pred)
        save_ground_truth([image("b", ann(0.0, 0.0, 10.0), ann(0.0, 0.0, z))], gt)
        save_ignore([IgnoreRegions("b", (boxed(0.0, 0.0, 10.0),))], regions)
        code, out, err = run(["eval", "--pred", pred, "--gt", gt, "--camera", camera_path,
                              "--ignore", regions])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (f"error: eval --ignore needs a box for image 'b', item 1, and the car's "
                       f"footprint at z={z} is none: {reason}\n")

    @pytest.mark.parametrize("kind", ["pred", "csv", "gt", "ignore", "camera", "ladder"])
    def test_a_file_that_is_not_utf8_is_a_parse_error_at_its_line(self, tmp_path, perfect_files,
                                                                  kind):
        # each exited 1 with "'utf-8' codec can't decode byte 0xff in position 23",
        # naming neither the file nor the line
        pred, gt, camera = perfect_files
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(b"first \xc3\xa9\r\nsecond\rthird \xff\n")  # universal newlines
        argv = {"pred": ["eval", "--pred", str(bad), "--gt", gt],
                "csv": ["eval", "--pred", str(bad), "--format", "csv", "--gt", gt],
                "gt": ["eval", "--pred", pred, "--gt", str(bad)],
                "ignore": ["eval", "--pred", pred, "--gt", gt, "--camera", camera,
                           "--ignore", str(bad)],
                "camera": ["post", "--pred", pred, "--recover-xy", "--camera", str(bad),
                           "--out", str(tmp_path / "out.jsonl")],
                "ladder": ["eval", "--pred", pred, "--gt", gt, "--ladder", str(bad)]}[kind]
        code, out, err = run(argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: line 3: byte 23 of {bad} is not UTF-8 (invalid start byte)\n"

    def test_a_byte_past_the_first_read_is_located_exactly(self, tmp_path, perfect_files):
        _, gt, _ = perfect_files
        bad = tmp_path / "pred.jsonl"
        save_predictions([image("a", *(det(0.0, 0.0, 10.0) for _ in range(200)))], str(bad))
        first = bad.read_bytes()
        assert len(first) > 8192  # beyond the text reader's first chunk
        bad.write_bytes(first + b"\xe2\x82")  # cut mid-character
        code, _, err = run(["eval", "--pred", str(bad), "--gt", gt])
        assert code == EXIT_INPUT
        assert err == (f"error: line 2: byte {len(first)} of {bad} is not UTF-8 "
                       "(unexpected end of data)\n")

    @pytest.mark.parametrize("command, removed", [
        ("eval", ["--jobs", "1"]),
        ("sweep", ["--jobs", "1"]),
        ("ensemble", ["--mode", "max"]),
        ("sweep", ["--camera", "camera.json"]),
    ], ids=["eval-jobs", "sweep-jobs", "ensemble-mode", "sweep-camera"])
    def test_removed_options_are_unrecognized(self, tmp_path, perfect_files, command, removed):
        pred, gt, camera = perfect_files
        inputs = {"eval": ["--pred", pred, "--gt", gt, "--camera", camera],
                  "sweep": ["--pred", pred, "--gt", gt], "ensemble": [pred]}[command]
        code, _, err = run([command, *inputs, *removed, "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert err.endswith(f"error: unrecognized arguments: {' '.join(removed)}\n")

    def test_out_of_range_argument_values(self, tmp_path, perfect_files):
        pred, gt, camera = perfect_files
        code, _, _ = run(["eval", "--pred", pred, "--gt", gt, "--camera", camera,
                          "--ignore-overlap", "1.5"])
        assert code == EXIT_INPUT
