"""Command-line front end.

Subcommands: ``eval`` (score predictions against ground truth), ``post``
(apply post-processing stages), ``ensemble`` (merge model outputs),
``sweep`` (confidence-threshold search), ``synth`` (generate synthetic
data). Exit codes: 0 success, 1 computation error, 2 input or usage
error, which includes an item without a box given to a stage that reads
boxes (or one whose car footprint ``eval --ignore`` cannot make a box) and
a box center that ``--recover-xy`` takes beyond the float range. Reports
and records go to files; stdout carries the human summary.
The only randomness is in ``synth``, driven entirely by ``--seed``.

An option value is checked once, before any file is read, by the library
check of what it builds or feeds (``EnsembleConfig``, ``ThresholdSweep``,
``SceneSpec``, ``NoiseSpec``, or the stage's own cutoff check for
``--threshold`` and ``--ignore-overlap``); a refusal exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .formats import (
    ParseError,
    ValidationError,
    _plain,
    _write,
    load_camera,
    load_csv_compat,
    load_ground_truth,
    load_ignore,
    load_ladder,
    load_predictions,
    save_camera,
    save_ground_truth,
    save_predictions,
)
from .geometry import extent_bbox
from .metrics import DEFAULT_LADDER, ThresholdLadder, _check_threshold, mean_average_precision
from .postprocess import (
    EnsembleConfig,
    MissingBoxError,
    RecoveryOverflowError,
    ThresholdSweep,
    _item_at,
    apply_confidence_threshold,
    ensemble_max,
    filter_ignore,
    recover_xy_records,
    sweep_threshold,
)
from .records import Annotation, ImageRecord
from .synth import CAR_EXTENT, NoiseSpec, SceneSpec, generate_scene, perturb

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2


def _config(build: Callable):
    """``build()``; a value it rejects is an input error (exit 2)."""
    try:
        return build()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_preds(path: str, fmt: str):
    return load_csv_compat(path) if fmt == "csv" else load_predictions(path)


def _load_ladder_arg(path: str | None) -> ThresholdLadder:
    return load_ladder(path) if path else DEFAULT_LADDER


def _load_camera_arg(path: str | None, stage: str | None):
    """The ``--camera`` intrinsics, or None without the option; ``stage``
    names the option that reads them, which makes ``--camera`` required."""
    if path is None:
        if stage is not None:
            raise argparse.ArgumentTypeError(f"{stage} requires --camera")
        return None
    return load_camera(path)


def _ensure_gt_bboxes(gt_records, camera):
    """Give each box-less annotation the car's footprint box at its pose; a
    depth at which that is no box raises MissingBoxError at its image and item."""
    out = []
    for record in gt_records:
        items = []
        for a in record.items:
            if a.bbox is None:
                try:
                    bbox = extent_bbox(a.pose.translation, CAR_EXTENT[0], CAR_EXTENT[2], camera)
                except ValueError as exc:
                    raise MissingBoxError(f"eval --ignore needs a box for {_item_at(record, a)}, and "
                                          f"the car's footprint at z={a.pose.translation.z} is none: "
                                          f"{exc}") from None
                a = Annotation(a.class_id, a.pose, bbox)
            items.append(a)
        out.append(ImageRecord(record.image_id, tuple(items)))
    return out


def cmd_eval(args: argparse.Namespace) -> int:
    _config(lambda: _check_threshold(args.ignore_overlap, "overlap_frac"))
    camera = _load_camera_arg(args.camera, "--ignore" if args.ignore else None)
    ladder = _load_ladder_arg(args.ladder)
    preds = _load_preds(args.pred, args.format)
    gts = load_ground_truth(args.gt)
    if args.ignore:
        regions = load_ignore(args.ignore)
        preds = filter_ignore(preds, regions, args.ignore_overlap)
        gts = filter_ignore(_ensure_gt_bboxes(gts, camera), regions, args.ignore_overlap)
    _, report = mean_average_precision(preds, gts, ladder)
    sys.stdout.write(report.to_text())
    if args.out:
        _write(args.out, json.dumps(report.to_json_dict(), indent=2, default=_plain) + "\n")
    return EXIT_OK


def cmd_post(args: argparse.Namespace) -> int:
    _config(lambda: args.threshold is None or _check_threshold(args.threshold))
    _config(lambda: _check_threshold(args.ignore_overlap, "overlap_frac"))
    camera = _load_camera_arg(args.camera, "--recover-xy" if args.recover_xy else None)
    preds = _load_preds(args.pred, args.format)
    if args.recover_xy:
        preds = recover_xy_records(preds, camera)
    if args.threshold is not None:
        preds = apply_confidence_threshold(preds, args.threshold)
    if args.ignore:
        preds = filter_ignore(preds, load_ignore(args.ignore), args.ignore_overlap)
    save_predictions(preds, args.out)
    return EXIT_OK


def cmd_ensemble(args: argparse.Namespace) -> int:
    config = _config(lambda: EnsembleConfig(iou_threshold=args.iou))
    models = [load_predictions(path) for path in args.inputs]
    save_predictions(ensemble_max(models, config), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    sweep = _config(lambda: ThresholdSweep(lo=args.lo, hi=args.hi, step=args.step))
    ladder = _load_ladder_arg(args.ladder)
    preds = _load_preds(args.pred, args.format)
    gts = load_ground_truth(args.gt)
    curve, best = sweep_threshold(preds, gts, sweep, ladder)
    _write(args.out, "threshold,map\n" + "".join(f"{t},{value}\n" for t, value in curve))
    best_map = dict(curve)[best]
    print(f"best threshold: {best} (mAP {best_map:.6f})")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    import os

    spec = _config(lambda: SceneSpec(
        seed=args.seed,
        n_images=args.images,
        objects_per_image=(args.objects_min, args.objects_max),
        depth_range=(args.depth_min, args.depth_max),
        n_classes=args.classes,
        noise=NoiseSpec(
            translation_sigma=args.trans_sigma,
            rotation_sigma=args.rot_sigma,
            miss_rate=args.miss_rate,
            false_positive_rate=args.fp_rate,
            tp_confidence=(args.tp_conf[0], args.tp_conf[1]),
            fp_confidence=(args.fp_conf[0], args.fp_conf[1]),
        ),
    ))
    gt_records, camera = generate_scene(spec)
    pred_records = perturb(gt_records, spec.noise, spec.seed, camera)
    os.makedirs(args.out_dir, exist_ok=True)
    save_ground_truth(gt_records, os.path.join(args.out_dir, "gt.jsonl"))
    save_predictions(pred_records, os.path.join(args.out_dir, "pred.jsonl"))
    save_camera(camera, os.path.join(args.out_dir, "camera.json"))
    n_objects = sum(len(r.items) for r in gt_records)
    n_dets = sum(len(r.items) for r in pred_records)
    print(f"wrote {len(gt_records)} images, {n_objects} objects, {n_dets} detections "
          f"to {args.out_dir}")
    return EXIT_OK


def _add_io_args(sub: argparse.ArgumentParser, gt: bool, camera: str | None) -> None:
    """``camera`` names the option that reads ``--camera``; None omits it."""
    sub.add_argument("--pred", required=True, help="predictions file (JSONL, or CSV with --format csv)")
    if gt:
        sub.add_argument("--gt", required=True, help="ground-truth JSONL file")
    if camera:
        sub.add_argument("--camera", help=f"camera intrinsics JSON file (required by {camera})")
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                     help="prediction input format (default jsonl)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pose6d",
                                     description="Post-process and evaluate 6D object detections.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_eval = subparsers.add_parser("eval", help="score predictions against ground truth")
    _add_io_args(p_eval, gt=True, camera="--ignore")
    p_eval.add_argument("--ladder", help="threshold ladder JSON file (default: built-in ladder)")
    p_eval.add_argument("--ignore", help="ignore-region JSONL; filters predictions and ground truth")
    p_eval.add_argument("--ignore-overlap", type=float, default=0.5,
                        help="overlap fraction above which a box is dropped (default 0.5)")
    p_eval.add_argument("--out", help="write the JSON report here")
    p_eval.set_defaults(func=cmd_eval)

    p_post = subparsers.add_parser("post", help="apply post-processing stages")
    _add_io_args(p_post, gt=False, camera="--recover-xy")
    p_post.add_argument("--recover-xy", action="store_true",
                        help="re-derive x, y from the box center at the predicted depth")
    p_post.add_argument("--threshold", type=float,
                        help="drop detections with confidence below this")
    p_post.add_argument("--ignore", help="ignore-region JSONL file")
    p_post.add_argument("--ignore-overlap", type=float, default=0.5,
                        help="overlap fraction above which a detection is dropped (default 0.5)")
    p_post.add_argument("--out", required=True, help="output predictions JSONL")
    p_post.set_defaults(func=cmd_post)

    p_ens = subparsers.add_parser("ensemble", help="merge detections from several models")
    p_ens.add_argument("inputs", nargs="+", help="prediction JSONL files, one per model")
    p_ens.add_argument("--iou", type=float, default=0.5,
                       help="same-class IoU at or above which detections merge (default 0.5)")
    p_ens.add_argument("--out", required=True, help="output predictions JSONL")
    p_ens.set_defaults(func=cmd_ensemble)

    p_sweep = subparsers.add_parser("sweep", help="search the confidence threshold by mAP")
    _add_io_args(p_sweep, gt=True, camera=None)
    p_sweep.add_argument("--ladder", help="threshold ladder JSON file (default: built-in ladder)")
    p_sweep.add_argument("--lo", type=float, default=0.1, help="lowest threshold (default 0.1)")
    p_sweep.add_argument("--hi", type=float, default=0.8, help="highest threshold (default 0.8)")
    p_sweep.add_argument("--step", type=float, default=0.05, help="grid step (default 0.05)")
    p_sweep.add_argument("--out", required=True, help="output curve CSV (threshold,map)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = subparsers.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p_synth.add_argument("--images", type=int, default=5, help="number of images (default 5)")
    p_synth.add_argument("--objects-min", type=int, default=1, help="min objects per image (default 1)")
    p_synth.add_argument("--objects-max", type=int, default=4, help="max objects per image (default 4)")
    p_synth.add_argument("--depth-min", type=float, default=8.0, help="min depth in m (default 8)")
    p_synth.add_argument("--depth-max", type=float, default=50.0, help="max depth in m (default 50)")
    p_synth.add_argument("--classes", type=int, default=1, help="number of classes (default 1)")
    p_synth.add_argument("--trans-sigma", type=float, default=0.0,
                         help="translation jitter sigma in m (default 0)")
    p_synth.add_argument("--rot-sigma", type=float, default=0.0,
                         help="rotation jitter sigma in rad (default 0)")
    p_synth.add_argument("--miss-rate", type=float, default=0.0,
                         help="per-object miss probability (default 0)")
    p_synth.add_argument("--fp-rate", type=float, default=0.0,
                         help="false-positive rate per ground-truth object (default 0)")
    p_synth.add_argument("--tp-conf", type=float, nargs=2, default=[1.0, 1.0],
                         metavar=("LO", "HI"), help="confidence range of survivors (default 1 1)")
    p_synth.add_argument("--fp-conf", type=float, nargs=2, default=[0.05, 0.5],
                         metavar=("LO", "HI"), help="confidence range of false positives")
    p_synth.add_argument("--out-dir", required=True,
                         help="directory for gt.jsonl, pred.jsonl, camera.json")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        return func(args)
    except (ParseError, ValidationError, MissingBoxError, RecoveryOverflowError, OSError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
