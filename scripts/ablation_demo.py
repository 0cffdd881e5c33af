"""Stage-by-stage demonstration of the post-processing ladder.

Builds a seeded synthetic scene and manufactures deliberately damaged
detector outputs for three models: every detection's lateral position is
pushed sideways, each image gains two low-confidence junk detections of a
class absent from the scene, and a high-confidence clutter detection sits
inside a fixed image zone. The script then repairs the output one stage
at a time and prints mAP after each stage:

    raw -> lateral recovery -> confidence threshold -> max-ensemble
        -> ignore-region filter

Each stage is a plain library call; the script adds nothing beyond
building the damaged inputs. Rerunning with one seed reproduces the
table exactly.

Usage:
    python3 scripts/ablation_demo.py [--seed N] [--images N]
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Sequence

from pose6d import (
    CAR_EXTENT,
    BBox2D,
    CameraIntrinsics,
    Detection,
    EvaluationReport,
    IgnoreRegions,
    ImageRecord,
    NoiseSpec,
    Pose,
    Quaternion,
    SceneSpec,
    Translation,
    apply_confidence_threshold,
    corrupt_xy,
    ensemble_max,
    extent_bbox,
    filter_ignore,
    generate_scene,
    mean_average_precision,
    perturb,
    recover_xy_records,
    sweep_threshold,
)

N_MODELS = 3
JUNK_CLASS = 9

# Image zone hosting the planted clutter detection; the final stage hands
# this rectangle to filter_ignore for every image.
CLUTTER_ZONE = BBox2D(40.0, 810.0, 330.0, 940.0)

_IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)
_CLUTTER_T = Translation(-14.0, 6.0, 18.0)
_JUNK_PLACEMENTS = (
    (Translation(14.0, 6.0, 18.0), 0.22),
    (Translation(12.0, -5.5, 20.0), 0.28),
)


def _planted_detections(camera: CameraIntrinsics) -> tuple[Detection, ...]:
    """Fixed per-image pollution: one clutter detection plus two junk ones.

    The clutter detection carries a real class and high confidence, so it
    outranks true positives until the ignore filter removes it. The junk
    detections carry a class the scene never contains but confidences low
    enough for a swept threshold to clear.
    """

    def at(t: Translation, class_id: int, confidence: float) -> Detection:
        return Detection(class_id=class_id, confidence=confidence,
                         bbox=extent_bbox(t, CAR_EXTENT[0], CAR_EXTENT[2], camera),
                         pose=Pose(_IDENTITY, t))

    clutter = at(_CLUTTER_T, 0, 0.95)
    junk = tuple(at(t, JUNK_CLASS, conf) for t, conf in _JUNK_PLACEMENTS)
    return (clutter,) + junk


def _with_planted(records: Sequence[ImageRecord],
                  planted: tuple[Detection, ...]) -> list[ImageRecord]:
    return [replace(r, items=r.items + planted) for r in records]


def _row(label: str, preds: Sequence[ImageRecord], gts: Sequence[ImageRecord]) -> EvaluationReport:
    value, report = mean_average_precision(preds, gts)
    dets = sum(len(r.items) for r in preds)
    mae = "n/a" if report.mae_trans is None else f"{report.mae_trans:.3f}"
    print(f"{label:<44} {dets:>5} {value:>8.4f} {mae:>8}")
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="repair a deliberately damaged synthetic detector output "
                    "one post-processing stage at a time, printing mAP per stage")
    parser.add_argument("--seed", type=int, default=7, help="scene seed (default 7)")
    parser.add_argument("--images", type=int, default=6, help="number of images (default 6)")
    args = parser.parse_args(argv)

    spec = SceneSpec(seed=args.seed, n_images=args.images,
                     objects_per_image=(2, 4), n_classes=2)
    gt, camera = generate_scene(spec)
    noise = NoiseSpec(translation_sigma=0.15, rotation_sigma=0.04, miss_rate=0.3,
                      false_positive_rate=0.0, tp_confidence=(0.45, 1.0))
    planted = _planted_detections(camera)
    models = []
    for m in range(N_MODELS):
        preds = perturb(gt, noise, seed=args.seed + 101 + m, camera=camera)
        preds = corrupt_xy(preds, seed=args.seed + 201 + m)
        models.append(_with_planted(preds, planted))

    n_objects = sum(len(r.items) for r in gt)
    print(f"scene: {len(gt)} images, {n_objects} objects, 2 classes, seed {args.seed}")
    print(f"damage: lateral drift 0.6-1.5 m on every detection, 2 junk detections "
          f"of class {JUNK_CLASS} and 1 clutter detection per image")
    print()
    print(f"{'stage':<44} {'dets':>5} {'mAP':>8} {'MAE(m)':>8}")
    print("-" * 68)

    _row("raw detector output", models[0], gt)

    recovered = recover_xy_records(models[0], camera)
    _row("+ lateral recovery from box centers", recovered, gt)

    _, best_t = sweep_threshold(recovered, gt)
    thresholded = apply_confidence_threshold(recovered, best_t)
    _row(f"+ confidence threshold (best t = {best_t})", thresholded, gt)

    pool = [apply_confidence_threshold(recover_xy_records(m, camera), best_t)
            for m in models]
    merged = ensemble_max(pool)
    _row(f"+ max-ensemble over {N_MODELS} models", merged, gt)

    regions = [IgnoreRegions(image_id=r.image_id, rects=(CLUTTER_ZONE,)) for r in gt]
    final_preds = filter_ignore(merged, regions)
    final_gt = filter_ignore(gt, regions)
    report = _row("+ ignore-region filter", final_preds, final_gt)

    print()
    print(report.to_text(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
