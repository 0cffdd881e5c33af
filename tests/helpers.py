"""Shared factories for building small scenes in tests."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

from pose6d import (
    Annotation,
    BBox2D,
    Detection,
    ImageRecord,
    NoiseSpec,
    Pose,
    Quaternion,
    SceneSpec,
    Translation,
    generate_scene,
    iou_2d,
    perturb,
)

IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)

# a noisy detector like the benchmark's: sigma_t 0.5 m, sigma_r 0.2 rad,
# miss 0.2, false positives 0.5 per object, true-positive confidence 0.3-1.0
CROWDED_NOISE = NoiseSpec(translation_sigma=0.5, rotation_sigma=0.2, miss_rate=0.2,
                          false_positive_rate=0.5, tp_confidence=(0.3, 1.0))


def det(x: float, y: float, z: float, *, confidence: float = 0.9, class_id: int = 0,
        quat: Quaternion = IDENTITY, bbox: BBox2D | None = None) -> Detection:
    return Detection(class_id=class_id, confidence=confidence, bbox=bbox,
                     pose=Pose(quat, Translation(x, y, z)))


def ann(x: float, y: float, z: float, *, class_id: int = 0,
        quat: Quaternion = IDENTITY, bbox: BBox2D | None = None) -> Annotation:
    return Annotation(class_id=class_id, pose=Pose(quat, Translation(x, y, z)), bbox=bbox)


def image(image_id: str, *items) -> ImageRecord:
    return ImageRecord(image_id=image_id, items=tuple(items))


def as_detection(a: Annotation, confidence: float) -> Detection:
    """Perfect detection carrying an annotation's pose and box."""
    return Detection(class_id=a.class_id, confidence=confidence, bbox=a.bbox, pose=a.pose)


def complementary_models(gt_records, n_models: int, confidence: float = 0.9):
    """Perfect single-model copies that each miss a disjoint third of objects.

    Object g (in global order) is missing from model ``g % n_models`` only,
    so the union of any two models already covers everything.
    """
    models = []
    for k in range(n_models):
        records = []
        g = 0
        for record in gt_records:
            dets = []
            for a in record.items:
                if g % n_models != k:
                    dets.append(as_detection(a, confidence))
                g += 1
            records.append(ImageRecord(record.image_id, tuple(dets)))
        models.append(records)
    return models


def with_extra(records, image_index: int, *extra):
    """Copy of ``records`` with detections appended to one image."""
    out = list(records)
    out[image_index] = replace(out[image_index],
                               items=out[image_index].items + tuple(extra))
    return out


def crowded_scene(seed: int):
    """(predictions, ground truth) of 6 images x 20-40 objects in 3 classes."""
    spec = SceneSpec(seed=seed, n_images=6, objects_per_image=(20, 40), n_classes=3,
                     noise=CROWDED_NOISE)
    gts, camera = generate_scene(spec)
    return perturb(gts, CROWDED_NOISE, seed + 1000, camera), gts


def greedy_ensemble(model_outputs, iou_threshold: float) -> list[ImageRecord]:
    """Max-ensembling written as plain greedy clustering, the referee of
    ``ensemble_max``: each image's pooled detections are visited by
    (-confidence, model index, input order); each unassigned one seeds a
    cluster and absorbs every later unassigned same-class detection whose
    IoU with the seed reaches the threshold. Seeds are returned in order."""
    pools: dict[str, list] = {}
    for model_idx, records in enumerate(model_outputs):
        for record in records:
            pool = pools.setdefault(record.image_id, [])
            for d in record.items:
                pool.append((d, model_idx, len(pool)))
    merged = []
    for image_id, pool in pools.items():
        pool = sorted(pool, key=lambda e: (-e[0].confidence, e[1], e[2]))
        assigned = [False] * len(pool)
        seeds = []
        for s, (seed, _, _) in enumerate(pool):
            if assigned[s]:
                continue
            assigned[s] = True
            seeds.append(seed)
            for c in range(s + 1, len(pool)):
                cand = pool[c][0]
                if (not assigned[c] and cand.class_id == seed.class_id
                        and iou_2d(cand.bbox, seed.bbox) >= iou_threshold):
                    assigned[c] = True
        merged.append(ImageRecord(image_id, tuple(seeds)))
    return merged


def covered_by_inclusion_exclusion(box: BBox2D, rects) -> float:
    """Fraction of ``box`` covered by the union of ``rects``, by inclusion-exclusion."""
    total = 0.0
    for k in range(1, len(rects) + 1):
        for combo in combinations(rects, k):
            x1 = max([box.x1] + [r.x1 for r in combo])
            y1 = max([box.y1] + [r.y1 for r in combo])
            x2 = min([box.x2] + [r.x2 for r in combo])
            y2 = min([box.y2] + [r.y2 for r in combo])
            if x1 < x2 and y1 < y2:
                total += (-1) ** (k + 1) * (x2 - x1) * (y2 - y1)
    return total / box.area()
