"""Post-processing corpus: scenes, and what ``pose6d post`` and ``pose6d ensemble`` make of them.

Builds small seeded three-model scenes (three noisy detectors of one
ground truth, with lateral positions pushed sideways) and hand-built
scenes aimed at the edges of the post-processing rules:

- ensembling: confidence ties within a model and across models, identical
  boxes, an IoU of exactly 0.5 (``[0, 0, 2, 1]`` against ``[0, 0, 1, 1]``),
  boxes that touch at an edge, nested boxes, a chain of overlaps, an
  image present in one model only and empty images;
- ignore filtering: a coverage of exactly 0.5, three overlapping
  rectangles, an image without regions and a region without detections.

Each scene is written to files and run through the command line as a
user would: ``pose6d ensemble`` at ``--iou`` 0.05, 0.3, 0.5, 0.7 and 1.0,
and ``pose6d post`` with each stage alone and with all of them together.
Inputs the files cannot carry (a repeated image id within one model, or
a repeated ignore-region id) go to the library functions directly, and
so does an input with two faults, which pins the error that wins.

Each run gives one JSON line: the exit code (or the exception a library
call raised), the last stderr line and the bytes of the file written.
The temporary directory appears as ``TMP``.

    PYTHONPATH=src python3 scripts/post_corpus.py > tests/data/post_transcript.jsonl

``tests/test_scripts.py`` compares the committed transcript with a fresh
one, so a change to any kept, merged or dropped detection, or to the
bytes written, shows up as a diff of that file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from dataclasses import replace
from typing import Callable, Iterator

import numpy as np

from pose6d import (
    BBox2D,
    Detection,
    EnsembleConfig,
    IgnoreRegions,
    ImageRecord,
    NoiseSpec,
    Pose,
    Quaternion,
    SceneSpec,
    Translation,
    corrupt_xy,
    ensemble_max,
    filter_ignore,
    generate_scene,
    perturb,
    save_camera,
    save_ignore,
    save_predictions,
    serialize_predictions,
)
from pose6d.cli import main as cli_main

# a noisy detector: sigma_t 0.5 m, sigma_r 0.2 rad, miss 0.2, false
# positives 0.5 per object, true-positive confidence 0.3-1.0
NOISE = NoiseSpec(translation_sigma=0.5, rotation_sigma=0.2, miss_rate=0.2,
                  false_positive_rate=0.5, tp_confidence=(0.3, 1.0))

IOUS = ["0.05", "0.3", "0.5", "0.7", "1.0"]
OVERLAPS = ["0", "0.25", "0.5", "0.75", "1"]
IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)


def _det(x: float, box: tuple[float, float, float, float] | None, confidence: float,
         class_id: int = 0) -> Detection:
    """A detection told apart from its twins by its lateral position ``x``."""
    return Detection(class_id, confidence, None if box is None else BBox2D(*box),
                     Pose(IDENTITY, Translation(x, 0.0, 10.0)))


def _image(image_id: str, *items: Detection) -> ImageRecord:
    return ImageRecord(image_id, tuple(items))


def _seeded(seed: int):
    """(three models, ignore regions, camera) of a small seeded scene.

    Each model's boxes are shifted by up to a fifth of their size, so the
    IoUs between models spread over (0, 1]. Each image's regions cover its
    first object's box and the left 60 % of its second's, plus the frame's
    top-left quarter."""
    gts, camera = generate_scene(SceneSpec(seed=seed, n_images=3, objects_per_image=(2, 6),
                                           n_classes=3, noise=NOISE))
    models = [[_shifted(r, np.random.default_rng(100 * seed + m))
               for r in corrupt_xy(perturb(gts, NOISE, 100 * seed + m, camera), 100 * seed + 50 + m)]
              for m in range(3)]
    regions = []
    for record in gts:
        rects = [BBox2D(0.0, 0.0, camera.cx, camera.cy)]
        boxes = [a.bbox for a in record.items]
        if boxes:
            rects.append(boxes[0])
        if len(boxes) > 1:
            b = boxes[1]
            rects.append(BBox2D(b.x1, b.y1, b.x1 + 0.6 * (b.x2 - b.x1), b.y2))
        regions.append(IgnoreRegions(record.image_id, tuple(rects)))
    return models, regions, camera


def _shifted(record: ImageRecord, rng: np.random.Generator) -> ImageRecord:
    items = []
    for d in record.items:
        b = d.bbox
        dx, dy = rng.uniform(-0.2, 0.2, size=2)
        dx, dy = float(dx) * (b.x2 - b.x1), float(dy) * (b.y2 - b.y1)
        items.append(replace(d, bbox=BBox2D(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)))
    return replace(record, items=tuple(items))


def _edge_models() -> list[list[ImageRecord]]:
    """Three models whose boxes sit on the edges of the ensembling rule."""
    m0 = [
        _image("ties", _det(0, (0, 0, 10, 10), 0.9), _det(1, (1, 0, 11, 10), 0.9),
               _det(2, (0, 0, 10, 10), 0.9, class_id=1)),
        _image("identical", _det(0, (0, 0, 4, 4), 0.8), _det(1, (0, 0, 4, 4), 0.8)),
        _image("iou half", _det(0, (0, 0, 2, 1), 0.6)),
        _image("touching", _det(0, (0, 0, 1, 1), 0.9), _det(1, (1, 0, 2, 1), 0.8),
               _det(2, (0, 1, 1, 2), 0.7)),
        _image("nested", _det(0, (0, 0, 10, 10), 0.5), _det(1, (2, 2, 4, 4), 0.9),
               _det(2, (1, 1, 9, 9), 0.7)),
        _image("chain", _det(0, (0, 0, 4, 1), 0.9), _det(1, (2, 0, 6, 1), 0.8),
               _det(2, (4, 0, 8, 1), 0.7)),
        _image("empty everywhere"),
        _image("empty in one model"),
    ]
    m1 = [
        _image("empty in one model", _det(0, (0, 0, 3, 3), 0.4), _det(1, (0, 0, 3, 3), 0.4)),
        _image("ties", _det(3, (0.5, 0, 10.5, 10), 0.9), _det(4, (0, 0, 10, 10), 0.9)),
        _image("identical", _det(2, (0, 0, 4, 4), 0.8), _det(3, (0, 0, 4, 4), 1.0)),
        _image("iou half", _det(1, (0, 0, 1, 1), 0.5)),
        _image("empty everywhere"),
    ]
    m2 = [
        _image("one model only", _det(0, (5, 5, 6, 6), 0.3), _det(1, (5, 5, 6, 6), 0.3,
                                                                   class_id=2)),
        _image("identical", _det(4, (0, 0, 4, 4), 0.7)),
        _image("touching", _det(3, (0, 0, 1, 1), 0.9, class_id=1)),
        _image("chain", _det(3, (0, 0, 4, 1), 0.9), _det(4, (6, 0, 10, 1), 0.95)),
        _image("empty everywhere"),
    ]
    return [m0, m1, m2]


def _ignore_scene() -> tuple[list[ImageRecord], list[IgnoreRegions]]:
    """Detections and rectangles whose covered fractions sit on or near the cutoffs."""
    preds = [
        _image("half", _det(0, (0, 0, 2, 2), 0.9), _det(1, (0, 0, 2, 4), 0.8)),
        _image("three rects", _det(0, (0, 0, 4, 4), 0.9), _det(1, (1, 1, 3, 3), 0.8),
               _det(2, (2.5, 0, 4, 1), 0.7)),
        _image("no regions", _det(0, (0, 0, 1, 1), 0.9), _det(1, None, 0.8)),
        _image("no rects", _det(0, (0, 0, 1, 1), 0.9)),
    ]
    regions = [
        IgnoreRegions("half", (BBox2D(0, 0, 1, 2),)),
        IgnoreRegions("three rects", (BBox2D(0, 0, 2, 2), BBox2D(1, 1, 3, 3), BBox2D(0, 1, 3, 2))),
        IgnoreRegions("region without detections", (BBox2D(0, 0, 9, 9),)),
        IgnoreRegions("no rects", ()),
    ]
    return preds, regions


Scene = tuple[str, list[list[ImageRecord]], list[IgnoreRegions], object, list[str]]


def scenes() -> Iterator[Scene]:
    """(name, models, ignore regions, camera or None, ``--ignore-overlap``
    values) for every scene of the corpus."""
    for seed in (0, 1):
        models, regions, camera = _seeded(seed)
        yield f"seeded {seed}", models, regions, camera, ["0.5"]
    yield "ensembling edges", _edge_models(), [], None, []
    preds, regions = _ignore_scene()
    yield "ignore edges", [preds], regions, None, OVERLAPS
    yield "a detection without a bbox", [[_image("a", _det(0, None, 0.9))],
                                        [_image("a", _det(1, (0, 0, 1, 1), 0.8))]], \
        [IgnoreRegions("a", (BBox2D(0, 0, 1, 1),))], None, ["0.5"]


def commands(n_models: int, camera: bool, overlaps: list[str]) -> Iterator[tuple[str, list[str]]]:
    """(label, argv) of every command run on a scene; MODEL<k>, CAMERA,
    IGNORE and OUT stand for its files."""
    models = [f"MODEL{k}" for k in range(n_models)]
    if n_models > 1:
        for iou in IOUS:
            yield f"ensemble --iou {iou}", ["ensemble", *models, f"--iou={iou}"]
        yield "ensemble one model", ["ensemble", models[0]]
    for model in models:
        stages = [("no stage", []), ("threshold 0.5", ["--threshold=0.5"])]
        if camera:
            stages.append(("recover-xy", ["--recover-xy", "--camera", "CAMERA"]))
        stages += [(f"ignore overlap {v}", ["--ignore", "IGNORE", f"--ignore-overlap={v}"])
                   for v in overlaps]
        if camera and overlaps:
            stages.append(("all stages", ["--recover-xy", "--camera", "CAMERA",
                                          "--threshold=0.5", "--ignore", "IGNORE"]))
        for label, extra in stages:
            yield f"post {model} {label}", ["post", "--pred", model, *extra]


def _written(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    os.remove(path)
    return text


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    lines = err.getvalue().splitlines()
    return {"exit": code, "stderr": lines[-1] if lines else ""}


def _call(build: Callable[[], list[ImageRecord]]) -> dict:
    """What a library call returns, serialized, or the exception it raises."""
    try:
        records = build()
    except Exception as exc:  # the exception is part of the transcript
        return {"exception": f"{type(exc).__name__}: {exc}"}
    stream = io.StringIO()
    serialize_predictions(records, stream)
    return {"written": stream.getvalue()}


def library_cases() -> Iterator[tuple[str, Callable[[], list[ImageRecord]]]]:
    """(label, call) for inputs that no file can carry."""
    nobox = [_image("a", _det(0, None, 0.9))]
    repeated = [_image("a", _det(0, (0, 0, 1, 1), 0.9)), _image("a", _det(1, (0, 0, 1, 1), 0.8))]
    both = [_image("a", _det(0, None, 0.9)), _image("a", _det(1, (0, 0, 1, 1), 0.8))]
    yield "ensemble no bbox in model 1, repeated id in model 2", \
        lambda: ensemble_max([nobox, repeated])
    yield "ensemble repeated id in model 1, no bbox in model 2", \
        lambda: ensemble_max([repeated, nobox])
    yield "ensemble no bbox and repeated id in model 1", lambda: ensemble_max([both])
    yield "ensemble of no models", lambda: ensemble_max([])
    yield "ensemble iou 1e-300", lambda: ensemble_max(_edge_models(), EnsembleConfig(1e-300))
    preds, regions = _ignore_scene()
    split = [IgnoreRegions("three rects", r.rects[i:i + 1]) for r in regions[1:2]
             for i in range(3)]
    yield "ignore with a repeated region id", lambda: filter_ignore(preds[1:2], split)
    yield "ignore without a bbox", lambda: filter_ignore(nobox, [IgnoreRegions("a", ())])
    yield "ignore overlap 1.5", lambda: filter_ignore(preds, regions, 1.5)


def transcript() -> list[str]:
    """One JSON line per scene and command, then one per library case."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"CAMERA": os.path.join(tmp, "camera.json"),
                 "IGNORE": os.path.join(tmp, "ignore.jsonl"), "OUT": os.path.join(tmp, "out")}
        for name, models, regions, camera, overlaps in scenes():
            for k, model in enumerate(models):
                paths[f"MODEL{k}"] = os.path.join(tmp, f"model{k}.jsonl")
                save_predictions(model, paths[f"MODEL{k}"])
            if camera is not None:
                save_camera(camera, paths["CAMERA"])
            save_ignore(regions, paths["IGNORE"])
            for label, argv in commands(len(models), camera is not None, overlaps):
                result = _run([paths.get(a, a) for a in argv] + ["--out", paths["OUT"]])
                result["written"] = _written(paths["OUT"])
                result = {k: v.replace(tmp, "TMP") if isinstance(v, str) else v
                          for k, v in result.items()}
                lines.append(json.dumps({"scene": name, "command": label, **result}))
        for label, call in library_cases():
            lines.append(json.dumps({"scene": "library", "command": label, **_call(call)}))
    return lines


def main() -> int:
    for line in transcript():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
