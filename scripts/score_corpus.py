"""Scoring corpus: seeded scenes, and the sweep curves and reports they give.

Builds a handful of scenes that stress the confidence ranking: crowded
seeded scenes, a sparse 20-class scene, a scene whose confidences sit
exactly on grid points (so ties, and ``confidence == t`` kept), a scene
with coincident ground-truth objects (distance ties) and confidences
repeated across images, a scene with a class on each side only and images
on one side only, a scene with predictions and no ground truth (whose
sweep leaves out the points past its highest confidence), and a scene whose
prediction file holds quaternions that are not unit (doubled, scaled by
1e308, rounded to float32), which the reader normalizes. Each scene is
written to files and run through the command line as a user would:
``pose6d sweep`` on the default grid and on ``--lo 0 --hi 1 --step
0.001``, and ``pose6d eval --out`` for the text and the JSON report; then
``sweep`` and ``eval`` again with ``--ladder``, once with a three-pair
ladder that is not ordered strict to loose and once with a single pair.
Each run gives one JSON line: the exit code, stdout, stderr and the bytes
of the file written.

    PYTHONPATH=src python3 scripts/score_corpus.py > tests/data/score_transcript.jsonl

``tests/test_scripts.py`` compares the committed transcript with a fresh
one, so a change to any mAP, sweep curve, best threshold or report byte
shows up as a diff of that file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from dataclasses import replace
from typing import Iterator

import numpy as np

from pose6d import (
    NoiseSpec,
    SceneSpec,
    ThresholdSweep,
    generate_scene,
    perturb,
    save_camera,
    save_ground_truth,
    save_predictions,
    serialize_predictions,
)
from pose6d.cli import main as cli_main

# a noisy detector: sigma_t 0.5 m, sigma_r 0.2 rad, miss 0.2, false
# positives 0.5 per object, true-positive confidence 0.3-1.0
CROWDED_NOISE = NoiseSpec(translation_sigma=0.5, rotation_sigma=0.2, miss_rate=0.2,
                          false_positive_rate=0.5, tp_confidence=(0.3, 1.0))

# confidences of the quantised scene: every default grid point, both ends
# of [0, 1] and two values just outside the default grid
QUANTISED = ThresholdSweep().thresholds() + [0.0, 0.05, 0.85, 1.0]

# ladder files by name: the loose pair first, then a pair whose translation
# gate is the strictest but whose rotation gate is not; and a single pair
LADDERS = {
    "non-monotone": [{"trans_m": 2.0, "rot_deg": 20.0}, {"trans_m": 0.5, "rot_deg": 5.0},
                     {"trans_m": 1.0, "rot_deg": 40.0}],
    "single pair": [{"trans_m": 1.0, "rot_deg": 10.0}],
}

COMMANDS = [
    ("sweep", ["sweep"]),
    ("sweep lo=0 hi=1 step=0.001", ["sweep", "--lo", "0", "--hi", "1", "--step", "0.001"]),
    ("eval", ["eval"]),
] + [(f"{command} ladder={name}", [command, "--ladder", name])
     for name in LADDERS for command in ("sweep", "eval")]


def _scene(spec: SceneSpec, noise: NoiseSpec = CROWDED_NOISE):
    """(predictions, ground truth, camera) of a seeded scene."""
    gts, camera = generate_scene(replace(spec, noise=noise))
    return perturb(gts, noise, spec.seed + 1000, camera), gts, camera


def _crowded(seed: int):
    return _scene(SceneSpec(seed=seed, n_images=6, objects_per_image=(20, 40), n_classes=3))


def _quantised():
    """A crowded scene whose confidences all lie on grid points."""
    preds, gts, camera = _crowded(3)
    out = []
    for i, record in enumerate(preds):
        items = tuple(replace(d, confidence=QUANTISED[(7 * i + 3 * j) % len(QUANTISED)])
                      for j, d in enumerate(record.items))
        out.append(replace(record, items=items))
    return out, gts, camera


def _coincident():
    """A crowded scene where every third object has a coincident twin of its
    class in ground truth, and confidences are rounded to one decimal, so
    equal confidences span images."""
    preds, gts, camera = _crowded(2)
    gts = [replace(r, items=r.items + r.items[::3]) for r in gts]
    preds = [replace(r, items=tuple(replace(d, confidence=round(d.confidence, 1))
                                    for d in r.items))
             for r in preds]
    return preds, gts, camera


def _one_sided():
    """Class 1 in ground truth only, class 2 in predictions only; the first
    image has no prediction record, the last no ground-truth record."""
    preds, gts, camera = _scene(SceneSpec(seed=4, n_images=5, objects_per_image=(4, 12),
                                          n_classes=2))
    preds = [replace(r, items=tuple(replace(d, class_id=2) if d.class_id == 1 else d
                                    for d in r.items))
             for r in preds]
    return preds[1:], gts[:-1], camera


def _predictions_only():
    preds, gts, camera = _crowded(5)
    return preds, [], camera


# how a detector's file may hold a unit quaternion [w, x, y, z]: doubled,
# scaled so that its squared norm overflows, or rounded to float32
NON_UNIT = [lambda q: [2.0 * c for c in q], lambda q: [1e308 * c for c in q],
            lambda q: [float(np.float32(c)) for c in q]]


def _non_unit():
    """A sparse scene whose prediction file is text, not records: the k-th
    quaternion of the file is written the ``NON_UNIT[k % 3]`` way."""
    preds, gts, camera = _scene(SceneSpec(seed=7, n_images=4, objects_per_image=(4, 8),
                                          n_classes=2))
    buffer = io.StringIO()
    serialize_predictions(preds, buffer)
    lines, k = [], 0
    for line in buffer.getvalue().splitlines():
        obj = json.loads(line)
        for item in obj["detections"]:
            item["quaternion"] = NON_UNIT[k % 3](item["quaternion"])
            k += 1
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines), gts, camera


def scenes() -> Iterator[tuple[str, tuple]]:
    """(name, (predictions, ground truth, camera)) for every scene of the
    corpus; predictions are records, or the text of their file."""
    for seed in (0, 1):
        yield f"crowded seed {seed}", _crowded(seed)
    yield "sparse 20 classes", _scene(
        SceneSpec(seed=6, n_images=40, objects_per_image=(0, 3), n_classes=20),
        replace(CROWDED_NOISE, false_positive_rate=0.3))
    yield "confidences on grid points", _quantised()
    yield "coincident objects, confidences tied across images", _coincident()
    yield "classes and images on one side only", _one_sided()
    yield "predictions without ground truth", _predictions_only()
    yield "non-unit quaternions in the prediction file", _non_unit()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def transcript() -> list[str]:
    """One JSON line per scene and command: exit code, stdout, stderr, file written."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        pred, gt, camera, out = (os.path.join(tmp, name) for name in
                                 ("pred.jsonl", "gt.jsonl", "camera.json", "out"))
        for name, ladder in LADDERS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                json.dump(ladder, handle)
        for name, (preds, gts, k) in scenes():
            if isinstance(preds, str):
                with open(pred, "w", encoding="utf-8") as handle:
                    handle.write(preds)
            else:
                save_predictions(preds, pred)
            save_ground_truth(gts, gt)
            save_camera(k, camera)
            for label, command in COMMANDS:
                if os.path.exists(out):
                    os.remove(out)
                if "--ladder" in command:
                    command = command[:-1] + [os.path.join(tmp, command[-1])]
                io_args = ["--pred", pred, "--gt", gt, "--out", out]
                if command[0] == "eval":
                    io_args += ["--camera", camera]
                code, stdout, stderr = _run(command + io_args)
                written = None
                if os.path.exists(out):
                    with open(out, "r", encoding="utf-8") as handle:
                        written = handle.read()
                lines.append(json.dumps({"scene": name, "command": label, "exit": code,
                                         "stdout": stdout, "stderr": stderr,
                                         "written": written}))
    return lines


def main() -> int:
    for line in transcript():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
