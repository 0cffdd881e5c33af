"""Option-value corpus for the command line, and the transcript it gives.

Runs every numeric option of every subcommand through ``pose6d.cli.main``
in-process, once per value: the option's boundary values and the common
set 0, -1, 1.5, nan, inf, -inf and 1e308. Int options such as ``--seed``
are included. A value is passed as ``--option=value``, so that argparse
takes ``-inf`` as a value, not as an option. Each element of the
two-value ``--tp-conf`` and ``--fp-conf`` is varied on its own (there a
``-inf`` is read as an option), and ``eval --ladder`` reads a ladder file
whose ``trans_m``, then ``rot_deg``, takes each JSON number and a few
non-numbers.
``--pred`` and ``--gt`` name missing files, so a case that ends in "No
such file" shows that the value passed every check made before the
inputs are read. ``synth`` writes to a temporary directory.

Each run gives one JSON line: the exit code, the last stderr line (the
usage that argparse prints above it is wrapped to the terminal width),
stdout, the type and message of any exception that escapes ``main``,
and, for a ``synth`` run that succeeds, the sha256 of the files written.
The temporary directory appears as ``TMP``.

    PYTHONPATH=src python3 scripts/cli_corpus.py > tests/data/cli_transcript.jsonl

``tests/test_scripts.py`` compares the committed transcript with a fresh
one, so a change to which values an option accepts, to the message that
refuses one or to the exit code shows up as a diff of that file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from typing import Iterator

from pose6d import cli

COMMON = ["0", "-1", "1.5", "nan", "inf", "-inf", "1e308"]

# subcommand -> (its other arguments, {option: boundary values}); PRED,
# GT, OUT and LADDER stand for paths in the temporary directory
OPTIONS = {
    "eval": (["--pred", "PRED", "--gt", "GT"], {
        "--ignore-overlap": ["1", "0.5", "1e-300", "1.0000001"],
    }),
    "post": (["--pred", "PRED", "--out", "OUT"], {
        "--threshold": ["1", "0.5", "1e-300", "1.0000001"],
        "--ignore-overlap": ["1", "0.5", "1.0000001"],
    }),
    "ensemble": (["PRED", "--out", "OUT"], {
        "--iou": ["1", "0.5", "1e-300", "1.0000001", "-0"],
    }),
    "sweep": (["--pred", "PRED", "--gt", "GT", "--out", "OUT"], {
        "--lo": ["1", "0.8", "0.9", "1e-300"],
        "--hi": ["1", "0.1", "0.05", "1.0000001"],
        "--step": ["1", "0.05", "1e-9", "1e-13", "5e-324"],
    }),
    "synth": (["--out-dir", "OUT"], {
        "--seed": ["2", "4294967296", "1e3", "0x10"],
        "--images": ["2", "1e3"],
        "--objects-min": ["4", "5"],
        "--objects-max": ["1", "6", "9223372036854775808"],
        "--depth-min": ["50", "51", "1e-300"],
        "--depth-max": ["8", "7.9", "1e3"],
        "--classes": ["2", "1e3", "9223372036854775807", "9223372036854775808"],
        "--trans-sigma": ["0.5", "1e-300"],
        "--rot-sigma": ["0.5", "3.2", "1e-300"],
        "--miss-rate": ["1", "0.5", "1.0000001"],
        "--fp-rate": ["1", "0.5", "1.0000001"],
    }),
}

# two-value options: (element name, the other element's value, the varied
# element's position) for each element
PAIRS = {
    "--tp-conf": [("LO", "1", 0), ("HI", "0", 1)],
    "--fp-conf": [("LO", "0.5", 0), ("HI", "0.05", 1)],
}
PAIR_VALUES = ["1", "0.5", "0.05", "1.0000001"]

# ladder trans_m and rot_deg values, as JSON text
LADDER_VALUES = COMMON[:3] + ["NaN", "Infinity", "-Infinity", "1e308", "5e-324", "1" + "0" * 400,
                              "-" + "1" * 401, "true", "null", "\"1\""]


def cases() -> Iterator[tuple[str, str, list[str], str | None]]:
    """(command, case label, argv, ladder file text or None) for every case."""
    for command, (base, options) in OPTIONS.items():
        for option, boundary in options.items():
            for value in boundary + COMMON:
                yield command, f"{option} {value}", [command, *base, f"{option}={value}"], None
    base = OPTIONS["synth"][0]
    for option, elements in PAIRS.items():
        for name, other, position in elements:
            for value in PAIR_VALUES + COMMON:
                pair = [other, other]
                pair[position] = value
                yield "synth", f"{option} {name}={value}", ["synth", *base, option, *pair], None
    base = OPTIONS["eval"][0]
    for key, other in (("trans_m", '"rot_deg": 5'), ("rot_deg", '"trans_m": 1')):
        for value in LADDER_VALUES:
            label = value if len(value) < 20 else f"{value[:2]}... ({len(value)} chars)"
            text = f'[{{"{key}": {value}, {other}}}]'
            yield "eval", f"--ladder {key} {label}", ["eval", *base, "--ladder", "LADDER"], text


def _digest(out_dir: str) -> str:
    sha = hashlib.sha256()
    for name in ("gt.jsonl", "pred.jsonl", "camera.json"):
        with open(os.path.join(out_dir, name), "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()


def outcome(argv: list[str], ladder: str | None, tmp: str) -> dict:
    """What ``main`` makes of ``argv``, with its path placeholders in ``tmp``."""
    paths = {"PRED": "missing-pred.jsonl", "GT": "missing-gt.jsonl", "OUT": "out",
             "LADDER": "ladder.json"}
    argv = [os.path.join(tmp, paths[a]) if a in paths else a for a in argv]
    if ladder is not None:
        with open(os.path.join(tmp, "ladder.json"), "w", encoding="utf-8") as handle:
            handle.write(ladder)
    out, err = io.StringIO(), io.StringIO()
    result: dict = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result["exit"] = cli.main(argv)
        except Exception as exc:  # an escaped exception is part of the transcript
            result["exception"] = f"{type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    result["stderr"] = lines[-1] if lines else ""
    result["stdout"] = out.getvalue()
    out_dir = os.path.join(tmp, "out")
    if argv[0] == "synth" and result.get("exit") == 0:
        result["sha256"] = _digest(out_dir)
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    elif os.path.exists(out_dir):
        os.remove(out_dir)
    return {k: v.replace(tmp, "TMP") if isinstance(v, str) else v for k, v in result.items()}


def transcript() -> list[str]:
    """One JSON line per case: command, case label and outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        return [json.dumps({"command": command, "case": label, **outcome(argv, ladder, tmp)})
                for command, label, argv, ladder in cases()]


def main() -> int:
    for line in transcript():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
