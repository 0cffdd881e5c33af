"""The package's modules import only from the layers below them.

geometry -> losses and records -> metrics -> formats, postprocess and
synth -> cli, with ``__init__`` exempt: it re-exports them all. Every
import counts, a lazy one inside a function too, so no cycle can hide
behind one, and stage code cannot move back down into ``records``. Only
``formats`` opens a file, and only its ``_write`` opens one for writing;
``cli`` may import ``json`` to encode its report, which it hands to
``_write``. A configuration value is tested for "a real number, and not a
bool" by ``geometry._reals`` alone, never by a bool test of its own.
"""

import ast
from pathlib import Path

import pytest

import pose6d

SRC = Path(pose6d.__file__).parent
LAYERS = {"geometry": 0, "losses": 1, "records": 1, "metrics": 2, "formats": 3, "postprocess": 3,
          "synth": 3, "cli": 4}
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def imported_modules(module: str) -> set[str]:
    """The package modules that ``module``'s source imports, by name; the
    package itself is ``__init__``."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import ..., or from . import x
                out |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
            elif node.module and node.module.split(".")[0] == "pose6d":
                out.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] if "." in a.name else "__init__"
                    for a in node.names if a.name.split(".")[0] == "pose6d"}
    return out


def test_every_module_has_a_layer():
    assert MODULES == sorted(LAYERS)


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_only_from_lower_layers(module):
    upward = {m for m in imported_modules(module) if LAYERS.get(m, len(LAYERS)) >= LAYERS[module]}
    assert upward == set(), f"{module} imports from its own layer or above: {sorted(upward)}"


def test_the_imports_are_seen():
    assert imported_modules("postprocess") == {"geometry", "metrics", "records"}
    assert imported_modules("metrics") == {"geometry", "records"}
    assert imported_modules("cli") == {"formats", "geometry", "metrics", "postprocess", "records",
                                       "synth"}


def file_access(module: str) -> set[str]:
    """``json`` and ``io`` where ``module``'s source imports them, and ``open``
    where it calls it."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names} & {"json", "io"}
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            out |= {node.module.split(".")[0]} & {"json", "io"}
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            out.add("open")
    return out


@pytest.mark.parametrize("module", [m for m in MODULES + ["__init__"] if m not in ("formats", "cli")])
def test_only_formats_and_cli_touch_files(module):
    assert file_access(module) == set(), f"{module} reads or writes files"


@pytest.mark.parametrize("module", [m for m in MODULES + ["__init__"] if m != "formats"])
def test_only_formats_opens_files(module):
    assert "open" not in file_access(module), f"{module} opens a file"


def test_only_formats_write_opens_a_file_for_writing():
    """In ``formats``, ``_load`` opens files to read and ``_write`` to write,
    and no other function opens one (each call names its mode second)."""
    tree = ast.parse((SRC / "formats.py").read_text(encoding="utf-8"))
    modes: dict[str, set] = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                    modes.setdefault(function.name, set()).add(ast.literal_eval(node.args[1]))
    assert modes == {"_load": {"r", "rb"}, "_write": {"w"}}


def test_file_access_is_seen():
    assert file_access("formats") == {"io", "json", "open"}
    assert file_access("cli") == {"json"}


# the checks of configuration values, by module
CONFIG_CHECKS = [("metrics", "_check_threshold"), ("metrics", "ThresholdLadder"),
                 ("postprocess", "EnsembleConfig"), ("postprocess", "ThresholdSweep"),
                 ("geometry", "CameraIntrinsics"), ("synth", "NoiseSpec"), ("synth", "SceneSpec"),
                 ("losses", "LossWeights")]


def bool_tests(module: str, name: str) -> int:
    """The bool tests in the top-level function or class ``name`` of
    ``module``: ``type(...) is bool`` (or ``is not``), ``bool in ...`` (or
    ``not in``) and ``isinstance(..., bool)``."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    [definition] = [n for n in tree.body if getattr(n, "name", None) == name]
    count = 0
    for node in ast.walk(definition):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                names = {getattr(side, "id", None) for side in (left, right)}
                calls = {getattr(getattr(side, "func", None), "id", None) for side in (left, right)}
                is_test = isinstance(op, (ast.Is, ast.IsNot)) and "type" in calls
                in_test = isinstance(op, (ast.In, ast.NotIn)) and getattr(left, "id", None) == "bool"
                count += is_test and "bool" in names or in_test
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            count += getattr(node.args[1], "id", None) == "bool"
    return count


@pytest.mark.parametrize("module, name", CONFIG_CHECKS, ids=[name for _, name in CONFIG_CHECKS])
def test_a_configuration_value_is_tested_for_a_bool_only_by_reals(module, name):
    assert bool_tests(module, name) == 0, f"{module}.{name} tests for a bool outside _reals"


def test_bool_tests_are_seen():
    assert bool_tests("geometry", "BBox2D") == 4  # type(x1) is bool, ... for each coordinate
    assert bool_tests("synth", "_integers") == 1  # bool not in map(type, values)
    assert bool_tests("formats", "_number") == 1  # isinstance(value, bool)
    assert bool_tests("geometry", "_reals") == 1  # type(v) is not bool
