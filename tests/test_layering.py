"""The package's modules import only from the layers below them.

geometry -> losses and records -> metrics -> formats, postprocess and
synth -> cli, with ``__init__`` exempt: it re-exports them all. Every
import counts, a lazy one inside a function too, so no cycle can hide
behind one, and stage code cannot move back down into ``records``. Files
are read and written only in ``formats`` and ``cli``.
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


def test_file_access_is_seen():
    assert file_access("formats") == {"io", "json", "open"}
    assert file_access("cli") == {"json", "open"}
