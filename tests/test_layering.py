"""The package's modules import only from the layers below them.

geometry -> losses and records -> metrics -> postprocess and synth -> cli,
with ``__init__`` exempt: it re-exports them all. Every import counts, a
lazy one inside a function too, so no cycle can hide behind one, and stage
code cannot move back down into ``records``.
"""

import ast
from pathlib import Path

import pytest

import pose6d

SRC = Path(pose6d.__file__).parent
LAYERS = {"geometry": 0, "losses": 1, "records": 1, "metrics": 2, "postprocess": 3, "synth": 3,
          "cli": 4}
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
    assert imported_modules("cli") == {"geometry", "metrics", "postprocess", "records", "synth"}
