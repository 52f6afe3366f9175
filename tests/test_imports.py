"""Every name a module of the package imports is used in that module.

A statement marked ``# noqa: F401`` (a re-export) is exempt, and so is
``__init__.py``, whose imports are the public surface.
"""

import ast
from pathlib import Path

import pytest

import hrpairs

MODULES = sorted(p for p in Path(hrpairs.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by import statements of source that no expression reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.append(alias.asname or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_and_a_marked_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\ntau\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
