"""No stale imports in the package: every name a module imports is used
in that module. `__init__.py` is skipped, since its imports are the
package's re-exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padaug"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []
