"""Every name a library module imports is used in that module.

``__init__`` is exempt: it imports names only to re-export them.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "knotcert"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("from typing import Callable, Iterable\nx: Iterable[int]\n") == [
        "Callable (line 1)"
    ]
    assert unused_imports("import os.path as osp\nimport sys\nsys.exit(osp)\n") == []


def test_modules_found():
    assert {path.stem for path in MODULES} >= {"laurent", "constructions", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
