"""Each package module imports cleanly when it is the first one loaded,
and imports nothing it does not use.

``telemetry`` takes its fact store from ``inference.engine``, and the
planning layer imports both, so an import cycle would show only for some
first import. Each module gets a fresh interpreter. The unused-import check
reads each module's syntax tree with ``ast``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planhunt


@pytest.mark.parametrize(
    "module",
    [
        "planhunt.telemetry",
        "planhunt.inference.engine",
        "planhunt.planning_model.state",
        "planhunt.hunt",
    ],
)
def test_module_imports_first(module):
    src = str(Path(planhunt.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _annotation_names(node: ast.AST):
    """Names read in an annotation, string forward references included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield from _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads. A name listed in the
    module's ``__all__`` is a re-export, so it counts as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read.update(_annotation_names(node.returns))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_unused_imports_are_flagged():
    source = (
        "import os\n"
        "from typing import Any, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 2: Any"]


@pytest.mark.parametrize(
    "path",
    sorted(Path(planhunt.__file__).resolve().parent.rglob("*.py")),
    ids=lambda path: path.relative_to(Path(planhunt.__file__).resolve().parents[1]).as_posix(),
)
def test_package_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
