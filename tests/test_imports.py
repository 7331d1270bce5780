"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this reads each module with ``ast``.
``__init__.py`` is skipped: its imports are the public re-exports.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boxmodal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; ``from __future__`` binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    pending: list[ast.AST] = [tree]
    while pending:
        node = pending.pop()
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                used.add(child.id)
            annotations = []
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                every = args.posonlyargs + args.args + args.kwonlyargs
                every += [a for a in (args.vararg, args.kwarg) if a is not None]
                annotations = [a.annotation for a in every] + [child.returns]
            elif isinstance(child, ast.AnnAssign):
                annotations = [child.annotation]
            for annotation in annotations:
                for part in ast.walk(annotation) if annotation is not None else ():
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        pending.append(ast.parse(part.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Optional, Sequence\n"
        "import numpy as np\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return None\n"
    )
    used = used_names(tree)
    assert {n for n in imported_names(tree) if n not in used} == {"Optional", "np"}
