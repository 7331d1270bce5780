"""Every name a module of the package imports is used in that module, and every private
function, class and method is named somewhere in the package outside its own definition.

No linter ships with the project, so this reads each module with ``ast``.
``__init__.py`` is skipped for imports: its imports are the public re-exports.
A private helper that only the tests name belongs in the tests.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boxmodal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PRIVATE_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def named(tree: ast.AST) -> Counter[str]:
    """How often each name and attribute name occurs in a tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unnamed_private_defs(trees: list[ast.Module]) -> set[str]:
    """Private functions, classes and methods (one leading underscore or more, not dunder) that
    no code of the trees names outside their own definitions."""
    everywhere = sum((named(tree) for tree in trees), Counter())
    return {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, PRIVATE_DEFS)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == named(node)[node.name]
    }


def test_no_private_helper_only_the_tests_name():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    unnamed = unnamed_private_defs(trees)
    assert not unnamed, f"private definitions nothing in the package names: {sorted(unnamed)}"


def test_the_check_sees_a_private_helper_nothing_names():
    trees = [
        ast.parse(
            "def _used(): return 1\n"
            "def _recursive(k): return _recursive(k - 1) if k else 0\n"
            "class _Box:\n"
            "    def __init__(self): self._fill()\n"
            "    def _fill(self): pass\n"
            "    def _spare(self): pass\n"
        ),
        ast.parse("import m\nm._used()\nm._Box()\n"),
    ]
    assert unnamed_private_defs(trees) == {"_recursive", "_spare"}
