"""Every name an annotation uses is bound in its module.

``from __future__ import annotations`` leaves annotations unevaluated,
so an annotation naming something the module never imports — say
``Optional`` after it left a ``typing`` import — raises nothing at
import time and fails no other test; only a linter's undefined-name
rule (pyflakes F821) sees it.  This test is a stand-in for that one
rule, over annotations alone: it walks every module under ``src/``,
``tests/`` and ``benchmarks/`` with :mod:`ast` and fails on an
annotation name that no import, ``def``, ``class`` or assignment in the
module binds and that is not a builtin.  String annotations are parsed
and checked the same way; for a dotted name only its first part is
looked up.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks")


def _bound(tree: ast.Module) -> set:
    """Every name the module binds, in any scope."""
    names = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(annotation: ast.expr):
    """(line, name) of each name *annotation* looks up, string parts parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue  # a Literal["..."] value, not a type
            for _line, name in _names(inner.body):
                yield node.lineno, name


def unbound_annotation_names(path: Path):
    """Sorted ``(line, name)`` of each annotation name *path* never binds."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if any(
        isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
        for node in ast.walk(tree)
    ):
        return []  # a star import binds names this walk cannot see
    bound = _bound(tree)
    return sorted(
        (line, name)
        for annotation in _annotations(tree)
        for line, name in _names(annotation)
        if name not in bound
    )


def test_every_annotation_name_is_bound():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        for line, name in unbound_annotation_names(path)
    ]
    assert found == []


def test_an_unimported_annotation_name_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from typing import List\n"
        "def f(was: Optional[List[int]], n: 'Dict[str, int]') -> None:\n"
        "    x: Sequence = []\n"
    )
    assert unbound_annotation_names(module) == [(3, "Dict"), (3, "Optional"), (4, "Sequence")]
