"""Checks over the package source itself."""

import ast
from pathlib import Path

import compsum

PACKAGE = Path(compsum.__file__).parent


def _annotations(node: ast.AST) -> list:
    if isinstance(node, ast.arg | ast.AnnAssign):
        return [node.annotation]
    if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
        return [node.returns]
    return []


def _used_names(tree: ast.AST) -> set[str]:
    """Names read as a ``Name``, as the base of an ``Attribute``, or inside
    a string annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add(node.value.id)
        for annotation in _annotations(node):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def _exported_names(tree: ast.Module) -> set[str]:
    """The names in a module-level ``__all__``, which must be a literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = _used_names(tree) | _exported_names(tree)
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not unused
