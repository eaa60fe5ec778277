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


def _defined_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements bind by def, class or
    assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names.append(node.name)
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_every_private_name_is_used():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unused = [
        f"{name}: {defined}"
        for name, tree in trees.items()
        for defined in _defined_names(tree)
        if defined.startswith("_") and not defined.startswith("__") and defined not in read
    ]
    assert not unused


def test_no_line_over_100_characters():
    # Lines packed past the width would count as cuts in the line budget.
    long = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long
