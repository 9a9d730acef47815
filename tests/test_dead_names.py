"""Every module-level private name in the package is read somewhere in it.
A private `def`, `class` or assignment that no code loads, by name, as an
attribute or through an import, is dead. This guard fails naming the file
and the name."""

import ast
from pathlib import Path

from ci_toolkit import measures

PACKAGE = Path(measures.__file__).resolve().parent


def _defined(tree):
    """The module-level names a `def`, `class` or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _loaded(tree):
    """The names a module reads: loaded names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_read():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    loaded = {name for tree in trees.values() for name in _loaded(tree)}
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]
    assert not dead, "private names nothing reads:\n" + "\n".join(dead)
