"""Static checks of the package's source, parsed with the standard library's ast.

A deletion's leftovers fail here with no lint dependency: a module-level
import the module no longer uses, and a name in dimsift.__all__ that the
package no longer binds.
"""

import ast
from pathlib import Path

import pytest

import dimsift

MODULES = sorted(Path(dimsift.__file__).resolve().parent.glob("*.py"))


def _exported(tree: ast.Module) -> list[str]:
    """The strings of a module's top-level __all__ list, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _bound_by_imports(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, and its line; __future__ imports bind none."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that the module never reads nor exports."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation reads the names in its text
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    read |= set(_exported(tree))
    return sorted(name for name in _bound_by_imports(tree) if name not in read)


def unresolved_exports(source: str) -> list[str]:
    """The names of a module's __all__ that no top-level import, def, class or assignment binds."""
    tree = ast.parse(source)
    bound = set(_bound_by_imports(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return [name for name in _exported(tree) if name not in bound]


def test_the_checks_find_a_deletions_leftovers():
    source = "import os\nfrom .data import noise_state, split\n\nx = split\n__all__ = ['x', 'gone']\n"
    assert unused_imports(source) == ["noise_state", "os"]
    assert unresolved_exports(source) == ["gone"]
    # a name read only in an annotation's text, or exported, is used
    assert unused_imports("from .data import Dataset\n\ndef f() -> 'Dataset':\n    pass\n") == []
    assert unused_imports("from .data import Dataset\n__all__ = ['Dataset']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_exported_name_resolves():
    init = next(p for p in MODULES if p.name == "__init__.py")
    assert unresolved_exports(init.read_text()) == []
    assert [name for name in dimsift.__all__ if not hasattr(dimsift, name)] == []
