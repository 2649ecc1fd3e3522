"""Every name a zenolock module imports is used in that module.

Each module of ``src/zenolock`` is parsed with :mod:`ast`.  A name counts as
used when the module reads it anywhere (a bare name, or the base of an
attribute chain) or lists it in ``__all__``.  An import written
``import x as x`` or ``from m import x as x`` is an explicit re-export: the
module offers the name to its importers and need not use it itself.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zenolock"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of each import that is not an explicit re-export."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source: str) -> list:
    """(line, name) of every import in ``source`` whose name the module never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_unused_and_reexported_names():
    source = (
        "import math\n"
        "import os.path\n"
        "from numpy import array as arr, zeros\n"
        "from .hilbert import Atom as Atom\n"
        "from .hilbert import Mode\n"
        "__all__ = ['Mode']\n"
        "x = os.path.join(arr)\n"
    )
    assert unused_imports(source) == [(1, "math"), (3, "zeros")]
