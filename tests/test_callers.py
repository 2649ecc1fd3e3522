"""Every function, class and public method of zenolock has a caller in src/.

Each module of ``src/zenolock`` is parsed with :mod:`ast`, as in
``test_unused_imports.py``.  A top-level function or class, or a method of a
top-level class whose name has no leading underscore, counts as called when
some module of the package reads its name, bare or as an attribute.  The
check goes by name only: a method counts as called when an attribute of that
name is read on any object.  A name that only a demo, a test oracle or the
benchmark harness uses is listed in ``ALLOWED`` with the file that uses it,
and the list must hold exactly the names without a caller.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted((REPO / "src" / "zenolock").glob("*.py"))

# module.name -> the file outside src/ that uses it
ALLOWED = {
    "hilbert.StateVector.fidelity": "demos/02_two_atom_zeno_locking.py",
    "parallel.thread_limit": "perfbench/tracer.py",
    "readout.readout_phase": "demos/04_clock_readout.py",
    "tracefile.read_csv": "perfbench/gate.py",
    "zeno_multilevel.three_level_config": "demos/03_three_vs_four_levels.py",
    "zeno_multilevel.leakage": "demos/03_three_vs_four_levels.py",
    "zeno_multilevel.cross_manifold_population": "demos/03_three_vs_four_levels.py",
    "zeno_two_level.superradiant_state": "tests/test_acceptance.py",
    "zeno_two_level.ps_analytic": "tests/test_acceptance.py",
}


def _definitions(tree: ast.Module) -> list:
    """(qualified name, name) of each top-level def and class and public method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def uncalled(sources: dict) -> set:
    """module.name of each definition in ``sources`` (module -> text) no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {f"{module}.{qualified}" for module, tree in trees.items()
            for qualified, name in _definitions(tree) if name not in read}


def test_every_definition_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert uncalled(sources) == set(ALLOWED)


@pytest.mark.parametrize("name, user", sorted(ALLOWED.items()))
def test_allowed_name_is_used_where_listed(name, user):
    called = re.compile(rf"\b{name.rsplit('.', 1)[-1]}\(")
    assert called.search((REPO / user).read_text(encoding="utf-8"))


def test_check_sees_uncalled_names():
    source = (
        "def used():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
        "class Section:\n"
        "    def get_float(self):\n"
        "        pass\n"
        "    def _raw(self):\n"
        "        pass\n"
        "    def run(self):\n"
        "        used()\n"
        "Section().run()\n"
    )
    assert uncalled({"a": source, "b": "import a\na.Other\n"}) == {"a.unused",
                                                                   "a.Section.get_float"}
