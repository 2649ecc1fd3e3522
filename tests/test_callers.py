"""Every function, class and public method of zenolock has a caller in src/.

Each module of ``src/zenolock`` is parsed with :mod:`ast`, as in
``test_unused_imports.py``.  A top-level function or class counts as called
when some module of the package reads its name bare or as an attribute of a
module it imports; a method of a top-level class whose name has no leading
underscore counts as called when an attribute of that name is read on any
other object.  The check goes by name only, so a local variable never hides
a method, nor a method a function.  A name that only a demo, a test oracle
or the benchmark harness uses is listed in ``ALLOWED`` with the file that
uses it, and the list must hold exactly the names without a caller.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted((REPO / "src" / "zenolock").glob("*.py"))

# module.name -> the file outside src/ that uses it
ALLOWED = {
    "hilbert._propagate": "tests/kronecker_oracles.py",
    "parallel.thread_limit": "perfbench/tracer.py",
    "readout.readout_phase": "demos/04_clock_readout.py",
    "tracefile.read_csv": "perfbench/gate.py",
    "zeno_multilevel.three_level_config": "demos/03_three_vs_four_levels.py",
    "zeno_multilevel.leakage": "demos/03_three_vs_four_levels.py",
    "zeno_two_level.superradiant_state": "tests/test_acceptance.py",
    "zeno_two_level.ps_analytic": "tests/test_acceptance.py",
}


def _definitions(tree: ast.Module) -> list:
    """(qualified name, name, is a method) of each top-level def and class and public method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name, False))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name, True) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def _reads(tree: ast.Module, packaged: set) -> tuple:
    """Names read bare or on an imported module, and attributes read on anything else."""
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {alias.asname or alias.name.split(".")[0] for node in imports
               for alias in node.names if isinstance(node, ast.Import) or alias.name in packaged}
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            on_module = isinstance(node.value, ast.Name) and node.value.id in modules
            (names if on_module else attributes).add(node.attr)
    return names, attributes


def uncalled(sources: dict) -> set:
    """module.name of each definition in ``sources`` (module -> text) no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names, attributes = set(), set()
    for tree in trees.values():
        tree_names, tree_attributes = _reads(tree, set(trees))
        names |= tree_names
        attributes |= tree_attributes
    return {f"{module}.{qualified}" for module, tree in trees.items()
            for qualified, name, method in _definitions(tree)
            if name not in (attributes if method else names)}


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
        "def evolve():\n"
        "    pass\n"
        "class Section:\n"
        "    def get_float(self):\n"
        "        pass\n"
        "    def probability(self):\n"
        "        pass\n"
        "    def _raw(self):\n"
        "        pass\n"
        "    def run(self):\n"
        "        probability = used()\n"
        "        return probability\n"
        "Section().run()\n"
    )
    # b reads a.helper on the module, and evolve only as an evolver's method
    other = "from . import a as alias\nalias.helper()\nevolver.evolve()\n"
    assert uncalled({"a": source + "def helper():\n    pass\n", "b": other}) == {
        "a.unused", "a.evolve", "a.Section.get_float", "a.Section.probability"}
