"""No zenolock module keeps state that a subcommand created or changed.

Each subcommand runs once in a fresh interpreter that has imported every
module of the package.  The globals of every module are taken before and
after the run: each global's identity, and its value, followed through
containers, arrays (by their bytes), instance attributes, the attributes
of the package's classes and of its functions (defaults, closure cells,
cache statistics).  Interpreter-set dunder globals (``__builtins__``,
``__spec__``, ...) are compared by identity.  A reuse across calls belongs
in the call that needs it, as an argument, so nothing may differ.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

CONFIGS = {
    "zeno2": "[zeno2]\nphoton_number = 2\ncycle_times = 0.01, 0.02\nfinal_time = 0.2\n",
    "zeno4": "[zeno4]\nphoton_number = 2\ncycle_times = 0.02\nfinal_time = 0.2\n",
    "readout": "[readout]\nclock_phases = 0.0, 1.0, 2.0\ntime_points = 201\n",
    "dephasing": ("[dephasing]\natom_count = 16\nreplicas = 30\ntime_points = 11\n"
                  "histogram_replicas = 45\n"),
    "allan": "[allan]\n",
}

SCRIPT = r'''
import importlib, json, pkgutil, sys, types
import numpy as np
import zenolock
from zenolock import cli

modules = [zenolock] + [importlib.import_module(f"zenolock.{info.name}")
                        for info in pkgutil.iter_modules(zenolock.__path__)]
OPAQUE = (types.ModuleType, types.BuiltinFunctionType, types.MethodWrapperType,
          types.WrapperDescriptorType)


def own(value):
    return getattr(value, "__module__", "").split(".")[0] == "zenolock"


def fingerprint(value, path=()):
    """A comparable picture of ``value`` and of everything it holds."""
    if id(value) in path:
        return ["cycle"]
    path = path + (id(value),)
    inner = lambda item: fingerprint(item, path)
    entries = lambda mapping: [[inner(k), inner(v)] for k, v in mapping.items()]
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return [type(value).__name__, repr(value)]
    if isinstance(value, float):
        return ["float", value.hex()]
    if isinstance(value, np.ndarray):
        return ["ndarray", value.dtype.str, list(value.shape), value.flags.writeable,
                value.tobytes().hex()]
    if isinstance(value, OPAQUE):
        return [type(value).__name__, id(value)]
    if isinstance(value, dict) or type(value).__name__ == "mappingproxy":
        return ["dict", id(value), entries(value)]
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [type(value).__name__, id(value), [inner(item) for item in items]]
    if isinstance(value, type):
        if not own(value):
            return ["type", id(value)]
        return ["type", id(value), entries({k: v for k, v in vars(value).items()
                                            if not k.startswith("__")})]
    if hasattr(value, "__code__") or hasattr(value, "cache_info"):
        cells = getattr(value, "__closure__", None) or ()
        return ["function", id(value), inner(getattr(value, "__defaults__", None)),
                inner(getattr(value, "__kwdefaults__", None)),
                [inner(cell.cell_contents) for cell in cells],
                entries({k: v for k, v in vars(value).items() if k != "__wrapped__"}),
                list(value.cache_info()) if hasattr(value, "cache_info") else None]
    attrs = {}
    for klass in type(value).__mro__:
        for slot in klass.__dict__.get("__slots__", ()):
            if hasattr(value, slot):
                attrs[slot] = getattr(value, slot)
    if hasattr(value, "__dict__"):
        attrs.update(vars(value))
    return [type(value).__qualname__, id(value), entries(attrs), "" if attrs else repr(value)]


def globals_of():
    taken = {}
    for module in modules:
        for name, value in vars(module).items():
            dunder = name.startswith("__") and name.endswith("__")
            taken[f"{module.__name__}.{name}"] = [id(value)] if dunder else fingerprint(value)
    return taken


before = globals_of()
code = cli.main(sys.argv[1:])
after = globals_of()
changed = sorted(name for name in before.keys() | after.keys()
                 if before.get(name) != after.get(name))
cached = sorted(f"{module.__name__}.{name}" for module in modules
                for name, value in vars(module).items()
                if callable(value) and hasattr(value, "cache_info"))
print(json.dumps({"code": code, "changed": changed, "cached": cached}))
'''


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_subcommand_leaves_every_module_global_unchanged(tmp_path, command):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIGS[command])
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", SCRIPT, *argv], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["changed"] == []
    assert report["cached"] == []
