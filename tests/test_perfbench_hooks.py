"""The names perfbench's tracer wraps still exist in the package.

``perfbench/tracer.py`` wraps layer functions by module and name, and its
count annotations read call arguments by parameter name.  A rename in
``src/`` would otherwise surface only when the benchmark runs.  The tracer
is imported from its file; nothing is wrapped.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

# span name -> the call arguments its annotation reads by name
BOUND_ARGUMENTS = {
    "tracefile.write_csv": {"record", "path"},
    "dephasing.sample_all_replicas": {"config"},
    "dephasing.monte_carlo_mean_cos": {"config", "locked"},
    "zeno_two_level.run_protocol": {"config"},
    "zeno_multilevel.run_four_level_protocol": {"config"},
    "hilbert.operator": {"basis"},
    "readout.emit_field_trace": {"config"},
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(f"zenolock.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("module_name, path, span_name, annotate", tracer.LAYER_FUNCTIONS,
                         ids=[entry[2] + "/" + entry[1] for entry in tracer.LAYER_FUNCTIONS])
def test_layer_function_resolves(module_name, path, span_name, annotate):
    target = _resolve(module_name, path)
    assert callable(target)
    if annotate is None:
        return
    parameters = inspect.signature(target).parameters
    assert BOUND_ARGUMENTS[span_name] <= set(parameters)


def test_every_annotation_is_listed():
    annotated = {span for _, _, span, annotate in tracer.LAYER_FUNCTIONS if annotate}
    assert annotated == set(BOUND_ARGUMENTS)


def test_parallel_hooks_resolve():
    # install() wraps parallel_map(fn, items, max_workers) and sizes the pool
    # with thread_limit()
    parallel = importlib.import_module("zenolock.parallel")
    assert list(inspect.signature(parallel.parallel_map).parameters) == [
        "fn", "items", "max_workers"]
    assert callable(parallel.thread_limit)
