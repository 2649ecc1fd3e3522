"""The names perfbench's tracer wraps still exist in the package.

``perfbench/tracer.py`` wraps layer functions by module and name, and its
count annotations read call arguments by parameter name and attributes of
those arguments and of the result.  A rename in ``src/`` would otherwise
surface only when the benchmark runs.  The tracer is imported from its
file; nothing is wrapped.  Each annotation is called on one real call of
its function with the smallest inputs.
"""

import importlib
import importlib.util
import inspect
import numbers
import sys
from pathlib import Path

import numpy as np
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


MODULE_FUNCTIONS = [entry for entry in tracer.LAYER_FUNCTIONS if "." not in entry[1]]


@pytest.mark.parametrize("module_name, path, span_name, annotate", MODULE_FUNCTIONS,
                         ids=[entry[2] for entry in MODULE_FUNCTIONS])
def test_wrapped_function_has_no_alias(module_name, path, span_name, annotate):
    # install() rebinds every name bound to a wrapped function, so an alias
    # would record this span for calls made under the other name
    importlib.import_module("zenolock.cli")  # imports every layer module
    target = _resolve(module_name, path)
    aliases = [f"{name}.{key}" for name, module in list(sys.modules.items())
               if name == "zenolock" or name.startswith("zenolock.")
               for key, value in vars(module).items() if value is target and key != path]
    assert aliases == []


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


@pytest.fixture(scope="module")
def smallest_calls(tmp_path_factory):
    """span name -> (args, kwargs) of one call of the wrapped function on small inputs."""
    from zenolock import dephasing, hilbert, readout, tracefile
    from zenolock import zeno_multilevel as zm
    from zenolock import zeno_two_level as z2

    ensemble = dephasing.EnsembleConfig(atom_count=2, center_frequency=100.0, fwhm=10.0,
                                        seed=1, time_max=0.1, time_points=2, replicas=2)
    config = readout.readout_config(time_points=5)
    state, _ = readout.readout_chain(config, 0.0)
    record = tracefile.TraceRecord("t", ("a", "b"), np.eye(2))
    operator = object.__new__(hilbert.OperatorMatrix)
    return {
        "tracefile.write_csv": ((record, tmp_path_factory.mktemp("csv") / "t.csv"), {}),
        "dephasing.sample_all_replicas": ((ensemble,), {}),
        "dephasing.monte_carlo_mean_cos": ((ensemble,), {}),
        "zeno_two_level.run_protocol": ((z2.config_for_cycle_time(0.01, 0.02),), {}),
        "zeno_multilevel.run_four_level_protocol": (
            (zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.01, final_time=0.02,
                                              photon_number=1),), {}),
        "hilbert.operator": ((operator, hilbert.build_basis([hilbert.Mode(1)]), np.eye(2)), {}),
        "readout.emit_field_trace": ((state, readout.emission_model(config)), {}),
    }


ANNOTATED = [entry for entry in tracer.LAYER_FUNCTIONS if entry[3] is not None]


@pytest.mark.parametrize("module_name, path, span_name, annotate", ANNOTATED,
                         ids=[entry[2] for entry in ANNOTATED])
def test_annotation_counts_a_real_call(smallest_calls, module_name, path, span_name, annotate):
    # bound and annotated as tracer._traced does it
    args, kwargs = smallest_calls[span_name]
    target = _resolve(module_name, path)
    result = target(*args, **kwargs)
    bound = inspect.signature(target).bind(*args, **kwargs)
    bound.apply_defaults()
    counts = annotate(bound.arguments, result)
    assert counts
    for value in counts.values():
        assert isinstance(value, numbers.Real) and not isinstance(value, bool)
        assert value >= 0
