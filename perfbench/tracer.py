"""Span tracer that wraps zenolock's layer functions from outside the package.

A span carries a name, a start, an end, the id of the span that caused it,
and the counts recorded at the same boundary.  Each thread keeps its own
parent stack; a task submitted through ``parallel_map`` is parented to the
map span explicitly, because a pool thread's stack starts empty.  Spans stay
in memory until the run ends.

Self time is a span's duration minus the union of its children's intervals.
Children of one span can run concurrently on pool threads, so their
durations are not simply subtracted.  ``parallel.map`` and ``parallel.task``
spans are transparent for self time: the work inside a task belongs to the
function that submitted it.
"""

import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent, attrs: dict):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs = attrs

    def as_list(self) -> list:
        return [self.id, self.name, self.parent, self.start, self.end, self.attrs]


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent=None, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, parent, attrs)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)


def _cycles(config) -> int:
    # The cycle count both Zeno protocols iterate, derived from their inputs.
    return int(math.floor(config.final_time / config.cycle_time + 1e-9))


def _protocol_counts(arguments, trace) -> dict:
    return {"cycles": _cycles(arguments["config"]), "recorded": len(trace.times) - 1}


def _cos_evals(arguments, _) -> dict:
    config = arguments["config"]
    per_point = config.replicas * (1 if arguments["locked"] else config.atom_count)
    return {"cos_evals": per_point * len(config.time_grid)}


# (module, function or Class.method, span name, counts recorded at the boundary)
LAYER_FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("configfile", "load_config", "configfile.load_config", None),
    ("tracefile", "write_csv", "tracefile.write_csv",
     lambda a, _: {"rows": int(a["record"].rows.shape[0]),
                   "bytes": os.path.getsize(a["path"])}),
    ("dephasing", "sample_all_replicas", "dephasing.sample_all_replicas",
     lambda a, _: {"generators": a["config"].replicas}),
    ("dephasing", "monte_carlo_mean_cos", "dephasing.monte_carlo_mean_cos", _cos_evals),
    ("dephasing", "bandwidth_histogram", "dephasing.bandwidth_histogram", None),
    ("dephasing", "fit_efold_time", "dephasing.fit_efold_time", None),
    ("zeno_two_level", "run_protocol", "zeno_two_level.run_protocol", _protocol_counts),
    ("zeno_two_level", "build_two_level_hamiltonian",
     "zeno_two_level.build_two_level_hamiltonian", None),
    ("zeno_multilevel", "run_four_level_protocol", "zeno_multilevel.run_four_level_protocol",
     _protocol_counts),
    ("zeno_multilevel", "build_four_level_hamiltonian",
     "zeno_multilevel.build_four_level_hamiltonian", None),
    ("hilbert", "OperatorMatrix.__init__", "hilbert.operator",
     lambda a, _: {"dimension": a["basis"].dimension}),
    ("hilbert", "BlockEvolver.__init__", "hilbert.block_evolver", None),
    # Every exact propagation passes through one of these two kernels:
    # evolve() and the cycle-map builds call _propagate, BlockEvolver.evolve
    # calls propagate.
    ("hilbert", "_propagate", "hilbert.evolve", None),
    ("hilbert", "BlockEvolver.propagate", "hilbert.evolve", None),
    ("readout", "readout_chain", "readout.readout_chain", None),
    ("readout", "emit_field_trace", "readout.emit_field_trace",
     lambda a, _: {"samples": len(a["config"].readout_times)}),
    ("readout", "emission_model", "readout.emission_model", None),
)


def _traced(tracer: Tracer, original, name: str, annotate):
    signature = inspect.signature(original) if annotate else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(annotate(bound.arguments, result))
            return result

    return wrapper


def _traced_parallel_map(tracer: Tracer, original, thread_limit):
    @functools.wraps(original)
    def wrapper(fn, items, max_workers=None):
        items = list(items)
        # the pool size parallel_map uses for these arguments
        workers = max(1, min(max_workers or thread_limit(), len(items)))
        with tracer.span("parallel.map", tasks=len(items), workers=workers) as span:
            def task(item, parent=span.id):
                with tracer.span("parallel.task", parent=parent):
                    return fn(item)

            return original(task, items, max_workers)

    return wrapper


def _rebind(original, wrapper) -> None:
    """Replace ``original`` under every name a zenolock module bound it to.

    This catches names imported directly, such as ``cli.parallel_map``,
    ``dephasing.parallel_map``, ``cli.write_csv`` and ``cli.load_config``.
    """
    for name, module in list(sys.modules.items()):
        if name == "zenolock" or name.startswith("zenolock."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of an imported zenolock package."""
    import zenolock.cli  # noqa: F401  (imports every layer module)

    parallel = sys.modules["zenolock.parallel"]
    original = parallel.parallel_map
    _rebind(original, _traced_parallel_map(tracer, original, parallel.thread_limit))
    for module_name, path, span_name, annotate in LAYER_FUNCTIONS:
        owner = sys.modules[f"zenolock.{module_name}"]
        *classes, attr = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        wrapper = _traced(tracer, original, span_name, annotate)
        if classes:
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)


def _union_length(intervals) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced workload execution.

    Metrics of a layer the workload never calls read 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)

    def effective_children(span):
        out = []
        for child in children[span.id]:
            if child.name.startswith("parallel."):
                out += effective_children(child)
            else:
                out.append(child)
        return out

    def self_time(span):
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in effective_children(span))
        return span.end - span.start - covered

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def total_self(name):
        return sum(self_time(s) for s in by_name[name])

    def count(name, attr=None):
        if attr is None:
            return len(by_name[name])
        return sum(s.attrs[attr] for s in by_name[name])

    def ratio(numerator, denominator):
        return numerator / denominator if denominator > 0 else 0.0

    metrics = {}
    mc_self = total_self("dephasing.monte_carlo_mean_cos")
    cos_evals = count("dephasing.monte_carlo_mean_cos", "cos_evals")
    metrics.update({
        "dephasing.sample_s": total("dephasing.sample_all_replicas"),
        "dephasing.generators": count("dephasing.sample_all_replicas", "generators"),
        "dephasing.mc_s": mc_self,
        "dephasing.cos_evals": cos_evals,
        "dephasing.cos_evals_per_s": ratio(cos_evals, mc_self),
        "dephasing.histogram_s": total_self("dephasing.bandwidth_histogram"),
        "dephasing.fit_s": total("dephasing.fit_efold_time"),
    })

    maps = by_name["parallel.map"]
    metrics.update({
        "parallel.maps": len(maps),
        "parallel.tasks": count("parallel.map", "tasks"),
        "parallel.busy_fraction": ratio(
            total("parallel.task"),
            sum((s.end - s.start) * s.attrs["workers"] for s in maps)),
    })

    for layer, protocol, hamiltonian in (
            ("zeno_two_level", "run_protocol", "build_two_level_hamiltonian"),
            ("zeno_multilevel", "run_four_level_protocol", "build_four_level_hamiltonian")):
        name = f"{layer}.{protocol}"
        cycles = count(name, "cycles")
        recorded = count(name, "recorded")
        metrics[f"{layer}.protocol_s"] = total(name)
        metrics[f"{layer}.hamiltonian_s"] = total(f"{layer}.{hamiltonian}")
        metrics[f"{layer}.cycles"] = cycles
        if layer == "zeno_two_level":
            metrics[f"{layer}.recorded_points"] = recorded
        metrics[f"{layer}.record_ratio"] = ratio(recorded, cycles)
        # the protocol's self time is its cycle loop: Hamiltonian builds,
        # block evolvers and propagations are traced children
        metrics[f"{layer}.cycles_per_s"] = ratio(cycles, total_self(name))

    dimensions = [s.attrs["dimension"] for s in by_name["hilbert.operator"]]
    metrics.update({
        "hilbert.operators": len(dimensions),
        "hilbert.operator_bytes": sum(16 * d * d for d in dimensions),
        "hilbert.max_dimension": max(dimensions, default=0),
        "hilbert.block_evolver_s": total("hilbert.block_evolver"),
        "hilbert.evolve_calls": count("hilbert.evolve"),
        "hilbert.evolve_s": total("hilbert.evolve"),
    })

    emit_s = total("readout.emit_field_trace")
    metrics.update({
        "readout.chain_s": total("readout.readout_chain"),
        "readout.emit_s": emit_s,
        "readout.emission_model_builds": count("readout.emission_model"),
        "readout.emission_model_s": total("readout.emission_model"),
        "readout.samples_per_s": ratio(count("readout.emit_field_trace", "samples"), emit_s),
    })

    write_s = total("tracefile.write_csv")
    rows = count("tracefile.write_csv", "rows")
    metrics.update({
        "tracefile.write_s": write_s,
        "tracefile.rows": rows,
        "tracefile.bytes": count("tracefile.write_csv", "bytes"),
        "tracefile.rows_per_s": ratio(rows, write_s),
        "cli.self_s": total_self("cli.main"),
        "configfile.load_s": total("configfile.load_config"),
    })
    return metrics
