"""One workload execution in a fresh interpreter.

Usage: python3 perfbench/child.py <spec.json> <result.json>

The spec names the CLI steps, whether to trace, the source directory the
zenolock package must come from, and when the parent spawned this process.
The child imports ``zenolock.cli`` (set-up: from the spawn to the end of
that import), times the span from the first ``cli.main`` call to the last
return, records its peak RSS, then applies the correctness gate and digests
the outputs.  The machine-speed probe runs right before and right after
the timed span.  It writes one JSON result.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

EXIT_WRONG_PACKAGE = 3


def _library_versions() -> dict:
    import numpy
    import scipy

    versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        versions["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        versions["blas"] = "unknown"
    return versions


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result_path = Path(sys.argv[2])

    from zenolock import cli

    setup_s = time.monotonic() - spec["spawned"]   # CLOCK_MONOTONIC is system-wide
    source = Path(spec["src"]).resolve()
    if source not in Path(cli.__file__).resolve().parents:
        print(f"zenolock imported from {cli.__file__}, not from {source}", file=sys.stderr)
        return EXIT_WRONG_PACKAGE

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)

    from machine import probe

    codes = []
    crashes = []
    probe_before = probe()
    started = time.perf_counter()
    for step in spec["steps"]:
        try:
            codes.append(cli.main(step["argv"]))
        except Exception:  # a traceback is exit code 1 of the real CLI
            codes.append(1)
            crashes.append(traceback.format_exc())
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_s = 0.5 * (probe_before + probe())

    import gate

    errors = []
    for step, code in zip(spec["steps"], codes):
        errors += gate.check_step(step["command"], Path(step["out"]), code)
    result = {
        "wall_s": wall,
        "setup_s": setup_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss_mb,
        "codes": codes,
        "crashes": crashes,
        "gate_errors": errors,
        "digests": gate.digest_outputs(step["out"] for step in spec["steps"]),
        "versions": _library_versions(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        spans_path = spec.get("spans")
        if spans_path:
            Path(spans_path).write_text(
                json.dumps([span.as_list() for span in tracer.spans]), encoding="utf-8")
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
