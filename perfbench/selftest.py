"""Self-test of the benchmark harness on shrunken inputs.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs every workload once, traced, on small configs (Zeno runs of 10^3
cycles, a short readout grid, 61 Monte Carlo grid points), then checks that
the gate passes the clean outputs and flags a corrupted CSV, changed output
digests and a nonzero exit, and that the traced runs emitted parented spans
for every traced module.  Exits 0 when every check holds.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS, build_steps

sys.path.insert(0, str(run.ROOT / "src"))
import gate  # noqa: E402  (needs zenolock on the path)

WORK = f"{run.WORK}/selftest"
MODULES = ("cli", "configfile", "tracefile", "parallel", "dephasing",
           "zeno_two_level", "zeno_multilevel", "hilbert", "readout")
SMALL_CONFIG = """
[dephasing]
replicas = 10000
histogram_replicas = 2000
time_points = 61

[zeno2]
cycle_times = 0.001, 0.05
final_time = 1.0

[zeno4]
final_time = 1.0

[readout]
clock_phases = 0.0, 1.5707963267948966, 3.141592653589793, 4.71238898038469
time_points = 1501
time_max = 2.5
fit_periods = 16
"""
BROKEN_CONFIG = "[zeno2]\nno_such_key = 1\n"


class SelfTest:
    def __init__(self):
        self.failures = 0
        self.deadline = time.monotonic() + 600.0

    def check(self, condition: bool, what: str) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {what}")
        self.failures += not condition

    def execute(self, label: str, steps: list, trace: bool = True) -> dict:
        (run.ROOT / WORK / label).mkdir(parents=True, exist_ok=True)
        return run.run_child(f"selftest/{label}", steps, trace, run.PROGRAM_THREADS,
                             self.deadline)


def _spans(label: str) -> list:
    return json.loads((run.ROOT / WORK / label / "spans.json").read_text(encoding="utf-8"))


def main() -> int:
    shutil.rmtree(run.ROOT / WORK, ignore_errors=True)
    (run.ROOT / WORK).mkdir(parents=True)
    config = f"{WORK}/small.cfg"
    (run.ROOT / config).write_text(SMALL_CONFIG, encoding="utf-8")
    test = SelfTest()

    modules_seen = set()
    for workload, commands in WORKLOADS.items():
        configs = {command: config for command, _ in commands}
        steps = build_steps(workload, 1, f"{WORK}/{workload}/out", configs)
        result = test.execute(workload, steps)
        test.check(not run.failures_of(result, None),
                   f"{workload}: clean traced run passes the gate "
                   f"{run.failures_of(result, None) or ''}")
        if "failure" in result:
            continue
        spans = _spans(workload)
        ids = {span[0] for span in spans}
        orphans = [span[1] for span in spans if span[2] is not None and span[2] not in ids]
        roots = {span[1] for span in spans if span[2] is None}
        test.check(not orphans and roots == {"cli.main"},
                   f"{workload}: {len(spans)} spans, every one but cli.main has a parent")
        modules_seen |= {span[1].split(".")[0] for span in spans}
    missing = sorted(set(MODULES) - modules_seen)
    test.check(not missing, f"spans emitted for every module {missing or ''}")

    out = run.ROOT / WORK / "lock-pair" / "out" / "zeno2"
    csv = out / "zeno2_cycle_0.001.csv"
    if csv.is_file():
        reference = gate.digest_outputs([out])
        clean = csv.read_text(encoding="utf-8")
        lines = clean.splitlines()
        fields = lines[-1].split(",")
        fields[1] = repr(0.5 * float(fields[1]))
        csv.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n", encoding="utf-8")
        test.check(bool(gate.check_step("zeno2", out, 0)),
                   "gate flags a CSV whose survival curve was altered")
        changed = {"gate_errors": [], "crashes": [], "digests": gate.digest_outputs([out])}
        test.check(bool(run.failures_of(changed, reference)),
                   "determinism check flags changed output digests")
        csv.write_text("\n".join(lines[:-1] + [",".join(fields[:-1])]) + "\n",
                       encoding="utf-8")
        test.check(bool(gate.check_step("zeno2", out, 0)),
                   "gate flags a CSV with a truncated row")
        csv.write_text(clean, encoding="utf-8")
        test.check(not gate.check_step("zeno2", out, 0), "gate passes the restored CSV")
    else:
        test.check(False, "lock-pair wrote zeno2_cycle_0.001.csv")

    broken = f"{WORK}/broken.cfg"
    (run.ROOT / broken).write_text(BROKEN_CONFIG, encoding="utf-8")
    steps = build_steps("lock-pair", 1, f"{WORK}/broken/out", {"zeno2": broken})
    result = test.execute("broken", steps, trace=False)
    test.check(result.get("codes") == [2] and bool(run.failures_of(result, None)),
               "gate flags a CLI step that exits nonzero")

    print(f"{test.failures} failed checks")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
