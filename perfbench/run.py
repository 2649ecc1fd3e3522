"""Benchmark of the zenolock CLI: each workload runs in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload {ensemble,lock-pair,clock-chain}
                             [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced executions.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every execution passed the
correctness gate.  See perfbench/README.md.
"""

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import scaled
from workloads import DEFAULT_SEED, WORKLOADS, build_steps

ROOT = Path(__file__).resolve().parent.parent
WORK = "perfbench/.work"
RUN_DEADLINE_S = 150.0   # a whole benchmark run has to end within 180 s
PROGRAM_THREADS = "2"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("busy_fraction", "record_ratio")):
        return "share"
    return "count"


def child_env(threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["ZENOLOCK_THREADS"] = threads
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload: str, steps: list, trace: bool, threads: str,
              deadline: float) -> dict:
    """Execute the workload once in a fresh interpreter; return its result.

    A result that could not be produced carries a ``failure`` message.
    """
    work = ROOT / WORK / workload
    shutil.rmtree(work / "out", ignore_errors=True)
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0.0:
        return {"failure": "run deadline reached"}
    spec = {"steps": steps, "trace": trace, "src": str(ROOT / "src"),
            "spans": f"{WORK}/{workload}/spans.json" if trace else None,
            "spawned": time.monotonic()}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/child.py", str(spec_path), str(result_path)],
            cwd=ROOT, env=child_env(threads), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failure": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failure": f"child exited {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def failures_of(result: dict, reference) -> list:
    if "failure" in result:
        return [result["failure"]]
    reasons = list(result["gate_errors"])
    reasons += [f"crash: {text.strip().splitlines()[-1]}" for text in result["crashes"]]
    if reference is not None and result["digests"] != reference:
        changed = sorted(k for k in set(reference) | set(result["digests"])
                         if reference.get(k) != result["digests"].get(k))
        reasons.append(f"output digests differ from the first run: {', '.join(changed)}")
    return reasons


def tail_percentile(samples: list):
    """Highest percentile (>= 50) with at least ten samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    rank = math.ceil(q * n / 100)
    return q, sorted(samples)[rank - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, versions: dict) -> dict:
    env = child_env(PROGRAM_THREADS)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "threads": {var: env[var] for var in ("ZENOLOCK_THREADS", *BLAS_THREAD_VARS)},
        "seed": seed,
        "commit": _git_commit(),
    }


class Session:
    """Executions of one workload in one benchmark run, and their verdicts."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.steps = build_steps(workload, seed, f"{WORK}/{workload}/out")
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.samples = {False: [], True: []}   # traced? -> passing results
        self.failed = []                       # (label, reasons)
        self.attempted = 0
        self.reference = None                  # digests of the first timed execution

    def judge(self, label: str, result: dict) -> bool:
        self.attempted += 1
        reasons = failures_of(result, self.reference)
        if reasons:
            self.failed.append((label, reasons))
        return not reasons

    def measure(self, seconds: float, trace: bool) -> dict:
        """Untimed one-thread execution, then timed ones for ``seconds``."""
        # Untimed: warms the file cache, and checks the outputs at one program
        # thread against the timed runs (byte-identical at any thread count).
        single = run_child(self.workload, self.steps, False, "1", self.deadline)
        kinds = itertools.cycle((False, True)) if trace else itertools.repeat(False)
        window = time.monotonic()
        last = 0.0
        for index, traced in enumerate(kinds):
            elapsed = time.monotonic() - window
            # an execution starts only if it is expected to end inside the window
            if elapsed + last > seconds and (not trace or self.samples[True] or index >= 2):
                break
            if time.monotonic() + last > self.deadline:
                print(f"note: stopped measuring after {elapsed:.1f} s, the run deadline is near")
                break
            begun = time.monotonic()
            result = run_child(self.workload, self.steps, traced, PROGRAM_THREADS,
                               self.deadline)
            last = time.monotonic() - begun
            if self.reference is None and "digests" in result:
                self.reference = result["digests"]
            if self.judge(f"timed {index} ({'traced' if traced else 'untraced'})", result):
                self.samples[traced].append(result)
        self.judge("one program thread", single)
        return single


def _scaled_median(runs: list, key: str) -> float:
    return statistics.median(scaled(r[key], r["probe_s"]) for r in runs)


def end_to_end(session: Session) -> dict:
    runs = session.samples[False]
    metrics = {}
    if runs:
        metrics["wall_s"] = _scaled_median(runs, "wall_s")
        metrics["setup_s"] = _scaled_median(runs, "setup_s")
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    metrics["ok_share"] = 1.0 - len(session.failed) / session.attempted
    return metrics


def per_layer(session: Session) -> dict:
    untraced, traced = session.samples[False], session.samples[True]
    metrics = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
    if untraced and traced:
        metrics["trace.overhead_s"] = (_scaled_median(traced, "wall_s")
                                       - _scaled_median(untraced, "wall_s"))
        metrics["harness.wall_raw_s"] = statistics.median(r["wall_s"] for r in untraced)
        metrics["harness.probe_s"] = statistics.median(
            r["probe_s"] for r in (*untraced, *traced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/zenolock/cli.py", "configs/defaults.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a zenolock checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    work = ROOT / WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    session = Session(args.workload, args.seed)
    single = session.measure(args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(session)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(session)
        units = END_TO_END_UNITS
    correct = not session.failed and bool(session.samples[bool(args.trace)])

    runs = [*session.samples[False], *session.samples[True], single]
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    untraced = session.samples[False]
    detail = {
        "workload": args.workload,
        "environment": environment(args.seed, versions),
        "unscaled": {key: [r[key] for r in untraced]
                     for key in ("wall_s", "setup_s", "probe_s", "peak_rss_mb")},
        "failures": session.failed,
        "metrics": metrics,
    }
    (work / "summary.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {session.attempted} executions, "
          f"{len(session.failed)} failed, {time.monotonic() - started:.1f} s")
    print("environment " + json.dumps(detail["environment"]))
    walls = detail["unscaled"]["wall_s"]
    if walls:
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                     else "no tail percentile (fewer than 20 samples)")
        print(f"unscaled wall time over n={len(walls)} untraced executions: median "
              f"{statistics.median(walls):.4f} s, {tail_text}; probe median "
              f"{statistics.median(detail['unscaled']['probe_s']):.4f} s")
    print(f"failed_share {len(session.failed) / session.attempted:.4f}")
    for label, reasons in session.failed:
        for reason in reasons:
            print(f"FAILED {label}: {reason}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": len(session.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
