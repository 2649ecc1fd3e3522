"""Correctness gate and output digests for one benchmarked workload execution.

The tolerances are those of the acceptance suite (tests/test_acceptance.py).
The per-point three-standard-error check of the dephasing curves is left
out because whether it holds depends on the seed.
"""

import hashlib
import math
from pathlib import Path

import numpy as np

from zenolock.tracefile import read_csv

EFOLD_TOLERANCE = 0.03        # efold ratio vs sqrt(N), relative
HISTOGRAM_TOLERANCE = 0.10    # histogram sigma ratio vs sqrt(N_hist), relative
SURVIVAL_TOLERANCE = {0.001: 0.02}   # max |P_S / analytic - 1| per cycle time
DEFAULT_SURVIVAL_TOLERANCE = 0.05
PHASE_TOLERANCE = 0.05        # radians, after wrapping


def read_manifest(path: Path) -> dict:
    """Manifest as {section: {key: value}}; header keys sit under ''."""
    sections = {"": {}}
    current = sections[""]
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif " = " in line:
            key, _, value = line.partition(" = ")
            current[key] = value
    return sections


def _relative_error(value: float, expected: float) -> float:
    return abs(value / expected - 1.0)


def _check_dephasing(results: dict, records: dict) -> list:
    errors = []
    for name in ("dephasing_independent", "dephasing_locked", "bandwidth_histograms"):
        if name not in records:
            errors.append(f"missing {name}.csv")
    ratio = _relative_error(float(results["efold_ratio"]),
                            float(results["efold_ratio_expected"]))
    if not ratio <= EFOLD_TOLERANCE:
        errors.append(f"efold ratio off sqrt(N) by {ratio:.4f} > {EFOLD_TOLERANCE}")
    sigma = _relative_error(float(results["histogram_sigma_ratio"]),
                            float(results["histogram_sigma_ratio_expected"]))
    if not sigma <= HISTOGRAM_TOLERANCE:
        errors.append(f"histogram sigma ratio off by {sigma:.4f} > {HISTOGRAM_TOLERANCE}")
    return errors


def _check_survival(command: str, resolved: dict, records: dict) -> list:
    errors = []
    cycle_times = [float(v) for v in resolved["cycle_times"].split(",")]
    for cycle in cycle_times:
        name = f"{command}_cycle_{cycle!r}"
        record = records.get(name)
        if record is None:
            errors.append(f"missing {name}.csv")
            continue
        column = {label: i for i, label in enumerate(record.columns)}
        rows = record.rows[1:]
        deviation = float(np.max(np.abs(
            rows[:, column["p_success"]] / rows[:, column["analytic_p_s"]] - 1.0)))
        tolerance = SURVIVAL_TOLERANCE.get(cycle, DEFAULT_SURVIVAL_TOLERANCE)
        if not deviation <= tolerance:
            errors.append(f"{name}: survival deviation {deviation:.4f} > {tolerance}")
    return errors


def _check_readout(results: dict, records: dict) -> list:
    errors = []
    index = 0
    while f"clock_phase_target_{index}" in results:
        target = float(results[f"clock_phase_target_{index}"])
        if f"readout_trace_{index}" not in records:
            errors.append(f"missing readout_trace_{index}.csv")
        raw = results[f"extracted_phase_{index}"]
        try:
            extracted = float(raw)
        except ValueError:
            errors.append(f"phase {index}: no fitted phase ({raw})")
            index += 1
            continue
        wrapped = (extracted - target + math.pi) % (2.0 * math.pi) - math.pi
        if not abs(wrapped) <= PHASE_TOLERANCE:
            errors.append(f"phase {index}: off target by {wrapped:+.4f} rad")
        index += 1
    if index == 0:
        errors.append("manifest lists no clock phases")
    return errors


def check_step(command: str, out_dir: Path, exit_code: int) -> list:
    """Reasons the outputs of one CLI step fail the gate; empty if they pass."""
    if exit_code != 0:
        return [f"{command} exited with code {exit_code}"]
    manifest_path = out_dir / "manifest.txt"
    if not manifest_path.is_file():
        return [f"{command}: no manifest written"]
    errors = []
    records = {}
    for path in sorted(out_dir.glob("*.csv")):
        try:
            record = read_csv(path)
        except (ValueError, OSError) as error:
            errors.append(f"{path.name} does not re-read: {error}")
            continue
        if record.rows.shape[0] == 0 or not np.all(np.isfinite(record.rows)):
            errors.append(f"{path.name} is empty or holds non-finite values")
            continue
        records[path.stem] = record
    if not records and not errors:
        errors.append(f"{command}: no CSV written")
    manifest = read_manifest(manifest_path)
    results = manifest.get("results", {})
    resolved = manifest.get("resolved", {})
    try:
        if command == "dephasing":
            errors += _check_dephasing(results, records)
        elif command in ("zeno2", "zeno4"):
            errors += _check_survival(command, resolved, records)
        elif command == "readout":
            errors += _check_readout(results, records)
    except (KeyError, ValueError) as error:
        errors.append(f"{command}: manifest incomplete ({error!r})")
    return errors


def digest_outputs(out_dirs) -> dict:
    """sha256 of every CSV and manifest, keyed by '<directory>/<file name>'."""
    digests = {}
    for out_dir in out_dirs:
        out_dir = Path(out_dir)
        if not out_dir.is_dir():
            continue
        for path in sorted(out_dir.iterdir()):
            if path.suffix == ".csv" or path.name == "manifest.txt":
                digests[f"{out_dir.name}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return digests
