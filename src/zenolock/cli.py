"""Configuration-driven runs with deterministic CSV/SVG emission.

Subcommands: dephasing, zeno2, zeno4, readout, allan.  Every run writes a
manifest (resolved configuration, tool version, seed, result summary)
beside its outputs, and identical manifests produce byte-identical files
at any thread count (cap threads with ZENOLOCK_THREADS).

Exit codes: 0 success; 2 configuration error; 3 out-of-regime parameters
under --strict; 4 numerical-validity failure.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, dephasing, readout
from . import zeno_multilevel as zm
from . import zeno_two_level as z2
from .configfile import ConfigError, Section, load_config
from .parallel import parallel_map
from .svgplot import line_plot
from .tracefile import TraceRecord, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OUT_OF_REGIME = 3
EXIT_NUMERICAL = 4

_DEFAULTS = {
    "dephasing": {
        "atom_count": "100",
        "center_frequency": "100.0",
        "fwhm": "10.0",
        "replicas": "10000",
        "seed": "20260808",
        "time_max": "0.1",
        "time_points": "201",
        "histogram_atom_count": "9",
        "histogram_replicas": "10000",
        "histogram_bins": "60",
    },
    "zeno2": {
        "half_difference": "2.0",
        "cycle_times": "0.001, 0.05",
        "photon_number": "12",
        "measure_ratio": "200",
        "survival_floor": "0.1",
        "final_time": "auto",
        "cavity_frequency": "100.0",
        "common_offset": "0.0",
        "trace_points": "800",
    },
    "zeno4": {
        "delta_1": "2.0",
        "delta_2": "2.0",
        "cycle_times": "0.001",
        "photon_number": "8",
        "measure_ratio": "200",
        "survival_floor": "auto",
        "final_time": "100.0",
        "transition_1": "120.0",
        "transition_2": "110.0",
        "trace_points": "400",
    },
    "readout": {
        "transition_1": "120.0",
        "transition_2": "110.0",
        "detuning": "10.0",
        "drive_amplitude": "1.0",
        "coupling": "2.0",
        "clock_phases": "0.0, 3.141592653589793",
        "time_max": "5.0",
        "time_points": "4001",
        "fit_periods": "32",
        "emission_cutoff": "2",
        "method": "full",
    },
    "allan": {
        "fwhm": "1.0",
        "carrier": "1e9",
        "atom_counts": "1, 4, 100, 10000",
        "cycle_time": "1.0",
        "averaging_times": "1, 4, 16, 100",
    },
}


# Largest size key a run may take (the Zeno photon number n, the readout
# emission cutoff c), so that its basis dimension d stays capped before
# anything is allocated.  Every run holds state vectors and sector blocks,
# which grow linearly with d, and the Zeno cycle-map build propagates one
# state vector per atom state (4 for zeno2, 16 for zeno4).  The readout
# emission sectors hold at most 9 states each.  With the default
# Fock cutoffs (n + 3 for the zeno2 mode, n + 2 for each zeno4 mode) the caps
# keep d = 4(n + 4) <= 2048 for zeno2, d = 16(n + 3)^2 <= 65,536 for zeno4
# and d = 16(c + 1) <= 2048 for readout.
_MAX_SIZE = {"zeno2": 508, "zeno4": 61, "readout": 127}
# Cap on time_points x 16(c + 1), which bounds the readout phase table
# exp(-i w t) on the resonant channel's sectors, time_points x 21 entries.
_MAX_PHASE_TABLE = 1 << 24
# The turn count target // TWO_PI rounds (target - target % TWO_PI) / TWO_PI
# with a relative error of up to 2^-52; the count stays exact while that error
# stays below half a turn, that is below 2^51 turns.  Up to this bound the
# reduction in cmd_readout is exact to about 1e-15 rad; beyond it the error
# grows with the target (2 rad at 1e300).
_MAX_CLOCK_PHASE = 2.0**51 * readout.TWO_PI


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain shortest round-trip form, also for numpy scalars
    if isinstance(value, (tuple, list)):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def _write_manifest(out_dir: Path, subcommand: str, config_path, config_text: str,
                    seed, emit_plots: bool, resolved: dict, results: dict,
                    flags: dict) -> None:
    digest = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
    lines = [
        "zenolock run manifest",
        f"version = {__version__}",
        f"subcommand = {subcommand}",
        f"config_file = {config_path}",
        f"config_sha256 = {digest}",
        f"seed = {seed if seed is not None else 'none'}",
        f"output_directory = {out_dir}",
        f"emit_plots = {str(bool(emit_plots)).lower()}",
        "",
        "[resolved]",
    ]
    for key in sorted(resolved):
        lines.append(f"{key} = {_format_value(resolved[key])}")
    lines.append("")
    lines.append("[results]")
    for key in sorted(results):
        lines.append(f"{key} = {_format_value(results[key])}")
    lines.append("")
    lines.append("[flags]")
    for key in sorted(flags):
        lines.append(f"{key} = {str(bool(flags[key])).lower()}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


class _NamedOverflow(OverflowError):
    """A float overflow whose message already names a config key."""


@contextlib.contextmanager
def _overflow_names(command: str, values: dict, quantity: str):
    """Re-raise a float overflow in the block naming the largest of ``values``.

    ``values`` maps the keys that ``quantity`` grows with to their values.
    An overflow that a nested block has named passes through unchanged.
    """
    try:
        yield
    except _NamedOverflow:
        raise
    except (OverflowError, FloatingPointError):
        key, value = max(values.items(), key=lambda item: abs(item[1]))
        raise _NamedOverflow(f"[{command}] {key} = {value!r} overflows {quantity}") from None


def _clock_phase_residue(target: float) -> float:
    """``target`` modulo the exact 2 pi, for |target| up to _MAX_CLOCK_PHASE."""
    # target mod 2 pi, less the 2.449e-16 per turn that TWO_PI falls short
    phase = target % readout.TWO_PI - target // readout.TWO_PI * 2.4492935982947064e-16
    return phase % readout.TWO_PI


def _provenance(subcommand: str, config_text: str, seed) -> dict:
    return {
        "tool": f"zenolock {__version__}",
        "subcommand": subcommand,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "seed": str(seed if seed is not None else "none"),
    }


def cmd_dephasing(section: Section, out_dir: Path, args, config_text: str):
    seed = args.seed if args.seed is not None else section.get_int("seed")
    atom_count = section.get_int("atom_count", minimum=1)
    f0 = section.get_float("center_frequency")
    fwhm = section.get_float("fwhm", positive=True)
    replicas = section.get_int("replicas", minimum=1)
    # the e-fold fit needs a curve, and the histogram sigma ratio a sample spread
    points = section.get_int("time_points", minimum=2)
    histogram_replicas = section.get_int("histogram_replicas", minimum=2)
    time_max = section.get_float("time_max", positive=True)
    bins = section.get_int("histogram_bins", minimum=1)
    histogram_atoms = section.get_int("histogram_atom_count", minimum=1)
    provenance = _provenance("dephasing", config_text, seed)

    config = dephasing.EnsembleConfig(atom_count=atom_count, center_frequency=f0,
                                      fwhm=fwhm, seed=seed, time_max=time_max,
                                      time_points=points, replicas=replicas)
    hist_config = dephasing.EnsembleConfig(
        atom_count=histogram_atoms, center_frequency=f0, fwhm=fwhm, seed=seed,
        time_max=1.0, time_points=2, replicas=histogram_replicas)
    sigma = config.sigma
    with _overflow_names("dephasing", {"center_frequency": f0, "fwhm": fwhm,
                                       "time_max": time_max},
                         "the sampled frequencies or the Monte Carlo phases"):
        grid = config.time_grid
        locked_grid = grid * math.sqrt(atom_count)
        locked_config = dataclasses.replace(config, time_max=locked_grid[-1])
        mc_ind, se_ind = dephasing.monte_carlo_mean_cos(config, locked=False)
        mc_lock, se_lock = dephasing.monte_carlo_mean_cos(locked_config, locked=True)
        with _overflow_names("dephasing", {"fwhm": fwhm, "time_max": time_max},
                             "the envelope exponent (2 pi sigma t)^2 / 2"):
            analytic_ind = dephasing.envelope_independent(grid, sigma, f0)
            analytic_lock = dephasing.envelope_locked(locked_grid, sigma, f0, atom_count)
        histograms = dephasing.bandwidth_histogram(hist_config, bins=bins)

    independent = TraceRecord(
        name="dephasing_independent",
        columns=("t", "analytic", "mc_mean", "mc_se"),
        rows=np.column_stack([grid, analytic_ind, mc_ind, se_ind]),
        provenance=provenance)
    locked = TraceRecord(
        name="dephasing_locked",
        columns=("t", "analytic", "mc_mean", "mc_se"),
        rows=np.column_stack([locked_grid, analytic_lock, mc_lock, se_lock]),
        provenance=provenance)
    write_csv(independent, out_dir / "dephasing_independent.csv")
    write_csv(locked, out_dir / "dephasing_locked.csv")

    individual = histograms.individual
    means = histograms.replica_means
    centers = 0.5 * (individual.bin_edges[:-1] + individual.bin_edges[1:])
    mean_centers = 0.5 * (means.bin_edges[:-1] + means.bin_edges[1:])
    hist_record = TraceRecord(
        name="bandwidth_histograms",
        columns=("bin_center_individual", "density_individual",
                 "bin_center_means", "density_means"),
        rows=np.column_stack([centers, individual.density, mean_centers, means.density]),
        provenance=provenance)
    write_csv(hist_record, out_dir / "bandwidth_histograms.csv")

    efold_ind = dephasing.fit_efold_time(grid, mc_ind, f0, sigma_guess=sigma)
    efold_lock = dephasing.fit_efold_time(locked_grid, mc_lock, f0,
                                          sigma_guess=sigma / math.sqrt(atom_count))
    results = {
        "efold_time_independent": efold_ind,
        "efold_time_locked": efold_lock,
        "efold_ratio": efold_lock / efold_ind,
        "efold_ratio_expected": math.sqrt(atom_count),
        "histogram_sigma_ratio": histograms.sigma_ratio,
        "histogram_sigma_ratio_expected": math.sqrt(hist_config.atom_count),
    }
    if args.plots:
        line_plot(out_dir / "dephasing_independent.svg",
                  [(grid, analytic_ind, "analytic"), (grid, mc_ind, "monte carlo")],
                  title="Mean cosine, independent atoms", xlabel="t [s]",
                  ylabel="mean cos")
        line_plot(out_dir / "dephasing_locked.svg",
                  [(locked_grid, analytic_lock, "analytic"),
                   (locked_grid, mc_lock, "monte carlo")],
                  title="Mean cosine, phase-locked ensemble", xlabel="t [s]",
                  ylabel="mean cos")
        line_plot(out_dir / "bandwidth_histograms.svg",
                  [(centers, individual.density, "individual"),
                   (mean_centers, means.density, "ensemble means")],
                  title="Frequency distributions", xlabel="f [Hz]", ylabel="density")
    return results, {}, seed


def _survival_curves(command: str, section: Section, out_dir: Path, args,
                     config_text: str, deltas: dict, run, title: str):
    """Shared body of zeno2 and zeno4: one protocol run per cycle time.

    ``run(cycle, final_time, photons, ratio, trace_points)`` returns
    (config, trace, provenance entries of the run).  ``deltas`` maps the
    splitting keys to their values; the cycle times the mean of their squares
    is the closed-form decay rate that places an "auto" final time.  Reads
    the keys both sections share and rejects out-of-range values before any
    run, so they end as config errors naming the key.  Writes one CSV per
    cycle time and fails on a populated truncation boundary.  Returns the
    runs as (cycle, config, trace, provenance) with the results and flags.
    """
    with _overflow_names(command, deltas, "the closed-form decay rate"):
        rate = sum(value**2 for value in deltas.values()) / len(deltas)
    trace_points = section.get_int("trace_points", minimum=1)
    ratio = section.get_float("measure_ratio", positive=True)
    photons = section.get_int("photon_number", minimum=0, maximum=_MAX_SIZE[command])
    floor = 0.1
    if section.get_str("survival_floor") != "auto":
        floor = section.get_float("survival_floor")
        if not 0.0 < floor < 1.0:
            raise ConfigError(f"[{command}] survival_floor must be 'auto' or lie "
                              f"strictly between 0 and 1, got {floor!r}")
    auto = section.get_str("final_time") == "auto"
    if not auto:
        final_time = section.get_float("final_time", positive=True)
    provenance = _provenance(command, config_text, args.seed)

    cycles = section.get_float_list("cycle_times", positive=True)
    final_times = {}
    for cycle in cycles:
        if auto:
            decay = rate * cycle
            final_time = math.log(1.0 / floor) / decay if decay > 0.0 else 1000.0 * cycle
        final_times[cycle] = final_time
        tau_m = cycle / (ratio + 1.0)  # the protocol config holds the cycle as tau + tau_m
        if not cycle - tau_m > 0.0:
            raise ConfigError(f"[{command}] measure_ratio must leave a free interval in "
                              f"the cycle {cycle!r}, got {ratio!r}")
        if final_time < (cycle - tau_m) + tau_m:
            raise ConfigError(f"[{command}] final_time must cover at least one cycle, and "
                              f"[{command}] cycle_times must fit into it: final_time = "
                              f"{'auto gives ' if auto else ''}{final_time!r} is shorter "
                              f"than the cycle {cycle!r}")

    def run_one(cycle):
        return (cycle, *run(cycle, final_times[cycle], photons, ratio, trace_points))

    runs = parallel_map(run_one, cycles)
    results = {}
    flags = {"out_of_regime": False}
    plot_series = []
    for cycle, config, trace, described in runs:
        tag = repr(float(cycle))
        record = TraceRecord(
            name=f"{command}_cycle_{tag}",
            columns=("t", "p_success", "p_error_per_cycle", "analytic_p_s"),
            rows=np.column_stack([trace.times, trace.p_success,
                                  trace.p_error_per_cycle, trace.analytic_p_s]),
            provenance={**provenance, "cycle_time": tag, **described})
        write_csv(record, out_dir / f"{command}_cycle_{tag}.csv")
        flags["out_of_regime"] |= trace.out_of_regime
        if trace.max_mode_tail > 1e-8:
            raise z2.ProtocolError(
                f"mode truncation boundary populated ({trace.max_mode_tail:.3e})")
        results[f"final_p_success_{tag}"] = float(trace.p_success[-1])
        results[f"final_analytic_p_s_{tag}"] = float(trace.analytic_p_s[-1])
        plot_series.append((trace.times, trace.p_success, f"numeric {tag}"))
        plot_series.append((trace.times, trace.analytic_p_s, f"analytic {tag}"))
    if args.plots:
        line_plot(out_dir / f"{command}_survival.svg", plot_series,
                  title=title, xlabel="t", ylabel="P_S")
    return runs, results, flags


def cmd_zeno2(section: Section, out_dir: Path, args, config_text: str):
    delta = section.get_float("half_difference")

    def run(cycle, final_time, photons, ratio, trace_points):
        frequency = section.get_float("cavity_frequency")
        offset = section.get_float("common_offset")
        config = z2.config_for_cycle_time(
            cycle, final_time, half_difference=delta, photon_number=photons,
            measure_ratio=ratio, cavity_frequency=frequency, common_offset=offset)
        with _overflow_names("zeno2", {"cavity_frequency": frequency, "common_offset": offset,
                                       "half_difference": delta}, "the pair Hamiltonian"):
            trace = z2.run_protocol(config, max_trace_points=trace_points)
        return config, trace, {"half_difference": repr(delta),
                               "coupling": repr(config.coupling),
                               "measure_interval": repr(config.measure_interval)}

    _, results, flags = _survival_curves("zeno2", section, out_dir, args, config_text,
                                         {"half_difference": delta}, run,
                                         "Two-level survival probability")
    return results, flags, args.seed


def cmd_zeno4(section: Section, out_dir: Path, args, config_text: str):
    delta_1 = section.get_float("delta_1")
    delta_2 = section.get_float("delta_2")

    def run(cycle, final_time, photons, ratio, trace_points):
        transitions = {"transition_1": section.get_float("transition_1"),
                       "transition_2": section.get_float("transition_2")}
        config = zm.four_level_config_from_deltas(
            delta_1, delta_2, cycle_time=cycle, final_time=final_time,
            photon_number=photons, measure_ratio=ratio, **transitions)
        with _overflow_names("zeno4", {**transitions, "delta_1": delta_1, "delta_2": delta_2},
                             "the pair Hamiltonian"):
            trace = zm.run_four_level_protocol(config, max_trace_points=trace_points)
        return config, trace, {"delta_1": repr(delta_1), "delta_2": repr(delta_2),
                               "coupling": repr(config.coupling)}

    runs, results, flags = _survival_curves(
        "zeno4", section, out_dir, args, config_text,
        {"delta_1": delta_1, "delta_2": delta_2}, run, "Four-level survival probability")
    flags["mode_off_resonance"] = False
    for cycle, config, _, _ in runs:
        flags["mode_off_resonance"] |= any(abs(d) > 1e-9 for d in config.mode_detunings())
        residual = zm.measurement_residual_cosines(config)
        results[f"manifold2_residual_cosine_{float(cycle)!r}"] = residual[1]
    return results, flags, args.seed


def cmd_readout(section: Section, out_dir: Path, args, config_text: str):
    # extract_phase fits a sine through at least four samples
    points = section.get_int("time_points", minimum=4)
    time_max = section.get_float("time_max", positive=True)
    fit_periods = section.get_float("fit_periods", positive=True)
    cutoff = section.get_int("emission_cutoff", minimum=1, maximum=_MAX_SIZE["readout"])
    entries = points * 16 * (cutoff + 1)
    if entries > _MAX_PHASE_TABLE:
        raise ConfigError(f"[readout] time_points must keep the phase table at most "
                          f"{_MAX_PHASE_TABLE} entries, got {points} ({entries} entries)")
    detuning = section.get_float("detuning")
    if detuning == 0.0:
        raise ConfigError(f"[readout] detuning must be nonzero, got {detuning!r}")
    transition_1 = section.get_float("transition_1")
    if not transition_1 > detuning:
        # the emitted photon's frequency, transition_1 - detuning, must be positive
        raise ConfigError(f"[readout] transition_1 must exceed [readout] detuning "
                          f"({detuning!r}), got {transition_1!r}")
    config = readout.readout_config(
        detuning=detuning,
        drive_amplitude=section.get_float("drive_amplitude"),
        coupling=section.get_float("coupling"),
        transition_1=transition_1,
        transition_2=section.get_float("transition_2"),
        time_max=time_max,
        time_points=points)
    config = dataclasses.replace(config, emission_mode_cutoff=cutoff, fit_periods=fit_periods)
    method = section.get_str("method")
    if method not in ("full", "perturbative"):
        raise ConfigError(f"[readout] method must be 'full' or 'perturbative', got {method!r}")
    if config.clock_frequency == 0.0:
        raise ConfigError("[readout] transition_1 equals transition_2, so the clock "
                          "frequency is zero and no clock phase accumulates")
    phases = section.get_float_list("clock_phases", minimum=-_MAX_CLOCK_PHASE,
                                    maximum=_MAX_CLOCK_PHASE)
    provenance = _provenance("readout", config_text, args.seed)
    shift_keys = {"drive_amplitude": config.drive_amplitude, "coupling": config.coupling}
    with _overflow_names("readout", shift_keys, "the second-order light shifts"):
        try:
            model = readout.emission_model(config)
        except readout.ResonanceError as error:
            raise readout.ResonanceError(
                f"{error}, at [readout] coupling = {config.coupling!r}, drive_amplitude = "
                f"{config.drive_amplitude!r}, detuning = {config.detuning!r}") from None

    def run_one(target):
        elapsed = _clock_phase_residue(target) / config.clock_frequency
        state, probability = readout.readout_chain(config, elapsed)
        trace = readout.emit_field_trace(state, model, method=method)
        return target, elapsed, probability, trace

    with _overflow_names("readout", {"transition_1": transition_1,
                                     "transition_2": section.get_float("transition_2"),
                                     "time_max": time_max},
                         "the clock phase or the readout phase table"):
        runs = parallel_map(run_one, phases)
    results = {}
    flags = {"degenerate_fit": False}
    plot_series = []
    for index, (target, elapsed, probability, trace) in enumerate(runs):
        record = TraceRecord(
            name=f"readout_trace_{index}",
            columns=("t_r", "quadrature"),
            rows=np.column_stack([trace.times, trace.quadrature]),
            provenance={**provenance,
                        "clock_phase_target": repr(float(target)),
                        "elapsed_time": repr(float(elapsed)),
                        "postselect_probability": repr(float(probability)),
                        "method": method})
        write_csv(record, out_dir / f"readout_trace_{index}.csv")
        results[f"clock_phase_target_{index}"] = float(target)
        if trace.fitted_phase is None:
            flags["degenerate_fit"] = True
            results[f"extracted_phase_{index}"] = "degenerate"
        else:
            results[f"extracted_phase_{index}"] = float(trace.fitted_phase)
        results[f"postselect_probability_{index}"] = float(probability)
        plot_series.append((trace.times, trace.quadrature, f"target {target:.4g}"))
    results["emission_frequency"] = float(model.beat_frequency())
    if args.plots:
        line_plot(out_dir / "readout_traces.svg", plot_series,
                  title="Emitted field quadrature", xlabel="t_r",
                  ylabel="mean quadrature")
    return results, flags, args.seed


def cmd_allan(section: Section, out_dir: Path, args, config_text: str):
    fwhm = section.get_float("fwhm", positive=True)
    carrier = section.get_float("carrier", positive=True)
    cycle_time = section.get_float("cycle_time", positive=True)
    averaging_times = section.get_float_list("averaging_times", positive=True)
    atom_counts = section.get_float_list("atom_counts")
    for count in atom_counts:
        if count < 1.0 or not count.is_integer():
            raise ConfigError(f"[allan] atom_counts must be whole numbers of at least 1, "
                              f"got {count!r}")
    provenance = _provenance("allan", config_text, args.seed)

    for averaging in averaging_times:
        if math.isinf(cycle_time / averaging):
            raise _NamedOverflow(f"[allan] cycle_time / averaging_times = {cycle_time!r} / "
                                 f"{averaging!r} overflows")
    rows = []
    with _overflow_names("allan", {"carrier": carrier, "fwhm": fwhm, "cycle_time": cycle_time},
                         "the Allan deviation"):
        for count in atom_counts:
            for averaging in averaging_times:
                raw = dephasing.allan_deviation(dephasing.AllanParams(
                    fwhm=fwhm, carrier=carrier, atom_count=count,
                    cycle_time=cycle_time, averaging_time=averaging))
                locked = dephasing.allan_deviation(dephasing.AllanParams(
                    fwhm=fwhm / math.sqrt(count), carrier=carrier, atom_count=count,
                    cycle_time=cycle_time, averaging_time=averaging))
                rows.append((count, averaging, raw, locked, raw / locked))
    record = TraceRecord(
        name="allan_deviation",
        columns=("atom_count", "averaging_time", "sigma_y", "sigma_y_locked",
                 "narrowing_ratio"),
        rows=np.array(rows), provenance=provenance)
    write_csv(record, out_dir / "allan.csv")

    header = f"{'N':>8} {'tau_avg':>12} {'sigma_y':>14} {'sigma_y_locked':>16} {'ratio':>10}"
    print(header)
    for count, averaging, raw, locked, ratio in rows:
        print(f"{int(count):>8} {averaging:>12.6g} {raw:>14.6e} {locked:>16.6e} "
              f"{ratio:>10.6g}")
    results = {"rows": len(rows)}
    return results, {}, args.seed


_HANDLERS = {
    "dephasing": cmd_dephasing,
    "zeno2": cmd_zeno2,
    "zeno4": cmd_zeno4,
    "readout": cmd_readout,
    "allan": cmd_allan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenolock",
        description="Quantum-Zeno phase-locking simulator for atomic clocks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("dephasing", "ensemble coherence curves and bandwidth histograms"),
        ("zeno2", "two-level pair survival curves"),
        ("zeno4", "four-level pair survival curves"),
        ("readout", "emitted-field traces and phase fits"),
        ("allan", "closed-form Allan deviation table"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the configured random seed")
        cmd.add_argument("--plots", action="store_true", help="also write SVG plots")
        cmd.add_argument("--strict", action="store_true",
                         help="exit nonzero when parameters are out of regime")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = Path(args.config)
        sections = load_config(config_path)
        config_text = config_path.read_text(encoding="utf-8")
        defaults = _DEFAULTS[args.command]
        section = Section(args.command, sections.get(args.command, {}), defaults,
                          str(config_path))
        for name in sections:
            if name not in _DEFAULTS:
                raise ConfigError(f"{config_path}: unknown section [{name}]")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # Floating-point overflow, division by zero and invalid operations
        # raise here instead of warning, also in parallel_map's pool threads.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            results, flags, seed = _HANDLERS[args.command](section, out_dir, args,
                                                           config_text)
    except ConfigError as error:
        print(f"zenolock: config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, z2.ProtocolError, readout.CutoffOverflowError,
            dephasing.EnvelopeFitError) as error:
        # every config error is a ConfigError raised above; a library
        # ValueError here is a numerical failure of a valid configuration
        print(f"zenolock: numerical validity failure: {error}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(out_dir, args.command, config_path, config_text, seed,
                    args.plots, section.resolved(), results, flags)
    if args.strict and flags.get("out_of_regime"):
        return EXIT_OUT_OF_REGIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
