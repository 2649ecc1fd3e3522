"""Configuration-driven runs with deterministic CSV/SVG emission.

Subcommands: dephasing, zeno2, zeno4, readout, allan.  Every run writes a
manifest (resolved configuration, tool version, seed, result summary)
beside its outputs, and identical manifests produce byte-identical files.
Every run, a survival-curve sweep's cycle times included, runs on the
calling thread.

Exit codes: 0 success or -h/--help; 2 usage (see parse_args) or configuration
error; 3 out-of-regime parameters under --strict; 4 numerical-validity failure.
"""

import contextlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, dephasing, readout
from . import zeno_multilevel as zm
from . import zeno_two_level as z2
from .configfile import ConfigError, Key, Section, load_config
from .parallel import parallel_map
from .tracefile import TraceRecord, write_csv

try:  # CPython's builtin sha256: hashlib would load OpenSSL, +3.6 MB and 4 ms a process
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OUT_OF_REGIME = 3
EXIT_NUMERICAL = 4

# Largest number of entries an array of a run may hold, checked before anything
# is allocated (a static maximum below or an entry count in the handler).
_MAX_ENTRIES = 1 << 24
# The turn count target // TWO_PI rounds (target - target % TWO_PI) / TWO_PI
# with a relative error of up to 2^-52; the count stays exact while that error
# stays below half a turn, that is below 2^51 turns.  Up to this bound the
# reduction in cmd_readout is exact to about 1e-15 rad; beyond it the error
# grows with the target (2 rad at 1e300).
_MAX_CLOCK_PHASE = 2.0**51 * readout.TWO_PI
# A readout whose largest phase error exceeds this (rad) is out of regime.  The
# defaults read 0.0078 rad, a systematic of the emission chain that grows to
# 0.024 rad over phases across a turn at fit_periods = 8; the bound is 6x the
# former and above the latter, and perfbench's clock-chain gate uses it too.  At
# detuning 10, drive_amplitude 6 reads 0.035 rad and 7 reads 0.069 rad, where
# adiabatic elimination of the excited levels begins to fail.
_MAX_PHASE_ERROR = 0.05

# Each readout clock phase holds about 2.3 kB besides the grid (its trace, chain
# state, manifest results and CSV write): a run peaks at 187 MB at 4 time points.
_MAX_CLOCK_PHASES = 1 << 16
# Bounds the readout grid, a trace's rows and the t_r strings the CSV files share
# (118 MB peak at one phase); the edge of a former bound on a grid over the whole
# emission basis (at emission_cutoff = 1), so no config it admitted is rejected.
_MAX_READOUT_POINTS = 1 << 19

# A survival CSV holds the recorded points (at most trace_points), t = 0 and a
# trailing partial cycle's point, 4 columns each: (trace_points + 2) * 4 entries
# stay within _MAX_ENTRIES up to this trace_points.  A run holds that table and
# the recorded cycles and their gaps: 187 MB peak RSS at the cap (zeno2).
_MAX_TRACE_POINTS = _MAX_ENTRIES // 4 - 2

# Every config key with its default text (as in configs/defaults.cfg), kind and
# static bounds; bounds that involve two keys are checked in the handlers.
#
# The size keys (the Zeno photon number n, the readout emission cutoff c)
# cap the basis dimension d.  A Zeno run evolves only the at most 12 (zeno2)
# or 56 (zeno4) states its start reaches and carries the pair state as its
# atom amplitudes; only the reach's mask of held states grows with d.  The
# readout holds the 21 states its channel reaches (c >= 2), so c sizes only basis
# indices and that mask.  With the default Fock cutoff of n + 2 for every mode
# the caps keep d = 4(n + 3) <= 2044 for zeno2, d = 16(n + 3)^2 <= 65,536 for
# zeno4 and d = 16(c + 1) <= 2048 for readout.
SCHEMA = {
    "dephasing": {
        "atom_count": Key("100", int, minimum=1),
        "center_frequency": Key("100.0"),
        "fwhm": Key("10.0", positive=True),
        "replicas": Key("10000", int, minimum=1),
        "seed": Key("20260808", int),
        "time_max": Key("0.1", positive=True),
        # the e-fold fit needs a curve, and the histogram sigma ratio a sample spread
        "time_points": Key("201", int, minimum=2),
        "histogram_atom_count": Key("9", int, minimum=1),
        "histogram_replicas": Key("10000", int, minimum=2),
        "histogram_bins": Key("60", int, minimum=1, maximum=_MAX_ENTRIES),
    },
    "zeno2": {
        "half_difference": Key("2.0"),
        "cycle_times": Key("0.001, 0.05", tuple, positive=True),
        "photon_number": Key("12", int, minimum=0, maximum=508),
        "measure_ratio": Key("200", positive=True),
        "survival_floor": Key("0.1", positive=True, below=1.0, auto=True),
        "final_time": Key("auto", positive=True, auto=True),
        "cavity_frequency": Key("100.0"),
        "common_offset": Key("0.0"),
        "trace_points": Key("800", int, minimum=1, maximum=_MAX_TRACE_POINTS),
    },
    "zeno4": {
        "delta_1": Key("2.0"),
        "delta_2": Key("2.0"),
        "cycle_times": Key("0.001", tuple, positive=True),
        "photon_number": Key("8", int, minimum=0, maximum=61),
        "measure_ratio": Key("200", positive=True),
        "survival_floor": Key("auto", positive=True, below=1.0, auto=True),
        "final_time": Key("100.0", positive=True, auto=True),
        "transition_1": Key("120.0"),
        "transition_2": Key("110.0"),
        "trace_points": Key("400", int, minimum=1, maximum=_MAX_TRACE_POINTS),
    },
    "readout": {
        "transition_1": Key("120.0"),
        "transition_2": Key("110.0"),
        "detuning": Key("10.0"),
        "drive_amplitude": Key("1.0"),
        "coupling": Key("2.0"),
        "clock_phases": Key("0.0, 3.141592653589793", tuple, minimum=-_MAX_CLOCK_PHASE,
                            maximum=_MAX_CLOCK_PHASE),
        "time_max": Key("5.0", positive=True),
        # extract_phase fits a sine through at least four samples
        "time_points": Key("4001", int, minimum=4, maximum=_MAX_READOUT_POINTS),
        "fit_periods": Key("32", positive=True),
        "emission_cutoff": Key("2", int, minimum=1, maximum=127),
        "method": Key("full", str, choices=("full", "perturbative")),
    },
    "allan": {
        "fwhm": Key("1.0", positive=True),
        "carrier": Key("1e9", positive=True),
        "atom_counts": Key("1, 4, 100, 10000", tuple, minimum=1, whole=True),
        "cycle_time": Key("1.0", positive=True),
        "averaging_times": Key("1, 4, 16, 100", tuple, positive=True),
    },
}


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain shortest round-trip form, also for numpy scalars
    if isinstance(value, (tuple, list)):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def _write_manifest(out_dir: Path, subcommand: str, config_path, digest: str,
                    seed, emit_plots: bool, resolved: dict, results: dict,
                    flags: dict) -> None:
    lines = [
        "zenolock run manifest",
        f"version = {__version__}",
        f"subcommand = {subcommand}",
        f"config_file = {config_path}",
        f"config_sha256 = {digest}",
        f"seed = {seed if seed is not None else 'none'}",
        f"output_directory = {out_dir}",
        f"emit_plots = {str(bool(emit_plots)).lower()}",
    ]
    flags = {key: str(bool(value)).lower() for key, value in flags.items()}
    for name, values in (("resolved", resolved), ("results", results), ("flags", flags)):
        lines += ["", f"[{name}]"] + [f"{key} = {_format_value(values[key])}"
                                      for key in sorted(values)]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


class _NamedOverflow(OverflowError):
    """A float overflow or underflow whose message already names a config key."""


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


def _phase_error(extracted: float, target: float) -> float:
    """``extracted`` less the clock phase ``target``, wrapped to (-pi, pi]."""
    error = math.remainder(extracted - _clock_phase_residue(target), readout.TWO_PI)
    # remainder lands in [-pi, pi]; -pi is the same phase as pi
    return math.pi if error <= -math.pi else error


def _provenance(subcommand: str, digest: str, seed) -> dict:
    return {
        "tool": f"zenolock {__version__}",
        "subcommand": subcommand,
        "config_sha256": digest,
        "seed": str(seed if seed is not None else "none"),
    }


def cmd_dephasing(section: Section, out_dir: Path, args, digest: str):
    seed = args.seed if args.seed is not None else section["seed"]
    atom_count = section["atom_count"]
    f0 = section["center_frequency"]
    fwhm = section["fwhm"]
    replicas = section["replicas"]
    points = section["time_points"]
    histogram_replicas = section["histogram_replicas"]
    time_max = section["time_max"]
    bins = section["histogram_bins"]
    histogram_atoms = section["histogram_atom_count"]
    for keys, entries in (
            # the frequencies drawn (work), and the replica means (an array)
            ("replicas x atom_count", replicas * atom_count),
            # the mean cosines, folded a block of replicas at a time (work)
            ("time_points x replicas", points * replicas),
            # one replica's phasors, 2 sqrt(time_points) per atom (an array)
            ("sqrt(time_points) x atom_count", math.isqrt(points) * atom_count),
            # the histogram sample (an array)
            ("histogram_replicas x histogram_atom_count",
             histogram_replicas * histogram_atoms)):
        if entries > _MAX_ENTRIES:
            raise ConfigError(f"[dephasing] {keys} must be at most {_MAX_ENTRIES}, got {entries}")
    provenance = _provenance("dephasing", digest, seed)

    config = dephasing.EnsembleConfig(atom_count=atom_count, center_frequency=f0,
                                      fwhm=fwhm, seed=seed, time_max=time_max,
                                      time_points=points, replicas=replicas)
    sigma = config.sigma
    with _overflow_names("dephasing", {"center_frequency": f0, "fwhm": fwhm,
                                       "time_max": time_max},
                         "the sampled frequencies or the Monte Carlo phases"):
        grid = config.time_grid
        locked_grid = grid * math.sqrt(atom_count)
        (mc_ind, se_ind), (mc_lock, se_lock), histogram_sample = dephasing.ensemble_pass(
            config, locked_grid[-1], histogram_replicas, histogram_atoms)
        with _overflow_names("dephasing", {"fwhm": fwhm, "time_max": time_max},
                             "the envelope exponent (2 pi sigma t)^2 / 2"):
            analytic_ind = dephasing.envelope_independent(grid, sigma, f0)
            analytic_lock = dephasing.envelope_locked(locked_grid, sigma, f0, atom_count)
        # an overflow is named by the first step it hits: both curves, the
        # envelopes, then the histogram's own draw and spread
        try:
            histograms = dephasing.bandwidth_histogram(histogram_sample(), bins=bins)
        except ValueError:  # np.histogram found no distinct float edges to split
            raise ValueError(f"[dephasing] center_frequency = {f0!r}, fwhm = {fwhm!r}: "
                             "sampled spread is below float resolution for histogram_bins = "
                             f"{bins!r}") from None

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

    def efold_time(curve, times, values, sigma_guess):
        try:
            return dephasing.fit_efold_time(times, values, f0, sigma_guess=sigma_guess)
        except dephasing.EnvelopeFitError as error:
            # the decay the fit resolves grows with fwhm and the grid's extent
            raise dephasing.EnvelopeFitError(
                f"{error}, on the {curve} curve at [dephasing] fwhm = {fwhm!r}, time_max = "
                f"{time_max!r}, time_points = {points!r}") from None

    efold_ind = efold_time("independent", grid, mc_ind, sigma)
    efold_lock = efold_time("locked", locked_grid, mc_lock, sigma / math.sqrt(atom_count))
    results = {
        "efold_time_independent": efold_ind,
        "efold_time_locked": efold_lock,
        "efold_ratio": efold_lock / efold_ind,
        "efold_ratio_expected": math.sqrt(atom_count),
        "histogram_sigma_ratio": histograms.sigma_ratio,
        "histogram_sigma_ratio_expected": math.sqrt(histogram_atoms),
    }
    if args.plots:
        from .svgplot import line_plot

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
                     digest: str, deltas: dict, configure, run, title: str):
    """Shared body of zeno2 and zeno4: one protocol run per cycle time.

    ``configure(cycle, final_time, photons, ratio)`` returns the protocol
    config of one cycle time, and ``run(config, trace_points)`` returns
    (trace, provenance entries of the run).  ``deltas`` maps the
    splitting keys to their values; the cycle times the mean of their squares
    is the closed-form decay rate that places an "auto" final time.  Reads
    the keys both sections share and rejects out-of-range values before any
    run, so they end as config errors naming the key.  Writes one CSV per
    cycle time and fails on a populated truncation boundary.  Returns the
    runs as (cycle, config, trace, provenance) with the results and flags.
    """
    with _overflow_names(command, deltas, "the closed-form decay rate"):
        rate = z2.mean_square_splitting(deltas.values())
    trace_points = section["trace_points"]
    ratio = section["measure_ratio"]
    photons = section["photon_number"]
    floor = section["survival_floor"] or 0.1  # 'auto' reads as None
    final_time = section["final_time"]
    auto = final_time is None
    provenance = _provenance(command, digest, args.seed)

    cycles = section["cycle_times"]
    final_times = {}
    for cycle in cycles:
        if auto:
            decay = rate * cycle
            final_time = math.log(1.0 / floor) / decay if decay > 0.0 else 1000.0 * cycle
        final_times[cycle] = final_time
        tau_m = cycle / (ratio + 1.0)  # the protocol config holds the cycle as tau + tau_m
        if not (tau_m > 0.0 and cycle - tau_m > 0.0):
            raise ConfigError(f"[{command}] measure_ratio must leave a free and a measurement "
                              f"interval in [{command}] cycle_times, got {ratio!r} for the "
                              f"cycle {cycle!r}")
        if final_time < (cycle - tau_m) + tau_m:
            raise ConfigError(f"[{command}] final_time must cover at least one cycle, and "
                              f"[{command}] cycle_times must fit into it: final_time = "
                              f"{'auto gives ' if auto else ''}{final_time!r} is shorter "
                              f"than the cycle {cycle!r}")

    configs = [configure(cycle, final_times[cycle], photons, ratio) for cycle in cycles]

    def run_one(item):
        cycle, config = item
        try:
            return (cycle, config, *run(config, trace_points))
        except z2.ProtocolError as error:
            raise z2.ProtocolError(f"{error}, at [{command}] cycle_times = {cycle!r}") from None

    runs = parallel_map(run_one, zip(cycles, configs))  # an ordered loop; see parallel.py
    results = {}
    flags = {"out_of_regime": False, "survival_underflow": False}
    plot_series = []
    for cycle, config, trace, described in runs:
        tag = repr(float(cycle))
        record = TraceRecord(f"{command}_cycle_{tag}", z2.SurvivalTrace.COLUMNS, trace.table,
                             {**provenance, "cycle_time": tag, **described})
        write_csv(record, out_dir / f"{command}_cycle_{tag}.csv")
        flags["out_of_regime"] |= trace.out_of_regime
        flags["survival_underflow"] |= trace.p_success[-1] < np.finfo(float).tiny
        if trace.max_mode_tail > 1e-8:
            raise z2.ProtocolError(f"mode truncation boundary populated ({trace.max_mode_tail:.3e})"
                                   f", at [{command}] cycle_times = {cycle!r}")
        results[f"final_p_success_{tag}"] = float(trace.p_success[-1])
        results[f"final_analytic_p_s_{tag}"] = float(trace.analytic_p_s[-1])
        plot_series.append((trace.times, trace.p_success, f"numeric {tag}"))
        plot_series.append((trace.times, trace.analytic_p_s, f"analytic {tag}"))
    if args.plots:
        from .svgplot import line_plot

        line_plot(out_dir / f"{command}_survival.svg", plot_series,
                  title=title, xlabel="t", ylabel="P_S")
    return runs, results, flags


def cmd_zeno2(section: Section, out_dir: Path, args, digest: str):
    delta = section["half_difference"]

    def levels():  # read where the first cycle time needs them, after the shared keys
        return {key: section[key] for key in ("cavity_frequency", "common_offset")}

    def configure(cycle, final_time, photons, ratio):
        return z2.config_for_cycle_time(cycle, final_time, half_difference=delta,
                                        photon_number=photons, measure_ratio=ratio, **levels())

    def run(config, trace_points):
        with _overflow_names("zeno2", {**levels(), "half_difference": delta},
                             "the pair Hamiltonian"):
            trace = z2.run_protocol(config, max_trace_points=trace_points)
        return trace, {"half_difference": repr(delta),
                       "coupling": repr(config.coupling),
                       "measure_interval": repr(config.measure_interval)}

    _, results, flags = _survival_curves("zeno2", section, out_dir, args, digest,
                                         {"half_difference": delta}, configure, run,
                                         "Two-level survival probability")
    return results, flags, args.seed


def cmd_zeno4(section: Section, out_dir: Path, args, digest: str):
    delta_1 = section["delta_1"]
    delta_2 = section["delta_2"]

    def transitions():  # read where the first cycle time needs them, after the shared keys
        return {key: section[key] for key in ("transition_1", "transition_2")}

    def configure(cycle, final_time, photons, ratio):
        return zm.four_level_config_from_deltas(
            delta_1, delta_2, cycle_time=cycle, final_time=final_time,
            photon_number=photons, measure_ratio=ratio, **transitions())

    def run(config, trace_points):
        with _overflow_names("zeno4", {**transitions(), "delta_1": delta_1, "delta_2": delta_2},
                             "the pair Hamiltonian"):
            trace = zm.run_four_level_protocol(config, max_trace_points=trace_points)
        return trace, {"delta_1": repr(delta_1), "delta_2": repr(delta_2),
                       "coupling": repr(config.coupling)}

    runs, results, flags = _survival_curves(
        "zeno4", section, out_dir, args, digest, {"delta_1": delta_1, "delta_2": delta_2},
        configure, run, "Four-level survival probability")
    flags["mode_off_resonance"] = False
    for cycle, config, trace, _ in runs:
        flags["mode_off_resonance"] |= any(abs(d) > 1e-9 for d in config.mode_detunings())
        results[f"manifold2_residual_cosine_{float(cycle)!r}"] = (
            zm.measurement_residual_cosine(config))
        results[f"cross_manifold_population_{float(cycle)!r}"] = (
            zm.cross_manifold_population(trace.final_state))
    return results, flags, args.seed


def cmd_readout(section: Section, out_dir: Path, args, digest: str):
    points = section["time_points"]
    time_max = section["time_max"]
    fit_periods = section["fit_periods"]
    cutoff = section["emission_cutoff"]
    phases = section["clock_phases"]
    if len(phases) > _MAX_CLOCK_PHASES:
        raise ConfigError(f"[readout] clock_phases must hold at most {_MAX_CLOCK_PHASES} "
                          f"phases, got {len(phases)}")
    if len(phases) * points > _MAX_ENTRIES:  # the quadratures of the sweep
        raise ConfigError(f"[readout] clock_phases x time_points must be at most {_MAX_ENTRIES}, "
                          f"got {len(phases)} x {points}")
    detuning = section["detuning"]
    if detuning == 0.0:
        raise ConfigError(f"[readout] detuning must be nonzero, got {detuning!r}")
    transition_1 = section["transition_1"]
    if not transition_1 > detuning:
        # the emitted photon's frequency, transition_1 - detuning, must be positive
        raise ConfigError(f"[readout] transition_1 must exceed [readout] detuning "
                          f"({detuning!r}), got {transition_1!r}")
    transition_2 = section["transition_2"]
    drive_amplitude = section["drive_amplitude"]
    coupling = section["coupling"]
    try:
        config = readout.readout_config(
            detuning=detuning,
            drive_amplitude=drive_amplitude,
            coupling=coupling,
            transition_1=transition_1,
            transition_2=transition_2,
            time_max=time_max,
            time_points=points,
            emission_cutoff=cutoff,
            fit_periods=fit_periods)
    except ValueError as error:
        # after the checks above and the schema, only the readout grid can fail
        raise ConfigError(f"[readout] time_max and [readout] time_points must give a strictly "
                          f"increasing readout grid, got {time_max!r} over {points} "
                          f"points") from error
    method = section["method"]
    if config.clock_frequency == 0.0:
        raise ConfigError("[readout] transition_1 equals transition_2, so the clock "
                          "frequency is zero and no clock phase accumulates")
    provenance = _provenance("readout", digest, args.seed)
    # the light shifts grow with the drive and coupling over the level energies
    shift_keys = {"drive_amplitude": config.drive_amplitude, "coupling": config.coupling,
                  "detuning": detuning, "transition_1": transition_1}
    with _overflow_names("readout", shift_keys, "the second-order light shifts"):
        try:
            model = readout.emission_model(config)
        except readout.ResonanceError as error:
            raise readout.ResonanceError(
                f"{error}, at [readout] coupling = {config.coupling!r}, drive_amplitude = "
                f"{config.drive_amplitude!r}, detuning = {config.detuning!r}") from None
    if not model.beat_frequency() > 0.0:
        # the light shifts have pushed the fitted oscillation through zero
        raise ValueError(
            f"the light-shifted beat frequency {model.beat_frequency():.4g} is not positive, "
            f"at [readout] coupling = {config.coupling!r}, drive_amplitude = "
            f"{config.drive_amplitude!r}, detuning = {config.detuning!r}")

    with _overflow_names("readout", {"transition_1": transition_1,
                                     "transition_2": transition_2,
                                     "time_max": time_max},
                         "the clock phase or the readout phase factors"):
        elapsed_times = [_clock_phase_residue(target) / config.clock_frequency
                         for target in phases]
        chains = [readout.readout_chain(config, elapsed) for elapsed in elapsed_times]
        traces = readout.emit_field_traces([state for state, _ in chains], model,
                                           method=method)
    results = {}
    flags = {"degenerate_fit": False}
    plot_series = []
    formatted = {}  # the traces share their t_r column, formatted once
    errors = []  # |phase_error| of each trace with a fitted phase
    for index, (target, elapsed, (_, probability), trace) in enumerate(
            zip(phases, elapsed_times, chains, traces)):
        record = TraceRecord(
            name=f"readout_trace_{index}",
            columns=("t_r", "quadrature"),
            rows=np.column_stack([trace.times, trace.quadrature]),
            provenance={**provenance,
                        "clock_phase_target": repr(float(target)),
                        "elapsed_time": repr(float(elapsed)),
                        "postselect_probability": repr(float(probability)),
                        "method": method})
        write_csv(record, out_dir / f"readout_trace_{index}.csv", formatted)
        results[f"clock_phase_target_{index}"] = float(target)
        if trace.fitted_phase is None:
            flags["degenerate_fit"] = True
            results[f"extracted_phase_{index}"] = "degenerate"
            results[f"phase_error_{index}"] = "degenerate"
        else:
            results[f"extracted_phase_{index}"] = float(trace.fitted_phase)
            error = _phase_error(trace.fitted_phase, target)
            results[f"phase_error_{index}"] = error
            errors.append(abs(error))
        results[f"postselect_probability_{index}"] = float(probability)
        plot_series.append((trace.times, trace.quadrature, f"target {target:.4g}"))
    results["emission_frequency"] = float(model.beat_frequency())
    # a degenerate fit leaves the largest error unknown
    results["max_phase_error"] = "degenerate" if flags["degenerate_fit"] else max(errors)
    flags["out_of_regime"] = any(error > _MAX_PHASE_ERROR for error in errors)
    if args.plots:
        from .svgplot import line_plot

        line_plot(out_dir / "readout_traces.svg", plot_series,
                  title="Emitted field quadrature", xlabel="t_r",
                  ylabel="mean quadrature")
    return results, flags, args.seed


def cmd_allan(section: Section, out_dir: Path, args, digest: str):
    fwhm = section["fwhm"]
    carrier = section["carrier"]
    cycle_time = section["cycle_time"]
    averaging_times = section["averaging_times"]
    atom_counts = section["atom_counts"]
    provenance = _provenance("allan", digest, args.seed)

    for averaging in averaging_times:
        if math.isinf(cycle_time / averaging):
            raise _NamedOverflow(f"[allan] cycle_time / averaging_times = {cycle_time!r} / "
                                 f"{averaging!r} overflows")
    # sigma_y = fwhm sqrt(cycle_time / averaging_time) / (carrier sqrt(N)); the
    # key whose factor in it lies farthest from 1 drives an overflow or underflow
    factors = {"fwhm": (fwhm, 1.0), "carrier": (carrier, 1.0), "cycle_time": (cycle_time, 0.5)}
    key = max(factors, key=lambda name: abs(factors[name][1] * math.log(factors[name][0])))
    value = factors[key][0]
    rows = []
    with _overflow_names("allan", {key: value}, "the Allan deviation"):
        for count in atom_counts:
            for averaging in averaging_times:
                raw = dephasing.allan_deviation(dephasing.AllanParams(
                    fwhm=fwhm, carrier=carrier, atom_count=count,
                    cycle_time=cycle_time, averaging_time=averaging))
                locked = dephasing.allan_deviation(dephasing.AllanParams(
                    fwhm=fwhm / math.sqrt(count), carrier=carrier, atom_count=count,
                    cycle_time=cycle_time, averaging_time=averaging))
                if locked == 0.0:
                    raise _NamedOverflow(
                        f"[allan] {key} = {value!r} underflows the Allan deviation")
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


_USAGE = "usage: zenolock [-h] COMMAND --config PATH --out DIR [--seed N] [--plots] [--strict]"
_HELP = f"""{_USAGE}

Quantum-Zeno phase-locking simulator for atomic clocks.  COMMAND is one of
  dephasing  ensemble coherence curves and bandwidth histograms
  zeno2      two-level pair survival curves
  zeno4      four-level pair survival curves
  readout    emitted-field traces and phase fits
  allan      closed-form Allan deviation table"""


def _is_option(token: str) -> bool:  # as argparse reads it: "-", -3, -1.5 and -.5 are values
    number = token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")
    return token[:1] == "-" and token != "-" and not number


def parse_args(argv=None) -> SimpleNamespace:
    """Read the command line of _USAGE in ``argv`` (``sys.argv[1:]`` if None) as argparse
    does, left to right, except that abbreviated option names and ``--`` are usage errors."""
    def fail(message):
        print(f"{_USAGE}\nzenolock: error: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    args = SimpleNamespace(command=None, config=None, out=None, seed=None, plots=False,
                           strict=False)
    extras, tokens = [], iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        name, equals, value = token.partition("=")
        if name in ("--config", "--out", "--seed"):
            if not equals and _is_option(value := next(tokens, "--")):
                fail(f"option {name} expects a value")
            try:
                setattr(args, name[2:], int(value) if name == "--seed" else value)
            except ValueError:
                fail(f"option --seed expects an integer, not {value!r}")
        elif name in ("-h", "--help", "--plots", "--strict") and equals:
            fail(f"option {name} takes no value: {token!r}")
        elif token in ("-h", "--help"):
            print(_HELP)
            sys.exit(EXIT_OK)
        elif token in ("--plots", "--strict"):
            setattr(args, token[2:], True)
        elif args.command is None and not _is_option(token):
            if token not in _HANDLERS:
                fail(f"invalid command {token!r} (choose from {', '.join(_HANDLERS)})")
            args.command = token
        else:  # an unknown option, "--" or a second command, reported after -h/--help
            extras.append(token)
    missing = [name for name, value in (("COMMAND", args.command), ("--config", args.config),
                                        ("--out", args.out)) if value is None]
    if extras or missing:
        fail(f"unrecognized arguments: {' '.join(extras)}" if extras
             else f"missing {', '.join(missing)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        config_path = Path(args.config)
        config_text, sections = load_config(config_path)
        digest = sha256(config_text.encode("utf-8")).hexdigest()
        section = Section(args.command, sections.get(args.command, {}),
                          SCHEMA[args.command], str(config_path))
        for name in sections:
            if name not in SCHEMA:
                raise ConfigError(f"{config_path}: unknown section [{name}]")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # Floating-point overflow, division by zero and invalid operations
        # raise here instead of warning.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            results, flags, seed = _HANDLERS[args.command](section, out_dir, args, digest)
    except ConfigError as error:
        print(f"zenolock: config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, z2.ProtocolError, readout.CutoffOverflowError,
            dephasing.EnvelopeFitError) as error:
        # every config error is a ConfigError raised above; a library
        # ValueError here is a numerical failure of a valid configuration
        print(f"zenolock: numerical validity failure: {error}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(out_dir, args.command, config_path, digest, seed,
                    args.plots, section.resolved(), results, flags)
    if args.strict and flags.get("out_of_regime"):
        return EXIT_OUT_OF_REGIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
