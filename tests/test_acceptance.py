"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass line; a pytest failure marks the criterion
red.  Tolerances are pinned here and nowhere else.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import stepwise_oracle as so
from zenolock import cli
from zenolock import dephasing as dp
from zenolock import readout as rd
from zenolock import zeno_multilevel as zm
from zenolock import zeno_two_level as z2


def report(number, text):
    print(f"acceptance {number:02d}: PASS  {text}")


def test_01_dephasing_envelopes():
    started = time.monotonic()
    atoms, f0, fwhm, replicas, seed = 100, 100.0, 10.0, 10_000, 20260808
    config = dp.EnsembleConfig(atoms, f0, fwhm, seed, 0.1, 201, replicas)
    grid = config.time_grid
    locked_grid = grid * math.sqrt(atoms)
    locked_config = dp.EnsembleConfig(atoms, f0, fwhm, seed, locked_grid[-1], 201, replicas)
    sigma = config.sigma

    mc_ind, se_ind = dp.monte_carlo_mean_cos(config)
    mc_lock, se_lock = dp.monte_carlo_mean_cos(locked_config, locked=True)
    analytic_ind = dp.envelope_independent(grid, sigma, f0)
    analytic_lock = dp.envelope_locked(locked_grid, sigma, f0, atoms)
    assert np.all(np.abs(mc_ind - analytic_ind) <= 3.0 * se_ind)
    assert np.all(np.abs(mc_lock - analytic_lock) <= 3.0 * se_lock)

    efold_ind = dp.fit_efold_time(grid, mc_ind, f0, sigma_guess=sigma)
    efold_lock = dp.fit_efold_time(locked_grid, mc_lock, f0,
                                   sigma_guess=sigma / math.sqrt(atoms))
    ratio = efold_lock / efold_ind
    assert ratio == pytest.approx(10.0, rel=0.03)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(1, f"3-SE envelope match, efold ratio {ratio:.3f}, {elapsed:.1f} s")


def test_02_bandwidth_narrowing():
    config = dp.EnsembleConfig(atom_count=9, center_frequency=100.0, fwhm=10.0,
                               seed=20260808, time_max=1.0, time_points=2, replicas=10_000)
    histograms = dp.bandwidth_histogram(dp.sample_all_replicas(config))
    fitted = histograms.replica_means.sample_sigma
    assert fitted == pytest.approx(config.sigma / 3.0, rel=0.10)
    report(2, f"replica-mean spread {fitted:.4f} vs sigma/3 = {config.sigma / 3.0:.4f}")


def test_03_first_order_drift():
    checked = []
    for delta, tau in ((1.0, 1e-3), (1.0, 3e-3), (1.0, 1e-2)):
        config = so.two_level_config(free_interval=tau, measure_interval=0.0,
                                     final_time=tau, half_difference=delta)
        drifted = so.pair_grid(so.free_drift(so.subradiant_state(config), config))
        probability = abs(np.vdot(z2.superradiant_state(config), drifted)) ** 2
        target = (delta * tau) ** 2
        assert abs(probability - target) <= target * (delta * tau) ** 2
        checked.append(delta * tau)
    report(3, f"superradiant growth quadratic for delta*tau in {checked}")


def test_04_measurement_branch_weights():
    delta, tau = 0.02, 0.1
    for n in (4, 8, 12):
        tau_m = 1e-4
        config = so.two_level_config(
            free_interval=tau, measure_interval=tau_m, final_time=tau + tau_m,
            half_difference=delta, photon_number=n,
            coupling=z2.half_flop_time_inverse(tau_m, n))
        drifted = so.free_drift(so.subradiant_state(config), config)
        measured = so.measurement_segment(drifted, config)
        scale = (tau * delta) ** 2
        index = measured.basis.index
        p_gg = abs(measured.amplitudes[index([z2.G, z2.G, n + 1])]) ** 2
        p_ee = abs(measured.amplitudes[index([z2.E, z2.E, n - 1])]) ** 2
        assert p_gg == pytest.approx(scale * (n + 1) / (2 * n + 1), rel=0.02)
        assert p_ee == pytest.approx(scale * n / (2 * n + 1), rel=0.02)
    report(4, "branch weights (n+1)/(2n+1) and n/(2n+1) at half flop, n in {4, 8, 12}")


def test_05_survival_closed_form():
    delta = 2.0
    outcomes = []
    for cycle, tolerance in ((0.001, 0.02), (0.05, 0.05)):
        final_time = math.log(10.0) / (delta**2 * cycle)  # down to P_S = 0.1
        config = z2.config_for_cycle_time(cycle, final_time, half_difference=delta)
        started = time.monotonic()
        trace = z2.run_protocol(config)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        deviation = np.max(np.abs(trace.p_success[1:] / trace.analytic_p_s[1:] - 1.0))
        assert deviation <= tolerance
        assert trace.p_success[-1] == pytest.approx(0.1, rel=tolerance + 0.02)
        outcomes.append(f"cycle {cycle}: dev {deviation:.4f} in {elapsed:.1f} s")
    report(5, "; ".join(outcomes))


def test_06_four_level_correspondence():
    delta = 2.0
    cycle = 0.001
    config = zm.four_level_config_from_deltas(delta, delta, cycle_time=cycle,
                                              final_time=100.0)
    assert config.delta(1) * config.free_interval <= 0.01
    trace = zm.run_four_level_protocol(config)
    two_level = z2.ps_analytic([delta], config.free_interval,
                               config.measure_interval, 100.0)
    analytic_curve = np.exp(-delta**2 * cycle * trace.times)
    deviation = np.max(np.abs(trace.p_success[1:] / analytic_curve[1:] - 1.0))
    assert deviation <= 0.05
    assert trace.p_success[-1] == pytest.approx(two_level.exponential_form, rel=0.05)

    per_cycle = trace.p_error_per_cycle[1]
    expected = z2.pe_analytic((delta, delta), config.free_interval)
    assert per_cycle == pytest.approx(expected, rel=0.02)
    report(6, f"four-level matches two-level curve (dev {deviation:.4f}), "
              f"per-cycle error ratio {per_cycle / expected:.4f}")


def test_07_three_level_defect():
    three = zm.three_level_config(coupling=2.0, photon_number=8)
    leakage = zm.leakage(three)
    assert leakage > 1e-6

    tau_m = three.measure_interval
    four = zm.four_level_config_from_deltas(0.0, 0.0, cycle_time=2 * tau_m,
                                            final_time=2 * tau_m, photon_number=8)
    four = zm.FourLevelConfig(mode_frequencies=four.mode_frequencies,
                              atom_a=four.atom_a, atom_b=four.atom_b,
                              coupling=2.0, photon_number=8, free_interval=tau_m,
                              measure_interval=tau_m, final_time=2 * tau_m)
    cross = zm.leakage(four)
    assert cross < 1e-12
    report(7, f"three-level leakage {leakage:.3e} > 1e-6, four-level {cross:.1e} < 1e-12")


def test_08_readout_chain():
    config = rd.readout_config()
    for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        t_f = phi / config.clock_frequency
        e = np.exp(1j * phi)

        def expect(entries):
            grid = np.zeros((4, 4), dtype=complex)
            for (a, b), value in entries.items():
                grid[a, b] = value
            return grid

        accumulated = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f, config)
        np.testing.assert_allclose(accumulated, expect({
            (zm.E1, zm.G1): 0.5, (zm.G1, zm.E1): -0.5,
            (zm.E2, zm.G2): 0.5 * e, (zm.G2, zm.E2): -0.5 * e}), atol=1e-12)
        flipped = rd.flip_sign_atom_b(rd.flip_sign_atom_b(accumulated, zm.E1), zm.E2)
        np.testing.assert_allclose(flipped, expect({
            (zm.E1, zm.G1): 0.5, (zm.G1, zm.E1): 0.5,
            (zm.E2, zm.G2): 0.5 * e, (zm.G2, zm.E2): 0.5 * e}), atol=1e-12)
        mixed = rd.mix_ground_levels(flipped)
        w = 1.0 / (2.0 * math.sqrt(2.0))
        np.testing.assert_allclose(mixed, expect({
            (zm.E1, zm.G1): w, (zm.E1, zm.G2): w,
            (zm.G1, zm.E1): w, (zm.G2, zm.E1): w,
            (zm.E2, zm.G1): -w * e, (zm.E2, zm.G2): w * e,
            (zm.G1, zm.E2): -w * e, (zm.G2, zm.E2): w * e}), atol=1e-12)
        final, probability = rd.postselect_not_g2(mixed)
        assert probability == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(final, expect({
            (zm.E1, zm.G1): 0.5, (zm.G1, zm.E1): 0.5,
            (zm.E2, zm.G1): -0.5 * e, (zm.G1, zm.E2): -0.5 * e}), atol=1e-12)
    report(8, "gate chain reproduces all four target states over 16 phases; "
              "post-selection probability 1/2")


def test_09_phase_recovery():
    config = rd.readout_config()
    phase_zero = rd.readout_phase(config, 0.0)
    assert abs(phase_zero) < 0.05
    phase_pi = rd.readout_phase(config, math.pi / config.clock_frequency)
    wrapped = (phase_pi - math.pi + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(wrapped) < 0.05

    elapsed = np.linspace(0.0, 0.28, 8)
    phases = np.unwrap([rd.readout_phase(config, t) for t in elapsed])
    slope, _ = np.polyfit(elapsed, phases, 1)
    assert slope == pytest.approx(config.clock_frequency, rel=0.005)

    # amplitude acceptance replaced by the perturbative-vs-full agreement
    for amplitude in (1.0, 0.5):
        weak = rd.readout_config(drive_amplitude=amplitude)
        state, _ = rd.readout_chain(weak, 0.0)
        model = rd.emission_model(weak)
        full = rd.emit_field_trace(state, model, method="full")
        fast = rd.emit_field_trace(state, model, method="perturbative")
        scale = np.max(np.abs(full.quadrature))
        assert np.max(np.abs(full.quadrature - fast.quadrature)) <= 0.05 * scale
    report(9, f"phases ({phase_zero:+.3f}, pi{wrapped:+.3f}), slope "
              f"{slope:.4f} vs 10, perturbative model within 5%")


def test_10_allan_arithmetic():
    reference = dp.allan_deviation(dp.AllanParams(1.0, 1e9, 100, 1.0, 100.0))
    expected = (1.0 / (1e9 * math.sqrt(100.0))) * math.sqrt(1.0 / 100.0)
    assert reference == expected
    assert reference == pytest.approx(1e-11, rel=1e-12)

    for atoms in (1, 4, 100, 10_000):
        for averaging in (1.0, 4.0, 16.0, 100.0):
            value = dp.allan_deviation(dp.AllanParams(1.0, 1e9, atoms, 1.0, averaging))
            # power-of-four rescalings are exact in binary floating point
            quadrupled = dp.allan_deviation(dp.AllanParams(1.0, 1e9, atoms, 1.0,
                                                           4.0 * averaging))
            assert value / quadrupled == 2.0
            four_atoms = dp.allan_deviation(dp.AllanParams(1.0, 1e9, 4 * atoms,
                                                           1.0, averaging))
            assert value / four_atoms == 2.0
            # a decimal factor of 10 is representable only to 64-bit rounding,
            # so the hundredfold ratio is pinned to within one unit in the last place
            hundredfold = dp.allan_deviation(dp.AllanParams(1.0, 1e9, 100 * atoms,
                                                            1.0, averaging))
            ratio = value / hundredfold
            assert abs(ratio - 10.0) <= np.spacing(10.0)
    report(10, "grid exact to 64-bit rounding; sqrt scaling ratios exact")


def test_11_determinism(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("""
[dephasing]
replicas = 1500
histogram_replicas = 1500
time_points = 61

[zeno2]
cycle_times = 0.005
final_time = 1.0

[readout]
time_points = 1501
time_max = 2.5
fit_periods = 16
""")
    # fresh processes, since OpenBLAS reads its thread count once, when it loads
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        collected = {}
        for command in ("dephasing", "zeno2", "readout"):
            out = tmp_path / f"{command}_{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "zenolock.cli", command, "--config", str(config_path),
                 "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            for csv in sorted(out.glob("*.csv")):
                collected[f"{command}/{csv.name}"] = csv.read_bytes()
        outputs[threads] = collected
    assert outputs["1"]
    assert outputs["1"] == outputs["2"]
    report(11, f"{len(outputs['1'])} CSVs byte-identical at OPENBLAS_NUM_THREADS 1 and 2, "
               "in fresh processes")
