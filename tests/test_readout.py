"""Readout chain gates, emission model, and phase extraction."""

import math

import numpy as np
import pytest

from zenolock import readout as rd
from zenolock.hilbert import StateVector
from zenolock.zeno_multilevel import E1, E2, G1, G2


def chain_state(entries):
    basis = rd.pair_basis()
    amps = np.zeros(basis.dimension, dtype=complex)
    for (a, b), value in entries.items():
        amps[basis.index([a, b])] = value
    return StateVector(basis, amps)


def expected_accumulated(phi):
    return chain_state({(E1, G1): 0.5, (G1, E1): -0.5,
                        (E2, G2): 0.5 * np.exp(1j * phi),
                        (G2, E2): -0.5 * np.exp(1j * phi)})


def expected_superradiant(phi):
    return chain_state({(E1, G1): 0.5, (G1, E1): 0.5,
                        (E2, G2): 0.5 * np.exp(1j * phi),
                        (G2, E2): 0.5 * np.exp(1j * phi)})


def expected_mixed(phi):
    w = 1.0 / (2.0 * math.sqrt(2.0))
    e = np.exp(1j * phi)
    return chain_state({
        (E1, G1): w, (E1, G2): w, (G1, E1): w, (G2, E1): w,
        (E2, G1): -w * e, (E2, G2): w * e, (G1, E2): -w * e, (G2, E2): w * e,
    })


def expected_postselected(phi):
    e = np.exp(1j * phi)
    return chain_state({(E1, G1): 0.5, (G1, E1): 0.5,
                        (E2, G1): -0.5 * e, (G1, E2): -0.5 * e})


class TestConfig:
    def test_clock_and_emission_frequencies(self):
        config = rd.readout_config()
        assert config.clock_frequency == pytest.approx(10.0)
        assert config.emission_frequency == pytest.approx(110.0)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            rd.readout_config(detuning=0.0)


class TestAccumulate:
    def test_zero_time_is_identity(self):
        config = rd.readout_config()
        state = rd.accumulate_clock_phase(rd.locked_pair_state(), 0.0, config)
        np.testing.assert_allclose(state.amplitudes,
                                   rd.locked_pair_state().amplitudes, atol=1e-12)

    def test_pi_phase_flips_relative_sign(self):
        config = rd.readout_config()
        t_f = math.pi / config.clock_frequency
        state = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f, config)
        np.testing.assert_allclose(state.amplitudes,
                                   expected_accumulated(math.pi).amplitudes, atol=1e-12)

    def test_two_pi_periodicity(self):
        config = rd.readout_config()
        period = 2.0 * math.pi / config.clock_frequency
        for t_f in (0.13, 0.57):
            a = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f, config)
            b = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f + period, config)
            np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-10)


class TestGates:
    def test_flip_is_involution(self):
        state = rd.locked_pair_state()
        twice = rd.flip_sign_atom_b(rd.flip_sign_atom_b(state, E1), E1)
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-15)

    def test_flips_map_subradiant_to_superradiant(self):
        config = rd.readout_config()
        for phi in (0.0, 1.1, math.pi):
            state = rd.accumulate_clock_phase(
                rd.locked_pair_state(), phi / config.clock_frequency, config)
            flipped = rd.flip_sign_atom_b(rd.flip_sign_atom_b(state, E1), E2)
            np.testing.assert_allclose(flipped.amplitudes,
                                       expected_superradiant(phi).amplitudes, atol=1e-12)

    def test_mixer_is_unitary(self):
        gate = rd.ground_mixer_gate(rd.pair_basis())
        assert gate.unitary

    def test_mixer_splits_first_ground_level(self):
        state = chain_state({(G1, E1): 1.0})
        mixed = rd.mix_ground_levels(state)
        population_g2 = sum(abs(mixed.amplitudes[mixed.basis.index([G2, level])]) ** 2
                            for level in range(4))
        assert population_g2 == pytest.approx(0.5, abs=1e-12)

    def test_mixer_reproduces_expected_superposition(self):
        for phi in (0.0, 2.2, math.pi):
            mixed = rd.mix_ground_levels(expected_superradiant(phi))
            np.testing.assert_allclose(mixed.amplitudes,
                                       expected_mixed(phi).amplitudes, atol=1e-12)


class TestPostselect:
    def test_probability_one_half(self):
        # oracle: direct norm of the kept components of the mixed state
        kept = 4 * (1.0 / (2.0 * math.sqrt(2.0))) ** 2
        assert kept == pytest.approx(0.5, rel=1e-12)
        for phi in (0.0, 0.8, math.pi):
            state, probability = rd.postselect_not_g2(expected_mixed(phi))
            assert probability == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(state.amplitudes,
                                       expected_postselected(phi).amplitudes, atol=1e-12)

    def test_no_support_is_identity(self):
        state = chain_state({(E1, G1): 1.0})
        out, probability = rd.postselect_not_g2(state)
        assert probability == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_pure_g2_pair_rejected(self):
        state = chain_state({(G2, G2): 1.0})
        with pytest.raises(rd.ZeroProbabilityError):
            rd.postselect_not_g2(state)


class TestChain:
    @pytest.mark.parametrize("phi", np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
    def test_chain_reproduces_expected_states(self, phi):
        config = rd.readout_config()
        t_f = phi / config.clock_frequency
        accumulated = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f, config)
        np.testing.assert_allclose(accumulated.amplitudes,
                                   expected_accumulated(phi).amplitudes, atol=1e-12)
        flipped = rd.flip_sign_atom_b(rd.flip_sign_atom_b(accumulated, E1), E2)
        np.testing.assert_allclose(flipped.amplitudes,
                                   expected_superradiant(phi).amplitudes, atol=1e-12)
        mixed = rd.mix_ground_levels(flipped)
        np.testing.assert_allclose(mixed.amplitudes,
                                   expected_mixed(phi).amplitudes, atol=1e-12)
        final, probability = rd.postselect_not_g2(mixed)
        assert probability == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(final.amplitudes,
                                   expected_postselected(phi).amplitudes, atol=1e-12)


class TestEmission:
    def test_phases_at_zero_and_pi(self):
        config = rd.readout_config()
        model = rd.emission_model(config)
        state0, _ = rd.readout_chain(config, 0.0)
        trace0 = rd.emit_field_trace(state0, model)
        assert abs(trace0.fitted_phase) < 0.05
        t_pi = math.pi / config.clock_frequency
        state_pi, _ = rd.readout_chain(config, t_pi)
        trace_pi = rd.emit_field_trace(state_pi, model)
        wrapped = (trace_pi.fitted_phase - math.pi + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) < 0.05

    def test_antiphase_traces(self):
        config = rd.readout_config()
        state0, _ = rd.readout_chain(config, 0.0)
        state_pi, _ = rd.readout_chain(config, math.pi / config.clock_frequency)
        model = rd.emission_model(config)
        trace0 = rd.emit_field_trace(state0, model, fit=False)
        trace_pi = rd.emit_field_trace(state_pi, model, fit=False)
        amplitude = np.max(np.abs(trace0.quadrature))
        assert np.max(np.abs(trace0.quadrature + trace_pi.quadrature)) < 0.01 * amplitude

    def test_no_drive_means_no_emission(self):
        config = rd.readout_config(drive_amplitude=0.0)
        state, _ = rd.readout_chain(config, 0.3)
        trace = rd.emit_field_trace(state, rd.emission_model(config))
        assert np.max(np.abs(trace.quadrature)) < 1e-12
        assert trace.fitted_phase is None

    @pytest.mark.parametrize("amplitude", [1.0, 0.5])
    def test_perturbative_matches_full(self, amplitude):
        config = rd.readout_config(drive_amplitude=amplitude)
        state, _ = rd.readout_chain(config, 0.0)
        model = rd.emission_model(config)
        full = rd.emit_field_trace(state, model, method="full", fit=False)
        fast = rd.emit_field_trace(state, model, method="perturbative", fit=False)
        scale = np.max(np.abs(full.quadrature))
        assert np.max(np.abs(full.quadrature - fast.quadrature)) <= 0.05 * scale

    def test_effective_coupling_scales_like_drive_over_detuning(self):
        config = rd.readout_config()
        model = rd.emission_model(config)
        reference = config.coupling * config.drive_amplitude / (4.0 * config.detuning)
        assert model.effective_coupling() == pytest.approx(reference, rel=0.05)

    def test_virtual_cloud_component_exists_in_bare_quadrature(self):
        config = rd.readout_config()
        state, _ = rd.readout_chain(config, 0.0)
        model = rd.emission_model(config)
        radiated = rd.emit_field_trace(state, model, fit=False)
        bare = rd.emit_field_trace(state, model, fit=False, radiated_only=False)
        scale = np.max(np.abs(radiated.quadrature))
        assert np.max(np.abs(bare.quadrature - radiated.quadrature)) > 0.01 * scale

    def test_cutoff_overflow_flagged(self):
        # states from the readout chain hold at most one quantum, so force the
        # overflow with a doubly excited pair that can emit two photons
        config = rd.readout_config()
        config = rd.ReadoutConfig(atom_a=config.atom_a, atom_b=config.atom_b,
                                  elapsed_time=0.0, detuning=config.detuning,
                                  drive_amplitude=config.drive_amplitude,
                                  coupling=config.coupling,
                                  readout_times=config.readout_times,
                                  overflow_threshold=1e-30)
        both_excited = chain_state({(E1, E1): 1.0})
        with pytest.raises(rd.CutoffOverflowError):
            rd.emit_field_trace(both_excited, rd.emission_model(config))

    def test_mode_population_above_one_photon_is_small(self):
        config = rd.readout_config()
        state, _ = rd.readout_chain(config, 0.0)
        rd.emit_field_trace(state, rd.emission_model(config))  # threshold 1e-3 not tripped

    def test_measured_frequency_near_model_value(self):
        config = rd.readout_config()
        state, _ = rd.readout_chain(config, 0.0)
        trace = rd.emit_field_trace(state, rd.emission_model(config))
        measured = rd.estimate_oscillation_frequency(trace.times, trace.quadrature)
        resolution = 2.0 * math.pi / (trace.times[-1] - trace.times[0])
        assert abs(measured - trace.fitted_frequency) < resolution


def dense_radiated_quadrature(state, model):
    """The radiated quadrature through the full 48x48 annihilation operator.

    Evolves every basis column, projects onto the resonant channel and takes
    <a> with the dense ``a``; returns the quadrature and the population above
    one photon.
    """
    mode_dim = model.config.emission_mode_cutoff + 1
    amps = model.embed(state, dressed=True)
    w, v = model.hamiltonian.eigensystem()
    times = np.asarray(model.readout_times)
    states = (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ amps)) @ v.T
    populations = np.abs(states.reshape(len(times), -1, mode_dim)) ** 2
    above_one = float(populations[:, :, 2:].sum(axis=(1, 2)).max())
    measured = (states @ model.p_matrix.conj()) @ model.p_matrix.T
    mean_a = np.einsum("ti,ij,tj->t", measured.conj(), rd._mode_annihilation(model.config),
                       measured)
    return 2.0 * mean_a.real, above_one


class TestChannelQuadrature:
    def test_matches_dense_annihilation_over_phase_sweep(self):
        # the 16-phase sweep of demos/04_clock_readout.py
        config = rd.readout_config()
        model = rd.emission_model(config)
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            state, _ = rd.readout_chain(config, phi / config.clock_frequency)
            quadrature, above_one, _ = rd._full_quadrature(state, model)
            oracle, oracle_above_one = dense_radiated_quadrature(state, model)
            assert np.max(np.abs(oracle)) > 0.2
            assert np.max(np.abs(quadrature - oracle)) <= 1e-14
            assert above_one == oracle_above_one

    def test_overflow_population_matches_dense(self):
        # a doubly excited pair populates the two-photon level
        config = rd.readout_config()
        model = rd.emission_model(config)
        state = chain_state({(E1, E1): 1.0})
        quadrature, above_one, _ = rd._full_quadrature(state, model)
        oracle, oracle_above_one = dense_radiated_quadrature(state, model)
        assert oracle_above_one > 1e-3
        assert above_one == pytest.approx(oracle_above_one, rel=1e-12)
        assert np.max(np.abs(quadrature - oracle)) <= 1e-14


class TestPhaseTable:
    def test_built_once_per_model(self):
        model = rd.emission_model(rd.readout_config())
        table = model.phase_table()
        assert model.phase_table() is table
        assert not table.flags.writeable
        w, _ = model.hamiltonian.eigensystem()
        np.testing.assert_array_equal(
            table, np.exp(-1j * np.outer(np.asarray(model.readout_times), w)))


class TestPhaseExtraction:
    def test_synthetic_trace(self):
        t = np.linspace(0.0, 2.0, 3001)
        trace = np.sin(110.0 * t + 0.7) * (1.0 - 0.05 * t)
        assert rd.extract_phase(t, trace, 110.0, fit_periods=32) == pytest.approx(0.7, abs=0.01)

    def test_amplitude_scaling_invariance(self):
        t = np.linspace(0.0, 2.0, 3001)
        trace = np.sin(110.0 * t - 1.2)
        small = rd.extract_phase(t, 1e-6 * trace, 110.0)
        large = rd.extract_phase(t, 1e4 * trace, 110.0)
        assert small == pytest.approx(large, abs=1e-9)

    def test_zero_trace_rejected(self):
        t = np.linspace(0.0, 2.0, 1001)
        with pytest.raises(rd.DegenerateFitError):
            rd.extract_phase(t, np.zeros_like(t), 110.0)

    def test_phase_sweep_is_linear_in_elapsed_time(self):
        config = rd.readout_config()
        elapsed = np.linspace(0.0, 0.28, 8)
        phases = np.unwrap([rd.readout_phase(config, t) for t in elapsed])
        slope, intercept = np.polyfit(elapsed, phases, 1)
        assert slope == pytest.approx(config.clock_frequency, rel=0.005)
        residual = phases - (slope * elapsed + intercept)
        assert np.max(np.abs(residual)) < 0.05

    def test_postselection_probability_independent_of_elapsed_time(self):
        config = rd.readout_config()
        for t_f in np.linspace(0.0, 0.6, 7):
            _, probability = rd.readout_chain(config, t_f)
            assert probability == pytest.approx(0.5, abs=1e-10)
