"""Readout chain gates, emission model, and phase extraction."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from kronecker_oracles import (annihilation, assemble_hamiltonian, at_emission_cutoff,
                               perturbative_quadrature, resonant_subspace)
from zenolock import hilbert as h
from zenolock import readout as rd
from zenolock import zeno_multilevel as zm
from zenolock.zeno_multilevel import E1, E2, G1, G2


def chain_state(entries):
    """The pair's grid with the given (level of A, level of B) amplitudes."""
    grid = np.zeros((4, 4), dtype=complex)
    for (a, b), value in entries.items():
        grid[a, b] = value
    return grid


def random_pair(rng):
    """A normalized pair grid of standard normal real and imaginary parts."""
    grid = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return grid / np.linalg.norm(grid)


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

    def test_readout_grid_is_one_read_only_array(self):
        # 8 bytes a sample, shared as is by the model and every trace
        config = rd.readout_config(time_points=11)
        times = config.readout_times
        assert isinstance(times, np.ndarray) and times.dtype == np.float64
        assert not times.flags.writeable
        np.testing.assert_array_equal(times, np.linspace(0.0, 5.0, 11))
        model = rd.emission_model(config)
        assert model.readout_times is times
        state, _ = rd.readout_chain(config, 0.05)
        assert rd.emit_field_traces([state], model)[0].times is times

    def test_readout_grid_is_a_copy(self):
        # the caller's array, and a view of it, stay the caller's to change
        base = np.linspace(0.0, 5.0, 11)
        config = rd.readout_config(time_points=11).replace(readout_times=base[:])
        assert base.flags.writeable
        base[3] = 9.0
        np.testing.assert_array_equal(config.readout_times, np.linspace(0.0, 5.0, 11))

    def test_empty_readout_grid_rejected_at_emission(self):
        config = rd.readout_config().replace(readout_times=())
        empty = rd.emission_model(config)
        assert empty.readout_times.shape == (0,)
        state, _ = rd.readout_chain(config, 0.05)
        with pytest.raises(ValueError, match="config.readout_times is empty"):
            rd.emit_field_traces([state], empty)


class TestLockedPair:
    def test_is_the_state_zeno4_locks(self):
        # the subradiant pair weighs each term 1/(sqrt(2) sqrt(2)), which
        # rounds to 0.4999999999999999, one ulp of 0.5 below the readout's
        config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.001, final_time=100.0)
        np.testing.assert_allclose(rd.locked_pair_state(), zm.subradiant_state(config),
                                   rtol=0, atol=2e-16)


class TestAccumulate:
    def test_zero_time_is_identity(self):
        config = rd.readout_config()
        state = rd.accumulate_clock_phase(rd.locked_pair_state(), 0.0, config)
        np.testing.assert_allclose(state, rd.locked_pair_state(), atol=1e-12)

    def test_pi_phase_flips_relative_sign(self):
        config = rd.readout_config()
        t_f = math.pi / config.clock_frequency
        state = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f, config)
        np.testing.assert_allclose(state, expected_accumulated(math.pi), atol=1e-12)

    def test_two_pi_periodicity(self):
        config = rd.readout_config()
        period = 2.0 * math.pi / config.clock_frequency
        for t_f in (0.13, 0.57):
            a = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f, config)
            b = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f + period, config)
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestGates:
    def test_flip_is_involution(self):
        state = rd.locked_pair_state()
        twice = rd.flip_sign_atom_b(rd.flip_sign_atom_b(state, E1), E1)
        np.testing.assert_allclose(twice, state, atol=1e-15)

    def test_flips_map_subradiant_to_superradiant(self):
        config = rd.readout_config()
        for phi in (0.0, 1.1, math.pi):
            state = rd.accumulate_clock_phase(
                rd.locked_pair_state(), phi / config.clock_frequency, config)
            flipped = rd.flip_sign_atom_b(rd.flip_sign_atom_b(state, E1), E2)
            np.testing.assert_allclose(flipped, expected_superradiant(phi), atol=1e-12)

    def test_mixer_is_unitary(self):
        rng = np.random.default_rng(5)
        first, second = random_pair(rng), random_pair(rng)
        mixed_first, mixed_second = rd.mix_ground_levels(first), rd.mix_ground_levels(second)
        assert np.linalg.norm(mixed_first) == pytest.approx(1.0, abs=1e-15)
        assert np.vdot(mixed_first, mixed_second) == pytest.approx(np.vdot(first, second),
                                                                   abs=1e-15)

    def test_mixer_splits_first_ground_level(self):
        state = chain_state({(G1, E1): 1.0})
        mixed = rd.mix_ground_levels(state)
        population_g2 = sum(abs(mixed[G2, level]) ** 2 for level in range(4))
        assert population_g2 == pytest.approx(0.5, abs=1e-12)

    def test_mixer_reproduces_expected_superposition(self):
        for phi in (0.0, 2.2, math.pi):
            mixed = rd.mix_ground_levels(expected_superradiant(phi))
            np.testing.assert_allclose(mixed, expected_mixed(phi), atol=1e-12)


class TestPostselect:
    def test_probability_one_half(self):
        # oracle: direct norm of the kept components of the mixed state
        kept = 4 * (1.0 / (2.0 * math.sqrt(2.0))) ** 2
        assert kept == pytest.approx(0.5, rel=1e-12)
        for phi in (0.0, 0.8, math.pi):
            state, probability = rd.postselect_not_g2(expected_mixed(phi))
            assert probability == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(state, expected_postselected(phi), atol=1e-12)

    def test_no_support_is_identity(self):
        state = chain_state({(E1, G1): 1.0})
        out, probability = rd.postselect_not_g2(state)
        assert probability == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_pure_g2_pair_rejected(self):
        state = chain_state({(G2, G2): 1.0})
        with pytest.raises(rd.ZeroProbabilityError):
            rd.postselect_not_g2(state)


class TestChain:
    def test_builds_no_operator(self, monkeypatch):
        # every chain step acts on the 4x4 grid of pair amplitudes, and the
        # emission stage on the sectors the resonant channel spans
        dimensions = []
        original = h.OperatorMatrix.__init__

        def recording(self, basis, *args, **kwargs):
            dimensions.append(basis.dimension)
            original(self, basis, *args, **kwargs)

        monkeypatch.setattr(h.OperatorMatrix, "__init__", recording)
        config = rd.readout_config()
        state, probability = rd.readout_chain(config, 0.3)
        assert probability == pytest.approx(0.5, abs=1e-12)
        model = rd.emission_model(config)
        assert rd.emit_field_trace(state, model).fitted_phase is not None
        assert dimensions == []

    @pytest.mark.parametrize("phi", np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
    def test_chain_reproduces_expected_states(self, phi):
        config = rd.readout_config()
        t_f = phi / config.clock_frequency
        accumulated = rd.accumulate_clock_phase(rd.locked_pair_state(), t_f, config)
        np.testing.assert_allclose(accumulated, expected_accumulated(phi), atol=1e-12)
        flipped = rd.flip_sign_atom_b(rd.flip_sign_atom_b(accumulated, E1), E2)
        np.testing.assert_allclose(flipped, expected_superradiant(phi), atol=1e-12)
        mixed = rd.mix_ground_levels(flipped)
        np.testing.assert_allclose(mixed, expected_mixed(phi), atol=1e-12)
        final, probability = rd.postselect_not_g2(mixed)
        assert probability == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(final, expected_postselected(phi), atol=1e-12)


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
        trace0 = rd.emit_field_trace(state0, model)
        trace_pi = rd.emit_field_trace(state_pi, model)
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
        full = rd.emit_field_trace(state, model).quadrature
        (fast,) = perturbative_quadrature(state.reshape(16, 1), model)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(full - fast)) <= 0.05 * scale

    def test_effective_hamiltonian_matches_second_order_sum(self):
        # H_eff[i, j] = (P^dag H P)[i, j] + sum over intermediates q of
        # conj(C[q, i]) C[q, j] (1/D[q, i] + 1/D[q, j]) / 2, entry by entry
        model = rd.emission_model(rd.readout_config())
        matrix, p = dense_emission(model)
        bare = matrix.diagonal().real
        channel = p.conj().T @ matrix @ p
        couplings = (matrix - np.diag(bare)) @ p
        couplings -= p @ (p.conj().T @ couplings)
        oracle = channel.copy()
        for q in range(matrix.shape[0]):
            for i in range(4):
                for j in range(4):
                    if abs(couplings[q, i]) > 1e-13 and abs(couplings[q, j]) > 1e-13:
                        oracle[i, j] += 0.5 * couplings[q, i].conjugate() * couplings[q, j] * (
                            1.0 / (channel[i, i].real - bare[q])
                            + 1.0 / (channel[j, j].real - bare[q]))
        assert np.max(np.abs(oracle - channel)) > 1e-3
        # one ulp of the diagonal entries (175 to 286) is 2.8e-14 to 5.7e-14
        np.testing.assert_allclose(model.h_eff, oracle, rtol=1e-15, atol=1e-14)

    @pytest.mark.parametrize("detuning, amplitude", [(10.0, 1.0), (-10.0, 1.0), (10.0, 5.0),
                                                     (10.0, 0.0), (1e3, 1.0)])
    def test_tuning_reaches_resonance_at_rounding_level(self, monkeypatch, detuning, amplitude):
        builds = []

        class Counted(rd._EmissionModel):
            def __init__(self, config, mode_frequency):
                builds.append(mode_frequency)
                super().__init__(config, mode_frequency)

        monkeypatch.setattr(rd, "_EmissionModel", Counted)
        config = rd.readout_config(detuning=detuning, drive_amplitude=amplitude, time_points=5)
        model = rd.emission_model(config)
        assert abs(model.resonance_mismatch()) <= 1e-12
        assert len(builds) <= 5

    def test_effective_coupling_scales_like_drive_over_detuning(self):
        config = rd.readout_config()
        model = rd.emission_model(config)
        reference = config.coupling * config.drive_amplitude / (4.0 * config.detuning)
        assert model.effective_coupling() == pytest.approx(reference, rel=0.05)

    def test_virtual_cloud_component_exists_in_bare_quadrature(self):
        config = rd.readout_config()
        state, _ = rd.readout_chain(config, 0.0)
        model = rd.emission_model(config)
        radiated = rd.emit_field_trace(state, model)
        bare, _ = dense_quadrature(state, model, radiated_only=False)
        scale = np.max(np.abs(radiated.quadrature))
        assert np.max(np.abs(bare - radiated.quadrature)) > 0.01 * scale

    def test_cutoff_overflow_flagged(self):
        # states from the readout chain hold at most one quantum, so force the
        # overflow with a doubly excited pair that can emit two photons
        config = rd.readout_config()
        both_excited = chain_state({(E1, E1): 1.0})
        with pytest.raises(rd.CutoffOverflowError):
            rd.emit_field_trace(both_excited, rd.emission_model(config))

    def test_cutoff_overflow_names_the_largest_weight_of_a_batch(self):
        config = rd.readout_config()
        model = rd.emission_model(config)
        partly = chain_state({(E1, E1): 0.6, (E1, G1): 0.8})
        fully = chain_state({(E1, E1): 1.0})
        _, weights = full_quadratures([partly, fully], model)
        assert rd.OVERFLOW_THRESHOLD < weights[0] < weights[1]
        first, second = sweep_states(config)[:2]
        with pytest.raises(rd.CutoffOverflowError, match=re.escape(f"is {weights[1]:.3e}") + "$"):
            rd.emit_field_traces([first, fully, partly, second], model)

    def test_mode_population_above_one_photon_is_small(self):
        config = rd.readout_config()
        state, _ = rd.readout_chain(config, 0.0)
        rd.emit_field_trace(state, rd.emission_model(config))  # threshold 1e-3 not tripped

    def test_measured_frequency_near_model_value(self):
        config = rd.readout_config()
        state, _ = rd.readout_chain(config, 0.0)
        trace = rd.emit_field_trace(state, rd.emission_model(config))
        measured = estimate_oscillation_frequency(trace.times, trace.quadrature)
        resolution = 2.0 * math.pi / (trace.times[-1] - trace.times[0])
        assert abs(measured - trace.fitted_frequency) < resolution


def estimate_oscillation_frequency(times, values) -> float:
    """Dominant angular frequency of a trace: the peak of its coarse periodogram."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 8:
        raise ValueError("need at least eight samples")
    dt = times[1] - times[0]
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(len(values), dt)
    peak = int(np.argmax(spectrum[1:])) + 1
    return rd.TWO_PI * float(freqs[peak])


def dense_emission(model):
    """The dense 48x48 emission Hamiltonian of a model and its 48x4 channel basis."""
    terms = rd._rotating_frame_terms(model.config, model.mode_frequency)
    return assemble_hamiltonian(*terms).matrix, resonant_subspace()


def per_block_eigensystem(model):
    """The model's eigensystem one sector at a time: one ``eigh`` per block.

    The bit-level oracle of the eigensystem that ``BlockEvolver`` lays out on
    the model's states, each block's eigenpairs on its span of them.
    """
    config = model.config
    channel = np.flatnonzero(resonant_subspace().any(axis=1))
    hamiltonian = h.assemble_sectors(*rd._rotating_frame_terms(config, model.mode_frequency),
                                     channel)
    assert np.array_equal(np.concatenate([idx for idx, _ in hamiltonian.sectors]),
                          model.states)
    size = len(model.states)
    values = np.empty(size)
    vectors = np.zeros((size, size), dtype=complex)
    start = 0
    for idx, block in hamiltonian.sectors:
        span = slice(start, start + len(idx))
        values[span], vectors[span, span] = np.linalg.eigh(block)
        start = span.stop
    return values, vectors


def dense_quadrature(state, model, radiated_only=True):
    """The quadrature through the dense emission Hamiltonian and the dense ``a``.

    Eliminates the intermediates, dresses the start state and evolves every
    basis column on the whole 48-state emission basis, eigendecomposing the
    dense matrix on each set of states with equal L (photons plus atoms in
    E1) and equal atoms in G2, as BlockEvolver does (test_hilbert holds that
    to the dense eigensystem).  Returns the radiated quadrature (the bare
    intracavity one, virtual cloud included, when ``radiated_only`` is
    false) and the population above one photon.
    """
    mode_dim = rd.EMISSION_BASIS.dims[2]
    matrix, p = dense_emission(model)
    bare = matrix.diagonal().real
    couplings = (matrix - np.diag(bare)) @ p
    couplings -= p @ (p.conj().T @ couplings)
    denominators = (p.conj().T @ matrix @ p).diagonal().real[None, :] - bare[:, None]
    dressing = np.zeros_like(couplings)
    np.divide(couplings, denominators, out=dressing, where=np.abs(couplings) > 1e-13)
    amps = np.kron(state.ravel(), np.eye(mode_dim)[0])
    amps = amps + dressing @ (p.conj().T @ amps)
    amps /= np.linalg.norm(amps)
    basis = rd.EMISSION_BASIS
    occupations = np.column_stack(np.unravel_index(np.arange(basis.dimension), basis.dims))
    conserved = np.column_stack([(occupations[:, :2] == E1).sum(axis=1) + occupations[:, 2],
                                 (occupations[:, :2] == G2).sum(axis=1)])
    w = np.empty(basis.dimension)
    v = np.zeros_like(matrix)
    for label in np.unique(conserved, axis=0):
        idx = np.flatnonzero((conserved == label).all(axis=1))
        w[idx], v[np.ix_(idx, idx)] = np.linalg.eigh(matrix[np.ix_(idx, idx)])
    times = np.asarray(model.readout_times)
    states = (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ amps)) @ v.T
    populations = np.abs(states.reshape(len(times), -1, mode_dim)) ** 2
    above_one = float(populations[:, :, 2:].sum(axis=(1, 2)).max())
    if radiated_only:
        states = (states @ p.conj()) @ p.T
    a = annihilation(basis, 2).matrix
    mean_a = np.einsum("ti,ij,tj->t", states.conj(), a, states)
    return 2.0 * mean_a.real, above_one


def sweep_states(config):
    """Chain states of the 16-phase sweep of demos/04_clock_readout.py."""
    return [rd.readout_chain(config, phi / config.clock_frequency)[0]
            for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)]


def full_quadratures(states, model):
    """``_full_quadrature`` of the states as one batch of amplitude columns."""
    return rd._full_quadrature(np.column_stack([s.ravel() for s in states]), model)


class TestBatchedEmission:
    def test_sweep_equals_per_state_traces(self):
        config = rd.readout_config()
        model = rd.emission_model(config)
        states = sweep_states(config)
        traces = rd.emit_field_traces(states, model)
        assert len(traces) == len(states)
        for state, trace in zip(states, traces):
            single = rd.emit_field_trace(state, model)
            np.testing.assert_array_equal(trace.times, single.times)
            np.testing.assert_allclose(trace.quadrature, single.quadrature, rtol=0, atol=1e-15)
            assert trace.fitted_phase == pytest.approx(single.fitted_phase, abs=1e-12)
            assert trace.fitted_frequency == single.fitted_frequency

    def test_no_states_give_no_traces(self):
        model = rd.emission_model(rd.readout_config(time_points=5))
        assert rd.emit_field_traces([], model) == []

    @staticmethod
    def _whole_and_blocked(monkeypatch, columns):
        config = rd.readout_config()
        model = rd.emission_model(config)
        states = sweep_states(config)
        monkeypatch.setattr(rd, "_BLOCK_AMPLITUDES", 1 << 30)
        whole = rd.emit_field_traces(states, model)
        monkeypatch.setattr(rd, "_BLOCK_AMPLITUDES", max(1, 4 * columns * len(model.states)))
        return whole, rd.emit_field_traces(states, model)

    def test_blocks_of_states_equal_one_product(self, monkeypatch):
        # blocks of 3 states, the last one of 1, each in 191 blocks of 20 or
        # 21 of the 4001 times
        whole, blocked = self._whole_and_blocked(monkeypatch, 3)
        for one, other in zip(whole, blocked):
            np.testing.assert_allclose(one.quadrature, other.quadrature, rtol=0, atol=1e-15)
            assert one.fitted_phase == pytest.approx(other.fitted_phase, abs=1e-12)

    def test_blocks_of_two_times_equal_one_product(self, monkeypatch):
        # the smallest block: one state and 2 or 3 times, never one (numpy
        # hands a one-row product to gemv)
        whole, blocked = self._whole_and_blocked(monkeypatch, 0)
        for one, other in zip(whole, blocked):
            np.testing.assert_allclose(one.quadrature, other.quadrature, rtol=0, atol=1e-15)

    @staticmethod
    def _traced_peak(points):
        config = rd.readout_config(time_points=points)
        model = rd.emission_model(config)
        states = sweep_states(config)
        tracemalloc.start()
        try:
            rd.emit_field_traces(states, model)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sweep_working_set_is_bounded(self):
        # 16 x 4001 x 4 channel amplitudes in one product (4 MB) and their
        # products took 8.0 MB, and a whole phase table (1.3 MB) 2.5 MB; the
        # 16 traces (0.5 MB) and one slab's products take 1.3 MB
        assert self._traced_peak(4001) < 1_750_000

    def test_long_grid_working_set_is_the_quadratures(self):
        # at 40,001 samples the whole phase table took the peak to 20 MB; the
        # 16 traces (5.1 MB) and a constant, one slab's products and the
        # grid and fit-window copies of about 1.1 MB, set it now
        assert self._traced_peak(40001) < 16 * 40001 * 8 + 1_500_000

    def test_wrong_shape_anywhere_in_the_batch(self):
        # a pair state is its 4 x 4 grid: a state on the emission basis, a
        # flat grid and a two-level pair's grid are rejected by the chain's
        # steps and anywhere in an emission batch
        config = rd.readout_config()
        model = rd.emission_model(config)
        states = sweep_states(config)[:2]
        steps = [lambda state: rd.accumulate_clock_phase(state, 0.1, config),
                 lambda state: rd.flip_sign_atom_b(state, E1), rd.mix_ground_levels,
                 rd.postselect_not_g2, lambda state: rd.emit_field_trace(state, model)]
        for stray in (np.eye(48)[0], states[0].ravel(), np.eye(2, dtype=complex)):
            for step in steps:
                with pytest.raises(ValueError, match="4 x 4"):
                    step(stray)
            with pytest.raises(ValueError, match="4 x 4"):
                rd.emit_field_traces([*states, stray], model)

    def test_degenerate_fit_is_per_state(self):
        # both atoms in G2 lie outside the radiating channel, so that trace is zero
        config = rd.readout_config()
        first, second = sweep_states(config)[:2]
        dark = chain_state({(G2, G2): 1.0})
        traces = rd.emit_field_traces([first, dark, second], rd.emission_model(config))
        assert [trace.fitted_phase is None for trace in traces] == [False, True, False]
        assert not np.any(traces[1].quadrature)


class TestChannelQuadrature:
    def test_matches_dense_annihilation_over_phase_sweep(self):
        # a chain state has no L = 2 weight, so it never reaches two photons
        config = rd.readout_config()
        model = rd.emission_model(config)
        states = sweep_states(config)
        quadratures, above_one = full_quadratures(states, model)
        assert quadratures.shape == (16, len(config.readout_times))
        for state, quadrature, weight in zip(states, quadratures, above_one):
            oracle, oracle_above_one = dense_quadrature(state, model)
            assert np.max(np.abs(oracle)) > 0.2
            assert np.max(np.abs(quadrature - oracle)) <= 1e-14
            assert weight == 0.0
            assert oracle_above_one <= 1e-28

    def test_overflow_population_matches_dense(self):
        # a doubly excited pair populates the two-photon level
        config = rd.readout_config()
        model = rd.emission_model(config)
        state = chain_state({(E1, E1): 1.0})
        (quadrature,), (above_one,) = full_quadratures([state], model)
        oracle, oracle_above_one = dense_quadrature(state, model)
        assert oracle_above_one > 1e-3
        assert oracle_above_one <= above_one + 1e-12
        assert np.max(np.abs(quadrature - oracle)) <= 1e-14

    @pytest.mark.parametrize("seed", [None, 3])
    def test_state_with_g2_weight_matches_dense(self, seed):
        # weight outside the channel's sectors still counts in the
        # normalization of the dressed start
        if seed is None:
            state = expected_mixed(1.1)
        else:
            rng = np.random.default_rng(seed)
            state = random_pair(rng)
        model = rd.emission_model(rd.readout_config())
        (quadrature,), _ = full_quadratures([state], model)
        oracle, _ = dense_quadrature(state, model)
        assert np.max(np.abs(oracle)) > 0.01
        assert np.max(np.abs(quadrature - oracle)) <= 1e-13

    def test_eigenvalues_match_the_dense_hamiltonian(self):
        # the eigenvalues are those of the dense Hamiltonian on the model's states
        model = rd.emission_model(rd.readout_config())
        matrix, _ = dense_emission(model)
        np.testing.assert_allclose(
            np.sort(model.eigenvalues),
            np.linalg.eigvalsh(matrix[np.ix_(model.states, model.states)]), rtol=0, atol=1e-12)

    def test_model_build_solves_stacked_blocks_only(self, monkeypatch):
        # each build solves its sectors through BlockEvolver: one stacked eigh
        # per block size (L = 0, 1, 2 with no atom in G2), and no eigh of its own
        shapes = []
        original = np.linalg.eigh

        def recording(matrices):
            shapes.append(np.shape(matrices))
            return original(matrices)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        rd.emission_model(rd.readout_config())
        builds = len(shapes) // 3
        assert builds >= 1 and shapes == [(1, 4, 4), (1, 8, 8), (1, 9, 9)] * builds

    @pytest.mark.parametrize("cutoff, drive", [(1, 1.0), (2, 1.0), (5, 1.0), (2, 4.0)])
    def test_eigensystem_equals_the_per_block_oracle(self, monkeypatch, cutoff, drive):
        at_emission_cutoff(monkeypatch, cutoff)
        config = rd.readout_config(drive_amplitude=drive, time_points=5)
        model = rd.emission_model(config)
        values, vectors = per_block_eigensystem(model)
        np.testing.assert_array_equal(model.eigenvalues, values)
        np.testing.assert_array_equal(model.eigenvectors, vectors)

    @pytest.mark.parametrize("cutoff", [1, 2, 5, 127])
    def test_channel_equals_the_dense_columns_on_the_states(self, monkeypatch, cutoff):
        at_emission_cutoff(monkeypatch, cutoff)
        model = rd.emission_model(rd.readout_config(time_points=5))
        assert np.array_equal(model.p_matrix, resonant_subspace()[model.states])

    def test_embedding_holds_no_emission_basis_array(self, monkeypatch):
        # 2,000 starts on a mode cut at 127 photons (2048 basis states): a
        # (2048 x 2000) vacuum start array and its norm took 132 MB; the 21
        # held states and the 7 pairs off the reach take 2.5 MB
        at_emission_cutoff(monkeypatch, 127)
        config = rd.readout_config(time_points=5)
        model = rd.emission_model(config)
        states = sweep_states(config)
        pairs = np.column_stack([states[k % 16].ravel() for k in range(2000)])
        tracemalloc.start()
        try:
            model.embed(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_sweep_is_bit_identical_at_every_cutoff_from_two(self, monkeypatch):
        # L is conserved and a chain state has no L = 2 weight, so a larger
        # cutoff only renames basis indices: the mode's cut at two photons
        # loses nothing
        def quadratures(cutoff):
            at_emission_cutoff(monkeypatch, cutoff)
            config = rd.readout_config(time_points=401)
            return full_quadratures(sweep_states(config), rd.emission_model(config))[0]

        reference = quadratures(2)
        for cutoff in (5, 127):
            np.testing.assert_array_equal(quadratures(cutoff), reference)

    def test_channel_annihilation_is_dense_a_on_the_channel(self):
        model = rd.emission_model(rd.readout_config())
        p = resonant_subspace()
        a = annihilation(rd.EMISSION_BASIS, 2).matrix
        # 1/sqrt(2)^2 * 2 rounds to 1 + 2.2e-16
        np.testing.assert_allclose(p.conj().T @ a @ p, rd._CHANNEL_ANNIHILATION,
                                   rtol=0, atol=3e-16)


def whole_table_quadratures(pairs, model, method):
    """The quadratures through one whole phase table exp(-i w t), shape (states, times).

    The reference for the slab path: the table spans the model's whole
    readout grid, and its rows enter the products in the same blocks of
    states and slabs of times.
    """
    if method == "full":
        v = model.eigenvectors
        w, coeff, readout = (model.eigenvalues, v.conj().T @ model.embed(pairs),
                             v.T @ model.p_matrix.conj())
    else:
        w, v = np.linalg.eigh(model.h_eff)
        coeff = v.conj().T @ (model.p_matrix.conj().T @ model._vacuum(pairs))
        readout = v.T
    table = -1j * np.outer(np.asarray(model.readout_times), w)
    np.exp(table, out=table)
    size, count = coeff.shape
    width = max(1, min(count, rd._BLOCK_AMPLITUDES // (4 * size)))
    slabs = max(1, min(len(table) // 2, -(-4 * width * len(table) // rd._BLOCK_AMPLITUDES)))
    rows, cols = np.nonzero(rd._CHANNEL_ANNIHILATION)
    quadratures = np.empty((count, len(table)))
    for start in range(0, count, width):
        part = coeff[:, start:start + width]
        columns = (part[:, :, None] * readout[:, None, :]).reshape(size, -1)
        for times, out in zip(np.array_split(table, slabs),
                              np.array_split(quadratures[start:start + width], slabs, axis=1)):
            m = (times @ columns).reshape(len(times), part.shape[1], 4)
            mean_a = sum(m[..., row].conj() * m[..., col] for row, col in zip(rows, cols))
            out[...] = 2.0 * mean_a.real.T
    return quadratures


class TestSlabbedPhaseFactors:
    QUADRATURES = {"full": lambda pairs, model: rd._full_quadrature(pairs, model)[0],
                   "perturbative": perturbative_quadrature}

    @staticmethod
    def _pairs(config, count):
        phases = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False) + 0.3
        states = [rd.readout_chain(config, phi / config.clock_frequency)[0] for phi in phases]
        return np.column_stack([state.ravel() for state in states])

    # the 16-phase clock-chain sweep (16 slabs of 250-251 times), the
    # 37-phase sweep of configs/ci/blas-ragged.cfg at 6007 samples (55 slabs,
    # the first 12 one time longer), one state (one slab of all 4001), and the
    # 16 phases in blocks of 3 states, the last one of 1, in each of 191 slabs
    # of 20-21 times
    @pytest.mark.parametrize("method", ["full", "perturbative"])
    @pytest.mark.parametrize("points, count, block", [(4001, 16, None), (6007, 37, None),
                                                      (4001, 1, None), (4001, 16, 3)])
    def test_bit_identical_to_the_whole_table(self, monkeypatch, method, points, count, block):
        config = rd.readout_config(time_points=points)
        model = rd.emission_model(config)
        pairs = self._pairs(config, count)
        if block is not None:
            monkeypatch.setattr(rd, "_BLOCK_AMPLITUDES", 4 * block * len(model.states))
        quadratures = self.QUADRATURES[method](pairs, model)
        np.testing.assert_array_equal(quadratures, whole_table_quadratures(pairs, model, method))

    def test_model_holds_nothing_that_grows_with_the_grid(self):
        # after a sweep, the model holds no phase factors for its grid
        def array_bytes(points):
            config = rd.readout_config(time_points=points)
            model = rd.emission_model(config)
            rd.emit_field_traces(sweep_states(config)[:1], model)
            return sum(value.nbytes for value in vars(model).values()
                       if isinstance(value, np.ndarray))

        assert array_bytes(40001) == array_bytes(5)


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
