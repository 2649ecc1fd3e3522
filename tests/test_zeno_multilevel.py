"""Three-level leakage defect and the four-level protocol."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import stepwise_oracle as so
from kronecker_oracles import (build_hamiltonian, combine_labels, commutator_norm,
                               conserved_labels, evolve, occupation_labels)
from test_zeno_two_level import assert_survival_past_underflow, reduced_cycle_map
from zenolock import hilbert as h
from zenolock import zeno_multilevel as zm
from zenolock import zeno_two_level as z2


def four_level_small(delta_1=1.0, delta_2=0.5, n=2, cycle=0.02, final=0.2):
    return zm.four_level_config_from_deltas(delta_1, delta_2, cycle_time=cycle,
                                            final_time=final, photon_number=n)


def hand_written_numbers(config, basis):
    """Per-mode excitation numbers, written out for each level scheme."""
    c1, c2 = config.fock_cutoffs
    if isinstance(config, zm.ThreeLevelConfig):
        upper_1, upper_2 = [0, 1, 0], [0, 0, 1]
    else:
        upper_1, upper_2 = [0, 0, 1, 0], [0, 0, 0, 1]
    n1 = occupation_labels(basis, [upper_1, upper_1, list(range(c1 + 1)), [0] * (c2 + 1)])
    n2 = occupation_labels(basis, [upper_2, upper_2, [0] * (c1 + 1), list(range(c2 + 1))])
    return n1, n2


SCHEMES = {
    "three": lambda n: zm.three_level_config(photon_number=n),
    "four": lambda n: four_level_small(n=n),
}
# every pair the scheme model builds, the one-transition two-level pair too
PAIRS = {**SCHEMES, "two": lambda n: z2.config_for_cycle_time(0.02, 0.2, photon_number=n)}


class TestSchemeModel:
    @pytest.mark.parametrize("scheme", sorted(PAIRS))
    def test_conserved_labels_match_hand_written_tables(self, scheme):
        config = PAIRS[scheme](2)
        basis = z2.pair_basis(config)
        if scheme == "two":
            # excited atoms plus photons
            expected = occupation_labels(basis, [[0, 1], [0, 1],
                                                 list(range(config.fock_cutoffs[0] + 1))])
        else:
            expected = combine_labels(*hand_written_numbers(config, basis))
        assert np.array_equal(conserved_labels(config), expected)

    @pytest.mark.parametrize("scheme", sorted(PAIRS))
    @pytest.mark.parametrize("n", [0, 3])
    def test_default_cutoffs(self, scheme, n):
        config = PAIRS[scheme](n)
        modes = len(config.TRANSITIONS)
        assert config.fock_cutoffs == (n + 2,) * modes
        assert z2.pair_basis(config).dims == (config.LEVELS, config.LEVELS) + (n + 3,) * modes


class TestHamiltonians:
    def test_three_level_hermitian(self):
        config = zm.three_level_config(photon_number=3)
        assert build_hamiltonian(config).hermitian

    def test_three_level_conserves_both_numbers(self):
        config = zm.three_level_config(photon_number=2)
        ham = build_hamiltonian(config)
        for labels in hand_written_numbers(config, ham.basis):
            number = h.OperatorMatrix(ham.basis, np.diag(labels.astype(complex)),
                                      hermitian=True)
            assert commutator_norm(ham, number) < 1e-12

    def test_three_level_identical_atoms_initial_state_stationary_uncoupled(self):
        config = zm.three_level_config(photon_number=2)
        ham = build_hamiltonian(config, coupled=False)
        state = so.subradiant_state(config)
        evolved = evolve(state, ham, 0.37)
        # identical atoms: both subradiant halves pick up pure phases
        populations = np.abs(evolved.amplitudes) ** 2
        np.testing.assert_allclose(populations, np.abs(state.amplitudes) ** 2,
                                   atol=1e-12)

    def test_four_level_hermitian_and_doubly_conserving(self):
        config = four_level_small()
        ham = build_hamiltonian(config)
        assert ham.hermitian
        for labels in hand_written_numbers(config, ham.basis):
            number = h.OperatorMatrix(ham.basis, np.diag(labels.astype(complex)),
                                      hermitian=True)
            assert commutator_norm(ham, number) < 1e-12

    def test_four_level_has_no_cross_matrix_elements(self):
        config = four_level_small()
        ham = build_hamiltonian(config)
        basis = ham.basis
        # any <E1 paired with G2| H |...> exchange: E1 <-> G2 or E2 <-> G1
        c1, c2 = config.fock_cutoffs
        for (upper, lower) in ((zm.E1, zm.G2), (zm.E2, zm.G1)):
            for m1 in range(c1):
                col = basis.index([lower, zm.G1, m1 + 1, 0])
                row = basis.index([upper, zm.G1, m1, 0])
                assert ham.matrix[row, col] == 0.0
            for m2 in range(c2):
                col = basis.index([lower, zm.G1, 0, m2 + 1])
                row = basis.index([upper, zm.G1, 0, m2])
                assert ham.matrix[row, col] == 0.0

    def test_block_evolver_matches_dense(self):
        config = four_level_small(n=2)
        ham = build_hamiltonian(config)
        evolver = h.BlockEvolver(zm.build_sector_hamiltonian(config))
        injected = so.subradiant_state(config, 2)
        for t in (0.01, 0.4):
            dense = evolve(injected, ham, t)
            blocked = so.evolve(evolver, injected, t)
            np.testing.assert_allclose(blocked.amplitudes, dense.amplitudes, atol=1e-10)

    def test_resonance_bookkeeping(self):
        config = four_level_small(delta_1=0.7, delta_2=0.3)
        assert config.delta(1) == pytest.approx(0.7)
        assert config.delta(2) == pytest.approx(0.3)
        assert config.mode_detunings() == pytest.approx((0.0, 0.0), abs=1e-12)


class TestInitialStates:
    def test_normalized(self):
        for config in (zm.three_level_config(), four_level_small()):
            state = zm.subradiant_state(config)
            assert state.shape == (config.LEVELS, config.LEVELS)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)

    def test_halves_antisymmetric_under_exchange(self):
        # swapping the atoms transposes the grid of (level of A, level of B)
        state = zm.subradiant_state(four_level_small())
        np.testing.assert_allclose(state.T, -state, atol=1e-15)

    def test_manifold_halves_are_orthogonal(self):
        config = four_level_small()
        half_1 = zm.pair_superposition(config, [(zm.E1, zm.G1)])
        half_2 = zm.pair_superposition(config, [(zm.E2, zm.G2)])
        assert abs(np.vdot(half_1, half_2)) == 0.0
        full = zm.subradiant_state(config)
        assert abs(np.vdot(full, half_1)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


class TestLeakage:
    def test_three_level_leaks(self):
        config = zm.three_level_config(coupling=2.0, photon_number=8)
        assert zm.leakage(config) > 1e-6

    def test_four_level_does_not(self):
        config = four_level_small(delta_1=0.0, delta_2=0.0, n=8)
        tau_m = z2.half_flop_time(2.0, 8)
        resonant = zm.FourLevelConfig(
            mode_frequencies=config.mode_frequencies, atom_a=config.atom_a,
            atom_b=config.atom_b, coupling=2.0, photon_number=8,
            free_interval=tau_m, measure_interval=tau_m, final_time=2 * tau_m)
        assert zm.leakage(resonant) < 1e-12

    def test_vacuum_modes_cannot_be_absorbed(self):
        config = zm.three_level_config(coupling=2.0, photon_number=8)
        assert zm.leakage(config.replace(photon_number=0)) < 1e-12

    def test_ordering_over_parameter_sweep(self):
        for n in (1, 2, 4, 8):
            for scale in (0.5, 1.0, 1.5):
                tau_m = scale * z2.half_flop_time(2.0, n)
                three = zm.three_level_config(coupling=2.0, photon_number=n,
                                              measure_interval=tau_m)
                four = four_level_small(0.0, 0.0, n=n)
                assert zm.leakage(three) > 1e-6
                assert zm.leakage(four.replace(measure_interval=tau_m, final_time=2.0)) < 1e-12


class TestClosedForms:
    def test_equal_splittings_match_two_level_form(self):
        assert z2.pe_analytic((2.0, 2.0), 0.001) == pytest.approx(
            z2.pe_analytic([2.0], 0.001), rel=1e-12)

    def test_zero_splittings_survive(self):
        forms = z2.ps_analytic((0.0, 0.0), 0.01, 1e-4, 50.0)
        assert forms.product_form == 1.0
        assert forms.exponential_form == 1.0

    def test_reference_value(self):
        assert z2.pe_analytic((2.0, 0.0), 0.001) == pytest.approx(2e-6, rel=1e-12)

    def test_single_manifold_weights_recover_two_level_error(self):
        # one transition is the two-level pair, whose first-order error is (Delta*tau)^2
        assert z2.pe_analytic([1.7], 0.003) == pytest.approx((1.7 * 0.003) ** 2, rel=1e-12)

    def test_out_of_regime(self):
        with pytest.raises(z2.OutOfRegimeError):
            z2.pe_analytic((40.0, 40.0), 1.0)


class TestProtocol:
    def test_compiled_matches_stepwise(self):
        config = four_level_small()
        compiled = zm.run_four_level_protocol(config)
        stepwise = so.run_protocol(config)
        np.testing.assert_allclose(compiled.p_success, stepwise.p_success, atol=1e-10)
        np.testing.assert_allclose(compiled.final_state, stepwise.final_state, atol=1e-10)

    @pytest.mark.parametrize("config, build_sectors, build_dense", [
        pytest.param(four_level_small(n=2), zm.build_sector_hamiltonian,
                     build_hamiltonian, id="2"),
        pytest.param(four_level_small(n=4), zm.build_sector_hamiltonian,
                     build_hamiltonian, id="4"),
        pytest.param(z2.config_for_cycle_time(0.02, 0.2, photon_number=6),
                     z2.build_two_level_hamiltonian, build_hamiltonian, id="two-level"),
    ])
    def test_sector_cycle_map_matches_dense(self, config, build_sectors, build_dense):
        sectors = build_sectors(config)
        sector_map = reduced_cycle_map(config, sectors)
        dense_map = so.cycle_matrix(config, so.coupling_window(
            config, sectors.basis,
            functools.partial(h._propagate, build_dense(config, coupled=False)),
            functools.partial(h._propagate, build_dense(config, coupled=True))))
        assert np.max(np.abs(dense_map)) > 0.1
        assert np.max(np.abs(sector_map - dense_map)) <= 1e-12

    def test_default_run_builds_no_pair_operator(self, monkeypatch):
        # the [zeno4] defaults of the CLI; 1936 basis states
        config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.001,
                                                  final_time=100.0)
        assert z2.pair_basis(config).dimension == 1936
        dimensions = []
        original = h.OperatorMatrix.__init__

        def recording(self, basis, *args, **kwargs):
            dimensions.append(basis.dimension)
            original(self, basis, *args, **kwargs)

        monkeypatch.setattr(h.OperatorMatrix, "__init__", recording)
        tracemalloc.start()
        try:
            trace = zm.run_four_level_protocol(config, max_trace_points=400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.max_mode_tail < 1e-8
        assert 1936 not in dimensions
        # one dense complex operator of the pair basis alone takes 60 MB
        assert peak < 32 * 2**20

    def test_largest_run_holds_no_basis_sized_array(self):
        # [zeno4] photon_number = 61 at the default trace_points: d = 65,536
        # basis states, of which the reach holds 56.  A warm run peaked at
        # 2.2 MB of traced allocations while it carried its start and final
        # state over the whole basis, and at 0.11 MB on the pair's grid; the
        # reach's mask of d bools (64 kB) is the one array that grows with d.
        config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.001,
                                                  final_time=100.0, photon_number=61)
        dimension = z2.pair_basis(config).dimension
        assert dimension == 65536
        zm.run_four_level_protocol(config, max_trace_points=400)
        tracemalloc.start()
        try:
            trace = zm.run_four_level_protocol(config, max_trace_points=400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a quarter of one complex vector of the basis
        assert peak < 16 * dimension // 4
        assert trace.final_state.shape == (4, 4)

    def test_compiled_jump_matches_stepwise(self):
        # 10 cycles at stride 4 end in a ragged gap of 2
        config = four_level_small()
        compiled = zm.run_four_level_protocol(config, max_trace_points=3)
        stepwise = so.run_protocol(config, max_trace_points=3)
        np.testing.assert_allclose(compiled.times, [0.0, 0.08, 0.16, 0.2], rtol=1e-12)
        np.testing.assert_allclose(compiled.p_success, stepwise.p_success, atol=1e-10)
        np.testing.assert_allclose(compiled.p_error_per_cycle, stepwise.p_error_per_cycle,
                                   atol=1e-10)
        np.testing.assert_allclose(compiled.final_state, stepwise.final_state, atol=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_survival_past_underflow_reaches_zero(self):
        # the CLI's [zeno4] cycle_times = 0.05, final_time = 5000, which once
        # raised "survival underflowed to zero by cycle 74250"
        def run(final_time, points):
            config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.05,
                                                      final_time=final_time)
            return zm.run_four_level_protocol(config, max_trace_points=points)

        assert_survival_past_underflow(run, 400)

    def test_matches_exponential_form(self):
        config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.002,
                                                  final_time=0.5, photon_number=4)
        trace = zm.run_four_level_protocol(config)
        np.testing.assert_allclose(trace.p_success[1:], trace.analytic_p_s[1:],
                                   rtol=0.02)

    def test_analytic_survival_is_the_closed_form_rate(self):
        config = zm.four_level_config_from_deltas(1.3, 2.9, cycle_time=0.002,
                                                  final_time=0.1, photon_number=2)
        trace = zm.run_four_level_protocol(config)
        d1, d2 = config.delta(1), config.delta(2)
        expected = np.exp(-(0.5 * (d1**2 + d2**2) * config.cycle_time) * trace.times)
        assert np.array_equal(trace.analytic_p_s, expected)

    @pytest.mark.parametrize("pe", [0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0])
    def test_out_of_regime_flag_agrees_with_closed_form(self, pe):
        tau = four_level_small().free_interval
        delta = math.sqrt(pe) / tau
        config = four_level_small(delta_1=delta, delta_2=delta)
        try:
            z2.pe_analytic(config.deltas(), config.free_interval)
            raises = False
        except z2.OutOfRegimeError:
            raises = True
        assert raises == (pe > 1.0)
        assert zm.run_four_level_protocol(config).out_of_regime == raises

    def test_per_cycle_error_matches_closed_form(self):
        config = zm.four_level_config_from_deltas(2.0, 1.0, cycle_time=0.002,
                                                  final_time=0.1, photon_number=4)
        trace = zm.run_four_level_protocol(config)
        expected = z2.pe_analytic((2.0, 1.0), config.free_interval)
        assert trace.p_error_per_cycle[1] == pytest.approx(expected, rel=0.02)

    def test_zero_splittings_survive(self):
        config = zm.four_level_config_from_deltas(0.0, 0.0, cycle_time=0.01,
                                                  final_time=0.3, photon_number=2)
        trace = zm.run_four_level_protocol(config)
        np.testing.assert_allclose(trace.p_success, 1.0, atol=1e-10)

    def test_branch_probabilities_sum_to_one(self):
        config = four_level_small()
        drift = build_hamiltonian(config, coupled=False)
        evolver = h.BlockEvolver(zm.build_sector_hamiltonian(config))
        state = evolve(so.subradiant_state(config), drift, config.free_interval)
        state = so.replace_mode_state(state, 2, config.photon_number)
        state = so.replace_mode_state(state, 3, config.photon_number)
        state = so.evolve(evolver, state, config.measure_interval)
        dist_1 = so.photon_number_distribution(state, 2)
        dist_2 = so.photon_number_distribution(state, 3)
        assert dist_1.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist_2.sum() == pytest.approx(1.0, abs=1e-12)
        joint = sum(
            so.project_photon_number(state, 2, k1).probability
            for k1 in range(config.fock_cutoffs[0] + 1))
        assert joint == pytest.approx(1.0, abs=1e-12)

    def test_cross_manifold_population_stays_zero(self):
        config = four_level_small()
        trace = so.run_protocol(config)
        assert zm.cross_manifold_population(trace.final_state) < 1e-12

    def test_survival_monotone_and_tail_empty(self):
        config = four_level_small()
        trace = zm.run_four_level_protocol(config)
        assert np.all(np.diff(trace.p_success) <= 1e-12)
        assert trace.max_mode_tail < 1e-8

    def test_residual_cosines_vanish_at_half_flop(self):
        config = four_level_small()
        assert zm.measurement_residual_cosine(config) == pytest.approx(0.0, abs=1e-12)
