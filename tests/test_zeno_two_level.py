"""Two-atom Zeno protocol: drift, measurement, cycles, survival curves."""

import dataclasses
import math

import numpy as np
import pytest

import stepwise_oracle as so
from kronecker_oracles import basis_state, commutator_norm
from zenolock import hilbert as h
from zenolock import zeno_multilevel as zm
from zenolock import zeno_two_level as z2


def small_config(**overrides):
    defaults = dict(free_interval=0.01, measure_interval=0.0005, final_time=0.1,
                    half_difference=2.0, coupling=None, photon_number=6)
    defaults.update(overrides)
    if defaults["coupling"] is None:
        defaults["coupling"] = z2.half_flop_time_inverse(
            defaults["measure_interval"], defaults["photon_number"])
    return so.two_level_config(**defaults)


# a config of every scheme; one __post_init__ checks them all
SCHEMES = {
    "two": small_config,
    "three": lambda: zm.three_level_config(photon_number=6),
    "four": lambda: zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.01,
                                                     final_time=0.1, photon_number=6),
}


class TestConfig:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("change, message", [
        pytest.param(dict(free_interval=0.0), "free_interval must be positive", id="free"),
        pytest.param(dict(measure_interval=-1e-3), "measure_interval must be non-negative",
                     id="measure"),
        pytest.param(dict(final_time=0.005), "final_time must cover at least one cycle",
                     id="final"),
        pytest.param(dict(photon_number=-1), "photon_number must be non-negative",
                     id="photons"),
        pytest.param(dict(coupling=0.0), "coupling must be positive when photons",
                     id="coupling"),
        pytest.param(dict(photon_number=7), "fock_cutoffs must be at least photon_number",
                     id="cutoff"),
    ])
    def test_rejects_invalid_field(self, scheme, change, message):
        config = SCHEMES[scheme]()
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(config, **change)

    def test_default_cutoff(self):
        config = so.two_level_config(free_interval=0.1, measure_interval=0.0,
                                     final_time=1.0, photon_number=7)
        assert config.fock_cutoffs == (9,)

    def test_atom_frequencies(self):
        config = z2.config_for_cycle_time(0.1, 1.0, cavity_frequency=100.0,
                                          common_offset=3.0, half_difference=2.0)
        assert config.atom_levels == ((0.0, 105.0), (0.0, 101.0))
        assert config.mode_frequencies == (100.0,)
        assert config.delta(1) == 2.0


class TestHamiltonian:
    def test_hermitian(self):
        config = small_config()
        for coupled in (False, True):
            ham = z2.build_hamiltonian(config, coupled)
            assert ham.hermitian

    def test_conserves_total_excitation(self):
        config = small_config()
        ham = z2.build_hamiltonian(config, coupled=True)
        labels = z2.conserved_labels(config)
        number = h.OperatorMatrix(ham.basis, np.diag(labels.astype(complex)),
                                  hermitian=True)
        assert commutator_norm(ham, number) < 1e-12

    def test_degenerate_uncoupled_subradiant_is_eigenstate(self):
        config = small_config(half_difference=0.0, common_offset=0.0)
        ham = z2.build_hamiltonian(config, coupled=False)
        sub = z2.subradiant_state(config, 0)
        image = ham.matrix @ sub.amplitudes
        energy = np.vdot(sub.amplitudes, image)
        np.testing.assert_allclose(image, energy * sub.amplitudes, atol=1e-12)

    def test_uncoupled_drops_exchange_terms(self):
        config = small_config()
        matrix = z2.build_hamiltonian(config, coupled=False).matrix
        assert not np.any(matrix - np.diag(matrix.diagonal()))


class TestPairStates:
    def test_normalized(self):
        config = small_config()
        assert z2.subradiant_state(config, 3).norm() == pytest.approx(1.0, abs=1e-15)

    def test_swap_antisymmetry(self):
        config = small_config()
        sub = z2.subradiant_state(config, 2)
        basis = sub.basis
        swapped = np.zeros_like(sub.amplitudes)
        for i, amp in enumerate(sub.amplitudes):
            a, b, m = basis.occupations(i)
            swapped[basis.index([b, a, m])] = amp
        np.testing.assert_allclose(swapped, -sub.amplitudes, atol=1e-15)

    def test_orthogonal_to_superradiant(self):
        config = small_config()
        sub = z2.subradiant_state(config, 2)
        sup = z2.superradiant_state(config, 2)
        assert abs(sub.overlap(sup)) < 1e-15


class TestFreeDrift:
    def test_first_order_superradiant_amplitude(self):
        # oracle: exact uncoupled evolution gives amplitude sin(Delta*tau),
        # within relative (Delta*tau)^2 of the first-order value Delta*tau
        for delta, tau in [(2.0, 1e-3), (2.0, 3e-3), (5.0, 2e-3)]:
            config = so.two_level_config(free_interval=tau, measure_interval=0.0,
                                         final_time=tau, half_difference=delta)
            drifted = so.free_drift(z2.subradiant_state(config, 0), config)
            amp = abs(z2.superradiant_state(config, 0).overlap(drifted))
            assert abs(amp - delta * tau) <= (delta * tau) ** 2 * (delta * tau)

    @pytest.mark.parametrize("tau", [0.01, 0.7, 13.0])
    def test_zero_split_preserves_subradiant(self, tau):
        config = so.two_level_config(free_interval=tau, measure_interval=0.0,
                                     final_time=tau, half_difference=0.0)
        sub = z2.subradiant_state(config, 0)
        drifted = so.free_drift(sub, config)
        assert sub.fidelity(drifted) == pytest.approx(1.0, abs=1e-12)

    def test_small_split_probability(self):
        config = so.two_level_config(free_interval=0.001, measure_interval=0.0,
                                     final_time=0.001, half_difference=2.0)
        drifted = so.free_drift(z2.subradiant_state(config, 0), config)
        prob = abs(z2.superradiant_state(config, 0).overlap(drifted)) ** 2
        assert prob == pytest.approx(4e-6, rel=1e-5)

    def test_requires_empty_cavity(self):
        config = small_config()
        with pytest.raises(z2.ProtocolError):
            so.free_drift(z2.subradiant_state(config, config.photon_number), config)


class TestHalfFlop:
    def test_reference_value(self):
        # oracle: first zero of cos(coupling*sqrt(n+1/2)*t)
        expected = math.pi / (4.0 * math.sqrt(12.5))
        assert expected == pytest.approx(0.22214, abs=5e-6)
        assert z2.half_flop_time(2.0, 12) == pytest.approx(expected, rel=1e-15)

    def test_doubling_coupling_halves_time(self):
        assert z2.half_flop_time(4.0, 12) == pytest.approx(z2.half_flop_time(2.0, 12) / 2)

    def test_large_photon_asymptotics(self):
        ratio = z2.half_flop_time(2.0, 40000) * math.sqrt(40000.5)
        assert ratio == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            z2.half_flop_time(0.0, 5)

    def test_inverse(self):
        tau_m = z2.half_flop_time(3.7, 9)
        assert z2.half_flop_time_inverse(tau_m, 9) == pytest.approx(3.7, rel=1e-12)


class TestMeasurementSegment:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_error_branch_weights(self, n):
        # after a drift of tau, the bright branch carries (tau*Delta)^2 split
        # (n+1)/(2n+1) onto |GG,n+1> and n/(2n+1) onto |EE,n-1>
        delta, tau = 0.02, 0.1
        tau_m = 1e-4
        config = so.two_level_config(
            free_interval=tau, measure_interval=tau_m, final_time=tau + tau_m,
            half_difference=delta, photon_number=n,
            coupling=z2.half_flop_time_inverse(tau_m, n))
        drifted = so.free_drift(z2.subradiant_state(config, 0), config)
        measured = so.measurement_segment(drifted, config)
        basis = measured.basis
        p_gg = measured.probability([z2.G, z2.G, n + 1])
        p_ee = measured.probability([z2.E, z2.E, n - 1])
        scale = (tau * delta) ** 2
        assert p_gg == pytest.approx(scale * (n + 1) / (2 * n + 1), rel=0.02)
        assert p_ee == pytest.approx(scale * n / (2 * n + 1), rel=0.02)

    def test_subradiant_is_dark(self):
        config = small_config(half_difference=0.0)
        measured = so.measurement_segment(z2.subradiant_state(config, 0), config)
        stay = so.project_photon_number(measured, 2, config.photon_number)
        assert stay.probability == pytest.approx(1.0, abs=1e-10)

    def test_partial_flop_error_probability(self):
        # away from the half flop the leaked weight carries the residual
        # sine factor: P(n+1 photons) = (tau*Delta)^2 (n+1)/(2n+1) sin^2(arg)
        delta, tau, n = 0.02, 0.1, 8
        full = z2.half_flop_time(400.0, n)
        tau_m = 0.37 * full
        config = so.two_level_config(
            free_interval=tau, measure_interval=tau_m, final_time=tau + tau_m,
            half_difference=delta, photon_number=n, coupling=400.0)
        drifted = so.free_drift(z2.subradiant_state(config, 0), config)
        measured = so.measurement_segment(drifted, config)
        outcome = so.project_photon_number(measured, 2, n + 1)
        argument = 400.0 * math.sqrt(n + 0.5) * tau_m
        expected = ((tau * delta) ** 2 * (n + 1) / (2 * n + 1)
                    * math.sin(argument) ** 2)
        assert outcome.probability == pytest.approx(expected, rel=0.02)

    def test_total_error_approaches_closed_form(self):
        # total leakage out of the n-photon sector tends to (Delta*tau)^2
        delta, tau = 0.1, 0.1
        tau_m = tau / 1000.0
        config = so.two_level_config(
            free_interval=tau, measure_interval=tau_m, final_time=tau + tau_m,
            half_difference=delta, photon_number=8,
            coupling=z2.half_flop_time_inverse(tau_m, 8))
        drifted = so.free_drift(z2.subradiant_state(config, 0), config)
        measured = so.measurement_segment(drifted, config)
        stay = so.project_photon_number(measured, 2, config.photon_number)
        error = 1.0 - stay.probability
        assert error / (delta * tau) ** 2 == pytest.approx(1.0, abs=0.01)


class TestZenoCycle:
    def test_zero_split_never_fails(self):
        config = small_config(half_difference=0.0)
        result = so.zeno_cycle(z2.subradiant_state(config, 0), config)
        assert result.success_probability == pytest.approx(1.0, abs=1e-10)

    def test_success_branch_refocuses(self):
        config = small_config(free_interval=0.005, measure_interval=2.5e-5)
        delta_tau = config.delta(1) * config.free_interval
        result = so.zeno_cycle(z2.subradiant_state(config, 0), config)
        fidelity = result.state.fidelity(z2.subradiant_state(config, 0))
        assert fidelity >= 1.0 - 10.0 * delta_tau**2

    def test_success_probability_matches_closed_form(self):
        config = small_config(free_interval=0.005, measure_interval=2.5e-5)
        result = so.zeno_cycle(z2.subradiant_state(config, 0), config)
        pe = z2.pe_analytic(config.deltas(), config.free_interval)
        assert 1.0 - result.success_probability == pytest.approx(pe, rel=0.02)

    def test_global_phase_changes_nothing(self):
        config = small_config()
        sub = z2.subradiant_state(config, 0)
        phased = h.StateVector(sub.basis, np.exp(1.23j) * sub.amplitudes)
        p_plain = so.zeno_cycle(sub, config).success_probability
        p_phased = so.zeno_cycle(phased, config).success_probability
        assert p_plain == pytest.approx(p_phased, abs=1e-15)


class TestClosedForms:
    def test_pe_reference(self):
        assert z2.pe_analytic([2.0], 0.001) == pytest.approx(4e-6, rel=1e-12)

    def test_product_and_exponential_agree_when_small(self):
        forms = z2.ps_analytic([0.5], 0.002, 0.00001, 10.0)
        assert forms.product_form == pytest.approx(forms.exponential_form, rel=1e-3)

    def test_out_of_regime_flagged(self):
        with pytest.raises(z2.OutOfRegimeError):
            z2.pe_analytic([1.5], 1.0)
        with pytest.raises(z2.OutOfRegimeError):
            z2.ps_analytic([1.5], 1.0, 0.0, 5.0)


class TestRunProtocol:
    def test_compiled_matches_stepwise(self):
        config = z2.config_for_cycle_time(0.01, 0.8)
        compiled = z2.run_protocol(config)
        stepwise = so.run_protocol(config)
        np.testing.assert_allclose(compiled.p_success, stepwise.p_success, atol=1e-10)
        np.testing.assert_allclose(compiled.final_state.amplitudes,
                                   stepwise.final_state.amplitudes, atol=1e-10)

    def test_compiled_jump_matches_stepwise(self):
        # 80 whole cycles at stride 12 end in a ragged gap of 8, then a
        # trailing partial cycle
        config = z2.config_for_cycle_time(0.01, 0.807)
        compiled = z2.run_protocol(config, max_trace_points=7)
        stepwise = so.run_protocol(config, max_trace_points=7)
        np.testing.assert_allclose(compiled.times[1:-1], 0.01 * np.r_[12:84:12, 80],
                                   rtol=1e-12)
        np.testing.assert_allclose(compiled.p_success, stepwise.p_success, atol=1e-10)
        np.testing.assert_allclose(compiled.p_error_per_cycle, stepwise.p_error_per_cycle,
                                   atol=1e-10)
        np.testing.assert_allclose(compiled.final_state.amplitudes,
                                   stepwise.final_state.amplitudes, atol=1e-10)

    @pytest.mark.parametrize("n", [0, 2, 6])
    def test_mode_tail_matches_first_stepwise_cycle(self, n):
        # |EE> with the mode empty holds two excitations, so the window
        # reaches n + 2 photons: the truncation boundary at fock_cutoff = n + 2
        config = small_config(photon_number=n, fock_cutoff=n + 2)
        start = basis_state(z2.pair_basis(config), [z2.E, z2.E, 0])
        trace = z2.run_zeno(config, z2.build_two_level_hamiltonian(config), start)
        expected = so.zeno_cycle(start, config).mode_tail
        assert expected > 1e-3
        assert abs(trace.max_mode_tail - expected) <= 1e-15

    def test_hundred_million_cycles(self):
        config = z2.config_for_cycle_time(1e-6, 100.0)
        trace = z2.run_protocol(config, max_trace_points=800)
        assert len(trace.times) == 801
        assert np.max(np.abs(trace.p_success / trace.analytic_p_s - 1.0)) <= 0.02
        numeric = 1.0 - trace.p_success[-1]
        analytic = 1.0 - trace.analytic_p_s[-1]
        assert numeric / analytic == pytest.approx(1.0, abs=0.05)
        assert trace.max_mode_tail < 1e-8
        assert np.linalg.norm(trace.final_state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_survival_underflow_raises(self):
        # the CLI's [zeno2] cycle_times = 0.05, final_time = 5000
        config = z2.config_for_cycle_time(0.05, 5000.0)
        with pytest.raises(z2.ProtocolError,
                           match="^survival underflowed to zero by cycle 74125$"):
            z2.run_protocol(config, max_trace_points=800)

    def test_unresolvable_cycle_error_raises(self):
        # (Delta tau)^2 = 4e-18 is below the rounding of the cycle map's norm,
        # which would set the survival instead of the physics
        config = z2.config_for_cycle_time(1e-9, 1e-6)
        assert 0.0 < config.delta(1)**2 * config.cycle_time**2 < z2.MIN_CYCLE_ERROR
        with pytest.raises(z2.ProtocolError, match="per-cycle error 4.000e-18 is below"):
            z2.run_protocol(config)

    @pytest.mark.parametrize("points", [0, -3])
    def test_trace_points_below_one_rejected(self, points):
        with pytest.raises(ValueError, match="max_points must be at least 1"):
            z2.run_protocol(z2.config_for_cycle_time(0.01, 0.1), max_trace_points=points)

    def test_short_run_matches_exponential(self):
        config = z2.config_for_cycle_time(0.002, 1.0)
        trace = z2.run_protocol(config)
        np.testing.assert_allclose(trace.p_success[1:], trace.analytic_p_s[1:],
                                   rtol=0.02)

    def test_zero_split_survives(self):
        config = z2.config_for_cycle_time(0.01, 0.5, half_difference=0.0)
        trace = z2.run_protocol(config)
        np.testing.assert_allclose(trace.p_success, 1.0, atol=1e-10)

    def test_survival_monotone(self):
        config = z2.config_for_cycle_time(0.005, 0.5)
        trace = z2.run_protocol(config)
        assert np.all(np.diff(trace.p_success) <= 1e-12)

    def test_partial_trailing_cycle_is_drift_only(self):
        config = dataclasses.replace(z2.config_for_cycle_time(0.01, 0.5), final_time=0.507)
        trace = z2.run_protocol(config)
        assert trace.times[-1] == pytest.approx(0.507)
        assert trace.p_success[-1] == trace.p_success[-2]

    def test_zeno_limit_scaling(self):
        # 1 - P_S shrinks linearly with the cycle time at fixed final time
        final_time = 2.0
        for cycle in (0.002, 0.001, 0.0005):
            config = z2.config_for_cycle_time(cycle, final_time)
            trace = z2.run_protocol(config)
            numeric = 1.0 - trace.p_success[-1]
            analytic = 1.0 - trace.analytic_p_s[-1]
            assert numeric / analytic == pytest.approx(1.0, abs=0.05)

    def test_phase_lock_at_final_time(self):
        config = z2.config_for_cycle_time(0.05, 10.0)
        trace = z2.run_protocol(config)
        delta_tau = config.delta(1) * config.free_interval
        fidelity = trace.final_state.fidelity(z2.subradiant_state(config, 0))
        assert fidelity >= 1.0 - 10.0 * delta_tau**2

    def test_common_offset_does_not_change_survival(self):
        # the offset detunes the error channels only at (offset/coupling)^2,
        # far below 1e-10 for measurement-dominated parameters
        base = None
        for offset in (0.0, 0.7, 2.0):
            config = z2.config_for_cycle_time(0.002, 0.2, common_offset=offset)
            trace = z2.run_protocol(config)
            if base is None:
                base = trace.p_success
            else:
                np.testing.assert_allclose(trace.p_success, base, atol=1e-10)

    def test_default_run_builds_no_pair_operator(self, monkeypatch):
        # the [zeno2] defaults of the CLI: two cycle times, each run until the
        # closed-form survival reaches 0.1
        dimensions = []
        original = h.OperatorMatrix.__init__

        def recording(self, basis, *args, **kwargs):
            dimensions.append(basis.dimension)
            original(self, basis, *args, **kwargs)

        monkeypatch.setattr(h.OperatorMatrix, "__init__", recording)
        for cycle in (0.001, 0.05):
            config = z2.config_for_cycle_time(cycle, math.log(10.0) / (4.0 * cycle))
            trace = z2.run_protocol(config, max_trace_points=800)
            assert trace.max_mode_tail < 1e-8
        assert dimensions == []

    def test_mode_tail_stays_empty(self):
        config = z2.config_for_cycle_time(0.005, 0.5)
        trace = z2.run_protocol(config)
        assert trace.max_mode_tail < 1e-8

    def test_analytic_survival_is_the_closed_form_rate(self):
        config = z2.config_for_cycle_time(0.01, 0.5, half_difference=1.7)
        trace = z2.run_protocol(config)
        expected = np.exp(-(config.delta(1)**2 * config.cycle_time) * trace.times)
        assert np.array_equal(trace.analytic_p_s, expected)

    @pytest.mark.parametrize("pe", [0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0])
    def test_out_of_regime_flag_agrees_with_closed_form(self, pe):
        config = small_config(half_difference=math.sqrt(pe) / 0.01)
        try:
            z2.pe_analytic(config.deltas(), config.free_interval)
            raises = False
        except z2.OutOfRegimeError:
            raises = True
        assert raises == (pe > 1.0)
        assert z2.run_protocol(config).out_of_regime == raises

    def test_out_of_regime_flag(self):
        config = so.two_level_config(free_interval=1.0, measure_interval=0.005,
                                     final_time=2.01, half_difference=1.5,
                                     photon_number=4,
                                     coupling=z2.half_flop_time_inverse(0.005, 4))
        trace = z2.run_protocol(config)
        assert trace.out_of_regime
