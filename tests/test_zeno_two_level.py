"""Two-atom Zeno protocol: drift, measurement, cycles, survival curves."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stepwise_oracle as so
from kronecker_oracles import basis_state, build_hamiltonian, commutator_norm, conserved_labels
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
    ])
    def test_rejects_invalid_field(self, scheme, change, message):
        config = SCHEMES[scheme]()
        with pytest.raises(ValueError, match=message):
            config.replace(**change)

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
            ham = build_hamiltonian(config, coupled)
            assert ham.hermitian

    def test_conserves_total_excitation(self):
        config = small_config()
        ham = build_hamiltonian(config, coupled=True)
        labels = conserved_labels(config)
        number = h.OperatorMatrix(ham.basis, np.diag(labels.astype(complex)),
                                  hermitian=True)
        assert commutator_norm(ham, number) < 1e-12

    def test_degenerate_uncoupled_subradiant_is_eigenstate(self):
        config = small_config(half_difference=0.0, common_offset=0.0)
        ham = build_hamiltonian(config, coupled=False)
        sub = so.subradiant_state(config)
        image = ham.matrix @ sub.amplitudes
        energy = np.vdot(sub.amplitudes, image)
        np.testing.assert_allclose(image, energy * sub.amplitudes, atol=1e-12)

    def test_uncoupled_drops_exchange_terms(self):
        config = small_config()
        matrix = build_hamiltonian(config, coupled=False).matrix
        assert not np.any(matrix - np.diag(matrix.diagonal()))


class TestPairStates:
    def test_normalized(self):
        config = small_config()
        assert np.linalg.norm(z2.subradiant_state(config)) == pytest.approx(1.0, abs=1e-15)

    def test_swap_antisymmetry(self):
        # swapping the atoms transposes the grid of (level of A, level of B)
        config = small_config()
        sub = z2.subradiant_state(config)
        assert sub.shape == (2, 2)
        np.testing.assert_allclose(sub.T, -sub, atol=1e-15)
        np.testing.assert_allclose(z2.superradiant_state(config).T, z2.superradiant_state(config),
                                   atol=1e-15)

    def test_orthogonal_to_superradiant(self):
        config = small_config()
        sub = z2.subradiant_state(config)
        sup = z2.superradiant_state(config)
        assert abs(np.vdot(sub, sup)) < 1e-15


class TestFreeDrift:
    def test_first_order_superradiant_amplitude(self):
        # oracle: exact uncoupled evolution gives amplitude sin(Delta*tau),
        # within relative (Delta*tau)^2 of the first-order value Delta*tau
        for delta, tau in [(2.0, 1e-3), (2.0, 3e-3), (5.0, 2e-3)]:
            config = so.two_level_config(free_interval=tau, measure_interval=0.0,
                                         final_time=tau, half_difference=delta)
            drifted = so.free_drift(so.subradiant_state(config), config)
            amp = abs(so.superradiant_state(config).overlap(drifted))
            assert abs(amp - delta * tau) <= (delta * tau) ** 2 * (delta * tau)

    @pytest.mark.parametrize("tau", [0.01, 0.7, 13.0])
    def test_zero_split_preserves_subradiant(self, tau):
        config = so.two_level_config(free_interval=tau, measure_interval=0.0,
                                     final_time=tau, half_difference=0.0)
        sub = so.subradiant_state(config)
        drifted = so.free_drift(sub, config)
        assert sub.fidelity(drifted) == pytest.approx(1.0, abs=1e-12)

    def test_small_split_probability(self):
        config = so.two_level_config(free_interval=0.001, measure_interval=0.0,
                                     final_time=0.001, half_difference=2.0)
        drifted = so.free_drift(so.subradiant_state(config), config)
        prob = abs(so.superradiant_state(config).overlap(drifted)) ** 2
        assert prob == pytest.approx(4e-6, rel=1e-5)

    def test_requires_empty_cavity(self):
        config = small_config()
        with pytest.raises(z2.ProtocolError):
            so.free_drift(so.subradiant_state(config, config.photon_number), config)


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
        drifted = so.free_drift(so.subradiant_state(config), config)
        measured = so.measurement_segment(drifted, config)
        basis = measured.basis
        p_gg = abs(measured.amplitudes[basis.index([z2.G, z2.G, n + 1])]) ** 2
        p_ee = abs(measured.amplitudes[basis.index([z2.E, z2.E, n - 1])]) ** 2
        scale = (tau * delta) ** 2
        assert p_gg == pytest.approx(scale * (n + 1) / (2 * n + 1), rel=0.02)
        assert p_ee == pytest.approx(scale * n / (2 * n + 1), rel=0.02)

    def test_subradiant_is_dark(self):
        config = small_config(half_difference=0.0)
        measured = so.measurement_segment(so.subradiant_state(config), config)
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
        drifted = so.free_drift(so.subradiant_state(config), config)
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
        drifted = so.free_drift(so.subradiant_state(config), config)
        measured = so.measurement_segment(drifted, config)
        stay = so.project_photon_number(measured, 2, config.photon_number)
        error = 1.0 - stay.probability
        assert error / (delta * tau) ** 2 == pytest.approx(1.0, abs=0.01)


class TestZenoCycle:
    def test_zero_split_never_fails(self):
        config = small_config(half_difference=0.0)
        result = so.zeno_cycle(so.subradiant_state(config), config)
        assert result.success_probability == pytest.approx(1.0, abs=1e-10)

    def test_success_branch_refocuses(self):
        config = small_config(free_interval=0.005, measure_interval=2.5e-5)
        delta_tau = config.delta(1) * config.free_interval
        result = so.zeno_cycle(so.subradiant_state(config), config)
        fidelity = result.state.fidelity(so.subradiant_state(config))
        assert fidelity >= 1.0 - 10.0 * delta_tau**2

    def test_success_probability_matches_closed_form(self):
        config = small_config(free_interval=0.005, measure_interval=2.5e-5)
        result = so.zeno_cycle(so.subradiant_state(config), config)
        pe = z2.pe_analytic(config.deltas(), config.free_interval)
        assert 1.0 - result.success_probability == pytest.approx(pe, rel=0.02)

    def test_global_phase_changes_nothing(self):
        config = small_config()
        sub = so.subradiant_state(config)
        phased = so.StateVector(sub.basis, np.exp(1.23j) * sub.amplitudes)
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
        np.testing.assert_allclose(compiled.final_state, stepwise.final_state, atol=1e-10)

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
        np.testing.assert_allclose(compiled.final_state, stepwise.final_state, atol=1e-10)

    @pytest.mark.parametrize("n", [0, 2, 6])
    def test_mode_tail_matches_first_stepwise_cycle(self, n):
        # |EE> with the mode empty holds two excitations, so the window
        # reaches n + 2 photons: the truncation boundary at the Fock cutoff n + 2
        config = small_config(photon_number=n)
        start = basis_state(z2.pair_basis(config), [z2.E, z2.E, 0])
        trace = z2.run_zeno(config, z2.build_two_level_hamiltonian(config), so.pair_grid(start))
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
        assert np.linalg.norm(trace.final_state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("total", [2**63 - 2, 2**63 - 1, 10**19, 2**64, 10**303])
    def test_recorded_cycles_are_exact_integers(self, total):
        # from 2^63 - 1 cycles numpy's arange made them float64 up to 2^64,
        # and the float gaps reached np.linalg.matrix_power; every power of
        # this phase map is exact, so the run reaches the last row
        stride = -(-total // 7)
        rows = -(-total // stride)
        assert rows == 7
        phase = np.diag([1.0, 1j])
        t, p_success, p_error = np.full((3, rows), np.nan)
        z2._recorded_survival(phase, np.array([1.0, 0.0], dtype=complex), stride, total,
                              t, p_success, p_error)
        for i in range(rows):
            assert t[i] == float(min((i + 1) * stride, total))
        assert np.array_equal(p_success, np.ones(rows))

    def test_warm_run_holds_one_table(self):
        # 300,000 recorded cycles: the trace's table takes 32 bytes a point,
        # and SurvivalTrace's monotonicity check a transient 8 more.  The
        # recorded cycles and their gaps as two more arrays held 56 bytes a
        # point; each column as its own array, with a survival and an
        # exponent array besides, 97.
        config = z2.config_for_cycle_time(0.001, 300.0)
        z2.run_protocol(config, max_trace_points=300_000)
        tracemalloc.start()
        try:
            trace = z2.run_protocol(config, max_trace_points=300_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.times) == 300_001
        assert peak < 48 * 300_000

    def test_run_past_the_float_range_holds_no_record(self):
        # 1.25e302 cycles empty the state long before the last of 200,000
        # recorded points.  Besides its (200,002, 4) table the run holds less
        # than 1 MB; an object array of the recorded cycles, Python ints of
        # about 1000 bits, held about 345 bytes a point.
        config = z2.config_for_cycle_time(0.001, 1e300)
        with pytest.raises(z2.ProtocolError, match="^survival is exactly zero by cycle "):
            z2.run_protocol(config, max_trace_points=200_000)
        tracemalloc.start()
        try:
            with pytest.raises(z2.ProtocolError):
                z2.run_protocol(config, max_trace_points=200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 200_002 + 1_000_000

    @pytest.mark.filterwarnings("error")
    def test_survival_past_underflow_reaches_zero(self):
        # the CLI's [zeno2] cycle_times = 0.05, final_time = 5000, which once
        # raised "survival underflowed to zero by cycle 74125"
        assert_survival_past_underflow(
            lambda final_time, points: z2.run_protocol(z2.config_for_cycle_time(0.05, final_time),
                                                       max_trace_points=points), 800)

    def test_exactly_zero_survival_raises(self):
        # a nilpotent map empties the state at the second cycle; a state that
        # only shrinks is scaled by powers of two, and its norms are exact
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(z2.ProtocolError, match="^survival is exactly zero by cycle 2$"):
            z2._recorded_survival(nilpotent, np.array([0.0, 1.0], dtype=complex), 1, 4,
                                  *np.empty((3, 4)))
        record = np.arange(1, 15)
        shrinking = np.diag([2.0**-50, 2.0**-51]).astype(complex)
        t, p_success, p_error = np.full((3, len(record)), np.nan)
        x = z2._recorded_survival(shrinking, np.array([1.0, 0.0], dtype=complex), 1, 14,
                                  t, p_success, p_error)
        # the state is rescaled to 0.5 after cycles 7 and 13, below 2**-600,
        # so the ratios stay exact; the survival rounds to 0.0 past 2**-1074
        assert np.array_equal(t, record)
        assert np.array_equal(p_success, np.ldexp(1.0, -100 * record))
        assert np.array_equal(p_error, np.full(len(record), 1.0 - 2.0**-100))
        assert np.abs(x).max() == 2.0**-51

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
        config = z2.config_for_cycle_time(0.01, 0.5).replace(final_time=0.507)
        trace = z2.run_protocol(config)
        assert trace.times[-1] == pytest.approx(0.507)
        assert trace.p_success[-1] == trace.p_success[-2]
        assert trace.p_error_per_cycle[-1] == 0.0
        assert trace.table[0].tolist() == [0.0, 1.0, 0.0, 1.0]

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
        fidelity = abs(np.vdot(trace.final_state, z2.subradiant_state(config)))
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


def reduced_cycle_map(config, hamiltonian):
    """The per-cycle map that :func:`zeno_two_level.run_zeno` reads off its held-state window."""
    evolver = h.BlockEvolver(hamiltonian)
    empty = z2._atom_states(hamiltonian.basis, 0)
    energies = h._diagonal(hamiltonian.basis, hamiltonian.diagonal_weights, empty)
    drift = np.exp(-1j * config.free_interval * energies)
    return z2.cycle_matrix(config, evolver, z2.coupling_window(config, evolver, drift))


def pair_cycle_map(config):
    """The per-cycle map that :func:`zeno_two_level.run_zeno` builds for ``config``."""
    return reduced_cycle_map(config, z2.build_sector_hamiltonian(config))


def pair_config(scheme, photons):
    """The default pair of a scheme (zeno2's at its shorter cycle) with ``photons`` injected."""
    if scheme == "two":
        return z2.config_for_cycle_time(0.001, 0.1, photon_number=photons)
    if scheme == "three":
        return zm.three_level_config(photon_number=photons)
    return zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.001, final_time=0.1,
                                            photon_number=photons)


class TestHeldWindow:
    @pytest.mark.parametrize("scheme, photons", [
        ("two", 0), ("two", 1), ("two", 12), ("two", 508), ("three", 0), ("three", 8),
        ("four", 0), ("four", 2), ("four", 8), ("four", 61)])
    def test_cycle_map_is_the_whole_basis_oracle(self, scheme, photons):
        # the held-state window and the (dimension, atom states) window of the
        # same drift phases and sector products give the same map bit for bit
        config = pair_config(scheme, photons)
        hamiltonian = z2.build_sector_hamiltonian(config)
        oracle = so.cycle_matrix(config, so.sector_window(config, hamiltonian))
        reduced = reduced_cycle_map(config, hamiltonian)
        assert np.max(np.abs(oracle)) > 0.1
        assert np.array_equal(reduced, oracle)

    @pytest.mark.parametrize("scheme, photons", [
        ("two", 0), ("two", 12), ("three", 8), ("four", 0), ("four", 8), ("four", 61)])
    @pytest.mark.parametrize("start", ["subradiant", "upper"])
    def test_mode_tail_is_the_whole_basis_oracle(self, scheme, photons, start):
        # |upper upper> with the modes empty holds two excitations of mode 1,
        # so its window reaches the Fock cutoff n + 2
        config = pair_config(scheme, photons)
        hamiltonian = z2.build_sector_hamiltonian(config)
        if start == "subradiant":
            initial = z2.subradiant_state(config)
        else:
            upper = config.TRANSITIONS[0][0]
            initial = np.zeros((config.LEVELS, config.LEVELS), dtype=complex)
            initial[upper, upper] = 1.0
        trace = z2.run_zeno(config, hamiltonian, initial)
        expected = so.window_tail(config, so.sector_window(config, hamiltonian), initial.ravel())
        assert (expected > 1e-3) == (start == "upper")
        assert abs(trace.max_mode_tail - expected) <= 1e-15

    @pytest.mark.parametrize("scheme", ["two", "four"])
    @pytest.mark.parametrize("mix", [False, True])
    def test_start_with_photons_rejected(self, scheme, mix):
        # a grid of atom amplitudes holds no photons: a start with one photon in
        # every mode, alone or as an even mix with the empty modes, is a vector
        # of the whole basis, rejected by its shape as any but (LEVELS, LEVELS)
        config = pair_config(scheme, 12 if scheme == "two" else 8)
        hamiltonian = z2.build_sector_hamiltonian(config)
        amplitudes = so.subradiant_state(config, 1).amplitudes
        if mix:
            amplitudes = amplitudes + so.subradiant_state(config).amplitudes
        grid = z2.subradiant_state(config)
        other = zm.subradiant_state(pair_config("four" if scheme == "two" else "two", 2))
        for start in (amplitudes, amplitudes.reshape(config.LEVELS, -1), grid.ravel(),
                      grid[None], other):
            with pytest.raises(ValueError, match="initial state has shape"):
                z2.run_zeno(config, hamiltonian, start)

    @settings(max_examples=300, deadline=None)
    @given(levels=st.lists(st.integers(2, 4), max_size=2),
           cutoffs=st.lists(st.integers(1, 4), max_size=2), data=st.data())
    def test_largest_energy_is_the_whole_basis_maximum(self, levels, cutoffs, data):
        # the drift-phase check reads max|E| over the basis from the weights
        assume(levels or cutoffs)
        basis = h.build_basis([h.Atom(n) for n in levels] + [h.Mode(c) for c in cutoffs])
        weight = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e17, 1e17),
                           st.floats(-1e307, 1e307))
        weights = [data.draw(st.lists(weight, min_size=dim, max_size=dim))
                   for dim in basis.dims]
        energies = h._diagonal(basis, weights, np.arange(basis.dimension))
        assert h._largest_energy(weights) == np.max(np.abs(energies))


def survival_state_by_state(cycle_map, x, stride, cycles):
    """Recorded cycles, and squared norms before and after each as two rows, one state at a time.

    The bit-level oracle of the chunked norms of ``_recorded_survival``.
    """
    record = so.recorded_cycles(stride, cycles)
    survival = []
    done = 0
    for j in record:
        if j - done > 1:
            x = np.linalg.matrix_power(cycle_map, j - done - 1) @ x
        previous = float(x.real @ x.real + x.imag @ x.imag)
        x = cycle_map @ x
        survival.append((previous, float(x.real @ x.real + x.imag @ x.imag)))
        done = j
    return np.array(record, dtype=float), np.array(survival).T, x


CHUNK_EDGES = [z2.RECORD_CHUNK - 1, z2.RECORD_CHUNK, z2.RECORD_CHUNK + 1, 2 * z2.RECORD_CHUNK + 1]


def chunk_case(records, stride, scheme):
    """(cycle map, random start, stride, cycles) of ``records`` records at ``stride``.

    At stride 3 the last gap is a ragged 2, so the run takes two powers of the map.
    """
    if scheme == "two":
        config = z2.config_for_cycle_time(0.01, 1.0)
    else:
        config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.01,
                                                  final_time=1.0, photon_number=2)
    cycle_map = pair_cycle_map(config)
    rng = np.random.default_rng(records)
    x = rng.standard_normal(len(cycle_map)) + 1j * rng.standard_normal(len(cycle_map))
    cycles = stride * records - (stride > 1)
    assert len(so.recorded_cycles(stride, cycles)) == records
    return cycle_map, x, stride, cycles


class TestRecordChunks:
    @pytest.mark.parametrize("records", CHUNK_EDGES)
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("scheme", ["two", "four"])
    def test_chunk_norms_are_the_per_state_dot(self, records, stride, scheme):
        cycle_map, x, stride, cycles = chunk_case(records, stride, scheme)
        t, p_success, p_error = np.full((3, records), np.nan)
        last = z2._recorded_survival(cycle_map, x, stride, cycles, t, p_success, p_error)
        record, (before, after), expected_last = survival_state_by_state(cycle_map, x, stride,
                                                                         cycles)
        np.testing.assert_array_equal(t, record)
        np.testing.assert_array_equal(p_success, after)
        np.testing.assert_array_equal(p_error, 1.0 - after / before)
        np.testing.assert_array_equal(last, expected_last)

    @pytest.mark.parametrize("records", CHUNK_EDGES)
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("scheme", ["two", "four"])
    def test_rescaled_chunks_are_the_per_state_dot(self, records, stride, scheme):
        # the map scaled by 2**-20 takes 2**-40 off the squared norm a cycle,
        # so the state is rescaled every 15 cycles, inside chunks and across
        # their edges; every scaling is by a power of two, which is exact
        cycle_map, x, stride, cycles = chunk_case(records, stride, scheme)
        t, p_success, p_error = np.full((3, records), np.nan)
        z2._recorded_survival(cycle_map * 2.0**-20, x, stride, cycles, t, p_success, p_error)
        record, (before, after), _ = survival_state_by_state(cycle_map, x, stride, cycles)
        np.testing.assert_array_equal(t, record)
        np.testing.assert_array_equal(p_success, np.ldexp(after, -40 * record.astype(int)))
        np.testing.assert_array_equal(p_error, 1.0 - np.ldexp(after / before, -40))

    @pytest.mark.parametrize("cycles", CHUNK_EDGES[:3])
    def test_runs_at_chunk_edges_match_stepwise(self, cycles):
        config = z2.config_for_cycle_time(0.01, 0.01 * cycles)
        compiled = z2.run_protocol(config)
        stepwise = so.run_protocol(config)
        assert len(compiled.times) == cycles + 1
        np.testing.assert_allclose(compiled.p_success, stepwise.p_success, atol=1e-10)
        np.testing.assert_allclose(compiled.p_error_per_cycle, stepwise.p_error_per_cycle,
                                   atol=1e-10)
        np.testing.assert_allclose(compiled.final_state, stepwise.final_state, atol=1e-10)


def assert_survival_past_underflow(run, points):
    """A run at cycle 0.05 to t = 5000 against its own first 2000 time units.

    ``run(final_time, max_trace_points)`` runs the pair.  Its survival falls
    below 2**-600 near t = 2080, below the smallest normal float near t = 3540
    and to 0.0 near t = 3700.  Up to t = 2000 the run is bit for bit the
    shorter run with the same recorded cycles; past it the survival keeps the
    closed form's exponent until it rounds to 0.0, and every value stays
    finite.
    """
    trace = run(5000.0, points)
    short = run(2000.0, points * 2 // 5)
    for name in ("times", "p_success", "p_error_per_cycle", "analytic_p_s"):
        np.testing.assert_array_equal(getattr(trace, name)[:len(short.times)],
                                      getattr(short, name))
        assert np.all(np.isfinite(getattr(trace, name)))
    assert trace.p_success[-1] == 0.0
    normal = trace.p_success > np.finfo(float).tiny
    assert trace.times[normal][-1] > 3500.0
    np.testing.assert_allclose(np.log(trace.p_success[normal]),
                               np.log(trace.analytic_p_s[normal]), rtol=0.01, atol=0.01)
    np.testing.assert_allclose(trace.p_error_per_cycle[1:], trace.p_error_per_cycle[-1],
                               rtol=1e-9)
