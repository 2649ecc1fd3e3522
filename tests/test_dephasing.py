"""Ensemble statistics: sampling, coherence envelopes, Allan deviation."""

import numpy as np
import pytest

from zenolock import cli
from zenolock import dephasing as dp


def make_config(**overrides):
    defaults = dict(atom_count=100, center_frequency=100.0, fwhm=10.0,
                    seed=20260808, time_grid=tuple(np.linspace(0.0, 0.1, 41)[1:]),
                    replicas=200)
    defaults.update(overrides)
    return dp.EnsembleConfig(**defaults)


class TestFwhmToSigma:
    def test_definition_inverted(self):
        assert dp.fwhm_to_sigma(2.0 * np.sqrt(2.0 * np.log(2.0))) == pytest.approx(1.0)

    def test_ten_hertz(self):
        # oracle: direct evaluation of fwhm / (2 sqrt(2 ln 2))
        expected = 10.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        assert expected == pytest.approx(4.24661, abs=5e-6)
        assert dp.fwhm_to_sigma(10.0) == pytest.approx(expected, rel=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dp.fwhm_to_sigma(0.0)
        with pytest.raises(ValueError):
            dp.fwhm_to_sigma(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dp.fwhm_to_sigma(float("nan"))


class TestEnsembleConfig:
    def test_nan_fwhm_rejected(self):
        with pytest.raises(ValueError, match="fwhm must be positive"):
            make_config(fwhm=float("nan"))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_config(fwhm=0.0)
        with pytest.raises(ValueError):
            make_config(atom_count=0)
        with pytest.raises(ValueError):
            make_config(replicas=0)
        with pytest.raises(ValueError):
            make_config(time_grid=(0.0, 0.2, 0.1))


class TestSampling:
    def test_law_of_large_numbers(self):
        config = make_config(atom_count=100_000, replicas=1)
        freqs = dp.sample_frequencies(config)
        sigma = config.sigma
        n = config.atom_count
        assert abs(freqs.mean() - 100.0) < 4.0 * sigma / np.sqrt(n)
        assert abs(freqs.std(ddof=1) - sigma) < 0.03 * sigma

    def test_deterministic_given_seed(self):
        config = make_config()
        np.testing.assert_array_equal(dp.sample_frequencies(config, 3),
                                      dp.sample_frequencies(config, 3))

    def test_replicas_are_distinct_streams(self):
        config = make_config()
        assert not np.array_equal(dp.sample_frequencies(config, 0),
                                  dp.sample_frequencies(config, 1))

    def test_narrow_width_limit(self):
        config = make_config(fwhm=1e-12)
        freqs = dp.sample_frequencies(config)
        np.testing.assert_allclose(freqs, 100.0, atol=1e-11)

    def test_order_independence(self):
        # replica streams do not depend on which replicas were drawn before
        config = make_config()
        direct = dp.sample_frequencies(config, 7)
        _ = dp.sample_frequencies(config, 2)
        again = dp.sample_frequencies(config, 7)
        np.testing.assert_array_equal(direct, again)


class TestReplicaDraw:
    def test_prefix_of_larger_draw_is_bit_identical(self, monkeypatch):
        monkeypatch.setattr(dp, "_last_draw", None)
        wide = dp.sample_all_replicas(make_config(atom_count=100, replicas=40))
        narrow_config = make_config(atom_count=9, replicas=40)
        narrow = dp.sample_all_replicas(narrow_config)
        assert narrow.shape == (40, 9)
        assert np.shares_memory(narrow, wide)
        for replica in range(40):
            np.testing.assert_array_equal(narrow[replica],
                                          dp.sample_frequencies(narrow_config, replica))

    def test_returned_draw_is_read_only(self, monkeypatch):
        monkeypatch.setattr(dp, "_last_draw", None)
        for atoms in (100, 9):
            freqs = dp.sample_all_replicas(make_config(atom_count=atoms, replicas=20))
            assert not freqs.flags.writeable
            with pytest.raises(ValueError):
                freqs[0, 0] = 0.0

    @pytest.mark.parametrize("change", [dict(seed=1), dict(replicas=21), dict(fwhm=3.0),
                                        dict(center_frequency=50.0), dict(atom_count=12)])
    def test_changed_inputs_draw_afresh(self, monkeypatch, change):
        monkeypatch.setattr(dp, "_last_draw", None)
        dp.sample_all_replicas(make_config(atom_count=10, replicas=20))
        config = make_config(**{"atom_count": 10, "replicas": 20, **change})
        fresh = np.array([dp.sample_frequencies(config, r) for r in range(config.replicas)])
        np.testing.assert_array_equal(dp.sample_all_replicas(config), fresh)

    def test_each_replica_stream_drawn_once_per_run(self, monkeypatch):
        # the three draws of the dephasing subcommand: independent curve,
        # locked curve (other grid), histogram (fewer atoms)
        monkeypatch.setattr(dp, "_last_draw", None)
        calls = []
        original = dp._replica_rng

        def counting(seed, replica):
            calls.append(replica)
            return original(seed, replica)

        monkeypatch.setattr(dp, "_replica_rng", counting)
        grid = np.linspace(0.0, 0.1, 11)
        config = make_config(atom_count=16, replicas=30, time_grid=tuple(grid))
        locked = make_config(atom_count=16, replicas=30, time_grid=tuple(4.0 * grid))
        dp.monte_carlo_mean_cos(config)
        dp.monte_carlo_mean_cos(locked, locked=True)
        dp.bandwidth_histogram(make_config(atom_count=9, replicas=30, time_grid=(0.0, 1.0)))
        assert sorted(calls) == list(range(30))


class TestMeanFrequency:
    def test_constant(self):
        assert dp.mean_frequency([100.0, 100.0, 100.0]) == 100.0

    def test_pair(self):
        assert dp.mean_frequency([99.0, 101.0]) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dp.mean_frequency([])

    def test_replica_means_narrow_by_sqrt_n(self):
        config = make_config(atom_count=9, replicas=10_000)
        freqs = dp.sample_all_replicas(config)
        means = freqs.mean(axis=1)
        assert means.std(ddof=1) == pytest.approx(config.sigma / 3.0, rel=0.05)


class TestMeanCosPhase:
    def test_time_zero(self):
        assert dp.mean_cos_phase([7.0, 93.0, 1024.0], 0.0) == pytest.approx(1.0)

    def test_single_atom_half_period(self):
        assert dp.mean_cos_phase([100.0], 0.005) == pytest.approx(-1.0)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        freqs = rng.normal(100.0, 5.0, size=50)
        for t in np.linspace(0.0, 1.0, 23):
            assert abs(dp.mean_cos_phase(freqs, t)) <= 1.0 + 1e-15

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            dp.mean_cos_phase([1.0], -0.1)

    def test_monte_carlo_matches_envelope(self):
        config = make_config(replicas=10_000, atom_count=25,
                             time_grid=tuple(np.linspace(0.0005, 0.08, 25)))
        mean, se = dp.monte_carlo_mean_cos(config)
        analytic = dp.envelope_independent(np.array(config.time_grid), config.sigma, 100.0)
        assert np.all(np.abs(mean - analytic) <= 3.0 * se)


class TestEnvelopes:
    def test_time_zero(self):
        assert dp.envelope_independent(0.0, 4.0, 100.0) == pytest.approx(1.0)

    def test_efold_point(self):
        sigma = 3.3
        t = 1.0 / (dp.TWO_PI * sigma)
        envelope = dp.envelope_independent(t, sigma, 0.0)
        assert envelope == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_efold_time_for_ten_percent_bandwidth(self):
        # oracle: invert the Gaussian envelope with sigma from fwhm_to_sigma
        sigma = dp.fwhm_to_sigma(10.0)
        t = 1.0 / (dp.TWO_PI * sigma)
        assert t == pytest.approx(0.03748, abs=5e-6)

    def test_locked_reduces_to_independent_for_single_atom(self):
        t = np.linspace(0.0, 0.4, 101)
        np.testing.assert_array_equal(dp.envelope_locked(t, 4.25, 100.0, 1),
                                      dp.envelope_independent(t, 4.25, 100.0))

    def test_locked_equals_independent_with_scaled_sigma(self):
        t = np.linspace(0.0, 2.0, 67)
        sigma = 4.25
        np.testing.assert_allclose(dp.envelope_locked(t, sigma, 100.0, 100),
                                   dp.envelope_independent(t, sigma / 10.0, 100.0),
                                   atol=1e-15)

    def test_locked_efold_is_sqrt_n_longer(self):
        sigma = dp.fwhm_to_sigma(10.0)
        t_ind = 1.0 / (dp.TWO_PI * sigma)
        t_lock = 1.0 / (dp.TWO_PI * sigma / np.sqrt(100.0))
        assert t_lock / t_ind == pytest.approx(10.0, rel=1e-12)
        assert dp.envelope_locked(t_lock, sigma, 0.0, 100) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_single_atom_locked_equals_independent(self):
        config = make_config(atom_count=1, replicas=300)
        independent = dp.monte_carlo_mean_cos(config)
        locked = dp.monte_carlo_mean_cos(config, locked=True)
        np.testing.assert_array_equal(independent[0], locked[0])

    def test_locked_monte_carlo_matches_envelope(self):
        config = make_config(replicas=10_000, atom_count=25,
                             time_grid=tuple(np.linspace(0.005, 0.4, 25)))
        mean, se = dp.monte_carlo_mean_cos(config, locked=True)
        analytic = dp.envelope_locked(np.array(config.time_grid), config.sigma, 100.0, 25)
        assert np.all(np.abs(mean - analytic) <= 3.0 * se)


def _cos_oracle(monkeypatch, config, locked):
    # the per-point cosine path, which every non-uniform grid takes
    with monkeypatch.context() as patch:
        patch.setattr(dp, "_uniform_step", lambda grid: None)
        return dp.monte_carlo_mean_cos(config, locked=locked)


CLI_GRID = np.linspace(0.0, 0.1, 201)


class TestPhasorPath:
    @pytest.mark.parametrize("locked", [False, True])
    @pytest.mark.parametrize("grid, atoms, replicas", [
        (CLI_GRID, 100, 200),
        (CLI_GRID * np.sqrt(100), 100, 200),
        (np.linspace(0.0, 10.0, 20001), 10, 20),
    ], ids=["linspace", "linspace-sqrt-n", "20001-points"])
    def test_matches_cos_oracle(self, monkeypatch, locked, grid, atoms, replicas):
        config = make_config(atom_count=atoms, replicas=replicas, time_grid=tuple(grid))
        assert dp._uniform_step(np.asarray(config.time_grid)) is not None
        mean, se = dp.monte_carlo_mean_cos(config, locked=locked)
        oracle_mean, oracle_se = _cos_oracle(monkeypatch, config, locked)
        np.testing.assert_allclose(mean, oracle_mean, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(se, oracle_se, rtol=0.0, atol=1e-12)

    def test_single_replica_has_zero_spread(self, monkeypatch):
        config = make_config(replicas=1)
        mean, se = dp.monte_carlo_mean_cos(config)
        np.testing.assert_allclose(mean, _cos_oracle(monkeypatch, config, False)[0],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(se, np.zeros(len(config.time_grid)))

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 0.3, 30) ** 2,
        np.concatenate([np.linspace(0.0, 0.1, 20), [0.2]]),
        np.linspace(0.0, 0.1, 21) + np.where(np.arange(21) == 7, 1e-12, 0.0),
    ], ids=["quadratic", "trailing-gap", "one-point-off-by-1e-12"])
    def test_non_uniform_grid_takes_cos_path(self, monkeypatch, grid):
        config = make_config(replicas=50, time_grid=tuple(grid))
        assert dp._uniform_step(np.asarray(config.time_grid)) is None

        def refuse(*args):
            raise AssertionError("phasor recurrence used on a non-uniform grid")

        monkeypatch.setattr(dp, "_phasor_values", refuse)
        mean, _ = dp.monte_carlo_mean_cos(config)
        direct = [np.cos(dp.TWO_PI * t * dp.sample_all_replicas(config)).mean()
                  for t in config.time_grid]
        np.testing.assert_allclose(mean, direct, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("time_max, points, atoms", [(0.1, 201, 100), (0.1, 31, 100),
                                                         (0.25, 1001, 7)])
    def test_cli_grids_are_uniform(self, time_max, points, atoms):
        # the grids cmd_dephasing builds, after EnsembleConfig's float conversion
        grid = np.linspace(0.0, time_max, points)
        for scaled in (grid, grid * np.sqrt(atoms)):
            step = dp._uniform_step(np.asarray(tuple(float(t) for t in scaled)))
            assert step == pytest.approx(scaled[-1] / (points - 1), rel=1e-14)

    def test_cli_run_takes_phasor_path(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-point cosine path used on a CLI grid")

        monkeypatch.setattr(dp, "_cos_values", refuse)
        config = tmp_path / "run.cfg"
        config.write_text("[dephasing]\nreplicas = 300\nhistogram_replicas = 300\n"
                          "time_points = 31\n")
        code = cli.main(["dephasing", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK


class TestAllanDeviation:
    def test_reference_point(self):
        params = dp.AllanParams(fwhm=1.0, carrier=1e9, atom_count=100,
                                cycle_time=1.0, averaging_time=100.0)
        expected = (1.0 / (1e9 * np.sqrt(100.0))) * np.sqrt(1.0 / 100.0)
        assert expected == pytest.approx(1e-11, rel=1e-12)
        assert dp.allan_deviation(params) == expected

    def test_quadrupling_averaging_time_halves(self):
        base = dp.AllanParams(1.0, 1e9, 10, 1.0, 25.0)
        longer = dp.AllanParams(1.0, 1e9, 10, 1.0, 100.0)
        assert dp.allan_deviation(base) / dp.allan_deviation(longer) == pytest.approx(2.0)

    def test_hundredfold_atoms_reduce_tenfold(self):
        base = dp.AllanParams(1.0, 1e9, 100, 1.0, 25.0)
        bigger = dp.AllanParams(1.0, 1e9, 10_000, 1.0, 25.0)
        assert dp.allan_deviation(base) / dp.allan_deviation(bigger) == pytest.approx(10.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dp.AllanParams(0.0, 1e9, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            dp.AllanParams(1.0, 1e9, 0, 1.0, 1.0)


class TestBandwidthHistogram:
    def test_sqrt_n_narrowing(self):
        config = make_config(atom_count=9, replicas=10_000)
        result = dp.bandwidth_histogram(config)
        assert result.sigma_ratio == pytest.approx(3.0, rel=0.10)

    def test_single_atom_ratio_is_one(self):
        config = make_config(atom_count=1, replicas=4000)
        result = dp.bandwidth_histogram(config)
        assert result.sigma_ratio == pytest.approx(1.0, rel=1e-12)

    def test_histograms_are_normalized(self):
        config = make_config(atom_count=9, replicas=2000)
        result = dp.bandwidth_histogram(config)
        assert result.individual.integral() == pytest.approx(1.0, rel=1e-9)
        assert result.replica_means.integral() == pytest.approx(1.0, rel=1e-9)


class TestDeterminism:
    def test_thread_count_does_not_change_results(self, monkeypatch):
        config = make_config(replicas=500)
        monkeypatch.setenv("ZENOLOCK_THREADS", "1")
        serial = dp.monte_carlo_mean_cos(config)
        monkeypatch.setenv("ZENOLOCK_THREADS", "8")
        threaded = dp.monte_carlo_mean_cos(config)
        np.testing.assert_array_equal(serial[0], threaded[0])
        np.testing.assert_array_equal(serial[1], threaded[1])


class TestEfoldFit:
    def test_recovers_known_envelope(self):
        sigma = dp.fwhm_to_sigma(10.0)
        t = np.linspace(0.0, 0.12, 241)
        clean = dp.envelope_independent(t, sigma, 100.0)
        fitted = dp.fit_efold_time(t, clean, 100.0, sigma_guess=sigma * 1.4)
        assert fitted == pytest.approx(1.0 / (dp.TWO_PI * sigma), rel=1e-6)
