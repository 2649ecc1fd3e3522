"""Ensemble statistics: sampling, coherence envelopes, Allan deviation."""

import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenolock import cli
from zenolock import dephasing as dp
from zenolock.configfile import Section
from zenolock.tracefile import read_csv


def phasor_blocks(freqs, step, points):
    """The phasor kernel's blocks over a whole (replicas, atoms) draw, as a run blocks it."""
    return dp._phasor_blocks([freqs], dp._block_rows(*freqs.shape, points), step, points)


def phasor_values(freqs, step, points):
    """Every block of the phasor kernel, copied out and stacked: shape (replicas, points)."""
    return np.concatenate([block.copy() for block in phasor_blocks(freqs, step, points)])


def sample_frequencies(config, replica=0):
    """The N atom frequencies of one replica, drawn from its re-keyed stream alone."""
    draws = dp._replica_rng(dp._stream(), config.seed, replica).standard_normal(
        config.atom_count)
    return config.center_frequency + config.sigma * draws


def make_config(**overrides):
    defaults = dict(atom_count=100, center_frequency=100.0, fwhm=10.0,
                    seed=20260808, time_max=0.1, time_points=41, replicas=200)
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
        with pytest.raises(ValueError, match="time_points must be >= 2"):
            make_config(time_points=1)


class TestSampling:
    def test_law_of_large_numbers(self):
        config = make_config(atom_count=100_000, replicas=1)
        freqs = sample_frequencies(config)
        sigma = config.sigma
        n = config.atom_count
        assert abs(freqs.mean() - 100.0) < 4.0 * sigma / np.sqrt(n)
        assert abs(freqs.std(ddof=1) - sigma) < 0.03 * sigma

    def test_deterministic_given_seed(self):
        config = make_config()
        np.testing.assert_array_equal(sample_frequencies(config, 3),
                                      sample_frequencies(config, 3))

    def test_replicas_are_distinct_streams(self):
        config = make_config()
        assert not np.array_equal(sample_frequencies(config, 0),
                                  sample_frequencies(config, 1))

    def test_narrow_width_limit(self):
        config = make_config(fwhm=1e-12)
        freqs = sample_frequencies(config)
        np.testing.assert_allclose(freqs, 100.0, atol=1e-11)

    def test_order_independence(self):
        # replica streams do not depend on which replicas were drawn before
        config = make_config()
        direct = sample_frequencies(config, 7)
        _ = sample_frequencies(config, 2)
        again = sample_frequencies(config, 7)
        np.testing.assert_array_equal(direct, again)


def counting_rekeys(monkeypatch):
    """The replica indices of every re-keyed stream, appended as they are drawn."""
    calls = []
    original = dp._replica_rng

    def counting(stream, seed, replica):
        calls.append(replica)
        return original(stream, seed, replica)

    monkeypatch.setattr(dp, "_replica_rng", counting)
    return calls


class TestReplicaDraw:
    def test_prefix_of_larger_draw_is_bit_identical(self, monkeypatch):
        # the histogram reads the leading atoms the independent curve kept
        narrow_config = make_config(atom_count=9, replicas=40)
        sample = dp.ensemble_pass(make_config(atom_count=100, replicas=40), 1.0, 40, 9)[2]
        calls = counting_rekeys(monkeypatch)
        narrow = sample()
        assert calls == []
        assert narrow.shape == (40, 9)
        for replica in range(40):
            np.testing.assert_array_equal(narrow[replica],
                                          sample_frequencies(narrow_config, replica))

    def test_returned_draw_is_read_only(self):
        # a fresh draw, a histogram sample the pass kept whole, and one topped up
        config = make_config(atom_count=100, replicas=20)
        draws = [dp.sample_all_replicas(config),
                 *(dp.ensemble_pass(config, 1.0, replicas, 9)[2]() for replicas in (20, 30))]
        for freqs in draws:
            assert not freqs.flags.writeable
            with pytest.raises(ValueError):
                freqs[0, 0] = 0.0

    @pytest.mark.parametrize("change", [dict(seed=1), dict(replicas=21), dict(fwhm=3.0),
                                        dict(center_frequency=50.0), dict(atom_count=12)])
    def test_changed_inputs_draw_afresh(self, change):
        # the histogram sample is the draw of its own inputs: one replica more
        # than the curves (drawn on top) or more atoms (drawn whole) included
        config = make_config(**{"atom_count": 10, "replicas": 20, **change})
        curves = config.replace(atom_count=10, replicas=20)
        fresh = np.array([sample_frequencies(config, r) for r in range(config.replicas)])
        sample = dp.ensemble_pass(curves, 1.0, config.replicas, config.atom_count)[2]
        np.testing.assert_array_equal(sample(), fresh)

    def test_each_replica_stream_drawn_once_per_run(self, monkeypatch, tmp_path):
        # the three readers of the draw in the dephasing subcommand: the
        # independent curve, the locked curve (other grid) and the histogram
        # (fewer or more replicas; fewer atoms, or more, which it draws again)
        calls = counting_rekeys(monkeypatch)
        for histogram_atoms, histogram_replicas in itertools.product((9, 20), (20, 30, 45)):
            calls.clear()
            name = f"run-{histogram_atoms}-{histogram_replicas}"
            config = tmp_path / f"{name}.cfg"
            config.write_text(f"[dephasing]\natom_count = 16\nreplicas = 30\ntime_points = 11\n"
                              f"histogram_replicas = {histogram_replicas}\n"
                              f"histogram_atom_count = {histogram_atoms}\n")
            argv = ["dephasing", "--config", str(config), "--out", str(tmp_path / name)]
            assert cli.main(argv) == cli.EXIT_OK
            if histogram_atoms <= 16:
                assert sorted(calls) == list(range(max(30, histogram_replicas)))
            else:
                assert sorted(calls) == sorted([*range(30), *range(histogram_replicas)])

    @pytest.mark.parametrize("seed", [0, 7, 20260808, -1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("replicas, atoms", [(1, 1), (13, 9), (40, 100)])
    def test_rekeyed_draw_matches_fresh_generators(self, seed, replicas, atoms):
        # also key words with the top bit set, and replica indices past 32 bits
        config = make_config(seed=seed, replicas=replicas, atom_count=atoms)

        def fresh(replica):
            draws = dp._philox_generator(seed, replica).standard_normal(atoms)
            return config.center_frequency + config.sigma * draws

        np.testing.assert_array_equal(dp.sample_all_replicas(config),
                                      np.array([fresh(r) for r in range(replicas)]))
        for replica in (0, replicas - 1, 2**32, 2**64 - 1):
            np.testing.assert_array_equal(sample_frequencies(config, replica), fresh(replica))

    def test_prefix_view_matches_fresh_generators(self, monkeypatch):
        config = make_config(atom_count=9, replicas=30)
        sample = dp.ensemble_pass(make_config(atom_count=100, replicas=30), 1.0, 30, 9)[2]
        calls = counting_rekeys(monkeypatch)
        narrow = sample()
        assert calls == []
        for replica in range(30):
            fresh = dp._philox_generator(config.seed, replica).standard_normal(9)
            np.testing.assert_array_equal(
                narrow[replica], config.center_frequency + config.sigma * fresh)

    def test_rekey_discards_a_partly_used_stream(self):
        stream = dp._stream()
        used = dp._replica_rng(stream, 5, 1)
        used.random(3, dtype=np.float32)  # leaves half of a 64-bit word buffered
        used.standard_normal(5)
        np.testing.assert_array_equal(dp._replica_rng(stream, 5, 2).random(4, dtype=np.float32),
                                      dp._philox_generator(5, 2).random(4, dtype=np.float32))

    def test_concurrent_draws_match_fresh_generators(self):
        # each draw re-keys a stream of its own; one shared between calls
        # would hand a drawer a stream another drawer re-keyed in between
        from concurrent.futures import ThreadPoolExecutor

        configs = [make_config(atom_count=7, replicas=10, seed=seed) for seed in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                draws = list(pool.map(dp.sample_all_replicas, configs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for config, freqs in zip(configs, draws):
            for replica, row in enumerate(freqs):
                fresh = dp._philox_generator(config.seed, replica).standard_normal(7)
                np.testing.assert_array_equal(row, config.center_frequency + config.sigma * fresh)


class TestMeanFrequency:
    def test_replica_means_narrow_by_sqrt_n(self):
        config = make_config(atom_count=9, replicas=10_000)
        freqs = dp.sample_all_replicas(config)
        means = freqs.mean(axis=1)
        assert means.std(ddof=1) == pytest.approx(config.sigma / 3.0, rel=0.05)


class TestMeanCosPhase:
    def test_time_zero(self):
        # every grid starts at t = 0, where each phasor is exactly 1
        mean, se = dp.monte_carlo_mean_cos(make_config())
        assert mean[0] == 1.0 and se[0] == 0.0

    def test_single_atom_half_period(self):
        values = phasor_values(np.array([[100.0]]), 0.005, 2)
        assert values[0, 1] == pytest.approx(-1.0)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        freqs = rng.normal(100.0, 5.0, size=(1, 50))
        values = phasor_values(freqs, 1.0 / 22, 23)
        assert np.all(np.abs(values) <= 1.0 + 1e-15)

    def test_negative_time_rejected(self):
        for time_max in (-0.1, 0.0, float("nan")):
            with pytest.raises(ValueError, match="time_max must be positive"):
                make_config(time_max=time_max)

    def test_monte_carlo_matches_envelope(self):
        config = make_config(replicas=10_000, atom_count=25, time_max=0.08, time_points=25)
        mean, se = dp.monte_carlo_mean_cos(config)
        analytic = dp.envelope_independent(config.time_grid, config.sigma, 100.0)
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
        config = make_config(replicas=10_000, atom_count=25, time_max=0.4, time_points=25)
        mean, se = dp.monte_carlo_mean_cos(config, locked=True)
        analytic = dp.envelope_locked(config.time_grid, config.sigma, 100.0, 25)
        assert np.all(np.abs(mean - analytic) <= 3.0 * se)


def cos_values(freqs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per-replica mean cosine, shape (grid, replicas), by one cos per atom and point."""
    values = np.empty((grid.size, freqs.shape[0]))
    for k, t in enumerate(grid):
        values[k] = np.cos(dp.TWO_PI * t * freqs).mean(axis=1)
    return values


def _cos_oracle(monkeypatch, config, locked):
    # monte_carlo_mean_cos with one cosine per atom and point of the config grid,
    # in one block, in place of the phasor recurrence
    with monkeypatch.context() as patch:
        patch.setattr(dp, "_phasor_blocks", lambda chunks, rows, step, points: iter(
            [cos_values(np.concatenate([chunk.copy() for chunk in chunks]), config.time_grid).T]))
        return dp.monte_carlo_mean_cos(config, locked=locked)


def exp_seeded_phasor_blocks(freqs, step, points):
    """The phasor kernel with w seeded by exp(1j * phase): the oracle of its cos/sin seed."""
    replicas, atoms = freqs.shape
    m = math.isqrt(points - 1) + 1
    giants = -(-points // m)
    rows = dp._block_rows(replicas, atoms, points)
    baby = np.empty((m, rows, atoms), dtype=complex)
    giant = np.empty((giants, rows, atoms), dtype=complex)
    sums = np.empty((rows, giants, m))
    baby[0] = 1.0
    giant[0] = 1.0
    for lo in range(0, replicas, rows):
        block = freqs[lo:lo + rows]
        n = block.shape[0]
        b, g = baby[:, :n], giant[:, :n]
        b[1] = np.exp(1j * (dp.TWO_PI * step) * block)
        for k in range(2, m):
            np.multiply(b[k - 1], b[1], out=b[k])
        if giants > 1:
            np.multiply(b[m - 1], b[1], out=g[1])
            np.conjugate(g[1], out=g[1])
            for a in range(2, giants):
                np.multiply(g[a - 1], g[1], out=g[a])
        out = sums[:n]
        np.matmul(g.view(np.float64).transpose(1, 0, 2),
                  b.view(np.float64).transpose(1, 2, 0), out=out)
        out /= atoms
        yield out.reshape(n, giants * m)[:, :points]


def default_config(**overrides):
    """The ensemble of the dephasing defaults, independent curve."""
    defaults = Section("dephasing", {}, cli.SCHEMA["dephasing"], "defaults")
    return make_config(**{"atom_count": defaults["atom_count"], "replicas": defaults["replicas"],
                          "center_frequency": defaults["center_frequency"],
                          "fwhm": defaults["fwhm"], "seed": defaults["seed"],
                          "time_points": defaults["time_points"],
                          "time_max": defaults["time_max"], **overrides})


class TestPhasorSeed:
    @pytest.mark.parametrize("shape", ["default", "locked-one-atom", "ragged-last-block",
                                       "negative-frequencies", "float-max-center",
                                       "float-min-center"])
    def test_cos_sin_seed_matches_exp_seed(self, shape):
        # the same bits as the exp-seeded kernel: w = exp(i phase) is cos + i sin
        top = np.finfo(float).max
        config = {
            "default": default_config(),
            "locked-one-atom": default_config(time_max=1.0),
            "ragged-last-block": make_config(replicas=41, time_points=201),
            "negative-frequencies": make_config(center_frequency=-100.0),
            "float-max-center": make_config(center_frequency=top, replicas=25),
            "float-min-center": make_config(center_frequency=-top, replicas=25),
        }[shape]
        freqs = dp.sample_all_replicas(config)
        if shape == "locked-one-atom":
            freqs = freqs.mean(axis=1, keepdims=True)
        step = config.time_max / (config.time_points - 1)
        if shape == "ragged-last-block":
            blocks = phasor_blocks(freqs, step, config.time_points)
            assert [block.shape[0] for block in blocks] == [21, 20]
        oracle = np.concatenate([block.copy() for block in
                                 exp_seeded_phasor_blocks(freqs, step, config.time_points)])
        assert np.array_equal(phasor_values(freqs, step, config.time_points), oracle)


class TestPhasorPath:
    @pytest.mark.parametrize("locked", [False, True])
    @pytest.mark.parametrize("time_max, points, atoms, replicas", [
        (0.1, 201, 100, 200),
        (0.1 * np.sqrt(100), 201, 100, 200),
        (10.0, 20001, 10, 20),
        (0.1, 2, 100, 200),
        (0.1, 3, 100, 200),
        (0.1, 997, 10, 20),
        (0.1, 210, 100, 200),
        (0.1, 201, 4099, 5),
        (0.1, 201, 100, 41),
    ], ids=["linspace", "linspace-sqrt-n", "20001-points", "2-points", "3-points",
            "997-points", "210-points", "one-replica-blocks", "ragged-last-block"])
    def test_matches_cos_oracle(self, monkeypatch, locked, time_max, points, atoms, replicas):
        # also grids whose last giant step is partial or m^2 != points, atoms
        # whose phasors alone fill a block's budget (one replica per block),
        # and 41 replicas of 100 atoms (blocks of 21 and 20)
        config = make_config(atom_count=atoms, replicas=replicas, time_max=time_max,
                             time_points=points)
        mean, se = dp.monte_carlo_mean_cos(config, locked=locked)
        oracle_mean, oracle_se = _cos_oracle(monkeypatch, config, locked)
        np.testing.assert_allclose(mean, oracle_mean, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(se, oracle_se, rtol=0.0, atol=1e-12)
        assert mean[0] == 1.0
        assert se[0] == 0.0

    @pytest.mark.parametrize("atoms, replicas, sizes", [(4099, 5, [1] * 5),
                                                         (100, 41, [21, 20])])
    def test_oracle_cases_block_as_named(self, atoms, replicas, sizes):
        freqs = dp.sample_all_replicas(make_config(atom_count=atoms, replicas=replicas))
        blocks = phasor_blocks(freqs, 0.1 / 200, 201)
        assert [block.shape[0] for block in blocks] == sizes

    def test_single_replica_has_zero_spread(self, monkeypatch):
        config = make_config(replicas=1)
        mean, se = dp.monte_carlo_mean_cos(config)
        np.testing.assert_allclose(mean, _cos_oracle(monkeypatch, config, False)[0],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(se, np.zeros(config.time_points))

    @pytest.mark.parametrize("time_max, points, atoms", [(0.1, 201, 100), (0.1, 31, 100),
                                                         (0.25, 1001, 7)])
    def test_cli_grids_are_uniform(self, time_max, points, atoms):
        # the t columns cmd_dephasing writes, grid and grid * sqrt(N), lie
        # within a few ulp of the grids the phasor recurrence steps through
        grid = np.linspace(0.0, time_max, points)
        for scaled in (grid, grid * np.sqrt(atoms)):
            config = make_config(atom_count=atoms, time_max=scaled[-1], time_points=points)
            steps = config.time_max / (points - 1) * np.arange(points)
            tolerance = 4.0 * np.spacing(scaled[-1])
            np.testing.assert_allclose(scaled, steps, rtol=0.0, atol=tolerance)
            np.testing.assert_allclose(scaled, config.time_grid, rtol=0.0, atol=tolerance)

    def test_cli_run_takes_phasor_path(self, tmp_path, monkeypatch):
        # each curve is stepped by the spacing of the t column its CSV reports
        calls = []
        original = dp._phasor_blocks

        def recording(chunks, rows, step, points):
            calls.append((step, points))
            return original(chunks, rows, step, points)

        monkeypatch.setattr(dp, "_phasor_blocks", recording)
        config = tmp_path / "run.cfg"
        config.write_text("[dephasing]\nreplicas = 300\nhistogram_replicas = 300\n"
                          "time_points = 31\n")
        out = tmp_path / "out"
        assert cli.main(["dephasing", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
        assert len(calls) == 2
        for curve, (step, points) in zip(("independent", "locked"), calls):
            t = read_csv(out / f"dephasing_{curve}.csv").rows[:, 0]
            assert points == t.size == 31
            assert step == t[-1] / (points - 1)


class TestPhasorViewReuse:
    @pytest.mark.parametrize("points", [201, 2, 3], ids=["201-points", "one-giant-step",
                                                         "two-giant-steps"])
    def test_ragged_blocks_mid_stream_match_one_chunk(self, points):
        # chunks of 5, 695 and 300 replicas are not whole 21-replica blocks, so
        # the block shape changes mid-stream (5, 21, ..., 2, 21, ..., 6) and
        # the kernel's views are made again at every change
        config = make_config(replicas=1000, time_points=points)
        freqs = dp.sample_all_replicas(config)
        step = config.time_max / (points - 1)
        whole = [block.copy() for block in dp._phasor_blocks([freqs], 21, step, points)]
        chunks = [freqs[:5], freqs[5:700], freqs[700:]]
        pieces = [block.copy() for block in dp._phasor_blocks(chunks, 21, step, points)]
        assert [piece.shape[0] for piece in pieces] == [5] + [21] * 33 + [2] + [21] * 14 + [6]
        assert np.concatenate(pieces).tobytes() == np.concatenate(whole).tobytes()


class TestStreamingFold:
    @pytest.mark.parametrize("locked", [False, True])
    @pytest.mark.parametrize("entries, blocking", [(1, "one-replica"), (50_000, "ragged"),
                                                   (1 << 30, "one-block")])
    def test_fold_equals_two_pass_moments(self, monkeypatch, locked, entries, blocking):
        # the running count, mean and M2 give numpy's mean and std(ddof=1) over
        # the replica axis of the (points, replicas) array of every value
        config = make_config(replicas=500, time_points=201, time_max=1.0 if locked else 0.1)
        freqs = dp.sample_all_replicas(config)
        if locked:
            freqs = freqs.mean(axis=1, keepdims=True)
        step = config.time_max / (config.time_points - 1)
        monkeypatch.setattr(dp, "_BLOCK_ENTRIES", entries)
        sizes = [block.shape[0] for block in phasor_blocks(freqs, step, config.time_points)]
        if blocking == "one-replica":
            assert set(sizes) == {1}
        elif blocking == "ragged":
            assert len(sizes) > 2 and sizes[-1] < sizes[0]
        else:
            assert sizes == [config.replicas]
        values = np.ascontiguousarray(phasor_values(freqs, step, config.time_points).T)
        mean, se = dp.monte_carlo_mean_cos(config, locked=locked)
        np.testing.assert_allclose(mean, values.mean(axis=1), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(se, values.std(axis=1, ddof=1) / np.sqrt(config.replicas),
                                   rtol=1e-12, atol=0.0)
        assert se[0] == 0.0

    @staticmethod
    def _traced_peak(run, *args, **kwargs):
        # bytes allocated by run(*args, **kwargs) at its peak, its draw included
        tracemalloc.start()
        try:
            run(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _default_config(locked):
        defaults = Section("dephasing", {}, cli.SCHEMA["dephasing"], "defaults")
        return make_config(atom_count=defaults["atom_count"], replicas=defaults["replicas"],
                           time_points=defaults["time_points"],
                           time_max=defaults["time_max"] * (10.0 if locked else 1.0))

    @pytest.mark.parametrize("locked", [False, True])
    def test_no_grid_by_replicas_array(self, locked):
        # the default shape holds 201 x 10,000 values (16 MB) and a draw of
        # 10,000 x 100 frequencies (8 MB); the pass keeps one draw chunk, one
        # block, a few length-201 vectors and one mean per replica (the
        # locked call without them streams the draw for them)
        config = self._default_config(locked)
        peak = functools.partial(self._traced_peak, dp.monte_carlo_mean_cos, locked=locked)
        assert peak(config) < 2 << 20
        small, large = (peak(config.replace(replicas=replicas)) for replicas in (2_000, 20_000))
        assert large - small < 1 << 20

    def test_ensemble_pass_holds_only_the_histogram_sample(self):
        # both curves of the default shape, and the default 10,000 x 9
        # histogram sample (0.7 MB) the pass fills as it goes
        config = self._default_config(False)
        sample_bytes = 10_000 * 9 * 8

        def peak(replicas):
            return self._traced_peak(dp.ensemble_pass, config.replace(replicas=replicas), 1.0,
                                     10_000, 9)

        assert peak(config.replicas) < (2 << 20) + sample_bytes
        assert peak(20_000) - peak(2_000) < 1 << 20


def full_draw_run(config, locked_config, hist_config):
    """Both curves and the histogram of a dephasing run from the whole
    (replicas, atom_count) draw at once: the streamed pass's oracle."""
    freqs = dp.sample_all_replicas(config)
    points = config.time_points

    def curve(freqs, curve_config):
        step = curve_config.time_max / (points - 1)
        return dp._fold(phasor_blocks(freqs, step, points), points)

    return (curve(freqs, config), curve(freqs.mean(axis=1, keepdims=True), locked_config),
            dp.bandwidth_histogram(dp.sample_all_replicas(hist_config)))


class TestStreamedDraw:
    @pytest.mark.parametrize("atoms, replicas, hist_atoms, hist_replicas, entries, chunks", [
        (100, 100, 9, 60, 2 * 21 * 100, [42, 42, 16]),
        (100, 100, 9, 150, 1 << 30, [100]),
        (4099, 5, 9, 5, 1, [1] * 5),
        (100, 100, 120, 60, 2 * 21 * 100, [42, 42, 16]),
    ], ids=["ragged-last-chunk", "one-chunk", "one-replica-chunks", "more-histogram-atoms"])
    def test_streamed_pass_equals_full_draw(self, monkeypatch, atoms, replicas, hist_atoms,
                                            hist_replicas, entries, chunks):
        # the histogram reads fewer replicas than the pass draws, more (the
        # rest drawn on top), as many, or more atoms (all of them drawn again)
        config = make_config(atom_count=atoms, replicas=replicas, time_points=201)
        locked_config = config.replace(time_max=1.0)
        hist_config = make_config(atom_count=hist_atoms, replicas=hist_replicas, time_max=1.0,
                                  time_points=2)
        oracle = full_draw_run(config, locked_config, hist_config)
        monkeypatch.setattr(dp, "_DRAW_ENTRIES", entries)
        rows = dp._block_rows(replicas, atoms, config.time_points)
        assert [chunk.shape[0] for chunk in dp._draw_chunks(config, rows)] == chunks
        independent, locked, sample = dp.ensemble_pass(config, 1.0, hist_replicas, hist_atoms)
        histograms = dp.bandwidth_histogram(sample())
        locked_alone = dp.monte_carlo_mean_cos(locked_config, locked=True)
        for (mean, se), (oracle_mean, oracle_se) in zip(
                (independent, locked, locked_alone), (oracle[0], oracle[1], oracle[1])):
            assert np.array_equal(mean, oracle_mean)
            assert np.array_equal(se, oracle_se)
        for part in ("individual", "replica_means"):
            histogram, oracle_histogram = (getattr(h, part) for h in (histograms, oracle[2]))
            assert np.array_equal(histogram.density, oracle_histogram.density)
            assert np.array_equal(histogram.bin_edges, oracle_histogram.bin_edges)
            assert histogram.sample_sigma == oracle_histogram.sample_sigma

    @pytest.mark.parametrize("change", [dict(seed=1), dict(fwhm=3.0), dict(atom_count=12),
                                        dict(center_frequency=50.0), dict(replicas=25),
                                        dict(replicas=15)])
    def test_locked_call_reads_only_the_same_draws_means(self, change):
        # the means an independent pass writes are those the locked call
        # streams the draw for when it is given none
        config = make_config(**{"atom_count": 10, "replicas": 20, **change})
        means = np.full(config.replicas, np.nan)
        dp.monte_carlo_mean_cos(config, means=means)
        locked_config = config.replace(time_max=1.0)
        after_pass = dp.monte_carlo_mean_cos(locked_config, locked=True, means=means)
        alone = dp.monte_carlo_mean_cos(locked_config, locked=True)
        assert np.array_equal(after_pass[0], alone[0])
        assert np.array_equal(after_pass[1], alone[1])
        np.testing.assert_array_equal(means, dp.sample_all_replicas(config).mean(axis=1))

    @staticmethod
    def _peak_rss_mb(tmp_path, atoms):
        config = tmp_path / f"cap-{atoms}.cfg"
        config.write_text(f"[dephasing]\nreplicas = 4096\natom_count = {atoms}\n"
                          "time_points = 5\nhistogram_replicas = 4096\n"
                          "histogram_atom_count = 9\n")
        src = str(Path(dp.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.Popen([sys.executable, "-m", "zenolock.cli", "dephasing", "--config",
                                  str(config), "--out", str(tmp_path / f"out-{atoms}")],
                                 env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == cli.EXIT_OK
        return usage.ru_maxrss / 1024  # kilobytes on Linux

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in kilobytes on Linux only")
    def test_cap_shape_holds_no_replicas_by_atoms_array(self, tmp_path):
        # replicas x atom_count at the schema cap, 2^24 frequencies (128 MiB
        # as one array), against the same run at 64 atoms
        assert self._peak_rss_mb(tmp_path, 4096) - self._peak_rss_mb(tmp_path, 64) < 16


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
        result = dp.bandwidth_histogram(dp.sample_all_replicas(config))
        assert result.sigma_ratio == pytest.approx(3.0, rel=0.10)

    def test_single_atom_ratio_is_one(self):
        config = make_config(atom_count=1, replicas=4000)
        result = dp.bandwidth_histogram(dp.sample_all_replicas(config))
        assert result.sigma_ratio == pytest.approx(1.0, rel=1e-12)

    def test_histograms_are_normalized(self):
        config = make_config(atom_count=9, replicas=2000)
        result = dp.bandwidth_histogram(dp.sample_all_replicas(config))
        for histogram in (result.individual, result.replica_means):
            integral = np.sum(histogram.density * np.diff(histogram.bin_edges))
            assert integral == pytest.approx(1.0, rel=1e-9)

    # samples drawn around numpy's 65,536-sample histogram block (and the
    # chunks' 8192), all equal (edges at +-0.5), or on integers that are edges
    @settings(max_examples=40, deadline=None)
    @given(samples=st.integers(65_536 - 20, 65_536 + 20) | st.integers(2, 20_000),
           atoms=st.sampled_from([1, 2, 9]), bins=st.integers(1, 100),
           kind=st.sampled_from(["normal", "equal", "edges"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_bit_for_bit(self, samples, atoms, bins, kind, seed):
        rng = np.random.default_rng(seed)
        shape = (max(2, samples // atoms), atoms)
        freqs = {"normal": lambda: rng.normal(100.0, 10.0, shape),
                 "equal": lambda: np.full(shape, 100.0),
                 "edges": lambda: rng.integers(0, bins + 1, shape).astype(float)}[kind]()
        if kind == "edges":
            freqs.flat[:2] = 0.0, bins  # edges 0, 1, ..., bins
        result = dp.bandwidth_histogram(freqs, bins=bins)
        for histogram, values in ((result.individual, freqs.ravel()),
                                  (result.replica_means, freqs.mean(axis=1))):
            density, edges = np.histogram(values, bins=bins, density=True)
            assert histogram.bin_edges.tobytes() == edges.tobytes()
            assert histogram.density.tobytes() == density.tobytes()
            assert histogram.sample_sigma == float(np.std(values, ddof=1))


_PHASOR_DIGEST = """\
import hashlib, sys
from zenolock import dephasing as dp
from zenolock.configfile import Section
config = dp.EnsembleConfig(atom_count=100, center_frequency=100.0, fwhm=10.0,
                           seed=20260808, time_max=0.1, time_points=201, replicas=300)
digest = hashlib.sha256()
freqs = dp.sample_all_replicas(config)
for block in dp._phasor_blocks([freqs], dp._block_rows(300, 100, 201), 0.1 / 200, 201):
    digest.update(block.tobytes())
sys.stdout.write(digest.hexdigest())
"""


class TestDeterminism:
    def test_thread_count_does_not_change_results(self, monkeypatch):
        # the blocking and the BLAS thread count leave the kernel bit-identical
        config = make_config(replicas=500, time_points=201)
        freqs = dp.sample_all_replicas(config)
        step = config.time_max / (config.time_points - 1)
        reference = phasor_values(freqs, step, config.time_points)
        for entries in (1, config.atom_count - 1, dp._BLOCK_ENTRIES, 1 << 20, 1 << 30):
            with monkeypatch.context() as patch:
                patch.setattr(dp, "_BLOCK_ENTRIES", entries)
                blocked = phasor_values(freqs, step, config.time_points)
            np.testing.assert_array_equal(blocked, reference)
        src = str(Path(dp.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", _PHASOR_DIGEST], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout)
        assert digests[0] == digests[1]


class TestEfoldFit:
    def test_recovers_known_envelope(self):
        sigma = dp.fwhm_to_sigma(10.0)
        t = np.linspace(0.0, 0.12, 241)
        clean = dp.envelope_independent(t, sigma, 100.0)
        fitted = dp.fit_efold_time(t, clean, 100.0, sigma_guess=sigma * 1.4)
        assert fitted == pytest.approx(1.0 / (dp.TWO_PI * sigma), rel=1e-6)

    def test_noisy_fit_minimizes_squared_residual(self):
        sigma = dp.fwhm_to_sigma(10.0)
        t = np.linspace(0.0, 0.12, 241)
        noise = 0.02 * np.random.default_rng(3).normal(size=t.size)
        noisy = dp.envelope_independent(t, sigma, 100.0) + noise
        a = 0.5 / dp.fit_efold_time(t, noisy, 100.0, sigma_guess=sigma) ** 2

        def squares(rate):
            return np.sum((np.exp(-rate * t**2) * np.cos(dp.TWO_PI * 100.0 * t) - noisy) ** 2)

        assert squares(a) < squares(a * (1.0 - 1e-6))
        assert squares(a) < squares(a * (1.0 + 1e-6))

    def test_growing_curve_raises(self):
        sigma = dp.fwhm_to_sigma(10.0)
        t = np.linspace(0.0, 0.12, 241)
        growing = np.exp(0.5 * (dp.TWO_PI * sigma * t) ** 2) * np.cos(dp.TWO_PI * 100.0 * t)
        with pytest.raises(dp.EnvelopeFitError, match="did not converge"):
            dp.fit_efold_time(t, growing, 100.0, sigma_guess=sigma)

    def test_undamped_curve_raises(self):
        t = np.linspace(0.0, 0.12, 241)
        with pytest.raises(dp.EnvelopeFitError, match="does not decay measurably"):
            dp.fit_efold_time(t, np.cos(dp.TWO_PI * 100.0 * t), 100.0, sigma_guess=4.0)

    def test_non_finite_values_raise(self):
        t = np.linspace(0.0, 0.12, 241)
        values = dp.envelope_independent(t, 4.0, 100.0)
        values[7] = np.nan
        with pytest.raises(dp.EnvelopeFitError, match="non-finite step"):
            dp.fit_efold_time(t, values, 100.0, sigma_guess=4.0)

    def test_zero_starting_rate_raises(self):
        t = np.linspace(0.0, 0.12, 241)
        with pytest.raises(dp.EnvelopeFitError, match="starting decay rate"):
            dp.fit_efold_time(t, dp.envelope_independent(t, 4.0, 100.0), 100.0,
                              sigma_guess=0.0)
        # numpy scalars are reported as plain floats
        with pytest.raises(dp.EnvelopeFitError, match=r"got 0\.0 from sigma_guess 1e-300$"):
            dp.fit_efold_time(t, dp.envelope_independent(t, 4.0, 100.0), 100.0,
                              sigma_guess=np.float64(1e-300))


@functools.lru_cache(maxsize=None)
def run_curve(locked, **overrides):
    """(times, mean cosine, sigma guess) of one curve of a dephasing run with
    the defaults but ``overrides``, as ``cli.cmd_dephasing`` fits it."""
    config = default_config(**overrides)
    times, sigma = config.time_grid, config.sigma
    if locked:
        times = times * math.sqrt(config.atom_count)
        sigma /= math.sqrt(config.atom_count)
        config = config.replace(time_max=times[-1])
    values, _ = dp.monte_carlo_mean_cos(config, locked=locked)
    values.flags.writeable = False
    return times, values, sigma


# a run whose envelope the grid resolves only weakly: a t_max^2 is about 1e-3
WEAKLY_DECAYING = {"fwhm": 0.2, "replicas": 400, "time_points": 31}


class TestEfoldFitNoiseFloor:
    # below fwhm 0.5 the Gauss-Newton steps of these curves stay at their
    # rounding noise, 1e-14-1e-13 relative, above the 4 eps a of the first
    # stop test; at 0.5 and 10 that test stops the curves as drawn
    @pytest.mark.parametrize("locked", [False, True])
    @pytest.mark.parametrize("fwhm", [0.05, 0.2, 0.5, 10.0])
    @settings(max_examples=30, deadline=None)
    @given(nudges=st.lists(st.integers(-4, 4), min_size=31, max_size=31))
    def test_ulp_nudges_keep_the_verdict(self, fwhm, locked, nudges):
        times, values, sigma = run_curve(locked, **{**WEAKLY_DECAYING, "fwhm": fwhm})
        reference = dp.fit_efold_time(times, values, 100.0, sigma_guess=sigma)
        nudged = values + np.array(nudges) * np.spacing(values)
        fitted = dp.fit_efold_time(times, nudged, 100.0, sigma_guess=sigma)
        assert fitted == pytest.approx(reference, rel=1e-10)


def curve_fit_efold_time(times, values, center_frequency, sigma_guess):
    """The envelope fit as curve_fit does it: the Gauss-Newton fit's oracle."""
    optimize = pytest.importorskip("scipy.optimize")

    def model(t, a):
        return np.exp(-a * t**2) * np.cos(dp.TWO_PI * center_frequency * t)

    a0 = 0.5 * (dp.TWO_PI * sigma_guess) ** 2
    popt, _ = optimize.curve_fit(model, times, values, p0=[a0], maxfev=10_000)
    return 1.0 / np.sqrt(2.0 * popt[0])


class TestEfoldFitAgainstCurveFit:
    # curve_fit stops at its default xtol of 1.5e-8, the Gauss-Newton loop at
    # rounding level; on the defaults they differ by about 1.3e-8
    @pytest.mark.parametrize("locked", [False, True])
    def test_default_curves(self, locked):
        times, values, sigma = run_curve(locked)
        fitted = dp.fit_efold_time(times, values, 100.0, sigma_guess=sigma)
        assert fitted == pytest.approx(curve_fit_efold_time(times, values, 100.0, sigma),
                                       rel=1e-6)

    @pytest.mark.parametrize("locked", [False, True])
    def test_weakly_decaying_curves(self, locked):
        times, values, sigma = run_curve(locked, **WEAKLY_DECAYING)
        fitted = dp.fit_efold_time(times, values, 100.0, sigma_guess=sigma)
        assert fitted == pytest.approx(curve_fit_efold_time(times, values, 100.0, sigma),
                                       rel=1e-6)

    @pytest.mark.parametrize("guess_factor", [0.5, 1.4, 3.0])
    def test_noisy_synthetic_curve(self, guess_factor):
        sigma = dp.fwhm_to_sigma(10.0)
        t = np.linspace(0.0, 0.12, 241)
        noise = 0.02 * np.random.default_rng(3).normal(size=t.size)
        noisy = dp.envelope_independent(t, sigma, 100.0) + noise
        fitted = dp.fit_efold_time(t, noisy, 100.0, sigma_guess=sigma * guess_factor)
        assert fitted == pytest.approx(
            curve_fit_efold_time(t, noisy, 100.0, sigma * guess_factor), rel=1e-6)
