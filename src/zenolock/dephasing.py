"""Ensemble frequency statistics for independently perturbed atoms.

Atom k of an ensemble carries a frequency f_k drawn from a normal
distribution of FWHM ``fwhm`` around ``center_frequency``.  This module
samples such ensembles, computes the decay of the mean cosine of the
accumulated phases (Monte Carlo and closed form), the sqrt(N) narrowing of
the distribution of ensemble-mean frequencies, and the Allan deviation of a
clock disciplined by those atoms.

This is the only module that works in plain Hz and seconds.
"""

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * np.pi
# Complex entries per replica block of the phasor recurrence: a fixed
# budget, so the blocking depends on the input shape only and the block
# temporaries stay small next to the (grid x replicas) result.
_BLOCK_ENTRIES = 1 << 15


def fwhm_to_sigma(fwhm: float) -> float:
    """Standard deviation of a Gaussian with the given full width at half maximum."""
    if not fwhm > 0.0:
        raise ValueError(f"fwhm must be positive, got {fwhm}")
    return fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class EnsembleConfig:
    """Statistical description of N atom frequencies over M prepared replicas."""

    atom_count: int
    center_frequency: float  # Hz
    fwhm: float              # Hz
    seed: int
    time_grid: tuple         # seconds, strictly increasing
    replicas: int = 1

    def __post_init__(self):
        if self.atom_count < 1:
            raise ValueError("atom_count must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not self.fwhm > 0.0:
            raise ValueError("fwhm must be positive")
        grid = tuple(float(t) for t in self.time_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("time_grid must be strictly increasing")
        object.__setattr__(self, "time_grid", grid)

    @property
    def sigma(self) -> float:
        return fwhm_to_sigma(self.fwhm)


def _philox_generator(seed: int, replica: int) -> np.random.Generator:
    # Counter-based stream keyed by (seed, replica); the atom index is the
    # position inside the stream.  Results are independent of execution order.
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(replica)])
    return np.random.Generator(np.random.Philox(key=key))


# (generator, state dict of a fresh generator) per thread, so that threads
# drawing at once never re-key each other's stream.
_thread_streams = threading.local()


def _replica_rng(seed: int, replica: int) -> np.random.Generator:
    """The stream of :func:`_philox_generator` (seed, replica), at its start.

    A Philox stream is fixed by its key and counter (Salmon et al., SC'11),
    so instead of constructing a generator per replica this re-keys one
    generator per thread through its state setter: key (seed, replica),
    zero counter, empty buffer.  The draws are bit-identical to a fresh
    generator's.  The result is valid until the thread's next call.
    """
    streams = getattr(_thread_streams, "value", None)
    if streams is None:
        rng = _philox_generator(seed, replica)
        streams = _thread_streams.value = (rng, rng.bit_generator.state)
    rng, state = streams
    state["state"]["key"][:] = (seed & 0xFFFFFFFFFFFFFFFF, replica)
    rng.bit_generator.state = state
    return rng


def sample_frequencies(config: EnsembleConfig, replica: int = 0) -> np.ndarray:
    """Draw the N atom frequencies of one prepared ensemble."""
    rng = _replica_rng(config.seed, replica)
    draws = rng.standard_normal(config.atom_count)
    return config.center_frequency + config.sigma * draws


# The last draw of sample_all_replicas: ((seed, replicas, center, fwhm), frequencies).
# Two threads that miss at once both draw the same deterministic array, so
# the memo needs no lock.
_last_draw = None


def sample_all_replicas(config: EnsembleConfig) -> np.ndarray:
    """Frequencies of every replica, shape (replicas, atom_count), read-only.

    The first n normals of a replica stream are the prefix of its first
    m > n, so the last draw is kept: a later call with the same seed,
    replica count, center frequency and width and at most as many atoms
    returns a column-prefix view of it, equal bit for bit to a fresh draw.
    """
    global _last_draw
    key = (config.seed, config.replicas, config.center_frequency, config.fwhm)
    draw = _last_draw
    if draw is None or draw[0] != key or draw[1].shape[1] < config.atom_count:
        out = np.empty((config.replicas, config.atom_count))
        for r in range(config.replicas):
            _replica_rng(config.seed, r).standard_normal(out=out[r])
        # in place, the same two roundings per entry as sample_frequencies
        out *= config.sigma
        out += config.center_frequency
        out.flags.writeable = False
        draw = _last_draw = (key, out)
    return draw[1][:, :config.atom_count]


def mean_frequency(frequencies: Sequence[float]) -> float:
    """Arithmetic mean of the ensemble frequencies."""
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size == 0:
        raise ValueError("cannot average an empty frequency list")
    return float(np.mean(freqs))


def mean_cos_phase(frequencies: Sequence[float], t):
    """Mean over atoms of cos(2 pi f_k t); scalar or vectorized in t."""
    freqs = np.asarray(frequencies, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be non-negative")
    values = np.cos(TWO_PI * np.multiply.outer(t_arr, freqs)).mean(axis=-1)
    return float(values) if np.isscalar(t) or t_arr.ndim == 0 else values


def envelope_independent(t, sigma: float, center_frequency: float):
    """Expected mean cosine when every atom keeps its own frequency.

    Gaussian coherence envelope times the carrier: the ensemble-averaged
    phase washes out on the 1/(2 pi sigma) timescale.
    """
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * (TWO_PI * t) ** 2 * sigma**2) * np.cos(TWO_PI * center_frequency * t)


def envelope_locked(t, sigma: float, center_frequency: float, atom_count: int):
    """Expected mean cosine when all atoms are locked to their ensemble mean.

    Identical to :func:`envelope_independent` with sigma -> sigma/sqrt(N);
    the shared frequency f-bar scatters sqrt(N) less between replicas.
    """
    return envelope_independent(t, sigma / np.sqrt(atom_count), center_frequency)


@dataclass(frozen=True)
class AllanParams:
    """Inputs of the closed-form Allan deviation of an atom-disciplined clock."""

    fwhm: float            # Hz
    carrier: float         # Hz
    atom_count: int
    cycle_time: float      # seconds per interrogation cycle
    averaging_time: float  # seconds (distinct from the Zeno free interval)

    def __post_init__(self):
        for name in ("fwhm", "carrier", "cycle_time", "averaging_time"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.atom_count < 1:
            raise ValueError("atom_count must be >= 1")


def allan_deviation(params: AllanParams) -> float:
    """Fractional frequency instability after the given averaging time."""
    return (params.fwhm / (params.carrier * np.sqrt(params.atom_count))
            * np.sqrt(params.cycle_time / params.averaging_time))


def _uniform_step(grid: np.ndarray) -> float | None:
    """Spacing dt of a grid t_k = t_0 + k dt, or None for any other grid.

    A grid of two or more points is uniform when every point lies within a
    few ulp of max|t| of t_0 + k dt, which covers the rounding of linspace
    and of a scaled linspace.
    """
    if grid.size < 2:
        return None
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    rebuilt = grid[0] + step * np.arange(grid.size)
    tolerance = 4.0 * np.spacing(np.abs(grid).max())
    return float(step) if np.abs(grid - rebuilt).max() <= tolerance else None


def _cos_values(freqs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per-replica mean cosine, shape (grid, replicas), by one cos per atom and point."""
    values = np.empty((grid.size, freqs.shape[0]))
    for k, t in enumerate(grid):
        values[k] = np.cos(TWO_PI * t * freqs).mean(axis=1)
    return values


def _phasor_values(freqs: np.ndarray, start: float, step: float,
                   points: int) -> np.ndarray:
    """Per-replica mean cosine on the uniform grid start + k step, k < points.

    The phasor z = exp(2 pi i f t) advances by w = exp(2 pi i f step) per
    grid point, so each point costs one complex multiply per atom instead of
    a cosine.  Replicas are processed in fixed blocks; each block writes its
    own columns of the (points, replicas) result.
    """
    replicas, atoms = freqs.shape
    values = np.empty((points, replicas))
    rows = max(1, _BLOCK_ENTRIES // atoms)
    for lo in range(0, replicas, rows):
        block = freqs[lo:lo + rows]
        phasor = np.exp(1j * (TWO_PI * start) * block)
        turn = np.exp(1j * (TWO_PI * step) * block)
        for k in range(points):
            values[k, lo:lo + rows] = phasor.real.mean(axis=1)
            phasor *= turn
    return values


def monte_carlo_mean_cos(config: EnsembleConfig, locked: bool = False):
    """Replica-averaged mean cosine on the config time grid.

    Returns ``(mean, standard_error)`` arrays.  In the locked variant every
    atom of a replica oscillates at that replica's mean frequency, so each
    replica is a one-atom ensemble.  A uniform grid is advanced by the
    phasor recurrence of :func:`_phasor_values`; any other grid takes one
    cosine per atom and point.  Either way the per-replica means land in one
    (grid, replicas) array that is reduced once, in a fixed order, so the
    result does not depend on the thread count.
    """
    freqs = sample_all_replicas(config)
    if locked:
        freqs = freqs.mean(axis=1, keepdims=True)
    grid = np.asarray(config.time_grid)
    step = _uniform_step(grid)
    if step is None:
        values = _cos_values(freqs, grid)
    else:
        values = _phasor_values(freqs, grid[0], step, grid.size)
    mean = values.mean(axis=1)
    if config.replicas == 1:
        return mean, np.zeros(grid.size)
    return mean, values.std(axis=1, ddof=1) / np.sqrt(config.replicas)


@dataclass(frozen=True)
class HistogramData:
    bin_edges: np.ndarray
    density: np.ndarray
    sample_sigma: float

    def integral(self) -> float:
        return float(np.sum(self.density * np.diff(self.bin_edges)))


@dataclass(frozen=True)
class BandwidthHistograms:
    """Before/after picture of the sqrt(N) bandwidth narrowing."""

    individual: HistogramData
    replica_means: HistogramData

    @property
    def sigma_ratio(self) -> float:
        return self.individual.sample_sigma / self.replica_means.sample_sigma


def bandwidth_histogram(config: EnsembleConfig, bins: int = 60) -> BandwidthHistograms:
    """Normalized histograms of individual frequencies and of replica means."""
    freqs = sample_all_replicas(config)
    singles = freqs.ravel()
    means = freqs.mean(axis=1)

    def make(samples):
        density, edges = np.histogram(samples, bins=bins, density=True)
        return HistogramData(edges, density, float(np.std(samples, ddof=1)))

    return BandwidthHistograms(make(singles), make(means))


class EnvelopeFitError(RuntimeError):
    """The envelope fit did not converge, or the curve does not decay."""


# Gauss-Newton steps the envelope fit may take.  The default curves take 5
# (independent) and 9 (locked); noisy curves from a guess 0.2-5 times off,
# at most 17.
_FIT_ITERATIONS = 100
# Stop once a step moves the decay rate by no more than this, relative.
_FIT_RTOL = 4.0 * np.finfo(float).eps


def fit_efold_time(times, values, center_frequency: float, sigma_guess: float | None = None) -> float:
    """Time at which a Gaussian coherence envelope drops to e^(-1/2).

    Fits exp(-a t^2) cos(2 pi f0 t) with the amplitude pinned to 1 (the mean
    cosine is exactly 1 at t = 0 for every replica), by least squares in the
    one parameter a: Gauss-Newton steps, each halved until a stays positive,
    until a step is at rounding level.  Raises :class:`EnvelopeFitError`
    when that does not happen within a fixed number of steps, which is how a
    growing curve ends (a is driven towards zero), and when the starting
    rate is zero or not finite, the fitted envelope does not decay
    measurably over the grid, or the model loses its dependence on a.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if sigma_guess is None:
        # assume the grid spans a few e-fold times
        span = float(times[-1]) if times[-1] > 0 else 1.0
        sigma_guess = 3.0 / (TWO_PI * span)
    a = 0.5 * (TWO_PI * sigma_guess) ** 2
    if not 0.0 < a < np.inf:
        raise EnvelopeFitError(f"envelope fit needs a positive finite starting decay "
                               f"rate, got {a!r} from sigma_guess {sigma_guess!r}")
    squares = times**2
    carrier = np.cos(TWO_PI * center_frequency * times)
    for _ in range(_FIT_ITERATIONS):
        model = np.exp(-a * squares) * carrier
        slope = squares * model  # -d model / d a
        curvature = slope @ slope
        if not curvature > 0.0:
            raise EnvelopeFitError(f"envelope fit lost its slope at a = {a:.3e}")
        step = (slope @ (model - values)) / curvature
        if not np.isfinite(step):
            raise EnvelopeFitError(f"envelope fit took a non-finite step at a = {a:.3e}")
        while a + step <= 0.0:
            step *= 0.5
        a += step
        if abs(step) <= _FIT_RTOL * a:
            if a * squares.max() <= _FIT_RTOL:
                # exp(-a t^2) rounds to 1 on the whole grid: a is unresolved
                raise EnvelopeFitError(
                    f"envelope does not decay measurably over the time grid (a = {a:.3e})")
            return float(1.0 / np.sqrt(2.0 * a))
    raise EnvelopeFitError(
        f"envelope fit did not converge in {_FIT_ITERATIONS} Gauss-Newton steps "
        f"(a = {a:.3e}); a curve that does not decay drives a towards zero")
