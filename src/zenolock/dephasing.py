"""Ensemble frequency statistics for independently perturbed atoms.

Atom k of an ensemble carries a frequency f_k drawn from a normal
distribution of FWHM ``fwhm`` around ``center_frequency``.  This module
samples such ensembles, computes the decay of the mean cosine of the
accumulated phases (Monte Carlo and closed form), the sqrt(N) narrowing of
the distribution of ensemble-mean frequencies, and the Allan deviation of a
clock disciplined by those atoms.

This is the only module that works in plain Hz and seconds.
"""

import math
from collections import deque
from typing import NamedTuple

import numpy as np

from .records import Record

TWO_PI = 2.0 * np.pi
# Float64 entries of the buffers of one replica block of _phasor_blocks: its
# baby and giant steps (two per complex phasor, m + giants of them per atom of
# a replica), its (replicas x giants m) atom sums and the copy of them the
# Monte Carlo fold reduces.  A fixed budget, so the blocking depends on the
# input shape only and a block's working set stays near 1 MB whatever the
# replica count: 21 replicas on the default independent curve, 274 on the
# locked one (one atom each).  On a 2-core Xeon VM with one BLAS thread and
# the cos/sin seed the default curves took 0.08-0.10 s and 0.006-0.008 s at
# 2^17, about the same at 2^18, and 0.11-0.18 s and 0.007-0.016 s at
# 2^15-2^16, where a block is a few replicas and the per-block numpy calls
# dominate.
_BLOCK_ENTRIES = 1 << 17
# Float64 entries of the buffer the Monte Carlo draws replica frequencies
# into, a whole number of _phasor_blocks blocks at a time (at least one):
# 31 blocks of 21 replicas, 0.5 MB, on the default independent curve.
_DRAW_ENTRIES = 1 << 16


def fwhm_to_sigma(fwhm: float) -> float:
    """Standard deviation of a Gaussian with the given full width at half maximum."""
    if not fwhm > 0.0:
        raise ValueError(f"fwhm must be positive, got {fwhm}")
    return fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))


class EnsembleConfig(Record):
    """Statistical description of N atom frequencies over M prepared replicas.

    ``center_frequency`` and ``fwhm`` are in Hz; ``time_max`` is in seconds,
    the last of ``time_points`` evenly spaced sample times from t = 0.
    """

    __slots__ = ("atom_count", "center_frequency", "fwhm", "seed", "time_max",
                 "time_points", "replicas")

    def __init__(self, atom_count: int, center_frequency: float, fwhm: float, seed: int,
                 time_max: float, time_points: int, replicas: int = 1):
        if atom_count < 1:
            raise ValueError("atom_count must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not fwhm > 0.0:
            raise ValueError("fwhm must be positive")
        if not time_max > 0.0:
            raise ValueError("time_max must be positive")
        if time_points < 2:
            raise ValueError("time_points must be >= 2")
        self._set(locals())

    @property
    def sigma(self) -> float:
        return fwhm_to_sigma(self.fwhm)

    @property
    def time_grid(self) -> np.ndarray:
        """The sample times in seconds: linspace(0, time_max, time_points)."""
        return np.linspace(0.0, self.time_max, self.time_points)


def _philox_generator(seed: int, replica: int) -> "np.random.Generator":
    # Counter-based stream keyed by (seed, replica); the atom index is the
    # position inside the stream.  Results are independent of execution order.
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(replica)])
    return np.random.Generator(np.random.Philox(key=key))


def _stream() -> tuple:
    """A re-keyable Philox stream for :func:`_replica_rng`.

    That is a generator, its bit generator, a state dict and the dict's key
    list.  The state dict is a fresh generator's with its arrays turned into
    lists of Python ints, which the state setter reads about three times
    faster than numpy scalars.  One draw makes one stream and re-keys it
    once per replica.
    """
    rng = _philox_generator(0, 0)
    fresh = rng.bit_generator.state
    state = {**fresh, "buffer": fresh["buffer"].tolist(),
             "state": {name: words.tolist() for name, words in fresh["state"].items()}}
    return rng, rng.bit_generator, state, state["state"]["key"]


def _replica_rng(stream: tuple, seed: int, replica: int) -> "np.random.Generator":
    """The stream of :func:`_philox_generator` (seed, replica), at its start.

    A Philox stream is fixed by its key and counter (Salmon et al., SC'11),
    so instead of constructing a generator per replica this re-keys the
    generator of ``stream`` (see :func:`_stream`) through its state setter:
    key (seed, replica), zero counter, empty buffer.  Only the key changes
    from call to call.  The draws are bit-identical to a fresh generator's.
    The result is valid until the stream's next re-key.
    """
    rng, bit_generator, state, key = stream
    key[0] = seed & 0xFFFFFFFFFFFFFFFF
    key[1] = replica
    bit_generator.state = state
    return rng


def _draw(config: EnsembleConfig, out: np.ndarray, first: int, stream: tuple) -> np.ndarray:
    """Fill the rows of ``out`` with the frequencies of replicas first, first + 1, ...,
    each drawn from ``stream`` re-keyed."""
    seed = config.seed
    for r, row in enumerate(out, first):
        _replica_rng(stream, seed, r).standard_normal(out=row)
    # in place, the same two roundings per entry as center + sigma * draws
    out *= config.sigma
    out += config.center_frequency
    return out


def _draw_chunks(config: EnsembleConfig, rows: int, means=None, leading=None):
    """The frequencies of every replica, in chunks of whole ``rows``-replica
    blocks drawn one after another into one reused buffer.

    A chunk holds as many blocks as _DRAW_ENTRIES floats allow, at least
    one; the last chunk holds the rest.  Each chunk is a view the next one
    overwrites.  Each replica's mean frequency goes into ``means``, and the
    leading replicas and atoms of the draw into ``leading``, when given.
    """
    replicas = config.replicas
    size = min(replicas, rows * max(1, _DRAW_ENTRIES // (rows * config.atom_count)))
    buffer = np.empty((size, config.atom_count))
    stream = _stream()
    for lo in range(0, replicas, size):
        chunk = _draw(config, buffer[:min(size, replicas - lo)], lo, stream)
        hi = lo + chunk.shape[0]
        if means is not None:
            chunk.mean(axis=1, out=means[lo:hi])
        if leading is not None and lo < leading.shape[0]:
            leading[lo:hi] = chunk[:leading.shape[0] - lo, :leading.shape[1]]
        yield chunk


def sample_all_replicas(config: EnsembleConfig, out=None, first: int = 0) -> np.ndarray:
    """Frequencies of every replica, shape (replicas, atom_count), read-only.

    They are drawn into ``out`` when given, else into a new array.  The rows
    of ``out`` before ``first`` are left as they are, for a caller that
    holds the leading replicas of the draw already.
    """
    if out is None:
        out = np.empty((config.replicas, config.atom_count))
    _draw(config, out[first:], first, _stream())
    out.flags.writeable = False
    return out


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


class AllanParams(Record):
    """Inputs of the closed-form Allan deviation of an atom-disciplined clock.

    ``fwhm`` and ``carrier`` are in Hz; ``cycle_time`` is in seconds per
    interrogation cycle and ``averaging_time`` in seconds (distinct from the
    Zeno free interval).
    """

    __slots__ = ("fwhm", "carrier", "atom_count", "cycle_time", "averaging_time")

    def __init__(self, fwhm: float, carrier: float, atom_count: int, cycle_time: float,
                 averaging_time: float):
        self._set(locals())
        for name in ("fwhm", "carrier", "cycle_time", "averaging_time"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if atom_count < 1:
            raise ValueError("atom_count must be >= 1")


def allan_deviation(params: AllanParams) -> float:
    """Fractional frequency instability after the given averaging time."""
    return (params.fwhm / (params.carrier * np.sqrt(params.atom_count))
            * np.sqrt(params.cycle_time / params.averaging_time))


def _block_rows(replicas: int, atoms: int, points: int) -> int:
    """Replicas per block of :func:`_phasor_blocks`: as many as _BLOCK_ENTRIES
    floats of its buffers hold, at least one and at most all of them."""
    m = math.isqrt(points - 1) + 1
    giants = -(-points // m)
    return max(1, min(replicas, _BLOCK_ENTRIES // (2 * ((m + giants) * atoms + giants * m))))


def _phasor_blocks(chunks, rows: int, step: float, points: int):
    """Per-replica mean cosines on the grid k step, k < points, block by block.

    With w = exp(2 pi i f step) and k = a m + b, m = ceil(sqrt(points)),
    each atom's phasor is w^k = w^(a m) w^b.  Each atom gets m baby steps
    b = w^b and ceil(points / m) giant steps g = conj(w^(a m)), one complex
    multiply each, instead of one per grid point.  Then
    Re w^k = Re(conj(g) b) = g.re b.re + g.im b.im, a dot product of float
    pairs, so one replica's atom sums are one real matrix product
    (giant steps x 2 atoms) @ (2 atoms x baby steps).  The seed w is
    cos + i sin of its phase, the same bits as exp(1j * phase) without its
    two complex temporaries.  ``chunks`` are (replicas, atoms) frequency
    arrays in replica order; each is cut into blocks of ``rows`` replicas
    (see :func:`_block_rows`), one batched matmul per block, so a chunk
    other than the last should hold whole blocks.  Every view a block is
    computed through (each power, the seed's halves, the matmul operands
    and the result) is made when the block's replica count changes, which
    is at a ragged block only, so a block costs its ufunc calls alone.
    Yields each block's (replicas of the block, points) mean cosines in
    replica order; they are a view of buffers the next block overwrites.
    """
    m = math.isqrt(points - 1) + 1
    giants = -(-points // m)
    scale = TWO_PI * step
    baby = None
    n = 0
    for chunk in chunks:
        if baby is None:
            atoms = chunk.shape[1]
            baby = np.empty((m, rows, atoms), dtype=complex)
            giant = np.empty((giants, rows, atoms), dtype=complex)
            sums = np.empty((rows, giants, m))
            baby[0] = 1.0
            giant[0] = 1.0
        for lo in range(0, chunk.shape[0], rows):
            block = chunk[lo:lo + rows]
            if block.shape[0] != n:
                n = block.shape[0]
                b, g = baby[:, :n], giant[:, :n]
                powers, steps = list(b), list(g)
                w = powers[1]
                # the phase waits in the imaginary half until sin overwrites it
                phase, cosine = w.imag, w.real
                # (b[k - 1], b[k]) for 2 <= k < m, and (g[a - 1], g[a]) for 2 <= a < giants
                baby_steps = list(zip(powers[1:-1], powers[2:]))
                giant_steps = list(zip(steps[1:-1], steps[2:]))
                lhs = g.view(np.float64).transpose(1, 0, 2)
                rhs = b.view(np.float64).transpose(1, 2, 0)
                out = sums[:n]
                means = out.reshape(n, giants * m)[:, :points]
            np.multiply(block, scale, phase)
            np.cos(phase, cosine)
            np.sin(phase, phase)
            for previous, power in baby_steps:
                np.multiply(previous, w, power)
            if giants > 1:
                np.multiply(powers[-1], w, steps[1])
                np.conjugate(steps[1], steps[1])
                for previous, power in giant_steps:
                    np.multiply(previous, steps[1], power)
            np.matmul(lhs, rhs, out)
            out /= atoms
            yield means


def _fold(blocks, points: int):
    """(mean, standard error) over replicas of the (replicas, points) blocks.

    Each block's sum and its sum of squared deviations M2 join the running
    count, sum and M2 by the parallel update of Chan, Golub and LeVeque, the
    running sum Kahan-compensated, so no (points, replicas) array is formed.
    """
    count = 0
    total = np.zeros(points)  # sum of the values so far, Kahan-compensated by lost
    lost = np.zeros(points)
    m2 = np.zeros(points)
    for block in blocks:
        n = block.shape[0]
        # replicas along the contiguous axis, so numpy sums them pairwise
        block_sum = np.ascontiguousarray(block.T).sum(axis=1)
        block_mean = block_sum / n
        deviations = block - block_mean
        deviations *= deviations
        m2 += deviations.sum(axis=0)
        if count:
            delta = block_mean - total / count
            m2 += delta * delta * (count * n / (count + n))
        block_sum -= lost
        new_total = total + block_sum
        lost = (new_total - total) - block_sum
        total = new_total
        count += n
    mean = total / count
    if count == 1:
        return mean, np.zeros_like(mean)
    return mean, np.sqrt(m2 / (count - 1)) / np.sqrt(count)


def monte_carlo_mean_cos(config: EnsembleConfig, locked: bool = False, means=None,
                         leading=None):
    """Replica-averaged mean cosine on the config time grid.

    Returns ``(mean, standard_error)`` arrays.  In the locked variant every
    atom of a replica oscillates at that replica's mean frequency, so each
    replica is a one-atom ensemble.  The independent pass draws the replicas
    a whole number of kernel blocks at a time into one reused buffer of
    about _DRAW_ENTRIES floats, and feeds each chunk straight into the
    baby- and giant-step phasor powers of :func:`_phasor_blocks`, whose
    blocks :func:`_fold` folds into running per-point moments as soon as
    they are made.  No (replicas, atom_count) or (grid, replicas) array is
    formed.  The independent pass writes each replica's mean frequency into
    ``means`` and the leading replicas and atoms of its draw into
    ``leading``, when given; the locked call reads the ``means`` of that
    draw, or streams the draw for them when given none.
    The blocking depends on the input shape only, whatever the draw's
    chunks, and each replica's atom sums are one matrix product of a shape
    fixed by the grid and the atom count, so the result is fixed by the
    inputs.  On the shapes CI compares, the CSVs of a run are byte-identical
    at 1 and 2 BLAS threads; larger per-replica products can differ in the
    last bits.
    """
    points = config.time_points
    step = config.time_max / (points - 1)
    if locked:
        if means is None:
            means = np.empty(config.replicas)
            deque(_draw_chunks(config, 1, means), maxlen=0)  # keeps no view of the draw buffer
        rows = _block_rows(config.replicas, 1, points)
        chunks = [means[:, None]]
    else:
        rows = _block_rows(config.replicas, config.atom_count, points)
        chunks = _draw_chunks(config, rows, means, leading)
    return _fold(_phasor_blocks(chunks, rows, step, points), points)


def ensemble_pass(config: EnsembleConfig, locked_time_max: float, histogram_replicas: int,
                  histogram_atoms: int):
    """Both Monte Carlo curves and the histogram sample of one draw.

    Returns the ``(mean, standard_error)`` of :func:`monte_carlo_mean_cos`
    on the independent curve of ``config`` and on the locked curve over as
    many points up to ``locked_time_max``, and a function returning the
    leading ``histogram_replicas`` x ``histogram_atoms`` of the same draw,
    read-only, for :func:`bandwidth_histogram`.  The independent curve
    writes each replica's mean, which the locked curve reads, and the part
    of that sample it draws; the function draws only the rest (all of it
    when the histogram has more atoms than the curve).
    """
    histogram = config.replace(replicas=histogram_replicas, atom_count=histogram_atoms)
    freqs = np.empty((histogram_replicas, histogram_atoms))
    kept = min(histogram_replicas, config.replicas) if histogram_atoms <= config.atom_count else 0
    means = np.empty(config.replicas)
    independent = monte_carlo_mean_cos(config, means=means, leading=freqs[:kept])
    locked = monte_carlo_mean_cos(config.replace(time_max=locked_time_max), locked=True,
                                  means=means)
    return independent, locked, lambda: sample_all_replicas(histogram, freqs, kept)


class HistogramData(NamedTuple):
    bin_edges: np.ndarray
    density: np.ndarray
    sample_sigma: float


class BandwidthHistograms(NamedTuple):
    """Before/after picture of the sqrt(N) bandwidth narrowing."""

    individual: HistogramData
    replica_means: HistogramData

    @property
    def sigma_ratio(self) -> float:
        return self.individual.sample_sigma / self.replica_means.sample_sigma


def bandwidth_histogram(freqs: np.ndarray, bins: int = 60) -> BandwidthHistograms:
    """Normalized histograms of the individual frequencies of a (replicas,
    atom_count) draw and of its replica means."""
    singles = freqs.ravel()
    means = freqs.mean(axis=1)

    def make(samples):
        # np.histogram(density=True) in chunks: its 2 MB of temporaries set the ensemble's peak
        edges = np.histogram_bin_edges(samples, bins=bins)
        counts = sum(np.histogram(samples[start:start + 8192], bins=edges)[0]
                     for start in range(0, len(samples), 8192))
        density = counts / np.diff(edges) / counts.sum()
        return HistogramData(edges, density, float(np.std(samples, ddof=1)))

    return BandwidthHistograms(make(singles), make(means))


class EnvelopeFitError(RuntimeError):
    """The envelope fit did not converge, or the curve does not decay."""


# Gauss-Newton steps the envelope fit may take.  The default curves take 5
# (independent) and 9 (locked); noisy curves from a guess 0.2-5 times off,
# at most 17.  A curve whose steps are rounding noise takes all of them.
_FIT_ITERATIONS = 100
_EPS = np.finfo(float).eps
# Stop once a step moves the decay rate by no more than this, relative.
_FIT_RTOL = 4.0 * _EPS


def fit_efold_time(times, values, center_frequency: float, sigma_guess: float) -> float:
    """Time at which a Gaussian coherence envelope drops to e^(-1/2).

    Fits exp(-a t^2) cos(2 pi f0 t) with the amplitude pinned to 1 (the mean
    cosine is exactly 1 at t = 0 for every replica), by least squares in the
    one parameter a: Gauss-Newton steps, each halved until a stays positive,
    until a step is at rounding level, at most 4 eps a.  On a weakly
    decaying curve the steps stay above that: each residual model - value
    carries an error of about eps (|model| + |value|), which moves the step
    by up to eps sum |slope| (|model| + |value|) / curvature, far above
    4 eps a.  So when no step meets the first test, the fit ends at the
    first iterate that a full (unhalved) step within that rounding bound
    reached; a curve that meets the first test stops where it would without
    the second.  Raises :class:`EnvelopeFitError` when neither happens
    within a fixed number of steps, which is how a growing curve ends (a is
    driven towards zero and every step is halved), and when the starting
    rate is zero or not finite, the fitted envelope does not decay
    measurably over the grid, or the model loses its dependence on a.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    a = 0.5 * (TWO_PI * sigma_guess) ** 2
    if not 0.0 < a < np.inf:
        raise EnvelopeFitError(f"envelope fit needs a positive finite starting decay "
                               f"rate, got {float(a)!r} from sigma_guess {float(sigma_guess)!r}")
    squares = times**2
    carrier = np.cos(TWO_PI * center_frequency * times)
    magnitudes = np.abs(values)
    floor = None  # the first iterate a full step within its rounding bound reached
    for _ in range(_FIT_ITERATIONS):
        model = np.exp(-a * squares) * carrier
        slope = squares * model  # -d model / d a
        curvature = slope @ slope
        if not curvature > 0.0:
            raise EnvelopeFitError(f"envelope fit lost its slope at a = {a:.3e}")
        step = (slope @ (model - values)) / curvature
        if not np.isfinite(step):
            raise EnvelopeFitError(f"envelope fit took a non-finite step at a = {a:.3e}")
        rounding = _EPS * (np.abs(slope) @ (np.abs(model) + magnitudes))
        at_floor = abs(step) * curvature <= rounding
        while a + step <= 0.0:
            step *= 0.5
            at_floor = False
        a += step
        if abs(step) <= _FIT_RTOL * a:
            break
        if at_floor and floor is None:
            floor = a
    else:
        if floor is None:
            raise EnvelopeFitError(
                f"envelope fit did not converge in {_FIT_ITERATIONS} Gauss-Newton steps "
                f"(a = {a:.3e}); a curve that does not decay drives a towards zero")
        a = floor
    if a * squares.max() <= _FIT_RTOL:
        # exp(-a t^2) rounds to 1 on the whole grid: a is unresolved
        raise EnvelopeFitError(
            f"envelope does not decay measurably over the time grid (a = {a:.3e})")
    return float(1.0 / np.sqrt(2.0 * a))
