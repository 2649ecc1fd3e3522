"""Zeno phase locking of a pair of two-level atoms in a cavity.

The pair starts in the antisymmetric (subradiant) state, which is dark to
the cavity mode.  A frequency split 2*Delta between the atoms slowly rotates
it toward the symmetric (superradiant) combination.  Each protocol cycle
lets the pair drift freely for a time tau, injects n photons, couples for a
measurement window tau_m chosen as half a Rabi flop of the bright collective
state, and projects the photon number back onto n.  Surviving the projection
collapses the pair back onto the subradiant state, so frequent cycles lock
the relative phase.

One scheme model serves every pair: :class:`LevelSchemeConfig` is the one
pair config, the basis, Hamiltonian and pair states here follow from its
``LEVELS`` and ``TRANSITIONS`` table, the closed forms
(:func:`pe_analytic`, :func:`ps_analytic`) take the splitting of every
transition, and :func:`run_zeno` drives every pair.  :class:`TwoLevelConfig`
is the scheme with one transition; :mod:`zeno_multilevel` adds the others.

All quantities are dimensionless angular frequencies and times (hbar = 1).
"""

import math
from typing import NamedTuple

import numpy as np

from . import hilbert as h
from .hilbert import Atom, Mode
from .records import Record

G, E = 0, 1  # atomic level ordering

# Smallest per-cycle error a run resolves: rounding of order eps per cycle
# gives a per-cycle error p a relative error of about eps/p, 0.1% here.
MIN_CYCLE_ERROR = 1024 * np.finfo(float).eps
# Largest rounding error, in rad, that a run allows in the free-drift phase
# E tau of a basis state.  An energy E is known to about eps |E|, so the
# phase exp(-i E tau) carries an error of about eps max|E| tau; the per-cycle
# errors the protocol measures come from phases of order Delta tau.  The
# default zeno2 runs sit at 4e-16 and 2e-14, and a cavity frequency of 1e7
# with a 0.01 cycle at 4e-10.
MAX_DRIFT_PHASE_ERROR = 1e-8
# Recorded cycles whose states run_zeno buffers before taking their norms; a
# small buffer keeps the run's peak memory where the state-by-state loop had it
RECORD_CHUNK = 64
# Squared norm below which a run scales its state up by a power of two, far
# above the smallest normal float, 2**-1022
RESCALE_BELOW = 2.0**-600


class OutOfRegimeError(ValueError):
    """Closed forms requested outside the perturbative regime (P_E > 1)."""


class ProtocolError(RuntimeError):
    """A protocol run left its numerically valid range.

    Raised when population reaches a Fock truncation boundary, when the
    surviving state is exactly zero, when the per-cycle error is too small
    to resolve, and when the free-drift phases are not resolved.
    """


class TwoLevelEnergies(NamedTuple):
    """Level energies of one two-level atom."""

    g: float
    e: float


class LevelSchemeConfig(Record):
    """A Zeno pair: two identical-scheme atoms and one cavity mode per transition.

    A subclass names its level scheme in two class constants: ``LEVELS``,
    the levels per atom, and ``TRANSITIONS``, the (upper, lower) level pair
    that cavity mode k + 1 drives.  Level indices are the field positions of
    the atoms' energy records, which are tuples.
    """

    __slots__ = ("mode_frequencies", "atom_a", "atom_b", "coupling", "photon_number",
                 "free_interval", "measure_interval", "final_time")

    def __init__(self, *, mode_frequencies: tuple, atom_a: tuple, atom_b: tuple,
                 coupling: float, photon_number: int, free_interval: float,
                 measure_interval: float, final_time: float):
        if free_interval <= 0.0:
            raise ValueError("free_interval must be positive")
        if measure_interval < 0.0:
            raise ValueError("measure_interval must be non-negative")
        if final_time < free_interval + measure_interval:
            raise ValueError("final_time must cover at least one cycle")
        if photon_number < 0:
            raise ValueError("photon_number must be non-negative")
        if photon_number > 0 and coupling <= 0.0:
            raise ValueError("coupling must be positive when photons are injected")
        self._set(locals())

    @property
    def fock_cutoffs(self) -> tuple:
        """n + 2 for every mode, where each excitation sector a run populates is complete."""
        return (self.photon_number + 2,) * len(self.TRANSITIONS)

    @property
    def cycle_time(self) -> float:
        return self.free_interval + self.measure_interval

    @property
    def atom_levels(self) -> tuple:
        return (self.atom_a, self.atom_b)

    def transition(self, atom, k: int) -> float:
        upper, lower = self.TRANSITIONS[k - 1]
        return atom[upper] - atom[lower]

    def mean_transition(self, k: int) -> float:
        return 0.5 * (self.transition(self.atom_a, k) + self.transition(self.atom_b, k))

    def delta(self, k: int) -> float:
        """Half the difference between the two atoms' k-th transition energies."""
        return 0.5 * (self.transition(self.atom_a, k) - self.transition(self.atom_b, k))

    def deltas(self) -> tuple:
        """``delta(k)`` of every transition, the input of the closed forms."""
        return tuple(self.delta(k) for k in range(1, len(self.TRANSITIONS) + 1))

    def mode_detunings(self) -> tuple:
        return tuple(frequency - self.mean_transition(k)
                     for k, frequency in enumerate(self.mode_frequencies, start=1))


class TwoLevelConfig(LevelSchemeConfig):
    """Two two-level atoms (``TwoLevelEnergies``) and one cavity mode."""

    LEVELS = 2
    TRANSITIONS = ((E, G),)


def config_for_cycle_time(cycle_time: float, final_time: float,
                          half_difference: float = 2.0, photon_number: int = 12,
                          measure_ratio: float = 200.0,
                          cavity_frequency: float = 100.0,
                          common_offset: float = 0.0) -> TwoLevelConfig:
    """Config with tau_m a small fixed fraction of the cycle.

    tau_m = cycle_time / (measure_ratio + 1) and the coupling is scaled so
    that window is exactly half a Rabi flop at the given photon number.  The
    closed-form error rate assumes tau_m << tau; the default ratio keeps the
    departure from it below a percent.  The mode sits at ``cavity_frequency``
    and the atoms' excited levels at cavity_frequency + common_offset +/-
    half_difference, above ground levels at zero.
    """
    tau, tau_m, coupling = split_cycle(cycle_time, photon_number, measure_ratio)
    centre = cavity_frequency + common_offset
    return TwoLevelConfig(mode_frequencies=(cavity_frequency,),
                          atom_a=TwoLevelEnergies(g=0.0, e=centre + half_difference),
                          atom_b=TwoLevelEnergies(g=0.0, e=centre - half_difference),
                          coupling=coupling, photon_number=photon_number, free_interval=tau,
                          measure_interval=tau_m, final_time=final_time)


def split_cycle(cycle_time: float, photon_number: int, measure_ratio: float) -> tuple:
    """(tau, tau_m, coupling) of a cycle whose window is half a Rabi flop.

    tau_m = cycle_time / (measure_ratio + 1), tau is the rest of the cycle,
    and the coupling makes tau_m exactly half a flop at ``photon_number``.
    """
    tau_m = cycle_time / (measure_ratio + 1.0)
    return cycle_time - tau_m, tau_m, half_flop_time_inverse(tau_m, photon_number)


def pair_basis(config) -> h.ProductBasis:
    """Both atoms (``config.LEVELS`` levels each), then one mode per transition."""
    atom = Atom(config.LEVELS)
    return h.build_basis([atom, atom, *(Mode(cutoff) for cutoff in config.fock_cutoffs)])


def _hamiltonian_terms(config):
    """Basis, diagonal weights and exchange terms of the pair Hamiltonian.

    |upper_k> <-> |lower_k> exchanges a photon with mode k, on both atoms
    (rotating-wave).
    """
    mode_weights = [frequency * (np.arange(cutoff + 1) + 0.5)
                    for frequency, cutoff in zip(config.mode_frequencies, config.fock_cutoffs)]
    exchange = [(atom, upper, lower, mode, 0.5 * config.coupling) for atom in (0, 1)
                for mode, (upper, lower) in enumerate(config.TRANSITIONS, start=2)]
    return pair_basis(config), [*config.atom_levels, *mode_weights], exchange


def build_sector_hamiltonian(config) -> h.SectorHamiltonian:
    """Coupled pair Hamiltonian on the sectors a coupling window reaches.

    The window starts from every atom state with n photons in every mode (see
    :func:`coupling_window`), and each photon exchange moves one atom between
    the levels of one transition, so its sectors hold a few states each.
    """
    basis, weights, exchange = _hamiltonian_terms(config)
    return h.assemble_sectors(basis, weights, exchange,
                              _atom_states(basis, config.photon_number))


# perfbench/tracer.py wraps this name; a def, not an alias, keeps the wrap on it
def build_two_level_hamiltonian(config: TwoLevelConfig) -> h.SectorHamiltonian:
    return build_sector_hamiltonian(config)


def pair_superposition(config, pairs, sign: float = -1.0) -> np.ndarray:
    """Even mix over ``pairs`` of (|upper lower> + sign |lower upper>)/sqrt(2).

    A pair state is its (level of atom A, level of atom B) grid of amplitudes,
    ``config.LEVELS`` square; the modes hold no part of it.
    """
    grid = np.zeros((config.LEVELS, config.LEVELS), dtype=complex)
    weight = 1.0 / (math.sqrt(2.0) * math.sqrt(len(pairs)))
    for upper, lower in pairs:
        grid[upper, lower] += weight
        grid[lower, upper] += sign * weight
    return grid


def subradiant_state(config: LevelSchemeConfig) -> np.ndarray:
    """Even mix of (|upper lower> - |lower upper>)/sqrt(2) over every transition.

    The two-level pair's is (|EG> - |GE>)/sqrt(2).
    """
    return pair_superposition(config, config.TRANSITIONS)


def superradiant_state(config: LevelSchemeConfig) -> np.ndarray:
    """:func:`subradiant_state` with the symmetric sign: (|EG> + |GE>)/sqrt(2)."""
    return pair_superposition(config, config.TRANSITIONS, sign=+1.0)


def half_flop_time(coupling: float, photon_number: int) -> float:
    """Measurement window: first zero of the bright-state population cosine.

    The superradiant state couples to the photon-changing error states with
    collective strength coupling*sqrt(n + 1/2), so half a Rabi flop takes
    pi / (2 coupling sqrt(n + 1/2)).
    """
    if coupling <= 0.0:
        raise ValueError("coupling must be positive")
    return math.pi / (2.0 * coupling * math.sqrt(photon_number + 0.5))


def half_flop_time_inverse(measure_interval: float, photon_number: int) -> float:
    """Coupling that makes the given window exactly half a Rabi flop."""
    if measure_interval <= 0.0:
        raise ValueError("measure_interval must be positive")
    return math.pi / (2.0 * measure_interval * math.sqrt(photon_number + 0.5))


def mean_square_splitting(deltas) -> float:
    """mean(Delta_k^2) over the transitions' half splittings ``deltas``."""
    squares = [delta**2 for delta in deltas]
    return sum(squares) / len(squares)


def pe_analytic(deltas, free_interval: float) -> float:
    """First-order per-cycle error probability mean(Delta_k^2) * tau^2.

    ``deltas`` holds the half splitting of every transition (see
    :meth:`LevelSchemeConfig.deltas`); the subradiant start weighs them
    equally.
    """
    pe = mean_square_splitting(deltas) * free_interval**2
    if pe > 1.0:
        raise OutOfRegimeError(f"per-cycle error {pe:.3g} exceeds 1; the splittings are "
                               "outside the perturbative regime")
    return pe


class SurvivalClosedForm(NamedTuple):
    product_form: float
    exponential_form: float


def ps_analytic(deltas, free_interval: float, measure_interval: float,
                final_time: float) -> SurvivalClosedForm:
    """Survival probability closed forms: exact product and its exponential limit."""
    pe = pe_analytic(deltas, free_interval)
    cycle = free_interval + measure_interval
    return SurvivalClosedForm(
        product_form=(1.0 - pe) ** (final_time / cycle),
        exponential_form=math.exp(-mean_square_splitting(deltas) * cycle * final_time),
    )


class SurvivalTrace(Record):
    """Survival probability of the success branch over a protocol run.

    ``table`` has a read-only row per time point and the columns :attr:`COLUMNS`.
    """

    COLUMNS = ("t", "p_success", "p_error_per_cycle", "analytic_p_s")
    __slots__ = ("table", "final_state", "out_of_regime", "max_mode_tail")

    def __init__(self, table: np.ndarray, final_state: np.ndarray, out_of_regime: bool,
                 max_mode_tail: float):
        p_success = table[:, 1]
        if np.any(p_success < -1e-12) or np.any(p_success > 1.0 + 1e-9):
            raise ValueError("success probabilities outside [0, 1]")
        if np.any(np.diff(p_success) > 1e-12):
            raise ValueError("success probability must be non-increasing")
        table.flags.writeable = False
        self._set(locals())

    times, p_success, p_error_per_cycle, analytic_p_s = (
        property(lambda self, i=i: self.table[:, i]) for i in range(len(COLUMNS)))


def _atom_states(basis: h.ProductBasis, photons: int) -> np.ndarray:
    """Basis index of every atom state, in order, with ``photons`` photons in every mode."""
    modes = len(basis.dims) - 2
    return (np.arange(basis.dims[0] * basis.dims[1]) * basis.strides[1]
            + basis.index([0, 0] + [photons] * modes))


def _injected(config, evolver: h.BlockEvolver) -> np.ndarray:
    """Positions in ``evolver.states`` of the atom states with n photons in every mode."""
    injected = _atom_states(evolver.basis, config.photon_number)
    return np.nonzero(evolver.states == injected[:, None])[1]


def coupling_window(config, evolver: h.BlockEvolver, drift: np.ndarray) -> np.ndarray:
    """One cycle up to the photon-number projection, for every atom basis state at once.

    Column i starts from atom basis state i with every mode empty.  Its free
    drift is the phase ``drift[i]``; injecting n photons into every mode puts
    that phase on the held state of atom state i with n photons in every
    mode, and ``evolver`` propagates the (held states, atom states) batch
    over the coupling window.  Every step is linear, so the window of any
    start x with empty modes is ``window @ x``, row i on ``evolver.states[i]``.
    """
    amps = np.zeros((len(evolver.states), len(drift)), dtype=complex)
    amps[_injected(config, evolver), np.arange(len(drift))] = drift
    return evolver.propagate(amps, config.measure_interval)


def cycle_matrix(config, evolver: h.BlockEvolver, window: np.ndarray) -> np.ndarray:
    """Per-cycle success-branch map on the atom sector with every mode empty.

    Column i is one cycle applied to atom basis state i: its
    :func:`coupling_window` read off at the atom states with n photons in
    every mode.  Every step is linear, so the squared norm of the iterated
    vector is the cumulative success probability.
    """
    return window[_injected(config, evolver)]


def _recorded_survival(cycle_map: np.ndarray, x: np.ndarray, stride: int, cycles: int,
                       t: np.ndarray, p_success: np.ndarray, p_error: np.ndarray) -> np.ndarray:
    """Write each recorded cycle and its survival; return the last state.

    Row i records cycle min((i + 1) stride, ``cycles``) into ``t``; with a
    and b the squared norms of ``x`` after and before it, ``p_success[i]`` is
    a and ``p_error[i]`` is 1 - a / b.  Every gap but the last is ``stride``,
    and a gap of g cycles costs two matrix-vector products: ``map**(g-1)``,
    then the map.  The states are buffered :data:`RECORD_CHUNK` recorded
    cycles at a time and normed by one stacked (1 x d) @ (d x 1) product per
    real and imaginary part, the bits of ``x.real @ x.real + x.imag @ x.imag``.
    At the first recorded cycle whose squared norm falls below
    :data:`RESCALE_BELOW`, the state is scaled by the power of two that
    brings its largest entry into [0.5, 1), which is exact, the cycles after
    it are run again from there, and their a is written through ``np.ldexp``
    with the scalings' exponent.  A state of exactly zero raises
    :class:`ProtocolError`.
    """
    # ndarray.dot (np.dot without its dispatch) copies a matrix that is not
    # contiguous on every call
    cycle_map = np.ascontiguousarray(cycle_map)
    rows = len(t)
    stride_power, last_power = (None if gap == 1 else np.linalg.matrix_power(cycle_map, gap - 1)
                                for gap in (stride, cycles - (rows - 1) * stride))
    # Python ints, exact at any cycle count; the last row holds ``cycles`` instead
    recorded = range(stride, rows * stride + 1, stride)
    states = np.empty((RECORD_CHUNK, 2, len(x)), dtype=complex)
    befores, afters = list(states[:, 0]), list(states[:, 1])
    start = exponent = 0
    while start < rows:
        jumps = [stride_power] * min(RECORD_CHUNK, rows - start)
        if start + len(jumps) == rows:
            jumps[-1] = last_power
        for before, after, jump in zip(befores, afters, jumps):
            if jump is None:
                before[:] = x
            else:
                jump.dot(x, out=before)
            x = cycle_map.dot(before, out=after)
        chunk = states[:len(jumps)]
        real, imag = chunk.real, chunk.imag
        norms = real[..., None, :] @ real[..., None] + imag[..., None, :] @ imag[..., None]
        kept = len(jumps)
        if norms[-1, 1, 0, 0] < RESCALE_BELOW:  # the survival never rises
            kept = np.flatnonzero(norms[:, 1, 0, 0] < RESCALE_BELOW)[0] + 1
        x = states[kept - 1, 1]
        if not x.any():
            raise ProtocolError(
                f"survival is exactly zero by cycle {min(recorded[start + kept - 1], cycles)}")
        previous, current = norms[:kept, 0, 0, 0], norms[:kept, 1, 0, 0]
        t[start:start + kept] = recorded[start:start + kept]
        p_error[start:start + kept] = 1.0 - current / previous
        p_success[start:start + kept] = np.ldexp(current, exponent)
        start += kept
        if current[-1] < RESCALE_BELOW:
            shift = -np.frexp(np.max(np.abs(x)))[1]
            x = np.ldexp(x.view(float), shift).view(complex)
            exponent -= 2 * shift
    t[-1] = cycles
    return x.copy()


def run_zeno(config, hamiltonian: h.SectorHamiltonian, initial: np.ndarray,
             max_trace_points: int = 2000) -> SurvivalTrace:
    """Iterate Zeno cycles of any scheme's pair from ``initial`` until ``config.final_time``.

    ``initial`` is the pair's (LEVELS, LEVELS) grid of atom amplitudes with
    every mode empty (ValueError on another shape), as is ``final_state``.
    ``hamiltonian`` is the coupled Hamiltonian by sector, and must hold the
    sectors of every atom state with n photons in every mode, as
    :func:`build_sector_hamiltonian` does: a :class:`hilbert.BlockEvolver` of
    its blocks drives the coupling window, and its ``diagonal_weights`` give
    the energies of the empty-mode states, which drive the free drift.
    The run works on the atom sector with the per-cycle map (see
    :func:`cycle_matrix`), read off one batched :func:`coupling_window`.
    Every stride-th cycle and the last are recorded, at most
    ``max_trace_points`` of them, and the run jumps between them: across a
    gap of g cycles (the stride, or fewer at the last) it applies
    ``map**(g-1)`` and then one more ``map``, whose success probability is
    the recorded cycle's own, so the cost follows the recorded points, not
    the cycles (see :func:`_recorded_survival`).  ``p_success`` is the
    cumulative product of per-cycle success probabilities.  The loop writes
    the cycle numbers, it and the per-cycle error into the trace's table,
    the run's only array as long as the record; the rest is made in place.

    The closed forms come from the scheme: with m the
    :func:`mean_square_splitting` of ``config.deltas()``, ``analytic_p_s`` is
    exp(-rate t) with rate = m * cycle_time, and ``out_of_regime`` is
    m * tau^2 > 1, the per-cycle error of :func:`pe_analytic` leaving the
    perturbative regime.  A trailing partial cycle is a free drift without a measurement.
    ``max_mode_tail`` is the population above n + 1 photons in any mode at
    the end of the first coupling window, the window times ``initial``.  A
    survival below the float range is written as it rounds, down to 0.0.  A
    state of exactly zero at a recorded cycle raises :class:`ProtocolError`,
    and so does a positive rate whose closed-form per-cycle error
    ``rate * cycle_time`` falls below :data:`MIN_CYCLE_ERROR` (also when it
    underflows to zero), and so does a free drift whose largest phase
    rounding error eps max|E| tau, over every basis state, exceeds
    :data:`MAX_DRIFT_PHASE_ERROR`.
    """
    levels = (config.LEVELS, config.LEVELS)
    if np.shape(initial) != levels:
        raise ValueError(f"initial state has shape {np.shape(initial)}, expected {levels}")
    x = np.ravel(initial).astype(complex)
    basis = hamiltonian.basis
    mean_square = mean_square_splitting(config.deltas())
    rate = mean_square * config.cycle_time
    if rate > 0.0 and rate * config.cycle_time < MIN_CYCLE_ERROR:
        raise ProtocolError(
            f"closed-form per-cycle error {rate * config.cycle_time:.3e} is below "
            f"{MIN_CYCLE_ERROR:.3e}, where rounding of the cycle map dominates the survival")
    largest = h._largest_energy(hamiltonian.diagonal_weights)
    phase_error = np.finfo(float).eps * largest * config.free_interval
    if phase_error > MAX_DRIFT_PHASE_ERROR:
        raise ProtocolError(
            f"free-drift phase of the largest energy {largest:.3e} over the free interval "
            f"{config.free_interval:.3e} carries a rounding error of {phase_error:.3e} rad, "
            f"above {MAX_DRIFT_PHASE_ERROR:.0e} rad")
    energies = h._diagonal(basis, hamiltonian.diagonal_weights, _atom_states(basis, 0))
    cycle = config.cycle_time
    cycles = int(math.floor(config.final_time / cycle + 1e-9))
    remainder = max(0.0, config.final_time - cycles * cycle)
    out_of_regime = mean_square * (config.free_interval * config.free_interval) > 1.0

    if max_trace_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_trace_points}")
    stride = -(-cycles // max_trace_points)
    rows = -(-cycles // stride)
    evolver = h.BlockEvolver(hamiltonian)
    window = coupling_window(config, evolver, np.exp(-1j * config.free_interval * energies))
    cycle_map = cycle_matrix(config, evolver, window)
    populations = np.abs(window @ x) ** 2
    max_tail = max(float(np.sum(populations[photons > config.photon_number + 1]))
                   for photons in np.unravel_index(evolver.states, basis.dims)[2:])

    # column-major: a contiguous column takes the ufunc loops of a separate array
    table = np.empty((rows + 1 + (remainder > 0.0), 4), order="F")
    t, p_success, p_error, analytic = table.T
    x = _recorded_survival(cycle_map, x, stride, cycles, *table[1:rows + 1, :3].T)
    x = x / np.linalg.norm(x)
    if remainder > 0.0:
        x = h._propagate_diagonal(energies, x, remainder)
        table[-1, :3] = config.final_time, p_success[-2], 0.0
    table[0, :3] = 0.0, 1.0, 0.0
    t[1:rows + 1] *= cycle
    np.clip(p_success, 0.0, 1.0, out=p_success)
    np.exp(np.multiply(-rate, t, out=analytic), out=analytic)
    return SurvivalTrace(table, final_state=x.reshape(levels), out_of_regime=out_of_regime,
                         max_mode_tail=max_tail)


def run_protocol(config: TwoLevelConfig, max_trace_points: int = 2000) -> SurvivalTrace:
    """Iterate two-atom Zeno cycles from the subradiant pair until the final time.

    The closed-form rate is delta(1)^2 * cycle_time; see :func:`run_zeno`.
    """
    return run_zeno(config, build_two_level_hamiltonian(config), subradiant_state(config),
                    max_trace_points=max_trace_points)
