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
pair config, the basis, Hamiltonian, conserved labels and pair states here
follow from its ``LEVELS`` and ``TRANSITIONS`` table, the closed forms
(:func:`pe_analytic`, :func:`ps_analytic`) take the splitting of every
transition, and :func:`run_zeno` drives every pair.  :class:`TwoLevelConfig`
is the scheme with one transition; :mod:`zeno_multilevel` adds the others.

All quantities are dimensionless angular frequencies and times (hbar = 1).
"""

import functools
import math
from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import hilbert as h
from .hilbert import Atom, Mode, OperatorMatrix, StateVector

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


class OutOfRegimeError(ValueError):
    """Closed forms requested outside the perturbative regime (P_E > 1)."""


class ProtocolError(RuntimeError):
    """A protocol run left its numerically valid range.

    Raised when population reaches a Fock truncation boundary, when the
    survival probability underflows to zero, when the per-cycle error is
    too small to resolve, and when the free-drift phases are not resolved.
    """


@dataclass(frozen=True)
class TwoLevelEnergies:
    """Level energies of one two-level atom."""

    g: float
    e: float


@dataclass(frozen=True, kw_only=True)
class LevelSchemeConfig:
    """A Zeno pair: two identical-scheme atoms and one cavity mode per transition.

    A subclass names its level scheme in two class constants: ``LEVELS``,
    the levels per atom, and ``TRANSITIONS``, the (upper, lower) level pair
    that cavity mode k + 1 drives.  Level indices are the field positions of
    the atoms' energy records.  Every mode's Fock cutoff defaults to
    n + 2, which holds every excitation sector a run populates.
    """

    mode_frequencies: tuple
    atom_a: object
    atom_b: object
    coupling: float
    photon_number: int
    free_interval: float
    measure_interval: float
    final_time: float
    fock_cutoffs: Optional[tuple] = None

    def __post_init__(self):
        if self.free_interval <= 0.0:
            raise ValueError("free_interval must be positive")
        if self.measure_interval < 0.0:
            raise ValueError("measure_interval must be non-negative")
        if self.final_time < self.free_interval + self.measure_interval:
            raise ValueError("final_time must cover at least one cycle")
        if self.photon_number < 0:
            raise ValueError("photon_number must be non-negative")
        if self.photon_number > 0 and self.coupling <= 0.0:
            raise ValueError("coupling must be positive when photons are injected")
        n = self.photon_number
        cutoffs = self.fock_cutoffs
        if cutoffs is None:
            cutoffs = (n + 2,) * len(self.TRANSITIONS)
        object.__setattr__(self, "fock_cutoffs", tuple(int(c) for c in cutoffs))
        if any(c < n + 2 for c in self.fock_cutoffs):
            raise ValueError("fock_cutoffs must be at least photon_number + 2")

    @property
    def cycle_time(self) -> float:
        return self.free_interval + self.measure_interval

    @property
    def atom_levels(self) -> tuple:
        return (astuple(self.atom_a), astuple(self.atom_b))

    def transition(self, atom, k: int) -> float:
        upper, lower = self.TRANSITIONS[k - 1]
        levels = astuple(atom)
        return levels[upper] - levels[lower]

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
    """Both atoms (``config.LEVELS`` levels each), then one mode per transition.

    Built once per level count and Fock cutoffs.
    """
    return _pair_basis(config.LEVELS, config.fock_cutoffs)


@functools.cache
def _pair_basis(levels: int, cutoffs: tuple) -> h.ProductBasis:
    return h.build_basis([Atom(levels), Atom(levels), *(Mode(cutoff) for cutoff in cutoffs)])


def _hamiltonian_terms(config, coupled: bool):
    """Basis, diagonal weights and exchange terms of the pair Hamiltonian.

    |upper_k> <-> |lower_k> exchanges a photon with mode k, on both atoms
    (rotating-wave).  Without ``coupled`` the exchange terms are dropped,
    which models the free-drift segments where the photons have been removed.
    """
    mode_weights = [frequency * (np.arange(cutoff + 1) + 0.5)
                    for frequency, cutoff in zip(config.mode_frequencies, config.fock_cutoffs)]
    exchange = [(atom, upper, lower, mode, 0.5 * config.coupling) for atom in (0, 1)
                for mode, (upper, lower) in enumerate(config.TRANSITIONS, start=2) if coupled]
    return pair_basis(config), [*config.atom_levels, *mode_weights], exchange


def build_hamiltonian(config, coupled: bool = True) -> OperatorMatrix:
    """Dense pair Hamiltonian; the oracle of :func:`build_sector_hamiltonian`."""
    return h.assemble_hamiltonian(*_hamiltonian_terms(config, coupled))


def build_sector_hamiltonian(config) -> h.SectorHamiltonian:
    """Coupled pair Hamiltonian by :func:`conserved_labels` sector.

    Its ``diagonal`` is the uncoupled Hamiltonian of the free drift.  No
    operator of the full pair basis is formed.
    """
    return h.assemble_sectors(*_hamiltonian_terms(config, True), conserved_labels(config))


# perfbench/tracer.py wraps this name; a def, not an alias, keeps the wrap on it
def build_two_level_hamiltonian(config: TwoLevelConfig) -> h.SectorHamiltonian:
    return build_sector_hamiltonian(config)


def conserved_labels(config) -> np.ndarray:
    """Every excitation number, packed: atoms in upper_k plus photons in mode k."""
    basis = pair_basis(config)
    numbers = []
    for k, (upper, _) in enumerate(config.TRANSITIONS):
        atom = [int(level == upper) for level in range(config.LEVELS)]
        modes = [list(range(c + 1)) if j == k else [0] * (c + 1)
                 for j, c in enumerate(config.fock_cutoffs)]
        numbers.append(h.occupation_labels(basis, [atom, atom, *modes]))
    return functools.reduce(h.combine_labels, numbers)


def pair_superposition(config, pairs, photons, sign: float = -1.0) -> StateVector:
    """Even mix over ``pairs`` of (|upper lower> + sign |lower upper>)/sqrt(2)."""
    basis = pair_basis(config)
    amps = np.zeros(basis.dimension, dtype=complex)
    weight = 1.0 / (math.sqrt(2.0) * math.sqrt(len(pairs)))
    for upper, lower in pairs:
        amps[basis.index([upper, lower, *photons])] += weight
        amps[basis.index([lower, upper, *photons])] += sign * weight
    return StateVector(basis, amps)


def subradiant_state(config: LevelSchemeConfig, photons: int = 0) -> StateVector:
    """Even mix of (|upper lower> - |lower upper>)/sqrt(2) over every transition.

    Every mode holds ``photons`` photons; the two-level pair's is
    (|EG> - |GE>)/sqrt(2).
    """
    return pair_superposition(config, config.TRANSITIONS, (photons,) * len(config.TRANSITIONS))


def superradiant_state(config: LevelSchemeConfig, photons: int = 0) -> StateVector:
    """:func:`subradiant_state` with the symmetric sign: (|EG> + |GE>)/sqrt(2)."""
    return pair_superposition(config, config.TRANSITIONS, (photons,) * len(config.TRANSITIONS),
                              sign=+1.0)


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


@dataclass(frozen=True)
class SurvivalTrace:
    """Survival probability of the success branch over a protocol run."""

    times: np.ndarray
    p_success: np.ndarray
    p_error_per_cycle: np.ndarray
    analytic_p_s: np.ndarray
    final_state: StateVector
    out_of_regime: bool
    max_mode_tail: float

    def __post_init__(self):
        p = self.p_success
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-9):
            raise ValueError("success probabilities outside [0, 1]")
        if np.any(np.diff(p) > 1e-12):
            raise ValueError("success probability must be non-increasing")
        for name in ("times", "p_success", "p_error_per_cycle", "analytic_p_s"):
            getattr(self, name).flags.writeable = False


def _record_cycles(total_cycles: int, max_points: int) -> np.ndarray:
    """At most ``max_points`` cycle indices, every stride-th one plus the last."""
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    stride = max(1, -(-total_cycles // max_points))
    recorded = np.arange(stride, total_cycles + 1, stride)
    if recorded.size == 0 or recorded[-1] != total_cycles:
        recorded = np.append(recorded, total_cycles)
    return recorded


def coupling_window(config, basis: h.ProductBasis,
                    drift: Callable[[np.ndarray, float], np.ndarray],
                    couple: Callable[[np.ndarray, float], np.ndarray]) -> np.ndarray:
    """One cycle up to the photon-number projection, for every atom basis state at once.

    Each atom basis state starts with every mode empty.  Their columns are
    propagated as one (dimension, atom states) batch: the free drift by
    ``drift(amplitudes, duration)``, then n photons are injected into every
    mode, and the coupling window by ``couple(amplitudes, duration)``.
    Returns the amplitudes shaped (atom states, photons in mode 1, photons
    in mode 2, ..., starting atom state).  Every step is linear, so the
    window of any start x with empty modes is ``window @ x``.
    """
    atom_dim = int(np.prod(basis.dims[:len(basis.atom_indices())]))
    mode_dims = basis.dims[len(basis.atom_indices()):]
    injected = int(np.ravel_multi_index((config.photon_number,) * len(mode_dims), mode_dims))
    amps = np.zeros((basis.dimension, atom_dim), dtype=complex)
    amps.reshape(atom_dim, -1, atom_dim)[:, 0] = np.eye(atom_dim)
    amps = drift(amps, config.free_interval)
    view = amps.reshape(atom_dim, -1, atom_dim)
    vacuum = view[:, 0].copy()
    view[:] = 0.0
    view[:, injected] = vacuum
    return couple(amps, config.measure_interval).reshape(atom_dim, *mode_dims, atom_dim)


def cycle_matrix(config, window: np.ndarray) -> np.ndarray:
    """Per-cycle success-branch map on the atom sector with every mode empty.

    Column i is one cycle applied to atom basis state i: its
    :func:`coupling_window` with the n-photon component of every mode read
    off.  Every step is linear, so the squared norm of the iterated vector
    is the cumulative success probability.
    """
    return window[(slice(None),) + (config.photon_number,) * (window.ndim - 2)]


def _recorded_survival(cycle_map: np.ndarray, x: np.ndarray, record: np.ndarray) -> tuple:
    """Squared norms of ``x`` before and after each recorded cycle, and the last state.

    A gap of g cycles costs two matrix-vector products: the cached
    ``map**(g-1)``, then the map.  The states are buffered
    :data:`RECORD_CHUNK` recorded cycles at a time and normed by one stacked
    (1 x d) @ (d x 1) product per real and imaginary part, the bits of
    ``x.real @ x.real + x.imag @ x.imag``.  The first recorded cycle whose
    norm is zero raises :class:`ProtocolError`.
    """
    # np.dot copies a matrix that is not contiguous on every call
    cycle_map = np.ascontiguousarray(cycle_map)
    gaps = np.diff(record, prepend=0)
    powers = {gap: np.linalg.matrix_power(cycle_map, gap - 1)
              for gap in set(gaps.tolist()) if gap > 1}
    survival = np.empty((len(record), 2))
    states = np.empty((RECORD_CHUNK, 2, len(x)), dtype=complex)
    befores, afters = list(states[:, 0]), list(states[:, 1])
    for start in range(0, len(record), RECORD_CHUNK):
        jumps = [powers.get(gap) for gap in gaps[start:start + RECORD_CHUNK].tolist()]
        for before, after, jump in zip(befores, afters, jumps):
            if jump is None:
                before[:] = x
            else:
                np.dot(jump, x, out=before)
            x = np.dot(cycle_map, before, out=after)
        chunk = states[:len(jumps)]
        real, imag = chunk.real, chunk.imag
        norms = real[..., None, :] @ real[..., None] + imag[..., None, :] @ imag[..., None]
        survival[start:start + len(chunk)] = norms[..., 0, 0]
        underflowed = np.flatnonzero(norms[:, 1, 0, 0] == 0.0)
        if underflowed.size:
            raise ProtocolError(f"survival underflowed to zero by cycle "
                                f"{record[start + underflowed[0]]}")
    return survival, x.copy()


def run_zeno(config, hamiltonian: h.SectorHamiltonian, initial: StateVector,
             max_trace_points: int = 2000) -> SurvivalTrace:
    """Iterate Zeno cycles of any scheme's pair from ``initial`` until ``config.final_time``.

    ``initial`` must have every mode empty.  ``hamiltonian`` is the coupled
    Hamiltonian by sector: its blocks drive the coupling window through a
    :class:`hilbert.BlockEvolver` and its ``diagonal`` the free drift.  The
    run works on the atom sector with the per-cycle map (see
    :func:`cycle_matrix`), read off one batched :func:`coupling_window`.
    Every stride-th cycle and the last are recorded, at most
    ``max_trace_points`` of them, and the run jumps between them: across a
    gap of g cycles it applies the cached power ``map**(g-1)`` (one per
    distinct gap, so at most two) and then one more ``map``, whose success
    probability is the recorded cycle's own.  Its cost grows with the number
    of recorded points, not of cycles: two matrix-vector products each, with
    the norms taken a chunk of recorded cycles at a time (see
    :func:`_recorded_survival`).  ``p_success`` is the cumulative product of
    per-cycle success probabilities.

    The closed forms come from the scheme: with m the
    :func:`mean_square_splitting` of ``config.deltas()``, ``analytic_p_s`` is
    exp(-rate t) with rate = m * cycle_time, and ``out_of_regime`` is
    m * tau^2 > 1, the per-cycle error of :func:`pe_analytic` leaving the
    perturbative regime.  A trailing partial cycle is a free drift without a measurement.
    ``max_mode_tail`` is the population above n + 1 photons in any mode at
    the end of the first coupling window, the window times ``initial``.  A
    survival of zero at a recorded cycle raises :class:`ProtocolError`, and
    so does a positive rate whose closed-form per-cycle error
    ``rate * cycle_time`` falls below :data:`MIN_CYCLE_ERROR` (also when it
    underflows to zero), and so does a free drift whose largest phase
    rounding error eps max|E| tau exceeds :data:`MAX_DRIFT_PHASE_ERROR`.
    """
    mean_square = mean_square_splitting(config.deltas())
    rate = mean_square * config.cycle_time
    if rate > 0.0 and rate * config.cycle_time < MIN_CYCLE_ERROR:
        raise ProtocolError(
            f"closed-form per-cycle error {rate * config.cycle_time:.3e} is below "
            f"{MIN_CYCLE_ERROR:.3e}, where rounding of the cycle map dominates the survival")
    largest = float(np.max(np.abs(hamiltonian.diagonal)))
    phase_error = np.finfo(float).eps * largest * config.free_interval
    if phase_error > MAX_DRIFT_PHASE_ERROR:
        raise ProtocolError(
            f"free-drift phase of the largest energy {largest:.3e} over the free interval "
            f"{config.free_interval:.3e} carries a rounding error of {phase_error:.3e} rad, "
            f"above {MAX_DRIFT_PHASE_ERROR:.0e} rad")
    evolver = h.BlockEvolver(hamiltonian)
    drift = functools.partial(h._propagate_diagonal, hamiltonian.diagonal)
    cycle = config.cycle_time
    cycles = int(math.floor(config.final_time / cycle + 1e-9))
    remainder = max(0.0, config.final_time - cycles * cycle)
    out_of_regime = mean_square * (config.free_interval * config.free_interval) > 1.0

    record = _record_cycles(cycles, max_trace_points)
    window = coupling_window(config, initial.basis, drift, evolver.propagate)
    cycle_map = cycle_matrix(config, window)
    atom_dim = cycle_map.shape[0]
    x = initial.amplitudes.reshape(atom_dim, -1)[:, 0].copy()
    populations = np.abs(window @ x) ** 2
    max_tail = max(float(np.sum(np.moveaxis(populations, axis, 0)[config.photon_number + 2:]))
                   for axis in range(1, populations.ndim))

    survival, x = _recorded_survival(cycle_map, x, record)
    amps = np.zeros(initial.basis.dimension, dtype=complex)
    amps.reshape(atom_dim, -1)[:, 0] = x / np.linalg.norm(x)
    if remainder > 0.0:
        amps = drift(amps, remainder)
    final = StateVector(initial.basis, amps)

    before, cumulative = survival.T
    per_cycle_error = 1.0 - cumulative / before
    times = np.concatenate([[0.0], record * cycle])
    if remainder > 0.0:
        times = np.append(times, config.final_time)
        cumulative = np.append(cumulative, cumulative[-1])
        per_cycle_error = np.append(per_cycle_error, 0.0)
    p_success = np.concatenate([[1.0], cumulative])
    p_error = np.concatenate([[0.0], per_cycle_error])
    return SurvivalTrace(times=times, p_success=np.clip(p_success, 0.0, 1.0),
                         p_error_per_cycle=p_error, analytic_p_s=np.exp(-rate * times),
                         final_state=final, out_of_regime=out_of_regime,
                         max_mode_tail=max_tail)


def run_protocol(config: TwoLevelConfig, max_trace_points: int = 2000) -> SurvivalTrace:
    """Iterate two-atom Zeno cycles from the subradiant pair until the final time.

    The closed-form rate is delta(1)^2 * cycle_time; see :func:`run_zeno`.
    """
    return run_zeno(config, build_two_level_hamiltonian(config), subradiant_state(config, 0),
                    max_trace_points=max_trace_points)
