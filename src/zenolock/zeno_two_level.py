"""Zeno phase locking of a pair of two-level atoms in a cavity.

The pair starts in the antisymmetric (subradiant) state, which is dark to
the cavity mode.  A frequency split 2*Delta between the atoms slowly rotates
it toward the symmetric (superradiant) combination.  Each protocol cycle
lets the pair drift freely for a time tau, injects n photons, couples for a
measurement window tau_m chosen as half a Rabi flop of the bright collective
state, and projects the photon number back onto n.  Surviving the projection
collapses the pair back onto the subradiant state, so frequent cycles lock
the relative phase.

All quantities are dimensionless angular frequencies and times (hbar = 1).
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import hilbert as h
from .hilbert import Atom, Mode, OperatorMatrix, StateVector

G, E = 0, 1  # atomic level ordering

# Smallest per-cycle error a run resolves: rounding of order eps per cycle
# gives a per-cycle error p a relative error of about eps/p, 0.1% here.
MIN_CYCLE_ERROR = 1024 * np.finfo(float).eps


class OutOfRegimeError(ValueError):
    """Closed forms requested outside the perturbative regime (P_E > 1)."""


class ProtocolError(RuntimeError):
    """A protocol run left its numerically valid range.

    Raised when a segment is entered with the cavity in the wrong state, when
    the success branch has zero probability, when population reaches a Fock
    truncation boundary, when the survival probability underflows to zero,
    and when the per-cycle error is too small to resolve.
    """


def _validate_protocol(config) -> None:
    """Checks shared by every Zeno protocol config (timing, photons, coupling)."""
    if config.free_interval <= 0.0:
        raise ValueError("free_interval must be positive")
    if config.measure_interval < 0.0:
        raise ValueError("measure_interval must be non-negative")
    if config.final_time < config.free_interval + config.measure_interval:
        raise ValueError("final_time must cover at least one cycle")
    if config.photon_number < 0:
        raise ValueError("photon_number must be non-negative")
    if config.photon_number > 0 and config.coupling <= 0.0:
        raise ValueError("coupling must be positive when photons are injected")


@dataclass(frozen=True)
class TwoLevelConfig:
    """Parameters of the two-atom protocol.

    The atomic frequencies are cavity_frequency + common_offset +/-
    half_difference for atoms A and B; both couple to the mode with the same
    strength.
    """

    free_interval: float          # tau
    measure_interval: float       # tau_m
    final_time: float             # t_f
    cavity_frequency: float = 100.0
    common_offset: float = 0.0
    half_difference: float = 2.0
    coupling: float = 2.0
    photon_number: int = 12
    fock_cutoff: Optional[int] = None

    def __post_init__(self):
        _validate_protocol(self)
        if self.fock_cutoff is None:
            object.__setattr__(self, "fock_cutoff", self.photon_number + 3)
        if self.fock_cutoff < self.photon_number + 2:
            raise ValueError("fock_cutoff must be at least photon_number + 2")

    @property
    def cycle_time(self) -> float:
        return self.free_interval + self.measure_interval

    @property
    def frequency_a(self) -> float:
        return self.cavity_frequency + self.common_offset + self.half_difference

    @property
    def frequency_b(self) -> float:
        return self.cavity_frequency + self.common_offset - self.half_difference


def config_for_cycle_time(cycle_time: float, final_time: float,
                          half_difference: float = 2.0, photon_number: int = 12,
                          measure_ratio: float = 200.0,
                          cavity_frequency: float = 100.0,
                          common_offset: float = 0.0) -> TwoLevelConfig:
    """Config with tau_m a small fixed fraction of the cycle.

    tau_m = cycle_time / (measure_ratio + 1) and the coupling is scaled so
    that window is exactly half a Rabi flop at the given photon number.  The
    closed-form error rate assumes tau_m << tau; the default ratio keeps the
    departure from it below a percent.
    """
    tau_m = cycle_time / (measure_ratio + 1.0)
    tau = cycle_time - tau_m
    coupling = half_flop_time_inverse(tau_m, photon_number)
    return TwoLevelConfig(free_interval=tau, measure_interval=tau_m,
                          final_time=final_time, cavity_frequency=cavity_frequency,
                          common_offset=common_offset, half_difference=half_difference,
                          coupling=coupling, photon_number=photon_number)


def two_level_basis(config: TwoLevelConfig) -> h.ProductBasis:
    return h.build_basis([Atom(2), Atom(2), Mode(config.fock_cutoff)])


def _hamiltonian_terms(config: TwoLevelConfig, coupled: bool):
    """Basis, diagonal weights and exchange terms of the pair Hamiltonian.

    Both atoms exchange a photon with the one cavity mode (rotating-wave).
    Without ``coupled`` the exchange terms are dropped, which models the
    free-drift segments where the photons have been removed.
    """
    weights = [(0.0, config.frequency_a), (0.0, config.frequency_b),
               config.cavity_frequency * (np.arange(config.fock_cutoff + 1) + 0.5)]
    exchange = [(atom, E, G, 2, 0.5 * config.coupling) for atom in (0, 1)] if coupled else []
    return two_level_basis(config), weights, exchange


def build_hamiltonian(config: TwoLevelConfig, coupled: bool = True) -> OperatorMatrix:
    """Dense pair Hamiltonian; the oracle of :func:`build_two_level_hamiltonian`."""
    return h.assemble_hamiltonian(*_hamiltonian_terms(config, coupled))


def build_two_level_hamiltonian(config: TwoLevelConfig) -> h.SectorHamiltonian:
    """Coupled pair Hamiltonian by :func:`excitation_labels` sector.

    Its ``diagonal`` is the uncoupled Hamiltonian of the free drift.  No
    operator of the full pair basis is formed.
    """
    return h.assemble_sectors(*_hamiltonian_terms(config, True), excitation_labels(config))


def excitation_labels(config: TwoLevelConfig) -> np.ndarray:
    """Conserved total excitation number (excited atoms plus photons)."""
    basis = two_level_basis(config)
    return h.occupation_labels(basis, [[0, 1], [0, 1], list(range(config.fock_cutoff + 1))])


def _pair_state(config: TwoLevelConfig, sign: float, photons: int) -> StateVector:
    basis = two_level_basis(config)
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index([E, G, photons])] = 1.0 / np.sqrt(2.0)
    amps[basis.index([G, E, photons])] = sign / np.sqrt(2.0)
    return StateVector(basis, amps)


def subradiant_state(config: TwoLevelConfig, photons: int = 0) -> StateVector:
    """(|EG> - |GE>)/sqrt(2) with a definite photon number."""
    return _pair_state(config, -1.0, photons)


def superradiant_state(config: TwoLevelConfig, photons: int = 0) -> StateVector:
    """(|EG> + |GE>)/sqrt(2) with a definite photon number."""
    return _pair_state(config, +1.0, photons)


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


def _require_mode_vacuum(state: StateVector, mode_index: int = 2):
    weight = h.photon_number_distribution(state, mode_index)[0]
    if weight < 1.0 - 1e-9:
        raise ProtocolError(
            f"cavity still holds photons (vacuum weight {weight:.12f}); "
            "remove them before a free-drift segment"
        )


def free_drift(state: StateVector, config: TwoLevelConfig) -> StateVector:
    """Exact uncoupled evolution over the free interval (photons removed)."""
    _require_mode_vacuum(state)
    energies = build_two_level_hamiltonian(config).diagonal
    return StateVector(state.basis,
                       h._propagate_diagonal(energies, state.amplitudes, config.free_interval))


def measurement_segment(state: StateVector, config: TwoLevelConfig) -> StateVector:
    """Inject n photons into the empty cavity and couple for half a flop.

    Returns the (generally entangled) atom-field state ready for the photon
    number projection.
    """
    injected = h.replace_mode_state(state, 2, config.photon_number)
    evolver = h.BlockEvolver(build_two_level_hamiltonian(config))
    return evolver.evolve(injected, config.measure_interval)


class CycleResult(NamedTuple):
    state: StateVector
    success_probability: float
    # population above n + 1 photons in any mode before the projection; a run
    # is numerically valid only while it stays tiny
    mode_tail: float


def _stepwise_cycle(state: StateVector, config, drift: Callable[[np.ndarray, float], np.ndarray],
                    evolver: h.BlockEvolver) -> CycleResult:
    """One explicit cycle of either protocol, following the success branch.

    Free drift, injection of n photons into every mode, the coupling window,
    projection of every mode back onto n, and photon removal.  The returned
    probability is the Born weight of the all-n outcome.
    """
    basis = state.basis
    modes = range(len(basis.atom_indices()), len(basis.dims))
    n = config.photon_number
    state = StateVector(basis, drift(state.amplitudes, config.free_interval))
    for mode in modes:
        state = h.replace_mode_state(state, mode, n)
    state = evolver.evolve(state, config.measure_interval)
    tail = max(float(np.sum(h.photon_number_distribution(state, mode)[n + 2:]))
               for mode in modes)
    probability = 1.0
    for mode in modes:
        outcome = h.project_photon_number(state, mode, n)
        if outcome.state is None:
            raise ProtocolError("the success branch has zero probability")
        state = outcome.state
        probability *= outcome.probability
    for mode in modes:
        state = h.replace_mode_state(state, mode, 0)
    return CycleResult(state, probability, tail)


def zeno_cycle(state: StateVector, config: TwoLevelConfig) -> CycleResult:
    """One full two-atom protocol cycle from an empty cavity; see :func:`_stepwise_cycle`."""
    _require_mode_vacuum(state)
    hamiltonian = build_two_level_hamiltonian(config)
    return _stepwise_cycle(state, config,
                           functools.partial(h._propagate_diagonal, hamiltonian.diagonal),
                           h.BlockEvolver(hamiltonian))


def pe_analytic(half_difference: float, free_interval: float) -> float:
    """First-order per-cycle error probability (Delta*tau)^2."""
    pe = (half_difference * free_interval) ** 2
    if pe > 1.0:
        raise OutOfRegimeError(
            f"per-cycle error {pe:.3g} exceeds 1; Delta*tau = "
            f"{abs(half_difference * free_interval):.3g} is outside the perturbative regime"
        )
    return pe


class SurvivalClosedForm(NamedTuple):
    product_form: float
    exponential_form: float


def ps_analytic(half_difference: float, free_interval: float, measure_interval: float,
                final_time: float) -> SurvivalClosedForm:
    """Survival probability closed forms: exact product and its exponential limit."""
    pe = pe_analytic(half_difference, free_interval)
    cycle = free_interval + measure_interval
    cycles = final_time / cycle
    return SurvivalClosedForm(
        product_form=(1.0 - pe) ** cycles,
        exponential_form=math.exp(-half_difference**2 * cycle * final_time),
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


def cycle_matrix(config, basis: h.ProductBasis,
                 drift: Callable[[np.ndarray, float], np.ndarray],
                 couple: Callable[[np.ndarray, float], np.ndarray]) -> np.ndarray:
    """Per-cycle success-branch map on the atom sector with every mode empty.

    Column i is one cycle applied to atom basis state i: the free drift
    propagated by ``drift(amplitudes, duration)``, n photons injected into
    every mode, the coupling window propagated by ``couple(amplitudes,
    duration)``, and the n-photon component of every mode read off.  Every
    step is linear, so the squared norm of the iterated vector is the
    cumulative success probability.
    """
    mode_dims = basis.dims[len(basis.atom_indices()):]
    mode_dim = int(np.prod(mode_dims))
    atom_dim = basis.dimension // mode_dim
    injected = int(np.ravel_multi_index((config.photon_number,) * len(mode_dims), mode_dims))
    cycle_map = np.zeros((atom_dim, atom_dim), dtype=complex)
    for i in range(atom_dim):
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[i * mode_dim] = 1.0
        amps = drift(amps, config.free_interval)
        view = amps.reshape(atom_dim, mode_dim)
        vacuum = view[:, 0].copy()
        view[:] = 0.0
        view[:, injected] = vacuum
        amps = couple(amps, config.measure_interval)
        cycle_map[:, i] = amps.reshape(atom_dim, mode_dim)[:, injected]
    return cycle_map


def run_zeno(config, hamiltonian: h.SectorHamiltonian, initial: StateVector, rate: float,
             regime_check: Callable[[], float], max_trace_points: int = 2000,
             method: str = "compiled") -> SurvivalTrace:
    """Iterate Zeno cycles from ``initial`` until ``config.final_time``.

    ``hamiltonian`` is the coupled Hamiltonian by sector: its blocks drive
    the coupling window through a :class:`hilbert.BlockEvolver` and its
    ``diagonal`` the free drift.  Every stride-th cycle and the last are
    recorded, at most ``max_trace_points`` of them.  ``method`` "compiled"
    works on the atom sector with the per-cycle map (see
    :func:`cycle_matrix`) and jumps between recorded cycles: across a gap of
    g cycles it applies the cached power ``map**(g-1)`` (one per distinct
    gap, so at most two) and then one more ``map``, whose success
    probability is the recorded cycle's own.  Its cost grows with the number
    of recorded points, not of cycles.  "stepwise" applies
    :func:`_stepwise_cycle` state by state to every cycle; it is the
    reference the compiled path is tested against to 1e-10.  ``p_success``
    is the cumulative product of per-cycle success probabilities and
    ``analytic_p_s`` is exp(-rate t); ``regime_check`` raises
    :class:`OutOfRegimeError` outside the perturbative regime.  A trailing
    partial cycle is a free drift without a measurement.  The truncation
    tail is taken from one stepwise cycle of ``initial`` (and from every
    cycle when stepwise).  A survival of zero at a recorded cycle raises
    :class:`ProtocolError`, and so does a positive ``rate`` whose closed-form
    per-cycle error ``rate * cycle_time`` falls below :data:`MIN_CYCLE_ERROR`
    (also when it underflows to zero).
    """
    if method not in ("compiled", "stepwise"):
        raise ValueError(f"unknown method {method!r}")
    if rate > 0.0 and rate * config.cycle_time < MIN_CYCLE_ERROR:
        raise ProtocolError(
            f"closed-form per-cycle error {rate * config.cycle_time:.3e} is below "
            f"{MIN_CYCLE_ERROR:.3e}, where rounding of the cycle map dominates the survival")
    evolver = h.BlockEvolver(hamiltonian)
    drift = functools.partial(h._propagate_diagonal, hamiltonian.diagonal)
    cycle = config.cycle_time
    cycles = int(math.floor(config.final_time / cycle + 1e-9))
    remainder = max(0.0, config.final_time - cycles * cycle)
    try:
        regime_check()
        out_of_regime = False
    except OutOfRegimeError:
        out_of_regime = True

    record = _record_cycles(cycles, max_trace_points)
    # survival before and after each recorded cycle
    survival = np.empty((len(record), 2))
    max_tail = _stepwise_cycle(initial, config, drift, evolver).mode_tail
    if method == "compiled":
        cycle_map = cycle_matrix(config, initial.basis, drift, evolver.propagate)
        atom_dim = cycle_map.shape[0]
        x = initial.amplitudes.reshape(atom_dim, -1)[:, 0].copy()
        powers = {}
        done = 0
        for slot, j in enumerate(record.tolist()):
            gap = j - done
            if gap > 1:
                if gap not in powers:
                    powers[gap] = np.linalg.matrix_power(cycle_map, gap - 1)
                x = powers[gap] @ x
            previous = float(x.real @ x.real + x.imag @ x.imag)
            x = cycle_map @ x
            current = float(x.real @ x.real + x.imag @ x.imag)
            if current == 0.0:
                raise ProtocolError(f"survival underflowed to zero by cycle {j}")
            survival[slot] = previous, current
            done = j
        amps = np.zeros(initial.basis.dimension, dtype=complex)
        amps.reshape(atom_dim, -1)[:, 0] = x / np.linalg.norm(x)
        final = StateVector(initial.basis, amps)
    else:
        record_set = set(int(j) for j in record)
        slot = 0
        previous = 1.0
        final = initial
        for j in range(1, cycles + 1):
            final, probability, tail = _stepwise_cycle(final, config, drift, evolver)
            max_tail = max(max_tail, tail)
            current = previous * probability
            if j in record_set:
                if current == 0.0:
                    raise ProtocolError(f"survival underflowed to zero by cycle {j}")
                survival[slot] = previous, current
                slot += 1
            previous = current

    before, cumulative = survival.T
    per_cycle_error = 1.0 - cumulative / before
    if remainder > 0.0:
        final = StateVector(final.basis, drift(final.amplitudes, remainder))

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


def run_protocol(config: TwoLevelConfig, max_trace_points: int = 2000,
                 method: str = "compiled") -> SurvivalTrace:
    """Iterate two-atom Zeno cycles from the subradiant pair until the final time.

    ``method`` selects the per-cycle linear map ("compiled", default) or the
    explicit state-by-state loop ("stepwise"); see :func:`run_zeno`.
    """
    return run_zeno(
        config, build_two_level_hamiltonian(config), subradiant_state(config, 0),
        rate=config.half_difference**2 * config.cycle_time,
        regime_check=lambda: pe_analytic(config.half_difference, config.free_interval),
        max_trace_points=max_trace_points, method=method)
