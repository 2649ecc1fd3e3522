"""The Zeno cycle state by state and on the whole basis, which the tests use as an oracle.

The package runs both Zeno protocols as one linear success-branch map on the
atom sector (``zeno_two_level.cycle_matrix``), built from a coupling window
on the states that the sector Hamiltonian holds, and carries a pair state as
its (level of A, level of B) grid of atom amplitudes.  This module keeps the
full-basis state layer it replaced, :class:`StateVector` and :func:`evolve`,
and the explicit cycle on it: free drift, photon injection by swapping the
mode factor, the coupling window, projective photon-number measurement of
every mode, and photon removal, each on the full state vector.  It also keeps
the window on the whole basis, a (dimension, atom states) batch, and the map
read off its reshaped photon axes.  The tests hold the cycle map, its window
and the protocol runs to them.
"""

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from zenolock import hilbert as h
from zenolock import zeno_two_level as z2
from zenolock.hilbert import Mode, ProductBasis

MODE_PURITY_TOL = 1e-10


class BasisMismatchError(ValueError):
    """A state and an operator live on different product bases."""


class StateVector:
    """Pure state over a :class:`ProductBasis`."""

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis: ProductBasis, amplitudes, normalize: bool = False):
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (basis.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, basis dimension is {basis.dimension}"
            )
        if normalize:
            norm = np.linalg.norm(amps)
            if norm <= 0.0:
                raise ValueError("cannot normalize a zero state vector")
            amps /= norm
        amps.flags.writeable = False
        self.basis = basis
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.basis != other.basis:
            raise BasisMismatchError("states live on different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|, insensitive to global phase."""
        return abs(self.overlap(other))

    def __repr__(self):
        return f"StateVector(dimension={self.basis.dimension}, norm={self.norm():.6f})"


def _bare_state(basis: ProductBasis, amps: np.ndarray) -> StateVector:
    # Internal constructor that trusts shape/dtype and skips the copy.
    state = object.__new__(StateVector)
    amps.flags.writeable = False
    state.basis = basis
    state.amplitudes = amps
    return state


def evolve(evolver: h.BlockEvolver, state: StateVector, duration: float) -> StateVector:
    """``evolver.propagate`` on a state; ValueError if it has weight outside the held sectors."""
    if state.basis != evolver.basis:
        raise BasisMismatchError("state lives on a different basis")
    held = state.amplitudes[evolver.states]
    if np.count_nonzero(held) != np.count_nonzero(state.amplitudes):
        raise ValueError("state has weight outside the sectors the evolver holds")
    amps = np.zeros_like(state.amplitudes)
    amps[evolver.states] = evolver.propagate(held[:, None], float(duration))[:, 0]
    return _bare_state(state.basis, amps)


def pair_state(config, grid, photons: int = 0) -> StateVector:
    """A pair's (level of A, level of B) grid on the whole basis, ``photons`` in every mode."""
    basis = z2.pair_basis(config)
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[z2._atom_states(basis, photons)] = np.ravel(grid)
    return StateVector(basis, amps)


def subradiant_state(config, photons: int = 0) -> StateVector:
    """``zeno_two_level.subradiant_state`` on the whole basis."""
    return pair_state(config, z2.subradiant_state(config), photons)


def superradiant_state(config, photons: int = 0) -> StateVector:
    """``zeno_two_level.superradiant_state`` on the whole basis."""
    return pair_state(config, z2.superradiant_state(config), photons)


def pair_grid(state: StateVector) -> np.ndarray:
    """The grid of atom amplitudes of a state with every mode empty, which it checks."""
    levels = state.basis.dims[0]
    grid = state.amplitudes[z2._atom_states(state.basis, 0)]
    if np.count_nonzero(grid) != np.count_nonzero(state.amplitudes):
        raise ValueError("state has weight on a state with photons")
    return grid.reshape(levels, levels)


class EntangledModeError(ValueError):
    """A mode-factor swap was requested while the mode is entangled.

    In the measurement protocols this signals a sequencing bug: photons must
    be injected or removed only between segments, when the mode factorizes.
    """


def _require_mode(basis: ProductBasis, subsystem_index: int) -> Mode:
    sub = basis.subsystems[subsystem_index]
    if not isinstance(sub, Mode):
        raise TypeError(f"subsystem {subsystem_index} is an atom, expected a mode")
    return sub


def _mode_view(state: StateVector, mode_index: int) -> np.ndarray:
    """Amplitudes reshaped to (before, mode, after) around one mode axis."""
    dims = state.basis.dims
    pre = int(np.prod(dims[:mode_index], dtype=np.int64)) if mode_index else 1
    post = int(np.prod(dims[mode_index + 1:], dtype=np.int64)) if mode_index + 1 < len(dims) else 1
    return state.amplitudes.reshape(pre, dims[mode_index], post)


class ProjectionResult(NamedTuple):
    """Outcome of a projective photon-number measurement.

    ``state`` is None when the requested outcome has (numerically) zero Born
    probability; this is a flagged result, not an error.
    """

    state: Optional[StateVector]
    probability: float


def project_photon_number(state: StateVector, mode_index: int, k: int) -> ProjectionResult:
    """Project one mode onto exactly k photons and renormalize."""
    sub = _require_mode(state.basis, mode_index)
    if not 0 <= k <= sub.cutoff:
        raise ValueError(f"photon number {k} outside 0..{sub.cutoff}")
    view = _mode_view(state, mode_index)
    branch = view[:, k, :]
    probability = float(np.sum(np.abs(branch) ** 2))
    if probability <= h.ZERO_PROBABILITY:
        return ProjectionResult(None, probability)
    out = np.zeros_like(view)
    out[:, k, :] = branch / np.sqrt(probability)
    return ProjectionResult(_bare_state(state.basis, out.reshape(-1)), probability)


def photon_number_distribution(state: StateVector, mode_index: int) -> np.ndarray:
    """Born probabilities of every photon-number outcome on one mode."""
    _require_mode(state.basis, mode_index)
    view = _mode_view(state, mode_index)
    return np.sum(np.abs(view) ** 2, axis=(0, 2))


def replace_mode_state(state: StateVector, mode_index: int, k: int) -> StateVector:
    """Swap an unentangled mode factor to the Fock state |k>.

    Used to inject photons (|0> -> |n>) before a measurement segment and to
    remove them afterwards.  Requires the reduced purity of the mode to be
    at least 1 - 1e-10, otherwise the swap would silently discard
    correlations and an :class:`EntangledModeError` is raised.
    """
    sub = _require_mode(state.basis, mode_index)
    if not 0 <= k <= sub.cutoff:
        raise ValueError(f"photon number {k} outside 0..{sub.cutoff}")
    view = _mode_view(state, mode_index)
    m = np.moveaxis(view, 1, 2).reshape(-1, view.shape[1])
    rho = m.T @ m.conj()
    trace = float(np.trace(rho).real)
    purity = float(np.sum(np.abs(rho) ** 2) / trace**2)
    if purity < 1.0 - MODE_PURITY_TOL:
        raise EntangledModeError(
            f"mode {mode_index} is entangled with the rest of the system "
            f"(reduced purity {purity:.12f}); photon injection/removal is only "
            "valid between protocol segments"
        )
    _, vecs = np.linalg.eigh(rho)
    factor = vecs[:, -1]
    anchor = int(np.argmax(np.abs(factor)))
    factor = factor * (factor[anchor].conj() / abs(factor[anchor]))
    rest = m @ factor.conj()
    rest /= np.linalg.norm(rest)
    out = np.zeros_like(m)
    out[:, k] = rest
    out = np.moveaxis(out.reshape(view.shape[0], view.shape[2], view.shape[1]), 2, 1)
    return _bare_state(state.basis, np.ascontiguousarray(out).reshape(-1))


def _require_mode_vacuum(state: StateVector, mode_index: int = 2):
    weight = photon_number_distribution(state, mode_index)[0]
    if weight < 1.0 - 1e-9:
        raise z2.ProtocolError(
            f"cavity still holds photons (vacuum weight {weight:.12f}); "
            "remove them before a free-drift segment"
        )


def diagonal_drift(hamiltonian: h.SectorHamiltonian) -> Callable[[np.ndarray, float], np.ndarray]:
    """Free drift of one full-basis amplitude vector or a (dimension, k) batch of them.

    The energy of every basis state comes from the Hamiltonian's diagonal
    weights; the drift multiplies each row by its phase.
    """
    basis = hamiltonian.basis
    energies = h._diagonal(basis, hamiltonian.diagonal_weights, np.arange(basis.dimension))

    def drift(amps: np.ndarray, duration: float) -> np.ndarray:
        phases = np.exp(-1j * duration * energies)
        return phases.reshape(phases.shape + (1,) * (amps.ndim - 1)) * amps

    return drift


def held_propagate(evolver: h.BlockEvolver) -> Callable[[np.ndarray, float], np.ndarray]:
    """``evolver.propagate`` on a (dimension, k) batch; rows it does not hold come out zero."""
    def couple(amps: np.ndarray, duration: float) -> np.ndarray:
        out = np.zeros_like(amps)
        out[evolver.states] = evolver.propagate(amps[evolver.states], duration)
        return out

    return couple


def free_drift(state: StateVector, config: z2.TwoLevelConfig) -> StateVector:
    """Exact uncoupled evolution over the free interval (photons removed)."""
    _require_mode_vacuum(state)
    drift = diagonal_drift(z2.build_two_level_hamiltonian(config))
    return StateVector(state.basis, drift(state.amplitudes, config.free_interval))


def measurement_segment(state: StateVector, config: z2.TwoLevelConfig) -> StateVector:
    """Inject n photons into the empty cavity and couple for half a flop.

    Returns the (generally entangled) atom-field state ready for the photon
    number projection.
    """
    injected = replace_mode_state(state, 2, config.photon_number)
    evolver = h.BlockEvolver(z2.build_two_level_hamiltonian(config))
    return evolve(evolver, injected, config.measure_interval)


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
    modes = range(2, len(basis.dims))  # two atoms, then the modes
    n = config.photon_number
    state = StateVector(basis, drift(state.amplitudes, config.free_interval))
    for mode in modes:
        state = replace_mode_state(state, mode, n)
    state = evolve(evolver, state, config.measure_interval)
    tail = max(float(np.sum(photon_number_distribution(state, mode)[n + 2:]))
               for mode in modes)
    probability = 1.0
    for mode in modes:
        outcome = project_photon_number(state, mode, n)
        if outcome.state is None:
            raise z2.ProtocolError("the success branch has zero probability")
        state = outcome.state
        probability *= outcome.probability
    for mode in modes:
        state = replace_mode_state(state, mode, 0)
    return CycleResult(state, probability, tail)


def zeno_cycle(state: StateVector, config: z2.TwoLevelConfig) -> CycleResult:
    """One full two-atom protocol cycle from an empty cavity; see :func:`_stepwise_cycle`."""
    _require_mode_vacuum(state)
    hamiltonian = z2.build_two_level_hamiltonian(config)
    return _stepwise_cycle(state, config, diagonal_drift(hamiltonian),
                           h.BlockEvolver(hamiltonian))


def recorded_cycles(stride: int, cycles: int) -> list:
    """Every ``stride``-th of ``cycles`` cycles and the last, as Python ints."""
    return [*range(stride, cycles, stride), cycles]


def run_protocol(config, max_trace_points: int = 2000) -> z2.SurvivalTrace:
    """Any pair's protocol from its subradiant state, run state by state.

    The oracle of ``zeno_two_level.run_protocol`` and
    ``zeno_multilevel.run_four_level_protocol``: ``run_zeno`` with
    :func:`_stepwise_cycle` applied to every cycle.  The rate and the regime
    check come from the closed forms of ``zeno_two_level``.  The truncation
    tail is the largest over all cycles.
    """
    deltas = config.deltas()
    rate = z2.mean_square_splitting(deltas) * config.cycle_time
    if rate > 0.0 and rate * config.cycle_time < z2.MIN_CYCLE_ERROR:
        raise z2.ProtocolError(
            f"closed-form per-cycle error {rate * config.cycle_time:.3e} is below "
            f"{z2.MIN_CYCLE_ERROR:.3e}, where rounding of the cycle map dominates the survival")
    hamiltonian = z2.build_sector_hamiltonian(config)
    evolver = h.BlockEvolver(hamiltonian)
    drift = diagonal_drift(hamiltonian)
    cycle = config.cycle_time
    cycles = int(math.floor(config.final_time / cycle + 1e-9))
    remainder = max(0.0, config.final_time - cycles * cycle)
    try:
        z2.pe_analytic(deltas, config.free_interval)
        out_of_regime = False
    except z2.OutOfRegimeError:
        out_of_regime = True

    record = recorded_cycles(-(-cycles // max_trace_points), cycles)
    # survival before and after each recorded cycle
    survival = np.empty((len(record), 2))
    max_tail = 0.0
    record_set = set(record)
    slot = 0
    previous = 1.0
    final = subradiant_state(config)
    for j in range(1, cycles + 1):
        final, probability, tail = _stepwise_cycle(final, config, drift, evolver)
        max_tail = max(max_tail, tail)
        current = previous * probability
        if j in record_set:
            if current == 0.0:
                raise z2.ProtocolError(f"survival underflowed to zero by cycle {j}")
            survival[slot] = previous, current
            slot += 1
        previous = current

    before, cumulative = survival.T
    per_cycle_error = 1.0 - cumulative / before
    if remainder > 0.0:
        final = StateVector(final.basis, drift(final.amplitudes, remainder))

    times = np.concatenate([[0.0], np.array(record, dtype=float) * cycle])
    if remainder > 0.0:
        times = np.append(times, config.final_time)
        cumulative = np.append(cumulative, cumulative[-1])
        per_cycle_error = np.append(per_cycle_error, 0.0)
    p_success = np.concatenate([[1.0], cumulative])
    p_error = np.concatenate([[0.0], per_cycle_error])
    table = np.column_stack([times, np.clip(p_success, 0.0, 1.0), p_error,
                             np.exp(-rate * times)])
    return z2.SurvivalTrace(table, final_state=pair_grid(final), out_of_regime=out_of_regime,
                            max_mode_tail=max_tail)


def coupling_window(config, basis: ProductBasis,
                    drift: Callable[[np.ndarray, float], np.ndarray],
                    couple: Callable[[np.ndarray, float], np.ndarray]) -> np.ndarray:
    """One cycle up to the photon-number projection, for every atom basis state at once.

    Each atom basis state starts with every mode empty.  Their columns are
    propagated as one (dimension, atom states) batch on the whole basis: the
    free drift by ``drift(amplitudes, duration)``, then n photons are
    injected into every mode, and the coupling window by
    ``couple(amplitudes, duration)``.  Returns the amplitudes shaped (atom
    states, photons in mode 1, photons in mode 2, ..., starting atom state).
    """
    atom_dim = basis.dims[0] * basis.dims[1]
    mode_dims = basis.dims[2:]
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
    """The success-branch map: the :func:`coupling_window` at n photons in every mode."""
    return window[(slice(None),) + (config.photon_number,) * (window.ndim - 2)]


def sector_window(config, hamiltonian: h.SectorHamiltonian) -> np.ndarray:
    """:func:`coupling_window` through ``hamiltonian``'s diagonal and its held sectors."""
    return coupling_window(config, hamiltonian.basis, diagonal_drift(hamiltonian),
                           held_propagate(h.BlockEvolver(hamiltonian)))


def window_tail(config, window: np.ndarray, x: np.ndarray) -> float:
    """Population above n + 1 photons in any mode of the window applied to ``x``."""
    populations = np.abs(window @ x) ** 2
    return max(float(np.sum(np.moveaxis(populations, axis, 0)[config.photon_number + 2:]))
               for axis in range(1, populations.ndim))


def two_level_config(free_interval: float, measure_interval: float, final_time: float,
                     cavity_frequency: float = 100.0, common_offset: float = 0.0,
                     half_difference: float = 2.0, coupling: float = 2.0,
                     photon_number: int = 12) -> z2.TwoLevelConfig:
    """A two-level pair from a cavity mode and the atoms' offset and half splitting.

    The mode sits at ``cavity_frequency`` and the excited levels at
    cavity_frequency + common_offset +/- half_difference, as in
    ``zeno_two_level.config_for_cycle_time``, but every interval and the
    coupling are given directly.
    """
    centre = cavity_frequency + common_offset
    return z2.TwoLevelConfig(
        mode_frequencies=(cavity_frequency,),
        atom_a=z2.TwoLevelEnergies(g=0.0, e=centre + half_difference),
        atom_b=z2.TwoLevelEnergies(g=0.0, e=centre - half_difference),
        coupling=coupling, photon_number=photon_number, free_interval=free_interval,
        measure_interval=measure_interval, final_time=final_time)
