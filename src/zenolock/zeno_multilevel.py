"""Zeno locking with three-level and four-level atom pairs.

A pair of V-configuration three-level atoms shares a ground state between
both optical transitions, so an atom in |G> can absorb a photon from either
mode even when the pair is subradiant; the protocol leaks.  Giving each
transition its own lower level (four levels per atom, two cavity modes)
removes every absorption channel from the dark states, and the two locked
manifolds then carry a usable relative phase.

Level ordering: three-level atoms are (G, E1, E2); four-level atoms are
(G1, G2, E1, E2).  Dimensionless angular units, hbar = 1.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hilbert as h
from .hilbert import Atom, Mode, OperatorMatrix, StateVector
from .zeno_two_level import (
    CycleResult,
    OutOfRegimeError,
    ProtocolError,
    SurvivalClosedForm,
    SurvivalTrace,
    _validate_protocol,
    cycle_matrix,
    half_flop_time_inverse,
    run_zeno,
)

G3, E1_3, E2_3 = 0, 1, 2          # three-level ordering
G1, G2, E1, E2 = 0, 1, 2, 3       # four-level ordering
_THREE_EXCITED = (E1_3, E2_3)
_FOUR_EXCITED = (E1, E2)


@dataclass(frozen=True)
class ThreeLevelEnergies:
    """Level energies of one V-configuration atom."""

    g: float
    e1: float
    e2: float


@dataclass(frozen=True)
class FourLevelEnergies:
    """Level energies of one four-level atom (two closed transitions)."""

    g1: float
    g2: float
    e1: float
    e2: float


def _common_validation(config):
    _validate_protocol(config)
    if config.fock_cutoffs is None:
        n = config.photon_number
        object.__setattr__(config, "fock_cutoffs", (n + 2, n + 2))
    cutoffs = tuple(int(c) for c in config.fock_cutoffs)
    object.__setattr__(config, "fock_cutoffs", cutoffs)
    if any(c < config.photon_number + 2 for c in cutoffs):
        raise ValueError("fock_cutoffs must be at least photon_number + 2")


@dataclass(frozen=True)
class ThreeLevelConfig:
    """Two V-configuration atoms, two cavity modes sharing the ground state."""

    mode_frequencies: tuple
    atom_a: ThreeLevelEnergies
    atom_b: ThreeLevelEnergies
    coupling: float
    photon_number: int
    free_interval: float
    measure_interval: float
    final_time: float
    fock_cutoffs: Optional[tuple] = None

    def __post_init__(self):
        _common_validation(self)

    def transition(self, atom: ThreeLevelEnergies, k: int) -> float:
        return (atom.e1, atom.e2)[k - 1] - atom.g

    def mean_transition(self, k: int) -> float:
        return 0.5 * (self.transition(self.atom_a, k) + self.transition(self.atom_b, k))

    def mode_detunings(self) -> tuple:
        return tuple(self.mode_frequencies[k - 1] - self.mean_transition(k) for k in (1, 2))


@dataclass(frozen=True)
class FourLevelConfig:
    """Two four-level atoms; transition k couples only to mode k."""

    mode_frequencies: tuple
    atom_a: FourLevelEnergies
    atom_b: FourLevelEnergies
    coupling: float
    photon_number: int
    free_interval: float
    measure_interval: float
    final_time: float
    fock_cutoffs: Optional[tuple] = None

    def __post_init__(self):
        _common_validation(self)

    @property
    def cycle_time(self) -> float:
        return self.free_interval + self.measure_interval

    def transition(self, atom: FourLevelEnergies, k: int) -> float:
        if k == 1:
            return atom.e1 - atom.g1
        return atom.e2 - atom.g2

    def mean_transition(self, k: int) -> float:
        return 0.5 * (self.transition(self.atom_a, k) + self.transition(self.atom_b, k))

    def delta(self, k: int) -> float:
        """Half the difference between the two atoms' k-th transition energies."""
        return 0.5 * (self.transition(self.atom_a, k) - self.transition(self.atom_b, k))

    def mode_detunings(self) -> tuple:
        return tuple(self.mode_frequencies[k - 1] - self.mean_transition(k) for k in (1, 2))

    def clock_frequency(self) -> float:
        """Relative precession rate of the two locked manifolds."""
        e1 = 0.5 * (self.atom_a.e1 + self.atom_b.e1)
        g1 = 0.5 * (self.atom_a.g1 + self.atom_b.g1)
        e2 = 0.5 * (self.atom_a.e2 + self.atom_b.e2)
        g2 = 0.5 * (self.atom_a.g2 + self.atom_b.g2)
        return e1 + g1 - e2 - g2


def four_level_config_from_deltas(delta_1: float, delta_2: float, cycle_time: float,
                                  final_time: float, photon_number: int = 8,
                                  measure_ratio: float = 200.0,
                                  transition_1: float = 120.0, transition_2: float = 110.0,
                                  ground_1: float = 0.0, ground_2: float = 0.0) -> FourLevelConfig:
    """Resonant four-level config with given transition splittings.

    Atom A sits delta_k above the mean k-th transition, atom B the same
    amount below; both cavity modes are resonant with the means.  The
    measurement window is cycle_time/(measure_ratio + 1) and the coupling
    makes it exactly half a Rabi flop.
    """
    tau_m = cycle_time / (measure_ratio + 1.0)
    tau = cycle_time - tau_m
    coupling = half_flop_time_inverse(tau_m, photon_number)
    atom_a = FourLevelEnergies(g1=ground_1, g2=ground_2,
                               e1=ground_1 + transition_1 + delta_1,
                               e2=ground_2 + transition_2 + delta_2)
    atom_b = FourLevelEnergies(g1=ground_1, g2=ground_2,
                               e1=ground_1 + transition_1 - delta_1,
                               e2=ground_2 + transition_2 - delta_2)
    return FourLevelConfig(mode_frequencies=(transition_1, transition_2),
                           atom_a=atom_a, atom_b=atom_b, coupling=coupling,
                           photon_number=photon_number, free_interval=tau,
                           measure_interval=tau_m, final_time=final_time)


def three_level_config(coupling: float = 2.0, photon_number: int = 8,
                       measure_interval: Optional[float] = None,
                       transition_1: float = 120.0, transition_2: float = 110.0,
                       ground: float = 0.0) -> ThreeLevelConfig:
    """Identical resonant V-configuration atoms (enough to exhibit the leak)."""
    if measure_interval is None:
        measure_interval = math.pi / (2.0 * coupling * math.sqrt(photon_number + 0.5))
    atom = ThreeLevelEnergies(g=ground, e1=ground + transition_1, e2=ground + transition_2)
    return ThreeLevelConfig(mode_frequencies=(transition_1, transition_2),
                            atom_a=atom, atom_b=atom, coupling=coupling,
                            photon_number=photon_number, free_interval=measure_interval,
                            measure_interval=measure_interval,
                            final_time=2.0 * measure_interval)


def three_level_basis(config: ThreeLevelConfig) -> h.ProductBasis:
    c1, c2 = config.fock_cutoffs
    return h.build_basis([Atom(3), Atom(3), Mode(c1), Mode(c2)])


def four_level_basis(config: FourLevelConfig) -> h.ProductBasis:
    c1, c2 = config.fock_cutoffs
    return h.build_basis([Atom(4), Atom(4), Mode(c1), Mode(c2)])


def build_three_level_hamiltonian(config: ThreeLevelConfig,
                                  coupled: bool = True) -> OperatorMatrix:
    """V-configuration pair: |E_k> <-> |G> exchanges a photon with mode k."""
    basis = three_level_basis(config)
    c1, c2 = config.fock_cutoffs
    atom_weights = [(energies.g, energies.e1, energies.e2)
                    for energies in (config.atom_a, config.atom_b)]
    mode_weights = [config.mode_frequencies[0] * (np.arange(c1 + 1) + 0.5),
                    config.mode_frequencies[1] * (np.arange(c2 + 1) + 0.5)]
    exchange = []
    if coupled:
        for atom_axis in (0, 1):
            exchange.append((atom_axis, E1_3, G3, 2, 0.5 * config.coupling))
            exchange.append((atom_axis, E2_3, G3, 3, 0.5 * config.coupling))
    return h.assemble_hamiltonian(basis, atom_weights + mode_weights, exchange)


def build_four_level_hamiltonian(config: FourLevelConfig,
                                 coupled: bool = True) -> OperatorMatrix:
    """Four-level pair: |E_k> <-> |G_k> exchanges a photon with mode k only.

    There is no cross coupling between the two transitions, so each manifold
    conserves its own excitation number.
    """
    basis = four_level_basis(config)
    c1, c2 = config.fock_cutoffs
    atom_weights = [(energies.g1, energies.g2, energies.e1, energies.e2)
                    for energies in (config.atom_a, config.atom_b)]
    mode_weights = [config.mode_frequencies[0] * (np.arange(c1 + 1) + 0.5),
                    config.mode_frequencies[1] * (np.arange(c2 + 1) + 0.5)]
    exchange = []
    if coupled:
        for atom_axis in (0, 1):
            exchange.append((atom_axis, E1, G1, 2, 0.5 * config.coupling))
            exchange.append((atom_axis, E2, G2, 3, 0.5 * config.coupling))
    return h.assemble_hamiltonian(basis, atom_weights + mode_weights, exchange)


def three_level_labels(config: ThreeLevelConfig) -> np.ndarray:
    basis = three_level_basis(config)
    c1, c2 = config.fock_cutoffs
    n1 = h.occupation_labels(basis, [[0, 1, 0], [0, 1, 0],
                                     list(range(c1 + 1)), [0] * (c2 + 1)])
    n2 = h.occupation_labels(basis, [[0, 0, 1], [0, 0, 1],
                                     [0] * (c1 + 1), list(range(c2 + 1))])
    return h.combine_labels(n1, n2)


def four_level_labels(config: FourLevelConfig) -> np.ndarray:
    basis = four_level_basis(config)
    c1, c2 = config.fock_cutoffs
    n1 = h.occupation_labels(basis, [[0, 0, 1, 0], [0, 0, 1, 0],
                                     list(range(c1 + 1)), [0] * (c2 + 1)])
    n2 = h.occupation_labels(basis, [[0, 0, 0, 1], [0, 0, 0, 1],
                                     [0] * (c1 + 1), list(range(c2 + 1))])
    return h.combine_labels(n1, n2)


def _pair_superposition(basis, pairs, photons):
    amps = np.zeros(basis.dimension, dtype=complex)
    weight = 1.0 / (math.sqrt(2.0) * math.sqrt(len(pairs)))
    for upper, lower in pairs:
        amps[basis.index([upper, lower, *photons])] += weight
        amps[basis.index([lower, upper, *photons])] -= weight
    return StateVector(basis, amps)


def initial_state_three(config: ThreeLevelConfig) -> StateVector:
    """Equal superposition of the two subradiant pairs, both modes empty."""
    basis = three_level_basis(config)
    return _pair_superposition(basis, [(E1_3, G3), (E2_3, G3)], (0, 0))


def initial_state_four(config: FourLevelConfig) -> StateVector:
    """Equal superposition of the two closed-manifold subradiant pairs."""
    basis = four_level_basis(config)
    return _pair_superposition(basis, [(E1, G1), (E2, G2)], (0, 0))


def _both_excited_probability(state: StateVector, excited_levels) -> float:
    basis = state.basis
    dims = basis.dims
    atom_dim = dims[0]
    mode_dim = int(np.prod(dims[2:]))
    view = np.abs(state.amplitudes.reshape(atom_dim, atom_dim, mode_dim)) ** 2
    total = 0.0
    for a in excited_levels:
        for b in excited_levels:
            total += float(view[a, b].sum())
    return total


def three_level_leakage(config: ThreeLevelConfig, photon_number: Optional[int] = None,
                        measure_interval: Optional[float] = None) -> float:
    """Probability of double-excitation absorption out of a subradiant pair.

    Prepares (|E1 G> - |G E1>)/sqrt(2) with n photons in both modes and
    couples for the measurement window.  The shared ground state lets either
    atom absorb from mode 2, so the result is strictly positive; this is the
    defect that motivates the four-level scheme.
    """
    n = config.photon_number if photon_number is None else photon_number
    tau_m = config.measure_interval if measure_interval is None else measure_interval
    basis = three_level_basis(config)
    state = _pair_superposition(basis, [(E1_3, G3)], (n, n))
    ham = build_three_level_hamiltonian(config, coupled=True)
    evolver = h.BlockEvolver(ham, three_level_labels(config))
    evolved = evolver.evolve(state, tau_m)
    return _both_excited_probability(evolved, _THREE_EXCITED)


def four_level_leakage(config: FourLevelConfig, photon_number: Optional[int] = None,
                       measure_interval: Optional[float] = None) -> float:
    """Same computation for the four-level pair; zero because the subradiant
    pair is dark to its own mode and the other mode touches neither level."""
    n = config.photon_number if photon_number is None else photon_number
    tau_m = config.measure_interval if measure_interval is None else measure_interval
    basis = four_level_basis(config)
    state = _pair_superposition(basis, [(E1, G1)], (n, n))
    ham = build_four_level_hamiltonian(config, coupled=True)
    evolver = h.BlockEvolver(ham, four_level_labels(config))
    evolved = evolver.evolve(state, tau_m)
    return _both_excited_probability(evolved, _FOUR_EXCITED)


def measurement_residual_cosines(config: FourLevelConfig) -> tuple:
    """Bright-state population cosine left at the end of the window, per manifold.

    The window is sized by manifold 1; with a shared coupling and photon
    number manifold 2 sees the same collective Rabi argument, so both
    residuals vanish together.
    """
    argument = config.coupling * math.sqrt(config.photon_number + 0.5)
    value = math.cos(argument * config.measure_interval)
    return (value, value)


def pe_four_level(delta_1: float, delta_2: float, free_interval: float,
                  weights=(0.5, 0.5)) -> float:
    """Per-cycle error of the four-level protocol.

    ``weights`` are the populations of the two manifolds; the equal-weight
    default reproduces the (delta_1^2 + delta_2^2)/2 form of the balanced
    initial state, and (1, 0) recovers the single-manifold two-level result.
    """
    w1, w2 = weights
    pe = (w1 * delta_1**2 + w2 * delta_2**2) * free_interval**2
    if pe > 1.0:
        raise OutOfRegimeError(f"per-cycle error {pe:.3g} exceeds 1")
    return pe


def ps_four_level(delta_1: float, delta_2: float, free_interval: float,
                  measure_interval: float, final_time: float) -> SurvivalClosedForm:
    """Survival closed forms: exact product and exponential limit."""
    pe = pe_four_level(delta_1, delta_2, free_interval)
    cycle = free_interval + measure_interval
    rate = 0.5 * (delta_1**2 + delta_2**2) * cycle
    return SurvivalClosedForm(product_form=(1.0 - pe) ** (final_time / cycle),
                              exponential_form=math.exp(-rate * final_time))


def _four_level_stepwise_cycle(state: StateVector, config: FourLevelConfig,
                               drift: OperatorMatrix, evolver: h.BlockEvolver) -> CycleResult:
    """One explicit cycle following the success branch of both projections."""
    state = h.evolve(state, drift, config.free_interval)
    state = h.replace_mode_state(state, 2, config.photon_number)
    state = h.replace_mode_state(state, 3, config.photon_number)
    state = evolver.evolve(state, config.measure_interval)
    tail = max(h.mode_top_population(state, 2, 1), h.mode_top_population(state, 3, 1))
    probability = 1.0
    for mode_axis in (2, 3):
        outcome = h.project_photon_number(state, mode_axis, config.photon_number)
        if outcome.state is None:
            raise ProtocolError("the success branch has zero probability")
        state = outcome.state
        probability *= outcome.probability
    state = h.replace_mode_state(state, 2, 0)
    state = h.replace_mode_state(state, 3, 0)
    return CycleResult(state, probability, tail)


def run_four_level_protocol(config: FourLevelConfig, max_trace_points: int = 2000,
                            method: str = "compiled") -> SurvivalTrace:
    """Iterate four-level Zeno cycles until the final time.

    Each cycle is a free drift, injection of n photons into both modes, the
    half-flop coupling window, projection of both photon numbers back onto n
    and photon removal; see :func:`zeno_two_level.run_zeno` for ``method``.
    """
    drift = build_four_level_hamiltonian(config, coupled=False)
    coupled = build_four_level_hamiltonian(config, coupled=True)
    evolver = h.BlockEvolver(coupled, four_level_labels(config))
    delta_1, delta_2 = config.delta(1), config.delta(2)
    return run_zeno(
        config, initial_state_four(config), drift,
        cycle_matrix(config, drift, evolver.propagate),
        lambda state: _four_level_stepwise_cycle(state, config, drift, evolver),
        rate=0.5 * (delta_1**2 + delta_2**2) * config.cycle_time,
        regime_check=lambda: pe_four_level(delta_1, delta_2, config.free_interval),
        max_trace_points=max_trace_points, method=method)


def cross_manifold_population(state: StateVector) -> float:
    """Population of atomic configurations mixing the two manifolds.

    Generated states keep each atom pair inside one manifold; any weight on
    a mixed configuration (one atom in {G1, E1}, the other in {G2, E2})
    signals a cross coupling that should not exist.
    """
    basis = state.basis
    dims = basis.dims
    mode_dim = int(np.prod(dims[2:]))
    view = np.abs(state.amplitudes.reshape(4, 4, mode_dim)) ** 2
    manifold = {G1: 1, E1: 1, G2: 2, E2: 2}
    total = 0.0
    for a in range(4):
        for b in range(4):
            if manifold[a] != manifold[b]:
                total += float(view[a, b].sum())
    return total
