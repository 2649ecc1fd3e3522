"""Zeno locking with three-level and four-level atom pairs.

A pair of V-configuration three-level atoms shares a ground state between
both optical transitions, so an atom in |G> can absorb a photon from either
mode even when the pair is subradiant; the protocol leaks.  Giving each
transition its own lower level (four levels per atom, two cavity modes)
removes every absorption channel from the dark states, and the two locked
manifolds then carry a usable relative phase.

One scheme model serves both pairs: a config subclass names its levels per
atom and the (upper, lower) transition each cavity mode drives, and the
basis, Hamiltonian, conserved labels, initial state and leakage all follow
from that table.  Level ordering: three-level atoms are (G, E1, E2);
four-level atoms are (G1, G2, E1, E2).  Dimensionless angular units,
hbar = 1.
"""

import math
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from . import hilbert as h
from .hilbert import Atom, Mode, OperatorMatrix, StateVector
from .zeno_two_level import (
    OutOfRegimeError,
    SurvivalClosedForm,
    SurvivalTrace,
    _validate_protocol,
    half_flop_time,
    run_zeno,
    split_cycle,
)

G3, E1_3, E2_3 = 0, 1, 2          # three-level ordering
G1, G2, E1, E2 = 0, 1, 2, 3       # four-level ordering


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


@dataclass(frozen=True)
class LevelSchemeConfig:
    """A pair of identical-scheme atoms coupled to two cavity modes.

    A subclass names its level scheme in two class constants: ``LEVELS``,
    the levels per atom, and ``TRANSITIONS``, the (upper, lower) level pair
    that cavity mode k + 1 drives.  Level indices are the field positions of
    the atoms' energy records.
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
        _validate_protocol(self)
        if self.fock_cutoffs is None:
            n = self.photon_number
            object.__setattr__(self, "fock_cutoffs", (n + 2, n + 2))
        cutoffs = tuple(int(c) for c in self.fock_cutoffs)
        object.__setattr__(self, "fock_cutoffs", cutoffs)
        if any(c < self.photon_number + 2 for c in cutoffs):
            raise ValueError("fock_cutoffs must be at least photon_number + 2")

    @property
    def cycle_time(self) -> float:
        return self.free_interval + self.measure_interval

    def transition(self, atom, k: int) -> float:
        upper, lower = self.TRANSITIONS[k - 1]
        levels = astuple(atom)
        return levels[upper] - levels[lower]

    def mean_transition(self, k: int) -> float:
        return 0.5 * (self.transition(self.atom_a, k) + self.transition(self.atom_b, k))

    def delta(self, k: int) -> float:
        """Half the difference between the two atoms' k-th transition energies."""
        return 0.5 * (self.transition(self.atom_a, k) - self.transition(self.atom_b, k))

    def mode_detunings(self) -> tuple:
        return tuple(self.mode_frequencies[k - 1] - self.mean_transition(k) for k in (1, 2))


class ThreeLevelConfig(LevelSchemeConfig):
    """Two V-configuration atoms, two cavity modes sharing the ground state."""

    LEVELS = 3
    TRANSITIONS = ((E1_3, G3), (E2_3, G3))


class FourLevelConfig(LevelSchemeConfig):
    """Two four-level atoms; transition k couples only to mode k."""

    LEVELS = 4
    TRANSITIONS = ((E1, G1), (E2, G2))

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
    tau, tau_m, coupling = split_cycle(cycle_time, photon_number, measure_ratio)
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
        measure_interval = half_flop_time(coupling, photon_number)
    atom = ThreeLevelEnergies(g=ground, e1=ground + transition_1, e2=ground + transition_2)
    return ThreeLevelConfig(mode_frequencies=(transition_1, transition_2),
                            atom_a=atom, atom_b=atom, coupling=coupling,
                            photon_number=photon_number, free_interval=measure_interval,
                            measure_interval=measure_interval,
                            final_time=2.0 * measure_interval)


def pair_basis(config: LevelSchemeConfig) -> h.ProductBasis:
    c1, c2 = config.fock_cutoffs
    return h.build_basis([Atom(config.LEVELS), Atom(config.LEVELS), Mode(c1), Mode(c2)])


def _hamiltonian_terms(config: LevelSchemeConfig, coupled: bool):
    """Basis, diagonal weights and exchange terms of the pair Hamiltonian.

    |upper_k> <-> |lower_k> exchanges a photon with mode k, on both atoms.
    In the V scheme both transitions share the ground level; in the
    four-level scheme there is no cross coupling between the two
    transitions, so each manifold conserves its own excitation number.
    """
    atom_weights = [astuple(energies) for energies in (config.atom_a, config.atom_b)]
    mode_weights = [frequency * (np.arange(cutoff + 1) + 0.5)
                    for frequency, cutoff in zip(config.mode_frequencies, config.fock_cutoffs)]
    exchange = []
    if coupled:
        for atom_axis in (0, 1):
            for mode_axis, (upper, lower) in enumerate(config.TRANSITIONS, start=2):
                exchange.append((atom_axis, upper, lower, mode_axis, 0.5 * config.coupling))
    return pair_basis(config), atom_weights + mode_weights, exchange


def build_hamiltonian(config: LevelSchemeConfig, coupled: bool = True) -> OperatorMatrix:
    """Dense pair Hamiltonian; the oracle of :func:`build_sector_hamiltonian`."""
    return h.assemble_hamiltonian(*_hamiltonian_terms(config, coupled))


def build_sector_hamiltonian(config: LevelSchemeConfig) -> h.SectorHamiltonian:
    """Coupled pair Hamiltonian by :func:`conserved_labels` sector.

    Its ``diagonal`` is the uncoupled Hamiltonian of the free drift.  No
    operator of the full pair basis is formed.
    """
    return h.assemble_sectors(*_hamiltonian_terms(config, True), conserved_labels(config))


# perfbench/tracer.py wraps this name to time the four-level builds, so
# run_four_level_protocol calls the Hamiltonian builder through it.
build_four_level_hamiltonian = build_sector_hamiltonian


def conserved_labels(config: LevelSchemeConfig) -> np.ndarray:
    """Both excitation numbers: atoms in upper_k plus photons in mode k."""
    basis = pair_basis(config)
    numbers = []
    for k, (upper, _) in enumerate(config.TRANSITIONS):
        atom = [int(level == upper) for level in range(config.LEVELS)]
        modes = [list(range(c + 1)) if j == k else [0] * (c + 1)
                 for j, c in enumerate(config.fock_cutoffs)]
        numbers.append(h.occupation_labels(basis, [atom, atom, *modes]))
    return h.combine_labels(*numbers)


def _pair_superposition(basis, pairs, photons):
    amps = np.zeros(basis.dimension, dtype=complex)
    weight = 1.0 / (math.sqrt(2.0) * math.sqrt(len(pairs)))
    for upper, lower in pairs:
        amps[basis.index([upper, lower, *photons])] += weight
        amps[basis.index([lower, upper, *photons])] -= weight
    return StateVector(basis, amps)


def initial_state(config: LevelSchemeConfig) -> StateVector:
    """Equal superposition of the two subradiant pairs, both modes empty."""
    return _pair_superposition(pair_basis(config), config.TRANSITIONS, (0, 0))


def leakage(config: LevelSchemeConfig, photon_number: Optional[int] = None,
            measure_interval: Optional[float] = None) -> float:
    """Probability of double-excitation absorption out of a subradiant pair.

    Prepares (|upper_1 lower_1> - |lower_1 upper_1>)/sqrt(2) with n photons
    in both modes and couples for the measurement window.  In the V scheme
    the shared ground state lets either atom absorb from mode 2, so the
    result is strictly positive; this is the defect that motivates the
    four-level scheme, where it is zero because the subradiant pair is dark
    to its own mode and the other mode touches neither level.
    """
    n = config.photon_number if photon_number is None else photon_number
    tau_m = config.measure_interval if measure_interval is None else measure_interval
    state = _pair_superposition(pair_basis(config), config.TRANSITIONS[:1], (n, n))
    evolved = h.BlockEvolver(build_sector_hamiltonian(config)).evolve(state, tau_m)
    levels = config.LEVELS
    populations = np.abs(evolved.amplitudes.reshape(levels, levels, -1)) ** 2
    excited = [upper for upper, _ in config.TRANSITIONS]
    return sum(float(populations[a, b].sum()) for a in excited for b in excited)


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


def run_four_level_protocol(config: FourLevelConfig,
                            max_trace_points: int = 2000) -> SurvivalTrace:
    """Iterate four-level Zeno cycles until the final time.

    Each cycle is a free drift, injection of n photons into both modes, the
    half-flop coupling window, projection of both photon numbers back onto n
    and photon removal, run as one linear map; see :func:`zeno_two_level.run_zeno`.
    The Hamiltonian is held by sector (:func:`build_sector_hamiltonian`), so
    no dense operator of the pair basis is built.
    """
    delta_1, delta_2 = config.delta(1), config.delta(2)
    return run_zeno(
        config, build_four_level_hamiltonian(config), initial_state(config),
        rate=0.5 * (delta_1**2 + delta_2**2) * config.cycle_time,
        regime_check=lambda: pe_four_level(delta_1, delta_2, config.free_interval),
        max_trace_points=max_trace_points)


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
