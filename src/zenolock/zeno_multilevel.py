"""Zeno locking with three-level and four-level atom pairs.

A pair of V-configuration three-level atoms shares a ground state between
both optical transitions, so an atom in |G> can absorb a photon from either
mode even when the pair is subradiant; the protocol leaks.  Giving each
transition its own lower level (four levels per atom, two cavity modes)
removes every absorption channel from the dark states, and the two locked
manifolds then carry a usable relative phase.

One scheme model serves both pairs, and the two-level pair too: each config
here is a :class:`zeno_two_level.LevelSchemeConfig` that names its levels per
atom and the (upper, lower) transition each cavity mode drives, and the
basis, Hamiltonian, pair states and closed forms of :mod:`zeno_two_level`
follow from that table, as does the leakage here.
Level ordering: three-level atoms are (G, E1, E2);
four-level atoms are (G1, G2, E1, E2).  Dimensionless angular units,
hbar = 1.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from . import hilbert as h
from .zeno_two_level import (
    LevelSchemeConfig,
    SurvivalTrace,
    _injected,
    build_sector_hamiltonian,
    half_flop_time,
    pair_superposition,
    run_zeno,
    split_cycle,
    subradiant_state,
)

G3, E1_3, E2_3 = 0, 1, 2          # three-level ordering
G1, G2, E1, E2 = 0, 1, 2, 3       # four-level ordering


class ThreeLevelEnergies(NamedTuple):
    """Level energies of one V-configuration atom."""

    g: float
    e1: float
    e2: float


class FourLevelEnergies(NamedTuple):
    """Level energies of one four-level atom (two closed transitions)."""

    g1: float
    g2: float
    e1: float
    e2: float


class ThreeLevelConfig(LevelSchemeConfig):
    """Two V-configuration atoms, two cavity modes sharing the ground state."""

    LEVELS = 3
    TRANSITIONS = ((E1_3, G3), (E2_3, G3))


class FourLevelConfig(LevelSchemeConfig):
    """Two four-level atoms; transition k couples only to mode k."""

    LEVELS = 4
    TRANSITIONS = ((E1, G1), (E2, G2))


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


def leakage(config: LevelSchemeConfig) -> float:
    """Probability of double-excitation absorption out of a subradiant pair.

    Prepares (|upper_1 lower_1> - |lower_1 upper_1>)/sqrt(2) with n photons
    in both modes and couples for the measurement window.  In the V scheme
    the shared ground state lets either atom absorb from mode 2, so the
    result is strictly positive; this is the defect that motivates the
    four-level scheme, where it is zero because the subradiant pair is dark
    to its own mode and the other mode touches neither level.
    """
    start = pair_superposition(config, config.TRANSITIONS[:1])
    evolver = h.BlockEvolver(build_sector_hamiltonian(config))
    amps = np.zeros((len(evolver.states), 1), dtype=complex)
    amps[_injected(config, evolver), 0] = start.ravel()
    evolved = evolver.propagate(amps, config.measure_interval)[:, 0]
    # one photon configuration per atom configuration in the start's sector, so
    # each atom configuration's population is one term
    populations = np.bincount(evolver.states // evolver.basis.strides[1],
                              np.abs(evolved) ** 2, minlength=start.size).reshape(start.shape)
    excited = [upper for upper, _ in config.TRANSITIONS]
    return sum(float(populations[a, b]) for a in excited for b in excited)


def measurement_residual_cosine(config: FourLevelConfig) -> float:
    """Bright-state population cosine left at the end of the window.

    The window is sized by manifold 1; with a shared coupling and photon
    number manifold 2 sees the same collective Rabi argument, so the residual
    is the same for both manifolds.
    """
    argument = config.coupling * math.sqrt(config.photon_number + 0.5)
    return math.cos(argument * config.measure_interval)


# perfbench/tracer.py wraps this name; a def, not an alias, keeps the wrap on it
def build_four_level_hamiltonian(config: FourLevelConfig) -> h.SectorHamiltonian:
    return build_sector_hamiltonian(config)


def run_four_level_protocol(config: FourLevelConfig,
                            max_trace_points: int = 2000) -> SurvivalTrace:
    """Iterate four-level Zeno cycles until the final time.

    Each cycle is a free drift, injection of n photons into both modes, the
    half-flop coupling window, projection of both photon numbers back onto n
    and photon removal, run as one linear map at the closed-form rate
    (delta_1^2 + delta_2^2)/2 * cycle_time; see :func:`zeno_two_level.run_zeno`.
    The Hamiltonian is held by sector, so no dense operator of the pair basis
    is built.
    """
    return run_zeno(config, build_four_level_hamiltonian(config), subradiant_state(config),
                    max_trace_points=max_trace_points)


def cross_manifold_population(state: np.ndarray) -> float:
    """Population of atomic configurations mixing the two manifolds.

    Generated states keep each atom pair inside one manifold; any weight on
    a mixed configuration (one atom in {G1, E1}, the other in {G2, E2})
    signals a cross coupling that should not exist.
    """
    populations = np.abs(np.reshape(state, (4, 4))) ** 2
    manifold = {G1: 1, E1: 1, G2: 2, E2: 2}
    return sum(float(populations[a, b]) for a in range(4) for b in range(4)
               if manifold[a] != manifold[b])
