"""Kronecker-product operators and states that the tests use as oracles.

The package builds its Hamiltonians by index arithmetic and evolves them by
sector; these dense constructions from chained Kronecker products are the
independent references the tests compare against.  The dense assembler,
:func:`assemble_hamiltonian`, and the dense pair Hamiltonian,
:func:`build_hamiltonian`, fill the whole matrix from the package's own entry
lists: they are the oracles of its sector assembly, and :func:`evolve` is
the dense evolution under them.  :func:`resonant_subspace` is the readout
channel over the whole emission basis, and :func:`perturbative_quadrature`
the second-order picture of the emission, which the exact path is held to.
The conserved excitation numbers, :func:`conserved_labels` of a pair and
:func:`emission_labels` of the readout, are the oracles of the sectors that
the package derives from the exchange terms' reach.  The readout's mode is
cut at two photons; :func:`at_emission_cutoff` rebuilds it at another cutoff.
"""

import functools
import math
from typing import Sequence

import numpy as np

from stepwise_oracle import BasisMismatchError, StateVector, _require_mode
from zenolock import hilbert as h
from zenolock import readout as rd
from zenolock import zeno_two_level as z2


def basis_state(basis: h.ProductBasis, occupations: Sequence[int]) -> StateVector:
    """Product basis state |occupations>."""
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index(occupations)] = 1.0
    return StateVector(basis, amps)


def embed(basis: h.ProductBasis, subsystem_index: int, local: np.ndarray) -> np.ndarray:
    """Kronecker-embed a local operator, identity on all other factors."""
    out = None
    for i, d in enumerate(basis.dims):
        factor = local if i == subsystem_index else np.eye(d)
        out = factor if out is None else np.kron(out, factor)
    return out


def annihilation(basis: h.ProductBasis, mode_index: int) -> h.OperatorMatrix:
    """Ladder operator a on one mode factor: a|k> = sqrt(k)|k-1>.

    Under truncation the image of the top occupancy under a^dag is dropped,
    i.e. a^dag|cutoff> = 0.
    """
    sub = _require_mode(basis, mode_index)
    local = np.diag(np.sqrt(np.arange(1.0, sub.dim)), k=1).astype(complex)
    return h.OperatorMatrix(basis, embed(basis, mode_index, local))


def dagger(op: h.OperatorMatrix) -> h.OperatorMatrix:
    return h.OperatorMatrix(op.basis, op.matrix.conj().T, hermitian=op.hermitian)


def creation(basis: h.ProductBasis, mode_index: int) -> h.OperatorMatrix:
    return dagger(annihilation(basis, mode_index))


def number_operator(basis: h.ProductBasis, mode_index: int) -> h.OperatorMatrix:
    sub = _require_mode(basis, mode_index)
    local = np.diag(np.arange(sub.dim, dtype=float)).astype(complex)
    return h.OperatorMatrix(basis, embed(basis, mode_index, local), hermitian=True)


def atomic_projector(basis: h.ProductBasis, atom_index: int, i: int,
                     j: int) -> h.OperatorMatrix:
    """|i><j| on one atom factor, identity elsewhere.

    Raising and lowering operators are built from this block, e.g.
    sigma^+ = |excited><ground|.
    """
    sub = basis.subsystems[atom_index]
    if not isinstance(sub, h.Atom):
        raise TypeError(f"subsystem {atom_index} is a mode, expected an atom")
    if not (0 <= i < sub.levels and 0 <= j < sub.levels):
        raise ValueError(f"level indices ({i}, {j}) out of range for {sub.levels} levels")
    local = np.zeros((sub.levels, sub.levels), dtype=complex)
    local[i, j] = 1.0
    return h.OperatorMatrix(basis, embed(basis, atom_index, local), hermitian=(i == j))


def expectation(state: StateVector, op: h.OperatorMatrix) -> complex:
    """<state|Op|state>.  Real up to 1e-12 for Hermitian operators."""
    if op.basis != state.basis:
        raise BasisMismatchError("state and operator live on different bases")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def commutator_norm(a: h.OperatorMatrix, b: h.OperatorMatrix) -> float:
    return float(np.max(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix)))


def assemble_hamiltonian(basis: h.ProductBasis, diagonal_weights,
                         exchange_terms) -> h.OperatorMatrix:
    """Dense Hamiltonian from per-level diagonal weights and exchange couplings.

    ``diagonal_weights`` is one weight vector per subsystem (summed over
    occupations); each exchange term (atom_axis, upper, lower, mode_axis,
    strength) adds strength*(|upper><lower| a + h.c.) with the usual
    ladder-operator sqrt(k) factors, or strength*(|upper><lower| + h.c.)
    for an atom-only drive when ``mode_axis`` is None.  Index arithmetic
    keeps the assembly O(nonzeros) instead of chained Kronecker products,
    and photon energies come out exact (k + 1/2, not a^dag a rounded).
    """
    dim = basis.dimension
    m = np.zeros((dim, dim), dtype=complex)
    m[np.arange(dim), np.arange(dim)] = h._diagonal(basis, diagonal_weights, np.arange(dim))
    rows, cols, values = h._exchange_entries(basis, exchange_terms, np.arange(dim))
    np.add.at(m, (rows, cols), values)
    np.add.at(m, (cols, rows), values)
    return h.OperatorMatrix(basis, m, hermitian=True)


def build_hamiltonian(config, coupled: bool = True) -> h.OperatorMatrix:
    """Dense pair Hamiltonian; the oracle of ``zeno_two_level.build_sector_hamiltonian``.

    Without ``coupled`` the exchange terms are dropped, which models the
    free-drift segments where the photons have been removed.
    """
    basis, weights, exchange = z2._hamiltonian_terms(config)
    return assemble_hamiltonian(basis, weights, exchange if coupled else [])


def at_emission_cutoff(monkeypatch, cutoff: int) -> None:
    """Let the readout build its emission stage on a mode of ``cutoff`` photons.

    The readout reads the mode's size from ``readout.EMISSION_BASIS`` alone,
    so replacing it moves every array of the stage to the other cutoff.
    """
    monkeypatch.setattr(rd, "EMISSION_BASIS",
                        h.build_basis([h.Atom(4), h.Atom(4), h.Mode(cutoff)]))


def resonant_subspace() -> np.ndarray:
    """Orthonormal basis (as columns) of the readout's resonant radiating channel.

    Symmetric pair states with zero or one emitted photon, each column over
    the whole emission basis: the oracle of ``_EmissionModel.p_matrix``.
    """
    basis = rd.EMISSION_BASIS

    def sym(upper, lower, photons):
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index([upper, lower, photons])] = 1.0 / math.sqrt(2.0)
        amps[basis.index([lower, upper, photons])] = 1.0 / math.sqrt(2.0)
        return amps

    # disjoint supports, so the columns are orthonormal as they stand
    return np.column_stack([sym(rd.E1, rd.G1, 0), sym(rd.E2, rd.G1, 1),
                            sym(rd.E2, rd.G1, 0), sym(rd.E1, rd.G1, 1)])


def evolve(state: StateVector, hamiltonian: h.OperatorMatrix,
           duration: float) -> StateVector:
    """Exact propagation exp(-i H t)|state> via the cached eigensystem of H."""
    if hamiltonian.basis != state.basis:
        raise BasisMismatchError("state and Hamiltonian live on different bases")
    if not hamiltonian.hermitian:
        raise ValueError("evolution requires a Hamiltonian with the hermitian flag set")
    return StateVector(state.basis,
                         h._propagate(hamiltonian, state.amplitudes, float(duration)))


def occupation_labels(basis: h.ProductBasis,
                      local_weights: Sequence[Sequence[int]]) -> np.ndarray:
    """Integer label per basis state: sum of per-subsystem level weights.

    With atom weights selecting excited levels and mode weights equal to the
    occupancy, the label is a conserved excitation number for every
    rotating-wave Hamiltonian of the package.
    """
    if len(local_weights) != len(basis.dims):
        raise ValueError("need one weight vector per subsystem")
    labels = np.zeros(basis.dimension, dtype=np.int64)
    for w, idx in zip(local_weights, np.unravel_index(np.arange(basis.dimension), basis.dims)):
        labels += np.asarray(w, dtype=np.int64)[idx]
    return labels


def combine_labels(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Pack two label arrays into one (for doubly conserved numbers)."""
    return first * (int(second.max()) + 1) + second


def conserved_labels(config) -> np.ndarray:
    """Every excitation number of a pair, packed: atoms in upper_k plus photons in mode k."""
    basis = z2.pair_basis(config)
    numbers = []
    for k, (upper, _) in enumerate(config.TRANSITIONS):
        atom = [int(level == upper) for level in range(config.LEVELS)]
        modes = [list(range(c + 1)) if j == k else [0] * (c + 1)
                 for j, c in enumerate(config.fock_cutoffs)]
        numbers.append(occupation_labels(basis, [atom, atom, *modes]))
    return functools.reduce(combine_labels, numbers)


def emission_labels() -> np.ndarray:
    """The readout's two conserved numbers, packed: L (photons plus atoms in E1), atoms in G2."""
    basis = rd.EMISSION_BASIS
    photons = np.arange(basis.dims[2])
    quanta = occupation_labels(basis, [[0, 0, 1, 0], [0, 0, 1, 0], photons])
    in_g2 = occupation_labels(basis, [[0, 1, 0, 0], [0, 1, 0, 0], 0 * photons])
    return combine_labels(quanta, in_g2)


def perturbative_quadrature(pairs: np.ndarray, model) -> np.ndarray:
    """Radiated quadratures of the second-order effective model, shape (columns, times).

    Adiabatic elimination of the far-detuned intermediates leaves the 4 x 4
    ``model.h_eff`` on the resonant channel.  Each column of ``pairs``, a
    two-atom amplitude vector with the mode in vacuum, enters the channel
    undressed and evolves under it, through the readout's slab products.
    """
    w, v = np.linalg.eigh(model.h_eff)
    coeff = v.conj().T @ (model.p_matrix.conj().T @ model._vacuum(pairs))
    return rd._channel_quadratures(model.readout_times, w, coeff, v.T)
