"""Tensor-product Hilbert spaces of multi-level atoms and truncated bosonic modes.

Amplitudes are dense complex vectors over an ordered tensor product, atoms
first and then modes.  Every Hamiltonian in this package is piecewise
constant, so time evolution is exact through eigendecompositions computed
once.  Each exchange term moves one atom between one pair of levels, so
evolution from a start touches only the states that chains of its entries
link to it; a Hamiltonian is assembled and evolved on those alone, by
connected sector and in the coordinates of the held states, with no dense
operator, energy vector or state of the full basis (the dense assembler and
the full-basis states are the tests' oracles).  hbar = 1 throughout; all
frequencies are angular unless a module says otherwise.

All values are immutable after construction and every operation returns a
new value, so a library caller can share bases, operators and evolvers
between threads; the command-line runs use one thread.
The one exception is :class:`OperatorMatrix`, the dense operator that the
tests use as an oracle: it solves its eigensystem on first use and keeps it
in ``_eig``.
"""

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from .records import Record

HERMITIAN_TOL = 1e-12
ZERO_PROBABILITY = 1e-30


class Atom(Record):
    """An atom with a fixed number of internal levels (2, 3 or 4)."""

    __slots__ = ("levels",)

    def __init__(self, levels: int):
        if levels not in (2, 3, 4):
            raise ValueError(f"atom must have 2, 3 or 4 levels, got {levels}")
        self._set(locals())

    @property
    def dim(self) -> int:
        return self.levels


class Mode(Record):
    """A bosonic mode truncated at a highest representable occupancy."""

    __slots__ = ("cutoff",)

    def __init__(self, cutoff: int):
        if cutoff < 1:
            raise ValueError(f"mode cutoff must be >= 1, got {cutoff}")
        self._set(locals())

    @property
    def dim(self) -> int:
        return self.cutoff + 1


SubsystemSpec = Union[Atom, Mode]


class ProductBasis:
    """Ordered tensor product of subsystems.

    The basis index runs row-major over the local occupation numbers, i.e.
    the first subsystem is the most significant digit, matching the ordering
    produced by chained ``numpy.kron``; ``strides`` holds the index step of
    one occupation on each subsystem.
    """

    __slots__ = ("subsystems", "dims", "strides", "dimension")

    def __init__(self, subsystems: Sequence[SubsystemSpec]):
        subsystems = tuple(subsystems)
        if not subsystems:
            raise ValueError("a product basis needs at least one subsystem")
        for sub in subsystems:
            if not isinstance(sub, (Atom, Mode)):
                raise TypeError(f"not an Atom or Mode subsystem: {sub!r}")
        self.subsystems = subsystems
        self.dims = tuple(sub.dim for sub in subsystems)
        self.strides = tuple(math.prod(self.dims[axis + 1:]) for axis in range(len(self.dims)))
        self.dimension = math.prod(self.dims)

    def __eq__(self, other):
        return isinstance(other, ProductBasis) and self.subsystems == other.subsystems

    def __hash__(self):
        return hash(self.subsystems)

    def __repr__(self):
        inner = ", ".join(repr(sub) for sub in self.subsystems)
        return f"ProductBasis([{inner}], dimension={self.dimension})"

    def index(self, occupations: Sequence[int]) -> int:
        """Flat index of the product state with the given local occupations."""
        return int(np.ravel_multi_index(tuple(occupations), self.dims))


def build_basis(specs: Sequence[SubsystemSpec]) -> ProductBasis:
    """Build a product basis, reordering subsystems atoms-first.

    Atoms come first, then modes, each group keeping its declaration order.
    """
    return ProductBasis(sorted(specs, key=lambda sub: isinstance(sub, Mode)))


class OperatorMatrix:
    """Dense operator tagged with the basis it acts on.

    The ``hermitian`` flag is verified at construction when set.  The
    eigendecomposition used by :func:`_propagate` is computed lazily and
    cached, which makes repeated evolution under the same piecewise-constant
    Hamiltonian cheap.
    """

    __slots__ = ("basis", "matrix", "hermitian", "_eig")

    def __init__(self, basis: ProductBasis, matrix, hermitian: bool = False):
        m = np.array(matrix, dtype=complex)
        d = basis.dimension
        if m.shape != (d, d):
            raise ValueError(f"operator has shape {m.shape}, expected ({d}, {d})")
        if hermitian:
            defect = np.max(np.abs(m - m.conj().T))
            if defect >= HERMITIAN_TOL:
                raise ValueError(f"hermitian flag set but max|M - M^dag| = {defect:.3e}")
        m.flags.writeable = False
        self.basis = basis
        self.matrix = m
        self.hermitian = bool(hermitian)
        self._eig = None

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors) of a Hermitian operator."""
        if not self.hermitian:
            raise ValueError("eigensystem is only provided for Hermitian operators")
        if self._eig is None:
            w, v = np.linalg.eigh(self.matrix)
            self._eig = (w, v)
        return self._eig

    def __repr__(self):
        return (f"OperatorMatrix(dimension={self.basis.dimension}, "
                f"hermitian={self.hermitian})")


def _diagonal(basis: ProductBasis, diagonal_weights, states: np.ndarray) -> np.ndarray:
    """Energy of each of ``states``: one weight vector per subsystem, summed over occupations."""
    diagonal = np.zeros(len(states))
    for weights, occ in zip(diagonal_weights, np.unravel_index(states, basis.dims)):
        diagonal += np.asarray(weights, dtype=float)[occ]
    return diagonal


def _largest_energy(diagonal_weights) -> float:
    """max |:func:`_diagonal`| over the whole basis, bit for bit, from the weights alone.

    Rounding is monotone, so the largest and smallest sums are the sums, in
    subsystem order, of each subsystem's largest and smallest weights.
    """
    high = low = 0.0
    for weights in diagonal_weights:
        high, low = high + np.max(weights), low + np.min(weights)
    return float(max(abs(high), abs(low)))


def _exchange_entries(basis: ProductBasis, exchange_terms, states: np.ndarray) -> tuple:
    """The (rows, cols, values) entries of the exchange terms whose column is in ``states``.

    Each term (atom_axis, upper, lower, mode_axis, strength) adds
    strength*(|upper><lower| a + h.c.) with sqrt(k) ladder factors, or
    strength*(|upper><lower| + h.c.) when ``mode_axis`` is None.  The entries
    lie on one side of the diagonal, to be added with their mirror images;
    one exists wherever its ladder factor is nonzero, whatever the strength.
    """
    occupations = np.unravel_index(states, basis.dims)
    rows, cols, values = [states[:0]], [states[:0]], [np.zeros(0)]
    for atom_axis, upper, lower, mode_axis, strength in exchange_terms:
        ladder, shift = np.ones(len(states)), 0
        if mode_axis is not None:
            ladder, shift = np.sqrt(occupations[mode_axis]), basis.strides[mode_axis]
        keep = (occupations[atom_axis] == lower) & (ladder > 0.0)
        cols.append(states[keep])
        rows.append(cols[-1] + (upper - lower) * basis.strides[atom_axis] - shift)
        values.append(strength * ladder[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _reach(basis: ProductBasis, exchange_terms, states: np.ndarray) -> np.ndarray:
    """The basis states that chains of exchange entries link to ``states``, ascending."""
    held = np.zeros(basis.dimension, dtype=bool)
    held[states] = True
    while states.size:  # the states reached last
        occupations = np.unravel_index(states, basis.dims)
        linked = [states[:0]]
        for atom_axis, upper, lower, mode_axis, _ in exchange_terms:
            step, absorbs, emits = (upper - lower) * basis.strides[atom_axis], True, True
            if mode_axis is not None:  # a photon to absorb, room for one to emit
                step -= basis.strides[mode_axis]
                absorbs = occupations[mode_axis] > 0
                emits = occupations[mode_axis] < basis.dims[mode_axis] - 1
            linked += [states[(occupations[atom_axis] == lower) & absorbs] + step,
                       states[(occupations[atom_axis] == upper) & emits] - step]
        states = np.concatenate(linked)
        states = states[~held[states]]
        held[states] = True
    return np.flatnonzero(held)


def _components(count: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per position, the smallest position that chains of (rows, cols) links reach."""
    root = np.arange(count)
    while np.any(root[rows] != root[cols]):
        low = np.minimum(root[rows], root[cols])
        np.minimum.at(root, rows, low)
        np.minimum.at(root, cols, low)
        root = root[root]
    return root


class SectorHamiltonian(NamedTuple):
    """A Hermitian Hamiltonian stored as the sector blocks a start reaches.

    ``diagonal_weights`` gives the energy of every basis state (the
    Hamiltonian without its exchange terms), as in :func:`_diagonal`;
    ``sectors`` pairs the basis indices of each reached sector (ascending,
    sectors in the order of their smallest states) with its Hermitian block.
    """

    basis: ProductBasis
    diagonal_weights: tuple
    sectors: tuple


def assemble_sectors(basis: ProductBasis, diagonal_weights, exchange_terms,
                     start) -> SectorHamiltonian:
    """The Hamiltonian of :func:`_exchange_entries` on the sectors ``start`` reaches.

    ``start`` holds basis indices.  Evolution from them stays in the states
    that chains of exchange entries link to them, and only those are
    assembled: the sectors are the connected components of their entries,
    and each block is the dense Hamiltonian on its sector bit for bit.
    """
    states = _reach(basis, exchange_terms, np.asarray(start, dtype=np.intp))
    rows, cols, values = _exchange_entries(basis, exchange_terms, states)
    rows, cols = np.searchsorted(states, rows), np.searchsorted(states, cols)
    root = _components(len(states), rows, cols)
    sector = np.cumsum(root == np.arange(len(states)))[root] - 1
    sizes = np.bincount(sector)
    order = np.argsort(sector, kind="stable")
    first = np.cumsum(sizes) - sizes
    local = np.empty(len(states), dtype=np.int64)
    local[order] = np.arange(len(states)) - np.repeat(first, sizes)
    offsets = np.cumsum(sizes**2) - sizes**2

    def flat(rows, cols):
        # position of entry (rows, cols) in the concatenated row-major blocks
        return offsets[sector[rows]] + local[rows] * sizes[sector[rows]] + local[cols]

    blocks = np.zeros(int(np.sum(sizes**2)), dtype=complex)
    blocks[flat(order, order)] = _diagonal(basis, diagonal_weights, states[order])
    np.add.at(blocks, flat(rows, cols), values)
    np.add.at(blocks, flat(cols, rows), values)
    blocks.flags.writeable = False
    sectors = tuple((states[idx], blocks[offset:offset + n * n].reshape(n, n))
                    for idx, offset, n in zip(np.split(order, first[1:]), offsets, sizes))
    return SectorHamiltonian(basis, tuple(diagonal_weights), sectors)


# perfbench/tracer.py wraps this name; the tests' dense evolution calls it
def _propagate(hamiltonian: OperatorMatrix, amps: np.ndarray, duration: float) -> np.ndarray:
    """Dense propagation of one amplitude vector or a (dimension, k) batch of them."""
    w, v = hamiltonian.eigensystem()
    phases = np.exp(-1j * duration * w)
    return v @ (phases.reshape(phases.shape + (1,) * (amps.ndim - 1)) * (v.conj().T @ amps))


def _propagate_diagonal(energies: np.ndarray, amps: np.ndarray,
                        duration: float) -> np.ndarray:
    """Exact propagation of ``amps`` under the diagonal Hamiltonian of ``energies``, same shape."""
    return np.exp(-1j * duration * energies) * amps


class BlockEvolver:
    """Exact evolution sector by sector, on the states the sectors hold.

    Eigendecomposes every block of a :class:`SectorHamiltonian` at
    construction, one stacked ``eigh`` per group of equal-size blocks; no
    operator of the full basis is formed, and no other code solves a block.
    ``states`` lists the held basis states, the sectors' in sector order, and
    :meth:`propagate` and :meth:`eigensystem` work on positions in it.  Each
    block gets the eigensystem and products that a block on its own would,
    bit for bit, which the tests assert with agreement to 1e-10 with the
    dense path.
    """

    def __init__(self, hamiltonian: SectorHamiltonian):
        self.basis = hamiltonian.basis
        self.states = np.concatenate([np.zeros(0, dtype=np.intp)]
                                     + [idx for idx, _ in hamiltonian.sectors])
        by_size, start = {}, 0
        for idx, block in hamiltonian.sectors:
            by_size.setdefault(len(idx), []).append((np.arange(start, start + len(idx)), block))
            start += len(idx)
        self._groups = tuple((np.array([span for span, _ in members]),
                              *np.linalg.eigh(np.array([block for _, block in members])))
                             for members in by_size.values())

    def propagate(self, amplitudes: np.ndarray, duration: float) -> np.ndarray:
        """exp(-i H t) on a (held states, k) batch of amplitude columns, row i on states[i].

        Each group of equal-size blocks costs one stacked product for all
        its blocks and columns.
        """
        out = np.empty_like(amplitudes)
        for span, w, v in self._groups:
            phase = np.exp(-1j * duration * w)[..., None]
            out[span] = v @ (phase * (v.conj().swapaxes(1, 2) @ amplitudes[span]))
        return out

    def eigensystem(self) -> tuple:
        """Eigenvalues and block-diagonal eigenvectors on ``states``.

        Row i belongs to states[i]; each block's eigenpairs, ascending, take its states' places.
        """
        values = np.empty(len(self.states))
        vectors = np.zeros((len(self.states),) * 2, dtype=complex)
        for span, w, v in self._groups:
            values[span] = w
            vectors[span[:, :, None], span[:, None, :]] = v
        return values, vectors
