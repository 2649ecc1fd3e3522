"""Tensor-product Hilbert spaces of multi-level atoms and truncated bosonic modes.

States are dense complex vectors over an ordered tensor product, atoms first
and then modes.  Every Hamiltonian in this package is piecewise constant, so
time evolution is exact through eigendecompositions computed once.  A
Hamiltonian that conserves an occupation label, as both Zeno protocols' and
the readout emission model's do, is assembled and evolved only on the label
sectors its start states reach, with no dense operator of the full basis;
the dense assembler is the tests' oracle.  The Zeno protocols inject,
project and remove photons on the atom-sector amplitudes of their cycle
map, so there are no state-level mode operations here.  hbar = 1
throughout; all frequencies are angular unless a module says otherwise.

All values are immutable after construction and every operation returns a
new value, so a library caller can share states, operators and evolvers
between threads; the command-line runs use one thread.
The one exception is :class:`OperatorMatrix`, the dense operator that the
tests use as an oracle: it solves its eigensystem on first use and keeps it
in ``_eig``.
"""

from typing import NamedTuple, Sequence, Union

import numpy as np

from .records import Record

HERMITIAN_TOL = 1e-12
ZERO_PROBABILITY = 1e-30


class BasisMismatchError(ValueError):
    """A state and an operator live on different product bases."""


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
    produced by chained ``numpy.kron``.
    """

    __slots__ = ("subsystems", "dims", "dimension")

    def __init__(self, subsystems: Sequence[SubsystemSpec]):
        subsystems = tuple(subsystems)
        if not subsystems:
            raise ValueError("a product basis needs at least one subsystem")
        for sub in subsystems:
            if not isinstance(sub, (Atom, Mode)):
                raise TypeError(f"not an Atom or Mode subsystem: {sub!r}")
        self.subsystems = subsystems
        self.dims = tuple(sub.dim for sub in subsystems)
        self.dimension = int(np.prod(self.dims))

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

    def occupations(self, index: int) -> tuple:
        """Local occupations of a flat basis index (inverse of :meth:`index`)."""
        return tuple(int(k) for k in np.unravel_index(index, self.dims))

    def atom_indices(self) -> tuple:
        return tuple(i for i, s in enumerate(self.subsystems) if isinstance(s, Atom))


def build_basis(specs: Sequence[SubsystemSpec]) -> ProductBasis:
    """Build a product basis, reordering subsystems atoms-first.

    Atoms come first, then modes, each group keeping its declaration order.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("cannot build a basis from an empty subsystem list")
    atoms = [s for s in specs if isinstance(s, Atom)]
    modes = [s for s in specs if isinstance(s, Mode)]
    if len(atoms) + len(modes) != len(specs):
        bad = next(s for s in specs if not isinstance(s, (Atom, Mode)))
        raise TypeError(f"not an Atom or Mode subsystem: {bad!r}")
    return ProductBasis(atoms + modes)


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

    def probability(self, occupations: Sequence[int]) -> float:
        return float(abs(self.amplitudes[self.basis.index(occupations)]) ** 2)

    def __repr__(self):
        return f"StateVector(dimension={self.basis.dimension}, norm={self.norm():.6f})"


def _bare_state(basis: ProductBasis, amps: np.ndarray) -> StateVector:
    # Internal constructor that trusts shape/dtype and skips the copy.
    state = object.__new__(StateVector)
    amps.flags.writeable = False
    state.basis = basis
    state.amplitudes = amps
    return state


class OperatorMatrix:
    """Dense operator tagged with the basis it acts on.

    The ``hermitian`` flag is verified at construction when set.  The
    eigendecomposition used by :func:`evolve` is computed lazily and
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


def _hamiltonian_entries(basis: ProductBasis, diagonal_weights, exchange_terms):
    """Diagonal energies and, per exchange term, its (rows, cols, values) entries.

    ``diagonal_weights`` is one weight vector per subsystem (summed over
    occupations); each exchange term (atom_axis, upper, lower, mode_axis,
    strength) adds strength*(|upper><lower| a + h.c.) with sqrt(k) ladder
    factors, or strength*(|upper><lower| + h.c.) when ``mode_axis`` is None.
    The entries lie on one side of the diagonal, to be added with their
    mirror images; index arithmetic keeps them O(nonzeros).
    """
    dims = basis.dims
    dim = basis.dimension
    multi = np.unravel_index(np.arange(dim), dims)
    strides = np.ones(len(dims), dtype=np.int64)
    for axis in range(len(dims) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    diagonal = np.zeros(dim)
    for weights, occ in zip(diagonal_weights, multi):
        diagonal += np.asarray(weights, dtype=float)[occ]
    entries = []
    for atom_axis, upper, lower, mode_axis, strength in exchange_terms:
        if mode_axis is None:
            ladder, shift = np.ones(dim), 0
        else:
            ladder, shift = np.sqrt(multi[mode_axis].astype(float)), strides[mode_axis]
        cols = np.flatnonzero((multi[atom_axis] == lower) & (ladder > 0.0))
        rows = cols + (upper - lower) * strides[atom_axis] - shift
        entries.append((rows, cols, strength * ladder[cols]))
    return diagonal, entries


class SectorHamiltonian(NamedTuple):
    """A Hermitian Hamiltonian stored as the conserved-label sector blocks a start reaches.

    ``diagonal`` holds the energy of every basis state (the Hamiltonian without
    its exchange terms); ``sectors`` pairs the basis indices of each reached
    label (ascending, labels ascending) with its Hermitian block.
    """

    basis: ProductBasis
    diagonal: np.ndarray
    sectors: tuple


def assemble_sectors(basis: ProductBasis, diagonal_weights, exchange_terms, labels,
                     start: np.ndarray) -> SectorHamiltonian:
    """The Hamiltonian of :func:`_hamiltonian_entries` on the label sectors ``start`` reaches.

    ``start`` is one amplitude vector or a (dimension, k) batch of them; the
    labels are conserved, so evolution from it stays in the sectors of the
    labels on its nonzero rows, and only those are assembled, each block
    the dense Hamiltonian on its sector bit for bit.  Raises ValueError when
    an exchange term couples different labels anywhere in the basis.
    """
    diagonal, entries = _hamiltonian_entries(basis, diagonal_weights, exchange_terms)
    labels = np.asarray(labels)
    if labels.shape != (basis.dimension,):
        raise ValueError("labels must assign one integer per basis state")
    # with counts, np.unique skips its numpy.ma check (an import of 10 ms, 0.5 MB)
    held = np.unique(labels[start.reshape(len(start), -1).any(axis=1)], return_counts=True)[0]
    sector = np.searchsorted(held, labels)  # read on the reached states only
    hit = np.searchsorted(held, labels, side="right") > sector
    sizes = np.bincount(sector[hit], minlength=len(held))
    order = np.flatnonzero(hit)[np.argsort(sector[hit], kind="stable")]
    first = np.cumsum(sizes) - sizes
    local = np.zeros(basis.dimension, dtype=np.int64)
    local[order] = np.arange(len(order)) - np.repeat(first, sizes)
    offsets = np.cumsum(sizes**2) - sizes**2

    def flat(rows, cols):
        # position of entry (rows, cols) in the concatenated row-major blocks
        return offsets[sector[rows]] + local[rows] * sizes[sector[rows]] + local[cols]

    blocks = np.zeros(int(np.sum(sizes**2)), dtype=complex)
    blocks[flat(order, order)] = diagonal[order]
    for rows, cols, values in entries:
        crossing = labels[rows] != labels[cols]
        if crossing.any():
            raise ValueError(f"an exchange term couples different label sectors "
                             f"(basis states {rows[crossing][0]} and {cols[crossing][0]})")
        keep = hit[rows]
        np.add.at(blocks, flat(rows[keep], cols[keep]), values[keep])
        np.add.at(blocks, flat(cols[keep], rows[keep]), values[keep])
    blocks.flags.writeable = False
    diagonal.flags.writeable = False
    sectors = tuple((idx, blocks[offset:offset + n * n].reshape(n, n))
                    for idx, offset, n in zip(np.split(order, first[1:]), offsets, sizes))
    return SectorHamiltonian(basis, diagonal, sectors)


def evolve(state: StateVector, hamiltonian: OperatorMatrix, duration: float) -> StateVector:
    """Exact propagation exp(-i H t)|state> via the cached eigensystem of H."""
    if hamiltonian.basis != state.basis:
        raise BasisMismatchError("state and Hamiltonian live on different bases")
    if not hamiltonian.hermitian:
        raise ValueError("evolution requires a Hamiltonian with the hermitian flag set")
    return _bare_state(state.basis,
                       _propagate(hamiltonian, state.amplitudes, float(duration)))


def _rowwise(factors: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """``factors`` times ``amps``, which is one array of their shape or a batch of columns."""
    return factors.reshape(factors.shape + (1,) * (amps.ndim - factors.ndim)) * amps


def _propagate(hamiltonian: OperatorMatrix, amps: np.ndarray, duration: float) -> np.ndarray:
    """Dense propagation of one amplitude vector or a (dimension, k) batch of them."""
    w, v = hamiltonian.eigensystem()
    return v @ _rowwise(np.exp(-1j * duration * w), v.conj().T @ amps)


def _propagate_diagonal(energies: np.ndarray, amps: np.ndarray,
                        duration: float) -> np.ndarray:
    """Exact propagation under a diagonal Hamiltonian given by its energies.

    ``amps`` has the shape of ``energies`` or is a batch of such columns
    along a trailing axis.
    """
    return _rowwise(np.exp(-1j * duration * energies), amps)


def occupation_labels(basis: ProductBasis, local_weights: Sequence[Sequence[int]]) -> np.ndarray:
    """Integer label per basis state: sum of per-subsystem level weights.

    With atom weights selecting excited levels and mode weights equal to the
    occupancy, the label is a conserved excitation number for every
    rotating-wave Hamiltonian in this package.
    """
    if len(local_weights) != len(basis.dims):
        raise ValueError("need one weight vector per subsystem")
    for w, d in zip(local_weights, basis.dims):
        if len(w) != d:
            raise ValueError("weight vector length must match subsystem dimension")
    multi = np.unravel_index(np.arange(basis.dimension), basis.dims)
    labels = np.zeros(basis.dimension, dtype=np.int64)
    for w, idx in zip(local_weights, multi):
        labels += np.asarray(w, dtype=np.int64)[idx]
    return labels


def combine_labels(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Pack two label arrays into one (for doubly conserved numbers)."""
    stride = int(second.max()) + 1
    return first * stride + second


class BlockEvolver:
    """Exact evolution exploiting a conserved occupation label.

    Eigendecomposes every block of a :class:`SectorHamiltonian` at
    construction, one stacked ``eigh`` per group of equal-size blocks; no
    operator of the full basis is formed, and no other code solves a block.
    It holds the sectors that :func:`assemble_sectors` built for a start.
    Each block gets the eigensystem and products that a block on its own
    would, bit for bit, which the tests assert with agreement to 1e-10 with
    the dense path.
    """

    def __init__(self, hamiltonian: SectorHamiltonian):
        self.basis = hamiltonian.basis
        by_size = {}
        for idx, block in hamiltonian.sectors:
            by_size.setdefault(len(idx), []).append((idx, block))
        self._groups = tuple((np.array([idx for idx, _ in members]),
                              *np.linalg.eigh(np.array([block for _, block in members])))
                             for members in by_size.values())

    def propagate(self, amplitudes: np.ndarray, duration: float) -> np.ndarray:
        """exp(-i H t) on one amplitude vector or a (dimension, k) batch of them.

        Each group of equal-size blocks costs one stacked product for all
        its blocks and columns.  Amplitudes outside the held sectors are
        dropped unchecked; :meth:`evolve` checks them.
        """
        out = np.zeros_like(amplitudes)
        for idx, w, v in self._groups:
            sub = amplitudes[idx][..., None] if amplitudes.ndim == 1 else amplitudes[idx]
            phase = np.exp(-1j * duration * w)[..., None]
            moved = v @ (phase * (v.conj().swapaxes(1, 2) @ sub))
            out[idx] = moved.reshape(idx.shape + amplitudes.shape[1:])
        return out

    def eigensystem(self, states: np.ndarray) -> tuple:
        """Eigenvalues and block-diagonal eigenvectors on ``states``, every held state once.

        Row i belongs to states[i]; each block's eigenpairs, ascending, take its states' places.
        """
        where = np.zeros(self.basis.dimension, dtype=np.int64)
        where[states] = np.arange(len(states))
        values, vectors = np.empty(len(states)), np.zeros((len(states),) * 2, dtype=complex)
        for idx, w, v in self._groups:
            values[where[idx]] = w
            vectors[where[idx][:, :, None], where[idx][:, None, :]] = v
        return values, vectors

    def evolve(self, state: StateVector, duration: float) -> StateVector:
        """:meth:`propagate` on a state; ValueError if it has weight outside the held sectors."""
        if state.basis != self.basis:
            raise BasisMismatchError("state lives on a different basis")
        held = sum(np.count_nonzero(state.amplitudes[idx]) for idx, _, _ in self._groups)
        if held != np.count_nonzero(state.amplitudes):
            raise ValueError("state has weight outside the sectors the evolver holds")
        return _bare_state(state.basis, self.propagate(state.amplitudes, float(duration)))
