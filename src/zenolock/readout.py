"""Clock readout: turning the locked relative phase into an emitted field.

After a Zeno-locked run the four-level pair sits in an equal superposition
of its two subradiant manifolds whose relative phase advances at the clock
frequency (mean transition-sum difference of the two manifolds).  The chain
implemented here converts that phase into something measurable:

1. free precession for the elapsed time t_f,
2. sign flips on atom B turning both subradiant pairs superradiant,
3. a ground-level beam-splitter mixing |G1> and |G2> on both atoms,
4. post-selection on neither atom being in |G2>,
5. a detuned classical drive on |E2> <-> |G1> that lets the pair emit one
   photon into a quantized mode in a Raman transition, with the initial
   field phase equal to the accumulated clock phase.

The emitted quadrature is computed either by full evolution of the driven
two-atom-plus-mode system, on the conserved sectors that the radiating
channel spans, or by a second-order effective model obtained by adiabatic
elimination of the far-detuned intermediates (the fast path, with the full
evolution as its oracle).
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hilbert as h
from .hilbert import Atom, Mode, StateVector
from .zeno_multilevel import E1, E2, G1, G2, FourLevelEnergies

TWO_PI = 2.0 * math.pi


class ZeroProbabilityError(ValueError):
    """Post-selection on an outcome that never occurs."""


class DegenerateFitError(ValueError):
    """Phase fit requested on a numerically zero trace."""


class ResonanceError(ValueError):
    """The emission mode could not be tuned onto the light-shifted resonance."""


class CutoffOverflowError(RuntimeError):
    """Emission-mode population reached the truncation boundary."""


@dataclass(frozen=True)
class ReadoutConfig:
    """Parameters of the readout chain and the field-emission model."""

    atom_a: FourLevelEnergies
    atom_b: FourLevelEnergies
    detuning: float                # drive offset from the |E2><->|G1| transition
    drive_amplitude: float         # classical coupling-laser strength
    coupling: float                # quantized-mode coupling on |E1><->|G1|
    emission_mode_cutoff: int = 2
    readout_times: tuple = ()
    fit_periods: float = 32.0

    def __post_init__(self):
        if self.detuning == 0.0:
            raise ValueError("the drive detuning must be nonzero")
        if self.emission_mode_cutoff < 1:
            raise ValueError("emission_mode_cutoff must be >= 1")
        if self.fit_periods <= 0.0:
            raise ValueError("fit_periods must be positive")
        grid = np.asarray(self.readout_times, dtype=float)
        if np.any(grid[1:] <= grid[:-1]):
            raise ValueError("readout_times must be strictly increasing")
        object.__setattr__(self, "readout_times", tuple(grid.tolist()))

    def mean_level(self, name: str) -> float:
        return 0.5 * (getattr(self.atom_a, name) + getattr(self.atom_b, name))

    @property
    def clock_frequency(self) -> float:
        """Relative precession rate of the two locked manifolds."""
        return (self.mean_level("e1") + self.mean_level("g1")
                - self.mean_level("e2") - self.mean_level("g2"))

    @property
    def emission_frequency(self) -> float:
        """Raman-resonant frequency of the emitted photon.

        One quantum leaves on the |E1> -> |G1> leg while the drive supplies
        the |G1> -> |E2> leg, so the photon carries the clock frequency plus
        the drive frequency.
        """
        return self.mean_level("e1") - self.mean_level("g1") - self.detuning


def readout_config(detuning: float = 10.0, drive_amplitude: float = 1.0,
                   coupling: float = 2.0, transition_1: float = 120.0,
                   transition_2: float = 110.0, time_max: float = 5.0,
                   time_points: int = 4001, emission_cutoff: int = 2,
                   fit_periods: float = 32.0) -> ReadoutConfig:
    """Readout config with identical atoms and both ground levels at zero."""
    atom = FourLevelEnergies(g1=0.0, g2=0.0, e1=transition_1, e2=transition_2)
    return ReadoutConfig(atom_a=atom, atom_b=atom, detuning=detuning,
                         drive_amplitude=drive_amplitude, coupling=coupling,
                         emission_mode_cutoff=emission_cutoff,
                         readout_times=np.linspace(0.0, time_max, time_points),
                         fit_periods=fit_periods)


@functools.cache
def pair_basis() -> h.ProductBasis:
    """The bare two-atom basis, built once."""
    return h.build_basis([Atom(4), Atom(4)])


def emission_basis(config: ReadoutConfig) -> h.ProductBasis:
    """Two atoms and the emission mode, built once per mode cutoff."""
    return _emission_basis(config.emission_mode_cutoff)


@functools.cache
def _emission_basis(cutoff: int) -> h.ProductBasis:
    return h.build_basis([Atom(4), Atom(4), Mode(cutoff)])


# Beam splitter on the ground levels of one atom: |G1> -> (|G1> + |G2>)/sqrt(2),
# |G2> -> (|G2> - |G1>)/sqrt(2), excited levels untouched.
_MIXER = np.eye(4)
_MIXER[G1, G1] = _MIXER[G2, G1] = _MIXER[G2, G2] = 1.0 / math.sqrt(2.0)
_MIXER[G1, G2] = -1.0 / math.sqrt(2.0)
_MIXER.flags.writeable = False


def _grid(state: StateVector) -> np.ndarray:
    """Pair amplitudes as a (level of A, level of B) grid, a copy."""
    if state.basis != pair_basis():
        raise h.BasisMismatchError("the readout chain acts on the bare two-atom basis")
    return state.amplitudes.reshape(4, 4).copy()


def locked_pair_state() -> StateVector:
    """Equal superposition of the two subradiant manifolds (modes removed)."""
    grid = np.zeros((4, 4), dtype=complex)
    grid[E1, G1] = grid[E2, G2] = 0.5
    grid[G1, E1] = grid[G2, E2] = -0.5
    return StateVector(pair_basis(), grid.ravel())


def accumulate_clock_phase(state: StateVector, elapsed_time: float,
                           config: ReadoutConfig) -> StateVector:
    """Free precession under the averaged level energies.

    The global phase is normalized so the first-manifold term is real and
    positive, leaving exp(i * clock_frequency * t_f) on the second manifold.
    """
    levels = [config.mean_level(name) for name in ("g1", "g2", "e1", "e2")]
    grid = h._propagate_diagonal(np.add.outer(levels, levels), _grid(state),
                                 float(elapsed_time))
    anchor = grid[E1, G1]
    if abs(anchor) < 1e-12:
        anchor = grid.flat[int(np.argmax(np.abs(grid)))]
    return StateVector(pair_basis(), (grid * (anchor / abs(anchor)).conjugate()).ravel())


def flip_sign_atom_b(state: StateVector, level: int) -> StateVector:
    """Diagonal gate: -1 on the given level of atom B, +1 elsewhere.

    Applying it for both excited levels converts the subradiant superposition
    into the superradiant one.
    """
    if not 0 <= level < 4:
        raise ValueError(f"level {level} out of range")
    grid = _grid(state)
    grid[:, level] *= -1.0
    return StateVector(pair_basis(), grid.ravel())


def mix_ground_levels(state: StateVector) -> StateVector:
    """The ground-level beam splitter on both atoms."""
    return StateVector(pair_basis(), (_MIXER @ _grid(state) @ _MIXER.T).ravel())


def postselect_not_g2(state: StateVector):
    """Project out any component with either atom in |G2> and renormalize.

    Returns (state, probability).
    """
    grid = _grid(state)
    grid[G2, :] = 0.0
    grid[:, G2] = 0.0
    probability = float(np.sum(np.abs(grid) ** 2))
    if probability <= h.ZERO_PROBABILITY:
        raise ZeroProbabilityError("no amplitude survives the post-selection")
    return StateVector(pair_basis(), grid.ravel() / math.sqrt(probability)), probability


def readout_chain(config: ReadoutConfig, elapsed_time: float):
    """Locked pair -> precession -> sign flips -> mixer -> post-selection.

    Every step acts on the 4x4 grid of pair amplitudes.  Returns (state,
    postselect_probability) with the state ready for the emission stage.
    """
    state = accumulate_clock_phase(locked_pair_state(), elapsed_time, config)
    state = flip_sign_atom_b(state, E1)
    state = flip_sign_atom_b(state, E2)
    state = mix_ground_levels(state)
    return postselect_not_g2(state)


def _rotating_frame_terms(config: ReadoutConfig, mode_frequency: float):
    """Basis, diagonal weights and exchange terms of the emission Hamiltonian.

    The two atoms plus the mode in the drive rotating frame, which shifts |E2>
    down to mean(g1) + detuning and makes both couplings static; the
    quadrature of the unrotated mode is unchanged by it.
    """
    levels = [config.mean_level("g1"), config.mean_level("g2"), config.mean_level("e1"),
              config.mean_level("g1") + config.detuning]
    photons = mode_frequency * (np.arange(config.emission_mode_cutoff + 1) + 0.5)
    coupling, drive = 0.5 * config.coupling, 0.5 * config.drive_amplitude
    exchange = [term for atom in (0, 1)
                for term in ((atom, E1, G1, 2, coupling), (atom, E2, G1, None, drive))]
    return emission_basis(config), [levels, levels, photons], exchange


def _rotating_frame_hamiltonian(config: ReadoutConfig,
                                mode_frequency: float) -> h.SectorHamiltonian:
    """The emission Hamiltonian by sector of its two conserved numbers.

    The mode trades an |E1> atom for a photon and the drive moves
    |G1> <-> |E2>, so L (photons plus atoms in |E1>) and the number of atoms
    in |G2> are conserved.  A pair state with the mode in vacuum has L <= 2.
    """
    basis, photons = emission_basis(config), np.arange(config.emission_mode_cutoff + 1)
    quanta = h.occupation_labels(basis, [[0, 0, 1, 0], [0, 0, 1, 0], photons])
    in_g2 = h.occupation_labels(basis, [[0, 1, 0, 0], [0, 1, 0, 0], 0 * photons])
    return h.assemble_sectors(*_rotating_frame_terms(config, mode_frequency),
                              h.combine_labels(quanta, in_g2))


@dataclass(frozen=True)
class FieldTrace:
    """Quadrature of the emission mode on the readout time grid."""

    times: np.ndarray
    quadrature: np.ndarray
    fitted_phase: Optional[float]
    fitted_frequency: float

    def __post_init__(self):
        if self.fitted_phase is not None:
            if not (-math.pi < self.fitted_phase <= math.pi + 1e-15):
                raise ValueError("fitted phase must lie in (-pi, pi]")
        self.times.flags.writeable = False
        self.quadrature.flags.writeable = False


def extract_phase(times, values, known_frequency: float,
                  fit_periods: float = 8.0) -> float:
    """Phase of amp*sin(w t + phase) by least squares at a known frequency.

    Only the early-time window (the first ``fit_periods`` oscillation
    periods) enters the fit, before envelope growth distorts it.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if known_frequency <= 0.0:
        raise ValueError("known_frequency must be positive")
    window = times <= fit_periods * TWO_PI / known_frequency + 1e-15
    if np.count_nonzero(window) < 4:
        raise DegenerateFitError("fit window holds fewer than four samples")
    t = times[window]
    v = values[window]
    design = np.column_stack([np.cos(known_frequency * t), np.sin(known_frequency * t)])
    (c_cos, c_sin), *_ = np.linalg.lstsq(design, v, rcond=None)
    amplitude = math.hypot(c_cos, c_sin)
    if amplitude < 1e-12:
        raise DegenerateFitError("trace is numerically zero; no phase to extract")
    phase = math.atan2(c_cos, c_sin)
    if phase <= -math.pi:
        phase = math.pi
    return phase


def _resonant_subspace(config: ReadoutConfig) -> np.ndarray:
    """Orthonormal basis (as columns) of the resonant radiating channel.

    Symmetric pair states with zero or one emitted photon.  The quadrature
    evaluated on this subspace is the radiated component; the bare
    intracavity quadrature additionally carries a constant-amplitude
    interference term from the virtual cloud dressing the driven atoms,
    which never propagates and which the emission picture excludes.
    """
    basis = emission_basis(config)

    def sym(upper, lower, photons):
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index([upper, lower, photons])] = 1.0 / math.sqrt(2.0)
        amps[basis.index([lower, upper, photons])] = 1.0 / math.sqrt(2.0)
        return amps

    # disjoint supports, so the columns are orthonormal as they stand
    return np.column_stack([sym(E1, G1, 0), sym(E2, G1, 1), sym(E2, G1, 0), sym(E1, G1, 1)])


# P^dag a P on the channel columns: a takes |E1 G1> with one photon (column 3)
# to |E1 G1> (column 0), and |E2 G1> with one photon (column 1) to column 2.
_CHANNEL_ANNIHILATION = np.zeros((4, 4))
_CHANNEL_ANNIHILATION[0, 3] = _CHANNEL_ANNIHILATION[2, 1] = 1.0
_CHANNEL_ANNIHILATION.flags.writeable = False
OVERFLOW_THRESHOLD = 1e-3  # largest weight that may reach two photons
# Channel amplitudes (times x states x 4) that one phase-table product forms at
# most, 4 MB; the 16-phase sweep at 4001 samples just fits into one product.
_BLOCK_AMPLITUDES = 1 << 18


class _EmissionModel:
    """Shared machinery of the emission stage at a fixed mode frequency.

    Works on ``states``, the basis states of the conserved sectors that the
    resonant channel spans (21 of 48 at the default cutoff); no other state
    couples to them.  Holds the rotating-frame Hamiltonian and its per-sector
    eigensystem on them, the resonant-channel basis, the second-order
    effective Hamiltonian, and the first-order dressing map used to start the
    evolution in the adiabatically prepared state (drive ramp fast compared
    with the Raman transfer, slow compared with the detuning).
    """

    def __init__(self, config: ReadoutConfig, mode_frequency: float):
        self.config = config
        self.mode_frequency = mode_frequency
        self._phase_table = None
        subspace = _resonant_subspace(config)
        sectors = [(idx, block) for idx, block in
                   _rotating_frame_hamiltonian(config, mode_frequency).sectors
                   if subspace[idx].any()]
        self.states = np.concatenate([idx for idx, _ in sectors])
        self.p_matrix = subspace[self.states]
        atom_a, atom_b, photons = np.unravel_index(self.states, emission_basis(config).dims)
        self.two_quanta = photons + (atom_a == E1) + (atom_b == E1) >= 2  # L >= 2
        size = len(self.states)
        self.hamiltonian = matrix = np.zeros((size, size), dtype=complex)
        self.eigenvalues = np.empty(size)
        self.eigenvectors = np.zeros((size, size), dtype=complex)
        start = 0
        for idx, block in sectors:
            span = slice(start, start + len(idx))
            matrix[span, span] = block
            self.eigenvalues[span], self.eigenvectors[span, span] = np.linalg.eigh(block)
            start = span.stop
        bare_energies = matrix.diagonal().real
        couplings = (matrix - np.diag(bare_energies.astype(complex))) @ self.p_matrix
        couplings -= self.p_matrix @ (self.p_matrix.conj().T @ couplings)
        channel = self.p_matrix.conj().T @ (matrix @ self.p_matrix)
        channel_energies = channel.diagonal().real
        denominators = channel_energies[None, :] - bare_energies[:, None]
        significant = np.abs(couplings) > 1e-13
        if significant.any() and np.min(np.abs(denominators[significant])) < 1e-6:
            raise ValueError("adiabatic elimination hit a resonant intermediate")
        self.dressing = np.zeros_like(couplings)
        np.divide(couplings, denominators, out=self.dressing, where=significant)
        # second order: P^dag H P + (Xi^dag C + C^dag Xi) / 2 with Xi the dressing
        # and C the couplings out of the channel
        second_order = self.dressing.conj().T @ couplings
        self.h_eff = channel + 0.5 * (second_order + second_order.conj().T)

    @property
    def readout_times(self) -> tuple:
        """Readout grid of the configuration the model was built for."""
        return self.config.readout_times

    def resonance_mismatch(self) -> float:
        """Effective-energy gap between the transfer endpoints."""
        return float((self.h_eff[1, 1] - self.h_eff[0, 0]).real)

    def beat_frequency(self) -> float:
        """Light-shift-corrected oscillation frequency of the quadrature."""
        return float((self.h_eff[1, 1] - self.h_eff[2, 2]).real)

    def effective_coupling(self) -> float:
        return float(abs(self.h_eff[0, 1]))

    def phase_table(self) -> np.ndarray:
        """Read-only exp(-i w t), shape (times, eigenvalues), built once.

        t runs over the readout grid and w over the model's eigenvalues;
        neither depends on the state, so every trace shares it.
        """
        if self._phase_table is None:
            table = np.exp(-1j * np.outer(np.asarray(self.readout_times), self.eigenvalues))
            table.flags.writeable = False
            self._phase_table = table
        return self._phase_table

    def _vacuum(self, pairs: np.ndarray) -> np.ndarray:
        """Two-atom amplitude columns with the emission mode in vacuum, on the whole basis."""
        mode_dim = self.config.emission_mode_cutoff + 1
        amps = np.zeros((len(pairs), mode_dim, pairs.shape[1]), dtype=complex)
        amps[:, 0] = pairs
        return amps.reshape(-1, pairs.shape[1])

    def embed(self, pairs: np.ndarray) -> np.ndarray:
        """The adiabatically dressed starts on ``states``, each normalized on the whole basis.

        ``pairs`` holds one two-atom amplitude vector per column.
        """
        amps = self._vacuum(pairs)
        start = amps[self.states]
        amps[self.states] = start + self.dressing @ (self.p_matrix.conj().T @ start)
        return amps[self.states] / np.linalg.norm(amps, axis=0)


def emission_model(config: ReadoutConfig) -> _EmissionModel:
    """Emission model with the mode tuned onto the light-shifted resonance.

    Detuning the mode by the differential light shift of the transfer
    endpoints would slow and phase-slip the transfer.  Their mismatch grows
    with the mode frequency at slope 1 plus the light shifts' slope: one step
    at slope 1, then secant steps, reach rounding level (four ulps of the
    endpoint energies) within five builds.  Raises :class:`ResonanceError`
    when they stop short of it with the mismatch above 1e-3 of the effective
    coupling, where the transfer would be detuned.
    """
    def resolved(model, mismatch):
        return abs(mismatch) <= 4.0 * np.spacing(np.max(np.abs(model.h_eff.diagonal()[:2].real)))

    frequency = config.emission_frequency
    model = _EmissionModel(config, frequency)
    mismatch, slope = model.resonance_mismatch(), 1.0
    for _ in range(4):
        if resolved(model, mismatch):
            break
        step = -mismatch / slope
        frequency += step
        model = _EmissionModel(config, frequency)
        previous, mismatch = mismatch, model.resonance_mismatch()
        if mismatch == previous:
            break
        slope = (mismatch - previous) / step
    if not resolved(model, mismatch) and abs(mismatch) > 1e-3 * model.effective_coupling():
        raise ResonanceError(
            f"the emission mode stays {mismatch:.3g} off the Raman resonance, against an "
            f"effective coupling of {model.effective_coupling():.3g}")
    return model


def _channel_quadratures(table: np.ndarray, coeff: np.ndarray,
                         readout: np.ndarray) -> np.ndarray:
    """Radiated quadrature 2 Re <a> of every column of ``coeff``, shape (columns, times).

    Column j evolves to the channel amplitudes
    m[t] = sum_i table[t, i] coeff[i, j] readout[i, :], so one product of
    ``table`` with the columns coeff[:, j] (x) readout gives every column's,
    in blocks of columns that keep m within ``_BLOCK_AMPLITUDES`` entries.
    P^dag a P has two nonzero entries, both 1, so <a> sums conj(m[row]) m[col]
    over them: conj(m0) m3 + conj(m2) m1.
    """
    size, count = coeff.shape
    block = max(1, _BLOCK_AMPLITUDES // (4 * len(table)))
    rows, cols = np.nonzero(_CHANNEL_ANNIHILATION)
    quadratures = np.empty((count, len(table)))
    for start in range(0, count, block):
        part = coeff[:, start:start + block]
        columns = (part[:, :, None] * readout[:, None, :]).reshape(size, -1)
        m = (table @ columns).reshape(len(table), part.shape[1], 4)
        mean_a = sum(m[..., row].conj() * m[..., col] for row, col in zip(rows, cols))
        quadratures[start:start + block] = 2.0 * mean_a.real.T
    return quadratures


def _full_quadrature(pairs: np.ndarray, model: _EmissionModel):
    """Quadratures from exact evolution under the rotating-frame Hamiltonian.

    ``pairs`` holds one two-atom amplitude vector per column.  The radiated
    quadrature needs the evolved state only on the 4-column resonant channel
    P: <a> = c^dag (P^dag a P) c with c = psi P-bar.  L is conserved and two
    photons need L >= 2, so a start state's L = 2 weight bounds its
    population above one photon at every time.  Returns the quadratures,
    shape (columns, times), and those weights.
    """
    amps = model.embed(pairs)
    v = model.eigenvectors
    # the state at time t is (phase_table[t] * (v^dag amps)) @ v.T
    quadratures = _channel_quadratures(model.phase_table(), v.conj().T @ amps,
                                       v.T @ model.p_matrix.conj())
    return quadratures, np.sum(np.abs(amps[model.two_quanta]) ** 2, axis=0)


def _perturbative_quadrature(pairs: np.ndarray, model: _EmissionModel):
    """Adiabatic-elimination fast path, full driven evolution as its oracle."""
    w, v = np.linalg.eigh(model.h_eff)
    coeff = v.conj().T @ (model.p_matrix.conj().T @ model._vacuum(pairs)[model.states])
    table = np.exp(-1j * np.outer(model.readout_times, w))
    return _channel_quadratures(table, coeff, v.T), np.zeros(pairs.shape[1])


def emit_field_traces(states, model: _EmissionModel, method: str = "full",
                      fit: bool = True) -> list:
    """Quadrature of the emitted field over the readout grid, one trace per state.

    Each state is a post-selected two-atom state; the emission mode starts
    in vacuum.  ``model`` is the :func:`emission_model` of the readout
    configuration; it does not depend on the states, so the whole batch
    goes through one product with its phase table.  The reported
    quadrature is the radiated (Raman-transfer) component, on the resonant
    channel; the virtual cloud dressing the driven atoms is left out.  The
    full method raises :class:`CutoffOverflowError`, naming the largest,
    when a dressed start's weight that can reach two photons (its conserved
    L = 2 weight) exceeds ``OVERFLOW_THRESHOLD`` (the single-photon picture
    has then broken down).  A trace whose fit is degenerate has no fitted
    phase.
    """
    config = model.config
    if not config.readout_times:
        raise ValueError("config.readout_times is empty")
    basis = pair_basis()
    if any(state.basis != basis for state in states):
        raise h.BasisMismatchError("emission expects a bare two-atom state")
    pairs = np.array([state.amplitudes for state in states],
                     dtype=complex).reshape(-1, basis.dimension).T
    if method == "full":
        quadratures, above_one = _full_quadrature(pairs, model)
    elif method == "perturbative":
        quadratures, above_one = _perturbative_quadrature(pairs, model)
    else:
        raise ValueError(f"unknown method {method!r}")
    largest = max(above_one, default=0.0)
    if largest > OVERFLOW_THRESHOLD:
        raise CutoffOverflowError(
            f"weight that can reach two photons (L = 2) is {largest:.3e}")
    times = np.asarray(config.readout_times)
    frequency = model.beat_frequency()
    traces = []
    for quadrature in quadratures:
        phase = None
        if fit:
            try:
                phase = extract_phase(times, quadrature, frequency, config.fit_periods)
            except DegenerateFitError:
                pass
        traces.append(FieldTrace(times=times, quadrature=quadrature, fitted_phase=phase,
                                 fitted_frequency=frequency))
    return traces


def emit_field_trace(state: StateVector, config: _EmissionModel,
                     method: str = "full", fit: bool = True) -> FieldTrace:
    """:func:`emit_field_traces` of the one state ``state``."""
    # The model keeps the argument name ``config``: perfbench/tracer.py binds
    # this argument by name and reads its ``readout_times``.
    return emit_field_traces([state], config, method=method, fit=fit)[0]


def readout_phase(config: ReadoutConfig, elapsed_time: float,
                  method: str = "full") -> float:
    """Extracted field phase for a full chain run at the given elapsed time."""
    state, _ = readout_chain(config, elapsed_time)
    trace = emit_field_trace(state, emission_model(config), method=method)
    if trace.fitted_phase is None:
        raise DegenerateFitError("no oscillation to fit")
    return trace.fitted_phase
