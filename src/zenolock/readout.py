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
two-atom-plus-mode system or by a second-order effective model obtained by
adiabatic elimination of the far-detuned intermediates (the fast path, with
the full evolution as its oracle).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hilbert as h
from .hilbert import Atom, Mode, OperatorMatrix, StateVector
from .zeno_multilevel import E1, E2, G1, G2, FourLevelEnergies

TWO_PI = 2.0 * math.pi


class ZeroProbabilityError(ValueError):
    """Post-selection on an outcome that never occurs."""


class DegenerateFitError(ValueError):
    """Phase fit requested on a numerically zero trace."""


class CutoffOverflowError(RuntimeError):
    """Emission-mode population reached the truncation boundary."""


@dataclass(frozen=True)
class ReadoutConfig:
    """Parameters of the readout chain and the field-emission model."""

    atom_a: FourLevelEnergies
    atom_b: FourLevelEnergies
    elapsed_time: float            # default t_f for convenience runs
    detuning: float                # drive offset from the |E2><->|G1| transition
    drive_amplitude: float         # classical coupling-laser strength
    coupling: float                # quantized-mode coupling on |E1><->|G1|
    emission_mode_cutoff: int = 2
    readout_times: tuple = ()
    fit_periods: float = 32.0
    overflow_threshold: float = 1e-3

    def __post_init__(self):
        if self.detuning == 0.0:
            raise ValueError("the drive detuning must be nonzero")
        if self.emission_mode_cutoff < 1:
            raise ValueError("emission_mode_cutoff must be >= 1")
        if self.fit_periods <= 0.0:
            raise ValueError("fit_periods must be positive")
        grid = tuple(float(t) for t in self.readout_times)
        if grid and any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("readout_times must be strictly increasing")
        object.__setattr__(self, "readout_times", grid)

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


def readout_config(elapsed_time: float = 0.0, detuning: float = 10.0,
                   drive_amplitude: float = 1.0, coupling: float = 2.0,
                   transition_1: float = 120.0, transition_2: float = 110.0,
                   time_max: float = 5.0, time_points: int = 4001) -> ReadoutConfig:
    """Readout config with identical atoms and both ground levels at zero."""
    atom = FourLevelEnergies(g1=0.0, g2=0.0, e1=transition_1, e2=transition_2)
    grid = tuple(np.linspace(0.0, time_max, time_points))
    return ReadoutConfig(atom_a=atom, atom_b=atom, elapsed_time=elapsed_time,
                         detuning=detuning, drive_amplitude=drive_amplitude,
                         coupling=coupling, readout_times=grid)


def pair_basis() -> h.ProductBasis:
    return h.build_basis([Atom(4), Atom(4)])


def emission_basis(config: ReadoutConfig) -> h.ProductBasis:
    return h.build_basis([Atom(4), Atom(4), Mode(config.emission_mode_cutoff)])


def _pair_amplitudes(pairs_with_weights) -> np.ndarray:
    basis = pair_basis()
    amps = np.zeros(basis.dimension, dtype=complex)
    for (a, b), weight in pairs_with_weights:
        amps[basis.index([a, b])] += weight
    return amps


def locked_pair_state() -> StateVector:
    """Equal superposition of the two subradiant manifolds (modes removed)."""
    w = 0.5
    amps = _pair_amplitudes([((E1, G1), w), ((G1, E1), -w),
                             ((E2, G2), w), ((G2, E2), -w)])
    return StateVector(pair_basis(), amps)


def _averaged_level_hamiltonian(config: ReadoutConfig) -> OperatorMatrix:
    weights = [config.mean_level(name) for name in ("g1", "g2", "e1", "e2")]
    return h.assemble_hamiltonian(pair_basis(), [weights, weights], [])


def accumulate_clock_phase(state: StateVector, elapsed_time: float,
                           config: ReadoutConfig) -> StateVector:
    """Free precession under the averaged level energies.

    The global phase is normalized so the first-manifold term is real and
    positive, leaving exp(i * clock_frequency * t_f) on the second manifold.
    """
    ham = _averaged_level_hamiltonian(config)
    evolved = h.evolve(state, ham, elapsed_time)
    basis = evolved.basis
    anchor = evolved.amplitudes[basis.index([E1, G1])]
    if abs(anchor) < 1e-12:
        anchor = evolved.amplitudes[int(np.argmax(np.abs(evolved.amplitudes)))]
    phase = anchor / abs(anchor)
    return StateVector(basis, evolved.amplitudes * phase.conjugate())


def flip_sign_atom_b(state: StateVector, level: int) -> StateVector:
    """Diagonal gate: -1 on the given level of atom B, +1 elsewhere.

    Applying it for both excited levels converts the subradiant superposition
    into the superradiant one.
    """
    basis = state.basis
    if not 0 <= level < basis.dims[1]:
        raise ValueError(f"level {level} out of range")
    local = np.eye(basis.dims[1], dtype=complex)
    local[level, level] = -1.0
    gate = OperatorMatrix(basis, h._embed(basis, 1, local), hermitian=True, unitary=True)
    return StateVector(basis, gate.matrix @ state.amplitudes)


def ground_mixer_gate(basis: h.ProductBasis) -> OperatorMatrix:
    """Beam-splitter on the two ground levels of both atoms.

    |G1> -> (|G1> + |G2>)/sqrt(2) and |G2> -> (|G2> - |G1>)/sqrt(2); excited
    levels untouched.
    """
    local = np.eye(4, dtype=complex)
    inv = 1.0 / math.sqrt(2.0)
    local[G1, G1] = inv
    local[G2, G1] = inv
    local[G1, G2] = -inv
    local[G2, G2] = inv
    matrix = np.kron(local, local)
    for axis in range(2, len(basis.dims)):
        matrix = np.kron(matrix, np.eye(basis.dims[axis]))
    return OperatorMatrix(basis, matrix, unitary=True)


def mix_ground_levels(state: StateVector) -> StateVector:
    gate = ground_mixer_gate(state.basis)
    return StateVector(state.basis, gate.matrix @ state.amplitudes)


def postselect_not_g2(state: StateVector):
    """Project out any component with either atom in |G2> and renormalize.

    Returns (state, probability).
    """
    basis = state.basis
    multi = np.unravel_index(np.arange(basis.dimension), basis.dims)
    keep = (multi[0] != G2) & (multi[1] != G2)
    probability = float(np.sum(np.abs(state.amplitudes[keep]) ** 2))
    if probability <= h.ZERO_PROBABILITY:
        raise ZeroProbabilityError("no amplitude survives the post-selection")
    amps = np.where(keep, state.amplitudes, 0.0) / math.sqrt(probability)
    return StateVector(basis, amps), probability


def readout_chain(config: ReadoutConfig, elapsed_time: Optional[float] = None):
    """Locked pair -> precession -> sign flips -> mixer -> post-selection.

    Returns (state, postselect_probability) with the state ready for the
    emission stage.
    """
    t_f = config.elapsed_time if elapsed_time is None else elapsed_time
    state = accumulate_clock_phase(locked_pair_state(), t_f, config)
    state = flip_sign_atom_b(state, E1)
    state = flip_sign_atom_b(state, E2)
    state = mix_ground_levels(state)
    return postselect_not_g2(state)


def _rotating_frame_hamiltonian(config: ReadoutConfig,
                                mode_frequency: float) -> OperatorMatrix:
    """Driven two-atom-plus-mode Hamiltonian in the drive rotating frame.

    Rotating at the drive frequency shifts |E2> down to mean(g1) + detuning
    and makes both couplings static.  The quadrature of the unrotated mode is
    unchanged by the transformation.
    """
    e2_frame = config.mean_level("g1") + config.detuning
    atom_weights = [config.mean_level("g1"), config.mean_level("g2"),
                    config.mean_level("e1"), e2_frame]
    mode_weights = mode_frequency * (np.arange(config.emission_mode_cutoff + 1) + 0.5)
    exchange = []
    for atom_axis in (0, 1):
        exchange.append((atom_axis, E1, G1, 2, 0.5 * config.coupling))
        exchange.append((atom_axis, E2, G1, None, 0.5 * config.drive_amplitude))
    return h.assemble_hamiltonian(emission_basis(config),
                                  [atom_weights, atom_weights, mode_weights], exchange)


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


def _orthonormal(vectors):
    out = []
    for v in vectors:
        w = v.astype(complex).copy()
        for u in out:
            w -= (u.conj() @ w) * u
        w /= np.linalg.norm(w)
        out.append(w)
    return out


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

    vectors = _orthonormal([sym(E1, G1, 0), sym(E2, G1, 1),
                            sym(E2, G1, 0), sym(E1, G1, 1)])
    return np.column_stack(vectors)


def _mode_annihilation(config: ReadoutConfig) -> np.ndarray:
    return h.annihilation(emission_basis(config), 2).matrix


class _EmissionModel:
    """Shared machinery of the emission stage at a fixed mode frequency.

    Holds the rotating-frame Hamiltonian, the resonant-channel basis, the
    second-order effective Hamiltonian on it, and the first-order dressing
    map used to start the evolution in the adiabatically prepared state
    (drive ramp fast compared with the Raman transfer, slow compared with
    the detuning).
    """

    def __init__(self, config: ReadoutConfig, mode_frequency: float):
        self.config = config
        self.mode_frequency = mode_frequency
        self._phase_table = None
        self.p_matrix = _resonant_subspace(config)
        self.hamiltonian = _rotating_frame_hamiltonian(config, mode_frequency)
        matrix = self.hamiltonian.matrix
        bare_energies = matrix.diagonal().real
        couplings = (matrix - np.diag(bare_energies.astype(complex))) @ self.p_matrix
        couplings -= self.p_matrix @ (self.p_matrix.conj().T @ couplings)
        channel_energies = (self.p_matrix.conj().T @ (matrix @ self.p_matrix)).diagonal().real
        denominators = channel_energies[None, :] - bare_energies[:, None]
        significant = np.abs(couplings) > 1e-13
        if significant.any() and np.min(np.abs(denominators[significant])) < 1e-6:
            raise ValueError("adiabatic elimination hit a resonant intermediate")
        self.dressing = np.zeros_like(couplings)
        np.divide(couplings, denominators, out=self.dressing, where=significant)

        h_eff = self.p_matrix.conj().T @ (matrix @ self.p_matrix)
        k = self.p_matrix.shape[1]
        for q in np.flatnonzero(significant.any(axis=1)):
            row = couplings[q]
            for i in range(k):
                for j in range(k):
                    num = row[i].conjugate() * row[j]
                    if abs(num) < 1e-26:
                        continue
                    h_eff[i, j] += 0.5 * num * (1.0 / denominators[q, i]
                                                + 1.0 / denominators[q, j])
        self.h_eff = h_eff

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

        t runs over the readout grid and w over the eigenvalues of the
        Hamiltonian; neither depends on the state, so every trace shares it.
        """
        if self._phase_table is None:
            w, _ = self.hamiltonian.eigensystem()
            table = np.exp(-1j * np.outer(np.asarray(self.readout_times), w))
            table.flags.writeable = False
            self._phase_table = table
        return self._phase_table

    def channel_annihilation(self) -> np.ndarray:
        """The mode's a on the resonant channel, P^dag a P."""
        return self.p_matrix.conj().T @ (_mode_annihilation(self.config) @ self.p_matrix)

    def embed(self, state: StateVector, dressed: bool = True) -> np.ndarray:
        mode_dim = self.config.emission_mode_cutoff + 1
        amps = np.kron(state.amplitudes, np.eye(mode_dim, dtype=complex)[0])
        if dressed:
            channel = self.p_matrix.conj().T @ amps
            amps = amps + self.dressing @ channel
            amps /= np.linalg.norm(amps)
        return amps


def emission_model(config: ReadoutConfig, iterations: int = 4) -> _EmissionModel:
    """Emission model with the mode tuned onto the light-shifted resonance.

    The bare Raman-resonant frequency is corrected for the differential
    light shifts of the transfer endpoints by a short fixed-point iteration;
    detuning the mode by the shift mismatch would otherwise slow and phase-
    slip the transfer.
    """
    frequency = config.emission_frequency
    model = _EmissionModel(config, frequency)
    for _ in range(iterations):
        mismatch = model.resonance_mismatch()
        if abs(mismatch) < 1e-9:
            break
        frequency -= mismatch
        model = _EmissionModel(config, frequency)
    return model


def _full_quadrature(state: StateVector, model: _EmissionModel,
                     radiated_only: bool = True):
    """Quadrature from exact evolution under the rotating-frame Hamiltonian.

    The radiated quadrature needs the evolved state only on the 4-column
    resonant channel P: <a> = c^dag (P^dag a P) c with c = psi P-bar.  The
    overflow check needs only the basis states with two or more photons.
    """
    config = model.config
    mode_dim = config.emission_mode_cutoff + 1
    amps = model.embed(state, dressed=True)
    _, v = model.hamiltonian.eigensystem()
    # row t holds the eigencomponents of the state at time t; the state is rows @ v.T
    rows = model.phase_table() * (v.conj().T @ amps)
    above = np.flatnonzero(np.arange(v.shape[0]) % mode_dim >= 2)
    above_one = 0.0
    if above.size:
        above_one = float(np.max(np.sum(np.abs(rows @ v[above].T) ** 2, axis=1)))
    if radiated_only:
        measured = rows @ (v.T @ model.p_matrix.conj())
        a = model.channel_annihilation()
    else:
        measured = rows @ v.T
        a = _mode_annihilation(config)
    mean_a = np.einsum("ti,ij,tj->t", measured.conj(), a, measured)
    return 2.0 * mean_a.real, above_one, model.beat_frequency()


def _perturbative_quadrature(state: StateVector, model: _EmissionModel):
    """Adiabatic-elimination fast path, full driven evolution as its oracle."""
    config = model.config
    mode_dim = config.emission_mode_cutoff + 1
    amps = np.kron(state.amplitudes, np.eye(mode_dim, dtype=complex)[0])
    psi0 = model.p_matrix.conj().T @ amps
    w, v = np.linalg.eigh(model.h_eff)
    times = np.asarray(model.readout_times)
    coeff = v.conj().T @ psi0
    trajectories = (np.exp(-1j * np.outer(times, w)) * coeff) @ v.T
    a_eff = model.channel_annihilation()
    mean_a = np.einsum("ti,ij,tj->t", trajectories.conj(), a_eff, trajectories)
    return 2.0 * mean_a.real, 0.0, model.beat_frequency()


def emit_field_trace(state: StateVector, config: _EmissionModel,
                     method: str = "full", fit: bool = True,
                     radiated_only: bool = True) -> FieldTrace:
    """Quadrature of the emitted field over the readout grid.

    ``state`` is the post-selected two-atom state; the emission mode starts
    in vacuum.  ``config`` is the :func:`emission_model` of the readout
    configuration; it does not depend on the state, so one model serves
    every trace of a run and shares its cached eigensystem.  The reported
    quadrature is the radiated (Raman-transfer) component; set
    ``radiated_only`` false to see the bare intracavity quadrature including
    the virtual-cloud interference term.  Raises
    :class:`CutoffOverflowError` when population above the single-photon
    level exceeds the configured threshold (the single-photon picture has
    then broken down).
    """
    # The model keeps the argument name ``config``: perfbench/tracer.py binds
    # this argument by name and reads its ``readout_times``.
    model, config = config, config.config
    if not config.readout_times:
        raise ValueError("config.readout_times is empty")
    if state.basis != pair_basis():
        raise h.BasisMismatchError("emission expects a bare two-atom state")
    if method == "full":
        quadrature, above_one, frequency = _full_quadrature(state, model, radiated_only)
    elif method == "perturbative":
        quadrature, above_one, frequency = _perturbative_quadrature(state, model)
    else:
        raise ValueError(f"unknown method {method!r}")
    if above_one > config.overflow_threshold:
        raise CutoffOverflowError(
            f"population above the one-photon level reached {above_one:.3e}")
    times = np.asarray(config.readout_times)
    phase = None
    if fit:
        try:
            phase = extract_phase(times, quadrature, frequency, config.fit_periods)
        except DegenerateFitError:
            phase = None
    return FieldTrace(times=times, quadrature=quadrature, fitted_phase=phase,
                      fitted_frequency=frequency)


def readout_phase(config: ReadoutConfig, elapsed_time: Optional[float] = None,
                  method: str = "full") -> float:
    """Extracted field phase for a full chain run at the given elapsed time."""
    state, _ = readout_chain(config, elapsed_time)
    trace = emit_field_trace(state, emission_model(config), method=method)
    if trace.fitted_phase is None:
        raise DegenerateFitError("no oscillation to fit")
    return trace.fitted_phase


def estimate_oscillation_frequency(times, values) -> float:
    """Dominant oscillation frequency of a trace (coarse periodogram peak).

    Exposed as a measured output so the emitted frequency can be inspected
    rather than assumed.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 8:
        raise ValueError("need at least eight samples")
    dt = times[1] - times[0]
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(len(values), dt)
    peak = int(np.argmax(spectrum[1:])) + 1
    return TWO_PI * float(freqs[peak])
