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
two-atom-plus-mode system, on the sectors that the radiating channel
reaches, or by a second-order effective model obtained by adiabatic
elimination of the far-detuned intermediates (the fast path, with the full
evolution as its oracle).
"""

import math
from typing import Optional

import numpy as np

from . import hilbert as h
from .hilbert import Atom, Mode
from .records import Record
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


class ReadoutConfig(Record):
    """Parameters of the readout chain and the field-emission model.

    ``atom`` holds the level energies of both atoms, which are identical.
    ``detuning`` is the drive's offset from the |E2> <-> |G1> transition,
    ``drive_amplitude`` the classical coupling-laser strength and
    ``coupling`` that of the quantized mode on |E1> <-> |G1>.
    ``readout_times`` is held as a read-only float64 copy of the grid
    passed in.
    """

    __slots__ = ("atom", "detuning", "drive_amplitude", "coupling",
                 "emission_mode_cutoff", "readout_times", "fit_periods")

    def __init__(self, atom: FourLevelEnergies, detuning: float, drive_amplitude: float,
                 coupling: float, emission_mode_cutoff: int = 2, readout_times=(),
                 fit_periods: float = 32.0):
        if detuning == 0.0:
            raise ValueError("the drive detuning must be nonzero")
        if emission_mode_cutoff < 1:
            raise ValueError("emission_mode_cutoff must be >= 1")
        if fit_periods <= 0.0:
            raise ValueError("fit_periods must be positive")
        readout_times = np.array(readout_times, dtype=float)
        if np.any(readout_times[1:] <= readout_times[:-1]):
            raise ValueError("readout_times must be strictly increasing")
        readout_times.flags.writeable = False
        self._set(locals())

    @property
    def clock_frequency(self) -> float:
        """Relative precession rate of the two locked manifolds."""
        return self.atom.e1 + self.atom.g1 - self.atom.e2 - self.atom.g2

    @property
    def emission_frequency(self) -> float:
        """Raman-resonant frequency of the emitted photon.

        One quantum leaves on the |E1> -> |G1> leg while the drive supplies
        the |G1> -> |E2> leg, so the photon carries the clock frequency plus
        the drive frequency.
        """
        return self.atom.e1 - self.atom.g1 - self.detuning


def readout_config(detuning: float = 10.0, drive_amplitude: float = 1.0,
                   coupling: float = 2.0, transition_1: float = 120.0,
                   transition_2: float = 110.0, time_max: float = 5.0,
                   time_points: int = 4001, emission_cutoff: int = 2,
                   fit_periods: float = 32.0) -> ReadoutConfig:
    """Readout config with identical atoms and both ground levels at zero."""
    atom = FourLevelEnergies(g1=0.0, g2=0.0, e1=transition_1, e2=transition_2)
    return ReadoutConfig(atom=atom, detuning=detuning, drive_amplitude=drive_amplitude,
                         coupling=coupling, emission_mode_cutoff=emission_cutoff,
                         readout_times=np.linspace(0.0, time_max, time_points),
                         fit_periods=fit_periods)


def emission_basis(config: ReadoutConfig) -> h.ProductBasis:
    """Two atoms and the emission mode."""
    return h.build_basis([Atom(4), Atom(4), Mode(config.emission_mode_cutoff)])


# Beam splitter on the ground levels of one atom: |G1> -> (|G1> + |G2>)/sqrt(2),
# |G2> -> (|G2> - |G1>)/sqrt(2), excited levels untouched.
_MIXER = np.eye(4)
_MIXER[G1, G1] = _MIXER[G2, G1] = _MIXER[G2, G2] = 1.0 / math.sqrt(2.0)
_MIXER[G1, G2] = -1.0 / math.sqrt(2.0)
_MIXER.flags.writeable = False


def _grid(state) -> np.ndarray:
    """A copy of a pair state, its (level of A, level of B) grid; ValueError unless 4 x 4."""
    grid = np.array(state, dtype=complex)
    if grid.shape != (4, 4):
        raise ValueError(f"a four-level pair state is 4 x 4, got shape {grid.shape}")
    return grid


def locked_pair_state() -> np.ndarray:
    """Equal superposition of the two subradiant manifolds (modes removed)."""
    grid = np.zeros((4, 4), dtype=complex)
    grid[E1, G1] = grid[E2, G2] = 0.5
    grid[G1, E1] = grid[G2, E2] = -0.5
    return grid


def accumulate_clock_phase(state: np.ndarray, elapsed_time: float,
                           config: ReadoutConfig) -> np.ndarray:
    """Free precession under the averaged level energies.

    The global phase is normalized so the first-manifold term is real and
    positive, leaving exp(i * clock_frequency * t_f) on the second manifold.
    """
    grid = h._propagate_diagonal(np.add.outer(config.atom, config.atom), _grid(state),
                                 float(elapsed_time))
    anchor = grid[E1, G1]
    if abs(anchor) < 1e-12:
        anchor = grid.flat[int(np.argmax(np.abs(grid)))]
    return grid * (anchor / abs(anchor)).conjugate()


def flip_sign_atom_b(state: np.ndarray, level: int) -> np.ndarray:
    """Diagonal gate: -1 on the given level of atom B, +1 elsewhere.

    Applying it for both excited levels converts the subradiant superposition
    into the superradiant one.
    """
    if not 0 <= level < 4:
        raise ValueError(f"level {level} out of range")
    grid = _grid(state)
    grid[:, level] *= -1.0
    return grid


def mix_ground_levels(state: np.ndarray) -> np.ndarray:
    """The ground-level beam splitter on both atoms."""
    return _MIXER @ _grid(state) @ _MIXER.T


def postselect_not_g2(state: np.ndarray):
    """Project out any component with either atom in |G2> and renormalize.

    Returns (state, probability).
    """
    grid = _grid(state)
    grid[G2, :] = 0.0
    grid[:, G2] = 0.0
    probability = float(np.sum(np.abs(grid) ** 2))
    if probability <= h.ZERO_PROBABILITY:
        raise ZeroProbabilityError("no amplitude survives the post-selection")
    return grid / math.sqrt(probability), probability


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
    quadrature of the unrotated mode is unchanged by it.  The mode trades an
    |E1> atom for a photon and the drive moves |G1> <-> |E2>, so L (photons
    plus atoms in |E1>) and the number of atoms in |G2> never change.
    """
    levels = [config.atom.g1, config.atom.g2, config.atom.e1, config.atom.g1 + config.detuning]
    photons = mode_frequency * (np.arange(config.emission_mode_cutoff + 1) + 0.5)
    coupling, drive = 0.5 * config.coupling, 0.5 * config.drive_amplitude
    exchange = [term for atom in (0, 1)
                for term in ((atom, E1, G1, 2, coupling), (atom, E2, G1, None, drive))]
    return emission_basis(config), [levels, levels, photons], exchange


class FieldTrace(Record):
    """Quadrature of the emission mode on the readout time grid."""

    __slots__ = ("times", "quadrature", "fitted_phase", "fitted_frequency")

    def __init__(self, times: np.ndarray, quadrature: np.ndarray,
                 fitted_phase: Optional[float], fitted_frequency: float):
        if fitted_phase is not None:
            if not (-math.pi < fitted_phase <= math.pi + 1e-15):
                raise ValueError("fitted phase must lie in (-pi, pi]")
        times.flags.writeable = False
        quadrature.flags.writeable = False
        self._set(locals())


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


# The resonant radiating channel, the orthonormal columns of P: symmetric pair
# states (|upper lower> + |lower upper>)/sqrt(2) with 0 or 1 emitted photons, as
# (upper, lower, photons).  The quadrature on the channel is the radiated
# component; the bare intracavity quadrature also carries a constant-amplitude
# term from the virtual cloud dressing the driven atoms, which never propagates.
_CHANNEL = ((E1, G1, 0), (E2, G1, 1), (E2, G1, 0), (E1, G1, 1))

# P^dag a P on the channel columns: a takes |E1 G1> with one photon (column 3)
# to |E1 G1> (column 0), and |E2 G1> with one photon (column 1) to column 2.
_CHANNEL_ANNIHILATION = np.zeros((4, 4))
_CHANNEL_ANNIHILATION[0, 3] = _CHANNEL_ANNIHILATION[2, 1] = 1.0
_CHANNEL_ANNIHILATION.flags.writeable = False
OVERFLOW_THRESHOLD = 1e-3  # largest weight that may reach two photons
# Channel amplitudes (times x states x 4) that one slab product forms, 256 kB:
# the 16-phase sweep at 4001 samples takes 16 slabs of 250-251 times.
_BLOCK_AMPLITUDES = 1 << 14


class _EmissionModel:
    """Shared machinery of the emission stage at a fixed mode frequency.

    Works on ``states``, the basis states of the sectors that the resonant
    channel reaches (21 at every cutoff from 2 up, 17 at cutoff 1); no other
    state couples to them, and no array of the stage spans the whole basis.
    Holds the rotating-frame eigensystem on them, which a
    :class:`hilbert.BlockEvolver` solves by sector, the channel columns P on
    them (``p_matrix``), the second-order effective Hamiltonian, and the
    first-order dressing map that starts the evolution in the adiabatically
    prepared state (drive ramp fast compared with the Raman transfer, slow
    compared with the detuning).
    """

    def __init__(self, config: ReadoutConfig, mode_frequency: float):
        self.config = config
        self.mode_frequency = mode_frequency
        basis, weights, exchange = _rotating_frame_terms(config, mode_frequency)
        channel = np.array([(basis.index([upper, lower, photons]),
                             basis.index([lower, upper, photons]))
                            for upper, lower, photons in _CHANNEL])
        hamiltonian = h.assemble_sectors(basis, weights, exchange, channel.ravel())
        evolver = h.BlockEvolver(hamiltonian)
        self.states = evolver.states
        self.p_matrix = np.zeros((len(self.states), len(channel)), dtype=complex)
        self.p_matrix[(self.states[:, None, None] == channel).any(axis=2)] = 1.0 / math.sqrt(2.0)
        atom_a, atom_b, photons = np.unravel_index(self.states, basis.dims)
        self.two_quanta = photons + (atom_a == E1) + (atom_b == E1) >= 2  # L >= 2
        matrix = np.zeros((len(self.states),) * 2, dtype=complex)
        start = 0
        for idx, block in hamiltonian.sectors:
            matrix[start:start + len(idx), start:start + len(idx)] = block
            start += len(idx)
        self.eigenvalues, self.eigenvectors = evolver.eigensystem()
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
    def readout_times(self) -> np.ndarray:
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

    def _vacuum(self, pairs: np.ndarray) -> np.ndarray:
        """Two-atom amplitude columns with the emission mode in vacuum, on ``states``."""
        pair, photons = divmod(self.states, self.config.emission_mode_cutoff + 1)
        amps = np.zeros((len(self.states), pairs.shape[1]), dtype=complex)
        amps[photons == 0] = pairs[pair[photons == 0]]
        return amps

    def embed(self, pairs: np.ndarray) -> np.ndarray:
        """The adiabatically dressed starts on ``states``, each normalized on the whole basis.

        ``pairs`` holds one two-atom amplitude vector per column.  The norm
        sums the squares of the held states and of the pairs off the reach (an
        atom in |G2>) in ascending basis order, as one over the whole basis would.
        """
        start = self._vacuum(pairs)
        start = start + self.dressing @ (self.p_matrix.conj().T @ start)
        mode_dim = self.config.emission_mode_cutoff + 1
        off = np.ones(len(pairs), dtype=bool)  # the pairs off the reach
        off[self.states[self.states % mode_dim == 0] // mode_dim] = False
        keys = np.concatenate([self.states, np.flatnonzero(off) * mode_dim])
        rows = np.concatenate([start, pairs[off]])[np.argsort(keys, kind="stable")]
        return start / np.linalg.norm(rows, axis=0)


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


def _channel_quadratures(times: np.ndarray, eigenvalues: np.ndarray, coeff: np.ndarray,
                         readout: np.ndarray) -> np.ndarray:
    """Radiated quadrature 2 Re <a> of every column of ``coeff``, shape (columns, times).

    Column j evolves to the channel amplitudes
    m[t] = sum_i exp(-i w[i] t) coeff[i, j] readout[i, :] over the ``eigenvalues`` w.
    The factors exp(-i w t) are formed for one slab of ``times`` at a time, and the
    slab's products with the columns coeff[:, j] (x) readout give every column's m,
    each m within about ``_BLOCK_AMPLITUDES`` entries and of two rows or more (numpy
    rounds one row as gemv).  P^dag a P has two nonzero entries, both 1, so <a> sums
    conj(m[row]) m[col] over them: conj(m0) m3 + conj(m2) m1.
    """
    size, count = coeff.shape
    width = max(1, min(count, _BLOCK_AMPLITUDES // (4 * size)))
    slabs = max(1, min(len(times) // 2, -(-4 * width * len(times) // _BLOCK_AMPLITUDES)))
    rows, cols = np.nonzero(_CHANNEL_ANNIHILATION)
    quadratures = np.empty((count, len(times)))
    for slab, out in zip(np.array_split(times, slabs),
                         np.array_split(quadratures, slabs, axis=1)):
        factors = -1j * np.outer(slab, eigenvalues)
        np.exp(factors, out=factors)
        for start in range(0, count, width):
            # formed again per slab: nothing but the quadratures grows with the states
            part = coeff[:, start:start + width]
            columns = (part[:, :, None] * readout[:, None, :]).reshape(size, -1)
            m = (factors @ columns).reshape(len(slab), part.shape[1], 4)
            mean_a = sum(m[..., row].conj() * m[..., col] for row, col in zip(rows, cols))
            out[start:start + width] = 2.0 * mean_a.real.T
    return quadratures


def _full_quadrature(pairs: np.ndarray, model: _EmissionModel):
    """Quadratures from exact evolution under the rotating-frame Hamiltonian.

    ``pairs`` holds one two-atom amplitude vector per column.  The radiated
    quadrature needs the evolved state only on the 4-column resonant channel
    P: <a> = c^dag (P^dag a P) c with c = psi P-bar, and the state at time t
    is (exp(-i w t) * (v^dag amps)) @ v.T on the eigensystem (w, v).  L is
    conserved and two photons need L >= 2, so a start state's L = 2 weight
    bounds its population above one photon at every time.  Returns the
    quadratures, shape (columns, times), and those weights.
    """
    amps = model.embed(pairs)
    v = model.eigenvectors
    quadratures = _channel_quadratures(model.readout_times, model.eigenvalues,
                                       v.conj().T @ amps, v.T @ model.p_matrix.conj())
    return quadratures, np.sum(np.abs(amps[model.two_quanta]) ** 2, axis=0)


def _perturbative_quadrature(pairs: np.ndarray, model: _EmissionModel):
    """Adiabatic-elimination fast path, full driven evolution as its oracle."""
    w, v = np.linalg.eigh(model.h_eff)
    coeff = v.conj().T @ (model.p_matrix.conj().T @ model._vacuum(pairs))
    return (_channel_quadratures(model.readout_times, w, coeff, v.T),
            np.zeros(pairs.shape[1]))


def emit_field_traces(states, model: _EmissionModel, method: str = "full") -> list:
    """Quadrature of the emitted field over the readout grid, one trace per state.

    Each state is a post-selected pair's 4 x 4 grid (ValueError on another
    shape); the emission mode starts in vacuum.  ``model`` is the
    :func:`emission_model` of the readout configuration; it does not depend
    on the states, so the whole batch shares each slab of phase factors
    exp(-i w t), which is formed once per call and dropped after its
    products: besides the quadratures (states x readout times) the stage
    holds one slab.  The reported quadrature is the radiated (Raman-transfer)
    component, on the resonant channel; the virtual cloud dressing the
    driven atoms is left out.  The full method raises
    :class:`CutoffOverflowError`, naming the largest, when a dressed start's
    weight that can reach two photons (its conserved L = 2 weight) exceeds
    ``OVERFLOW_THRESHOLD`` (the single-photon picture has then broken down).
    A trace whose fit is degenerate has no fitted phase.
    """
    config = model.config
    times = config.readout_times
    if not times.size:
        raise ValueError("config.readout_times is empty")
    pairs = np.array([_grid(state) for state in states], dtype=complex).reshape(-1, 16).T
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
    frequency = model.beat_frequency()
    traces = []
    for quadrature in quadratures:
        try:
            phase = extract_phase(times, quadrature, frequency, config.fit_periods)
        except DegenerateFitError:
            phase = None
        traces.append(FieldTrace(times=times, quadrature=quadrature, fitted_phase=phase,
                                 fitted_frequency=frequency))
    return traces


def emit_field_trace(state: np.ndarray, config: _EmissionModel,
                     method: str = "full") -> FieldTrace:
    """:func:`emit_field_traces` of the one state ``state``."""
    # The model keeps the argument name ``config``: perfbench/tracer.py binds
    # this argument by name and reads its ``readout_times``.
    return emit_field_traces([state], config, method=method)[0]


def readout_phase(config: ReadoutConfig, elapsed_time: float,
                  method: str = "full") -> float:
    """Extracted field phase for a full chain run at the given elapsed time."""
    state, _ = readout_chain(config, elapsed_time)
    trace = emit_field_trace(state, emission_model(config), method=method)
    if trace.fitted_phase is None:
        raise DegenerateFitError("no oscillation to fit")
    return trace.fitted_phase
