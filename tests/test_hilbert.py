"""State machinery: bases, operators, exact evolution, measurement."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepwise_oracle as so
from kronecker_oracles import (annihilation, assemble_hamiltonian, atomic_projector,
                               basis_state, build_hamiltonian, commutator_norm, creation,
                               expectation, number_operator)
from zenolock import hilbert as h
from zenolock import readout as rd
from zenolock import zeno_multilevel as zm
from zenolock import zeno_two_level as z2


def random_state(basis, rng):
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    return h.StateVector(basis, amps, normalize=True)


def random_hermitian(basis, rng):
    m = rng.standard_normal((basis.dimension,) * 2) + 1j * rng.standard_normal((basis.dimension,) * 2)
    m = (m + m.conj().T) / 2
    return h.OperatorMatrix(basis, m, hermitian=True)


class TestBasis:
    def test_dimensions(self):
        assert h.build_basis([h.Atom(2), h.Atom(2), h.Mode(3)]).dimension == 16
        assert h.build_basis([h.Atom(4), h.Atom(4), h.Mode(2), h.Mode(2)]).dimension == 144
        assert h.build_basis([h.Atom(2)]).dimension == 2

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            h.build_basis([])

    def test_invalid_subsystems_rejected(self):
        with pytest.raises(ValueError):
            h.Atom(5)
        with pytest.raises(ValueError):
            h.Mode(0)

    def test_atoms_ordered_before_modes(self):
        basis = h.build_basis([h.Mode(3), h.Atom(2), h.Mode(2), h.Atom(3)])
        kinds = [type(s) for s in basis.subsystems]
        assert kinds == [h.Atom, h.Atom, h.Mode, h.Mode]
        assert basis.subsystems[0].levels == 2 and basis.subsystems[1].levels == 3
        assert basis.subsystems[2].cutoff == 3 and basis.subsystems[3].cutoff == 2

    def test_index_roundtrip_is_bijection(self):
        basis = h.build_basis([h.Atom(2), h.Atom(3), h.Mode(2)])
        seen = set()
        for i in range(basis.dimension):
            occ = basis.occupations(i)
            assert basis.index(occ) == i
            seen.add(occ)
        assert len(seen) == basis.dimension


class TestLadderOperators:
    def test_annihilation_on_fock_state(self):
        basis = h.build_basis([h.Mode(3)])
        a = annihilation(basis, 0)
        two = basis_state(basis, [2])
        image = a.matrix @ two.amplitudes
        expected = np.sqrt(2.0) * basis_state(basis, [1]).amplitudes
        np.testing.assert_allclose(image, expected, atol=1e-15)

    def test_annihilation_kills_vacuum(self):
        basis = h.build_basis([h.Mode(3)])
        a = annihilation(basis, 0)
        vac = basis_state(basis, [0])
        assert np.max(np.abs(a.matrix @ vac.amplitudes)) == 0.0

    def test_creation_truncates_at_cutoff(self):
        basis = h.build_basis([h.Mode(3)])
        adag = creation(basis, 0)
        top = basis_state(basis, [3])
        assert np.max(np.abs(adag.matrix @ top.amplitudes)) == 0.0

    def test_number_expectation(self):
        basis = h.build_basis([h.Mode(3)])
        n_op = number_operator(basis, 0)
        three = basis_state(basis, [3])
        assert expectation(three, n_op) == pytest.approx(3.0)
        # n = a^dag a entrywise
        a = annihilation(basis, 0)
        np.testing.assert_allclose(n_op.matrix, a.matrix.conj().T @ a.matrix, atol=1e-14)

    def test_mode_index_must_be_a_mode(self):
        basis = h.build_basis([h.Atom(2), h.Mode(3)])
        with pytest.raises(TypeError):
            annihilation(basis, 0)


class TestAtomicProjector:
    def test_projector_and_transitions(self):
        basis = h.build_basis([h.Atom(2)])
        G, E = 0, 1
        p_ee = atomic_projector(basis, 0, E, E)
        raise_op = atomic_projector(basis, 0, E, G)
        excited = basis_state(basis, [E])
        ground = basis_state(basis, [G])
        np.testing.assert_allclose(p_ee.matrix @ excited.amplitudes, excited.amplitudes)
        np.testing.assert_allclose(raise_op.matrix @ ground.amplitudes, excited.amplitudes)
        assert np.max(np.abs(raise_op.matrix @ excited.amplitudes)) == 0.0

    def test_adjoint_swaps_levels(self):
        basis = h.build_basis([h.Atom(3)])
        up = atomic_projector(basis, 0, 2, 0)
        down = atomic_projector(basis, 0, 0, 2)
        np.testing.assert_array_equal(up.matrix.conj().T, down.matrix)

    def test_out_of_range_levels(self):
        basis = h.build_basis([h.Atom(2)])
        with pytest.raises(ValueError):
            atomic_projector(basis, 0, 0, 2)

    def test_atom_index_must_be_an_atom(self):
        basis = h.build_basis([h.Atom(2), h.Mode(2)])
        with pytest.raises(TypeError):
            atomic_projector(basis, 1, 0, 0)


def jaynes_cummings(basis, cavity_frequency, atom_frequency, coupling):
    """Resonant one-atom Hamiltonian used as the evolution oracle fixture."""
    G, E = 0, 1
    a = annihilation(basis, 1).matrix
    n = a.conj().T @ a
    p_e = atomic_projector(basis, 0, E, E).matrix
    sp = atomic_projector(basis, 0, E, G).matrix
    m = (cavity_frequency * (n + 0.5 * np.eye(basis.dimension))
         + atom_frequency * p_e
         + 0.5 * coupling * (sp @ a + a.conj().T @ sp.conj().T))
    return h.OperatorMatrix(basis, m, hermitian=True)


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        basis = h.build_basis([h.Atom(2), h.Mode(2)])
        H = h.OperatorMatrix(basis, np.zeros((basis.dimension,) * 2), hermitian=True)
        psi = random_state(basis, np.random.default_rng(1))
        out = h.evolve(psi, H, 3.7)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_vacuum_rabi_oscillation_matches_closed_form(self, n):
        # Oracle: in the single-excitation block {|E,n>, |G,n+1>} the resonant
        # Hamiltonian is a 2x2 with off-diagonal (coupling/2)sqrt(n+1), so the
        # excited population is cos^2(coupling*sqrt(n+1)*t/2).
        omega, coupling = 5.0, 1.3
        basis = h.build_basis([h.Atom(2), h.Mode(n + 3)])
        H = jaynes_cummings(basis, omega, omega, coupling)
        psi0 = basis_state(basis, [1, n])
        p_e_op = atomic_projector(basis, 0, 1, 1)
        for t in [0.0, 0.3, 1.1, 2.9]:
            psi = h.evolve(psi0, H, t)
            expected = np.cos(coupling * np.sqrt(n + 1.0) * t / 2.0) ** 2
            assert expectation(psi, p_e_op).real == pytest.approx(expected, abs=1e-10)

    def test_requires_hermitian_flag(self):
        basis = h.build_basis([h.Atom(2)])
        H = h.OperatorMatrix(basis, np.eye(2))
        psi = basis_state(basis, [0])
        with pytest.raises(ValueError):
            h.evolve(psi, H, 1.0)

    def test_basis_mismatch(self):
        b1 = h.build_basis([h.Atom(2)])
        b2 = h.build_basis([h.Atom(3)])
        H = h.OperatorMatrix(b2, np.eye(3), hermitian=True)
        with pytest.raises(h.BasisMismatchError):
            h.evolve(basis_state(b1, [0]), H, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), duration=st.floats(-5.0, 5.0))
    def test_norm_preserved_for_random_hermitian(self, seed, duration):
        rng = np.random.default_rng(seed)
        basis = h.build_basis([h.Atom(2), h.Mode(2)])
        psi = random_state(basis, rng)
        H = random_hermitian(basis, rng)
        assert h.evolve(psi, H, duration).norm() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), t1=st.floats(0.0, 3.0), t2=st.floats(0.0, 3.0))
    def test_composition(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        basis = h.build_basis([h.Atom(3), h.Mode(2)])
        psi = random_state(basis, rng)
        H = random_hermitian(basis, rng)
        once = h.evolve(psi, H, t1 + t2)
        twice = h.evolve(h.evolve(psi, H, t1), H, t2)
        np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-10)

    def test_global_phase_does_not_change_probabilities(self):
        basis = h.build_basis([h.Atom(2), h.Mode(2)])
        rng = np.random.default_rng(7)
        psi = random_state(basis, rng)
        shifted = h.StateVector(basis, np.exp(0.83j) * psi.amplitudes)
        H = random_hermitian(basis, rng)
        a = h.evolve(psi, H, 1.7)
        b = h.evolve(shifted, H, 1.7)
        np.testing.assert_allclose(np.abs(a.amplitudes) ** 2, np.abs(b.amplitudes) ** 2,
                                   atol=1e-14)


class TestExpectation:
    def test_number_on_vacuum(self):
        basis = h.build_basis([h.Mode(3)])
        vac = basis_state(basis, [0])
        assert expectation(vac, number_operator(basis, 0)) == 0.0

    def test_quadrature_on_fock_states(self):
        basis = h.build_basis([h.Mode(3)])
        a = annihilation(basis, 0)
        quad = h.OperatorMatrix(basis, a.matrix + a.matrix.conj().T, hermitian=True)
        for n in range(4):
            fock = basis_state(basis, [n])
            assert expectation(fock, quad).real == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_on_superposition(self):
        basis = h.build_basis([h.Mode(3)])
        a = annihilation(basis, 0)
        quad = h.OperatorMatrix(basis, a.matrix + a.matrix.conj().T, hermitian=True)
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[1] = 1.0 / np.sqrt(2.0)
        plus = h.StateVector(basis, amps)
        assert expectation(plus, quad).real == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_expectation_is_real(self):
        rng = np.random.default_rng(3)
        basis = h.build_basis([h.Atom(2), h.Mode(2)])
        psi = random_state(basis, rng)
        op = random_hermitian(basis, rng)
        assert abs(expectation(psi, op).imag) < 1e-12


class TestProjectiveMeasurement:
    def test_definite_photon_number(self):
        basis = h.build_basis([h.Atom(2), h.Mode(4)])
        rng = np.random.default_rng(5)
        atom_amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.zeros(basis.dimension, dtype=complex)
        for level, amp in enumerate(atom_amps):
            amps[basis.index([level, 3])] = amp
        psi = h.StateVector(basis, amps, normalize=True)
        hit = so.project_photon_number(psi, 1, 3)
        assert hit.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(hit.state.amplitudes, psi.amplitudes, atol=1e-12)
        miss = so.project_photon_number(psi, 1, 4)
        assert miss.state is None
        assert miss.probability == pytest.approx(0.0, abs=1e-30)

    def test_probabilities_sum_to_one(self):
        basis = h.build_basis([h.Atom(2), h.Mode(3)])
        psi = random_state(basis, np.random.default_rng(11))
        total = sum(so.project_photon_number(psi, 1, k).probability for k in range(4))
        assert total == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(so.photon_number_distribution(psi, 1).sum(), 1.0,
                                   atol=1e-12)

    def test_out_of_range_outcome(self):
        basis = h.build_basis([h.Mode(3)])
        psi = basis_state(basis, [0])
        with pytest.raises(ValueError):
            so.project_photon_number(psi, 0, 4)


class TestReplaceModeState:
    def test_injection(self):
        basis = h.build_basis([h.Atom(2), h.Mode(5)])
        rng = np.random.default_rng(2)
        atom_amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        atom_amps /= np.linalg.norm(atom_amps)
        amps = np.zeros(basis.dimension, dtype=complex)
        for level, amp in enumerate(atom_amps):
            amps[basis.index([level, 0])] = amp
        psi = h.StateVector(basis, amps)
        injected = so.replace_mode_state(psi, 1, 4)
        for level, amp in enumerate(atom_amps):
            assert injected.amplitudes[basis.index([level, 4])] == pytest.approx(amp, abs=1e-12)
        assert injected.norm() == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_returns_original(self):
        basis = h.build_basis([h.Atom(2), h.Mode(5)])
        rng = np.random.default_rng(9)
        atom_amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        atom_amps /= np.linalg.norm(atom_amps)
        amps = np.zeros(basis.dimension, dtype=complex)
        for level, amp in enumerate(atom_amps):
            amps[basis.index([level, 0])] = amp
        psi = h.StateVector(basis, amps)
        back = so.replace_mode_state(so.replace_mode_state(psi, 1, 3), 1, 0)
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-12)

    def test_entangled_mode_rejected(self):
        basis = h.build_basis([h.Atom(2), h.Mode(2)])
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index([0, 0])] = 1.0 / np.sqrt(2.0)
        amps[basis.index([1, 1])] = 1.0 / np.sqrt(2.0)
        bell = h.StateVector(basis, amps)
        with pytest.raises(so.EntangledModeError):
            so.replace_mode_state(bell, 1, 0)


class TestBlockEvolver:
    def test_matches_dense_path(self):
        omega, coupling = 5.0, 1.3
        basis = h.build_basis([h.Atom(2), h.Mode(6)])
        H = jaynes_cummings(basis, omega, omega, coupling)
        labels = h.occupation_labels(basis, [[0, 1], list(range(7))])
        assert commutator_norm(H, _label_operator(basis, labels)) < 1e-12
        evolver = h.BlockEvolver(h.assemble_sectors(
            basis, [(0.0, omega), omega * (np.arange(7) + 0.5)],
            [(0, 1, 0, 1, 0.5 * coupling)], labels, np.ones(basis.dimension)))
        rng = np.random.default_rng(4)
        psi = random_state(basis, rng)
        for t in [0.2, 1.7, 6.4]:
            dense = h.evolve(psi, H, t)
            blocked = evolver.evolve(psi, t)
            np.testing.assert_allclose(blocked.amplitudes, dense.amplitudes, atol=1e-10)
            assert abs(np.vdot(blocked.amplitudes, blocked.amplitudes).real - 1) < 1e-12

    def test_batch_equals_single_columns(self):
        # the [zeno4] pair at n = 2: 400 states in many sectors, with columns
        # that leave some blocks empty and share others
        config = zm.four_level_config_from_deltas(1.0, 0.5, cycle_time=0.02,
                                                  final_time=0.2, photon_number=2)
        sectors = every_sector(config)
        evolver = h.BlockEvolver(sectors)
        rng = np.random.default_rng(11)
        dim = sectors.basis.dimension
        batch = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
        batch[:, 0] = 0.0
        batch[:, 1] = np.eye(dim)[7]
        batch[dim // 2:, 2] = 0.0
        for t in (0.01, 0.4):
            together = evolver.propagate(batch, t)
            assert together.shape == batch.shape
            for column, amplitudes in zip(together.T, batch.T):
                np.testing.assert_allclose(column, evolver.propagate(amplitudes, t),
                                           rtol=0, atol=1e-15)
            np.testing.assert_array_equal(
                h._propagate_diagonal(sectors.diagonal, batch, t),
                np.column_stack([h._propagate_diagonal(sectors.diagonal, amplitudes, t)
                                 for amplitudes in batch.T]))

    @pytest.mark.parametrize("case", ["zeno2", "zeno4", "unordered"])
    def test_stacked_products_match_per_block_oracle(self, case):
        # the default pairs' blocks come in sizes 1, 3, 4 (zeno2) and ten
        # sizes up to 16 (zeno4); the sparse columns leave some blocks, and
        # every block of the largest size, empty on all columns
        sectors = {"zeno2": default_zeno2_sectors, "zeno4": default_zeno4_sectors,
                   "unordered": unordered_sectors}[case]()
        sizes = [len(idx) for idx, _ in sectors.sectors]
        assert len(set(sizes)) > 1
        evolver = h.BlockEvolver(sectors)
        rng = np.random.default_rng(21)
        dim = sectors.basis.dimension
        batch = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        sparse = batch.copy()
        for number, (idx, _) in enumerate(sectors.sectors):
            if number % 3 == 0 or len(idx) == max(sizes):
                sparse[idx] = 0.0
        for t in (0.001, 0.4):
            for amplitudes in (batch[:, 0], batch, sparse[:, 0], sparse, sparse[:, :1]):
                np.testing.assert_array_equal(evolver.propagate(amplitudes, t),
                                              per_block_propagate(sectors, amplitudes, t))

    @pytest.mark.parametrize("case, blocks, solved", [("zeno2", 17, 3), ("zeno4", 166, 6)])
    def test_default_run_solves_only_reached_blocks(self, monkeypatch, case, blocks, solved):
        # the cycle starts from the atom states with n photons in every mode,
        # which lie in a few excitation sectors
        config = {"zeno2": default_zeno2_config, "zeno4": default_zeno4_config}[case]()
        assert len(every_sector(config).sectors) == blocks
        assert len(z2.build_sector_hamiltonian(config).sectors) == solved
        stacks = eigh_spy(monkeypatch)
        {"zeno2": z2.run_protocol, "zeno4": zm.run_four_level_protocol}[case](config)
        assert sum(len(stack) for stack in stacks) == solved

    @pytest.mark.parametrize("case", ["zeno2", "zeno4", "unordered"])
    def test_construction_solves_each_size_group_once(self, monkeypatch, case):
        # one eigh per block size, over that size's blocks in sector order;
        # propagating and evolving solve nothing more
        sectors = {"zeno2": default_zeno2_sectors, "zeno4": default_zeno4_sectors,
                   "unordered": unordered_sectors}[case]()
        stacks = eigh_spy(monkeypatch)
        evolver = h.BlockEvolver(sectors)
        expected = {}
        for idx, block in sectors.sectors:
            expected.setdefault(len(idx), []).append(block)
        assert [stack.shape[1] for stack in stacks] == list(expected)
        for stack in stacks:
            assert np.array_equal(stack, np.stack(expected[stack.shape[1]]))
        stacks.clear()
        rng = np.random.default_rng(3)
        psi = random_state(sectors.basis, rng)
        evolver.propagate(np.column_stack([psi.amplitudes] * 2), 0.1)
        evolver.evolve(psi, 0.2)
        assert stacks == []

    def test_evolve_rejects_weight_outside_held_sectors(self):
        sectors = default_zeno4_sectors()
        (first, _), (second, _) = sectors.sectors[:2]
        inside = np.zeros(sectors.basis.dimension, dtype=complex)
        inside[first] = 1.0
        evolver = h.BlockEvolver(per_sector_rule(sectors, inside))
        state = h.StateVector(sectors.basis, inside, normalize=True)
        assert np.array_equal(evolver.evolve(state, 0.3).amplitudes,
                              h.BlockEvolver(sectors).evolve(state, 0.3).amplitudes)
        outside = inside.copy()
        outside[second[0]] = 1e-300
        with pytest.raises(ValueError, match="outside the sectors"):
            evolver.evolve(h.StateVector(sectors.basis, outside), 0.3)
        with pytest.raises(h.BasisMismatchError):
            evolver.evolve(random_state(h.build_basis([h.Atom(2)]), rng=np.random.default_rng(0)),
                           0.3)

    def test_evolution_stays_in_initial_block(self):
        basis = h.build_basis([h.Atom(2), h.Mode(6)])
        H = jaynes_cummings(basis, 5.0, 5.0, 1.3)
        labels = h.occupation_labels(basis, [[0, 1], list(range(7))])
        psi0 = basis_state(basis, [1, 3])
        psi = h.evolve(psi0, H, 2.1)
        outside = labels != labels[basis.index([1, 3])]
        assert np.max(np.abs(psi.amplitudes[outside])) < 1e-12


class TestReached:
    @pytest.mark.parametrize("case, blocks, kept", [("zeno2", 17, 3), ("zeno4", 166, 6)])
    def test_injected_batch_reaches_few_sectors(self, case, blocks, kept):
        # the coupling window starts from the atom states with n photons in
        # every mode, which lie in a few excitation sectors
        config = {"zeno2": default_zeno2_config, "zeno4": default_zeno4_config}[case]()
        every = every_sector(config)
        sectors = z2.build_sector_hamiltonian(config)
        batches = []

        def couple(amplitudes, duration):
            batches.append(amplitudes.copy())
            return amplitudes

        drift = functools.partial(h._propagate_diagonal, sectors.diagonal)
        z2.coupling_window(config, sectors.basis, drift, couple)
        (batch,) = batches
        assert len(every.sectors) == blocks
        assert len(sectors.sectors) == kept
        np.testing.assert_array_equal(sectors.diagonal, every.diagonal)
        # the held sectors, in sector order, are those the batch touches
        assert_same_sectors(sectors, per_sector_rule(every, batch))

    def test_readout_channel_reaches_three_sectors(self):
        config = rd.readout_config()
        model = rd.emission_model(config)
        subspace = rd._resonant_subspace(config)
        held = rd._rotating_frame_hamiltonian(config, model.mode_frequency, subspace)
        assert len(held.sectors) == 3
        assert sum(len(idx) for idx, _ in held.sectors) == len(model.states) == 21
        assert np.array_equal(np.concatenate([idx for idx, _ in held.sectors]), model.states)
        every = rd._rotating_frame_hamiltonian(config, model.mode_frequency,
                                               np.ones(rd.emission_basis(config).dimension))
        assert_same_sectors(held, per_sector_rule(every, subspace))

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(["zeno2", "zeno4"]), columns=st.integers(1, 3), data=st.data())
    def test_same_sectors_as_the_per_sector_rule(self, case, columns, data):
        config = {"zeno2": default_zeno2_config, "zeno4": default_zeno4_config}[case]()
        basis, weights, exchange = z2._hamiltonian_terms(config, True)
        labels = z2.conserved_labels(config)
        every = every_sector(config)
        batch = np.zeros((basis.dimension, columns), dtype=complex)
        for row, column in data.draw(st.lists(st.tuples(st.integers(0, basis.dimension - 1),
                                                        st.integers(0, columns - 1)), max_size=8)):
            batch[row, column] = data.draw(st.sampled_from([1.0, -1e-300, 1e-300j]))
        for start in (batch, batch[:, 0]):
            held = h.assemble_sectors(basis, weights, exchange, labels, start)
            np.testing.assert_array_equal(held.diagonal, every.diagonal)
            assert_same_sectors(held, per_sector_rule(every, start))

    def test_nothing_reached_holds_no_sector(self):
        config = default_zeno2_config()
        basis, weights, exchange = z2._hamiltonian_terms(config, True)
        held = h.assemble_sectors(basis, weights, exchange, z2.conserved_labels(config),
                                  np.zeros((basis.dimension, 2), dtype=complex))
        assert held.sectors == ()
        batch = np.ones((basis.dimension, 2), dtype=complex)
        assert np.array_equal(h.BlockEvolver(held).propagate(batch, 0.1), np.zeros_like(batch))

    def test_largest_four_level_pair_holds_six_sectors(self):
        # [zeno4] photon_number = 61, the largest the schema admits: 65,536
        # basis states, of which the injected batch reaches 96
        config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.001,
                                                  final_time=100.0, photon_number=61)
        sectors = zm.build_four_level_hamiltonian(config)
        assert sectors.basis.dimension == 65536 and len(sectors.diagonal) == 65536
        assert len(sectors.sectors) == 6
        assert sum(len(idx) for idx, _ in sectors.sectors) == 96

    @pytest.mark.parametrize("photons", [8, 40])
    def test_four_level_run_equals_the_every_sector_run(self, photons):
        config = zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.01, final_time=1.0,
                                                  photon_number=photons)
        reached = zm.run_four_level_protocol(config)
        every = z2.run_zeno(config, every_sector(config), zm.subradiant_state(config))
        for name in ("times", "p_success", "p_error_per_cycle", "analytic_p_s"):
            np.testing.assert_array_equal(getattr(reached, name), getattr(every, name))
        np.testing.assert_array_equal(reached.final_state.amplitudes,
                                      every.final_state.amplitudes)
        assert reached.max_mode_tail == every.max_mode_tail

    @pytest.mark.parametrize("photons", [3, 10])
    def test_leakage_at_other_photon_number_equals_full_sector_evolution(self, photons):
        # the V pair with Fock cutoffs 12 and its window sized for n = 8
        config = zm.three_level_config(photon_number=8).replace(fock_cutoffs=(12, 12),
                                                                photon_number=photons)
        state = zm.pair_superposition(config, config.TRANSITIONS[:1], (photons, photons))
        full = h.BlockEvolver(every_sector(config))
        evolved = full.evolve(state, config.measure_interval).amplitudes
        populations = np.abs(evolved.reshape(3, 3, -1)) ** 2
        excited = [upper for upper, _ in config.TRANSITIONS]
        expected = sum(float(populations[a, b].sum()) for a in excited for b in excited)
        assert zm.leakage(config) == expected
        assert expected > 0.0


def per_block_propagate(sectors, amplitudes, duration):
    """The sector product block by block: one ``eigh`` and one product per block.

    The bit-level oracle of :class:`hilbert.BlockEvolver`, which stacks the
    blocks of each size.  A block on which every column vanishes stays zero.
    """
    out = np.zeros_like(amplitudes)
    for idx, block in sectors.sectors:
        sub = amplitudes[idx]
        if np.any(sub):
            w, v = np.linalg.eigh(block)
            out[idx] = v @ h._rowwise(np.exp(-1j * duration * w), v.conj().T @ sub)
    return out


def default_zeno2_config():
    """The [zeno2] pair of configs/defaults.cfg at its shorter cycle, run to t = 1."""
    return z2.config_for_cycle_time(0.001, 1.0)


def default_zeno4_config():
    """The [zeno4] pair of configs/defaults.cfg."""
    return zm.four_level_config_from_deltas(2.0, 2.0, cycle_time=0.001, final_time=100.0,
                                            photon_number=8)


def every_sector(config):
    """The coupled pair Hamiltonian on every conserved-label sector: an all-ones start."""
    basis, weights, exchange = z2._hamiltonian_terms(config, True)
    return h.assemble_sectors(basis, weights, exchange, z2.conserved_labels(config),
                              np.ones(basis.dimension))


def per_sector_rule(sectors, start):
    """The sectors of ``sectors`` on which ``start`` is nonzero, tested one sector at a time.

    ``start`` is one amplitude vector or a (dimension, k) batch of them.
    """
    hit = start.reshape(len(start), -1).any(axis=1)
    return sectors._replace(sectors=tuple(sector for sector in sectors.sectors
                                          if hit[sector[0]].any()))


def assert_same_sectors(held, expected):
    """Equal bases, and equal sector indices and blocks in the same order."""
    assert held.basis == expected.basis
    assert len(held.sectors) == len(expected.sectors)
    for (idx, block), (expected_idx, expected_block) in zip(held.sectors, expected.sectors):
        np.testing.assert_array_equal(idx, expected_idx)
        np.testing.assert_array_equal(block, expected_block)


def default_zeno2_sectors():
    """The coupled default [zeno2] pair on every sector."""
    return every_sector(default_zeno2_config())


def default_zeno4_sectors():
    """The coupled default [zeno4] pair on every sector."""
    return every_sector(default_zeno4_config())


def eigh_spy(monkeypatch):
    """Record the matrices of every ``np.linalg.eigh`` call, each call as one stack."""
    stacks = []
    original = np.linalg.eigh

    def recording(matrices):
        stacks.append(np.reshape(matrices, (-1, *np.shape(matrices)[-2:])).copy())
        return original(matrices)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return stacks


def unordered_sectors():
    """Random Hermitian blocks of sizes 3, 1, 3, 2, 1, 2 on scattered basis states."""
    rng = np.random.default_rng(5)
    basis = h.build_basis([h.Atom(2), h.Mode(5)])
    states = rng.permutation(basis.dimension)
    diagonal = np.empty(basis.dimension)
    sectors = []
    for size, start in zip((3, 1, 3, 2, 1, 2), (0, 3, 4, 7, 9, 10)):
        idx = np.sort(states[start:start + size])
        block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        block += block.conj().T
        diagonal[idx] = block.diagonal().real
        sectors.append((idx, block))
    return h.SectorHamiltonian(basis, diagonal, tuple(sectors))


def _label_operator(basis, labels):
    return h.OperatorMatrix(basis, np.diag(labels.astype(complex)), hermitian=True)


class TestOperatorFlags:
    def test_hermitian_flag_verified(self):
        basis = h.build_basis([h.Atom(2)])
        with pytest.raises(ValueError):
            h.OperatorMatrix(basis, [[0, 1], [0, 0]], hermitian=True)


def kronecker_hamiltonian(basis, atom_energies, mode_frequencies, exchange_terms):
    """Oracle for assemble_hamiltonian built from chained Kronecker operators.

    sum E |level><level| per atom, sum w (a^dag a + 1/2) per mode, and
    g (|upper><lower| a + h.c.) per exchange term (no ``a`` when the mode is
    None).
    """
    dim = basis.dimension
    m = np.zeros((dim, dim), dtype=complex)
    for atom, energies in enumerate(atom_energies):
        for level, energy in enumerate(energies):
            m += energy * atomic_projector(basis, atom, level, level).matrix
    for offset, frequency in enumerate(mode_frequencies):
        a = annihilation(basis, len(atom_energies) + offset).matrix
        m += frequency * (a.conj().T @ a + 0.5 * np.eye(dim))
    for atom, upper, lower, mode, strength in exchange_terms:
        op = atomic_projector(basis, atom, upper, lower).matrix
        if mode is not None:
            op = op @ annihilation(basis, mode).matrix
        m += strength * (op + op.conj().T)
    return m


def _two_level_case(coupled):
    config = z2.config_for_cycle_time(0.05, 1.0, common_offset=0.3)
    g = 0.5 * config.coupling
    exchange = [(0, 1, 0, 2, g), (1, 1, 0, 2, g)] if coupled else []
    levels = [(e.g, e.e) for e in (config.atom_a, config.atom_b)]
    oracle = kronecker_hamiltonian(z2.pair_basis(config), levels,
                                   config.mode_frequencies, exchange)
    return build_hamiltonian(config, coupled), oracle


def _three_level_case(coupled):
    config = zm.three_level_config(photon_number=1, ground=0.25)
    g = 0.5 * config.coupling
    exchange = []
    if coupled:
        for atom in (0, 1):
            exchange += [(atom, zm.E1_3, zm.G3, 2, g), (atom, zm.E2_3, zm.G3, 3, g)]
    levels = [(e.g, e.e1, e.e2) for e in (config.atom_a, config.atom_b)]
    oracle = kronecker_hamiltonian(z2.pair_basis(config), levels,
                                   config.mode_frequencies, exchange)
    return build_hamiltonian(config, coupled), oracle


def _four_level_case(coupled):
    config = zm.four_level_config_from_deltas(1.0, 0.5, cycle_time=0.02, final_time=0.2,
                                              photon_number=1, ground_2=0.75)
    g = 0.5 * config.coupling
    exchange = []
    if coupled:
        for atom in (0, 1):
            exchange += [(atom, zm.E1, zm.G1, 2, g), (atom, zm.E2, zm.G2, 3, g)]
    levels = [(e.g1, e.g2, e.e1, e.e2) for e in (config.atom_a, config.atom_b)]
    oracle = kronecker_hamiltonian(z2.pair_basis(config), levels,
                                   config.mode_frequencies, exchange)
    return build_hamiltonian(config, coupled), oracle


def _readout_case(coupled):
    config = rd.readout_config(transition_1=121.5)
    mode_frequency = config.emission_frequency
    levels = (config.mean_level("g1"), config.mean_level("g2"), config.mean_level("e1"),
              config.mean_level("g1") + config.detuning)
    exchange = []
    for atom in (0, 1):
        exchange += [(atom, rd.E1, rd.G1, 2, 0.5 * config.coupling),
                     (atom, rd.E2, rd.G1, None, 0.5 * config.drive_amplitude)]
    oracle = kronecker_hamiltonian(rd.emission_basis(config), [levels, levels],
                                   [mode_frequency], exchange)
    terms = rd._rotating_frame_terms(config, mode_frequency)
    return assemble_hamiltonian(*terms), oracle


class TestAssembleHamiltonian:
    @pytest.mark.parametrize("case, coupled", [
        (_two_level_case, False), (_two_level_case, True),
        (_three_level_case, False), (_three_level_case, True),
        (_four_level_case, False), (_four_level_case, True),
        (_readout_case, True),  # exchange with the mode plus an atom-only drive
    ])
    def test_matches_kronecker_construction(self, case, coupled):
        assembled, oracle = case(coupled)
        assert assembled.hermitian
        assert np.max(np.abs(assembled.matrix - oracle)) <= 1e-12

    def test_photon_energies_are_exact(self):
        basis = h.build_basis([h.Atom(2), h.Mode(15)])
        ham = assemble_hamiltonian(basis, [(0.0, 0.0), 100.0 * (np.arange(16) + 0.5)], [])
        photons = np.array([basis.occupations(i)[1] for i in range(basis.dimension)])
        assert np.array_equal(ham.matrix.diagonal().real, 100.0 * (photons + 0.5))


def assert_sectors_match_dense(sectors, dense):
    """Sector blocks equal the dense operator on each sector, which is zero between them."""
    dim = dense.basis.dimension
    covered = np.sort(np.concatenate([idx for idx, _ in sectors.sectors]))
    assert np.array_equal(covered, np.arange(dim))
    inside = np.zeros((dim, dim), dtype=bool)
    for idx, block in sectors.sectors:
        assert np.max(np.abs(block - dense.matrix[np.ix_(idx, idx)])) <= 1e-12
        inside[np.ix_(idx, idx)] = True
    assert not np.any(dense.matrix[~inside])
    assert np.max(np.abs(sectors.diagonal - dense.matrix.diagonal())) <= 1e-12


def dense_sectors(dense, labels):
    """Sector Hamiltonian sliced out of a dense operator, one block per label value."""
    sectors = []
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        sectors.append((idx, dense.matrix[np.ix_(idx, idx)]))
    return h.SectorHamiltonian(dense.basis, dense.matrix.diagonal().real, tuple(sectors))


class TestAssembleSectors:
    @pytest.mark.parametrize("scheme", ["two", "three", "four"])
    def test_pair_sectors_match_dense_assembly(self, scheme):
        if scheme == "two":
            config = z2.config_for_cycle_time(0.05, 1.0, photon_number=2, common_offset=0.3)
        elif scheme == "three":
            config = zm.three_level_config(photon_number=2, ground=0.25)
        else:
            config = zm.four_level_config_from_deltas(1.0, 0.5, cycle_time=0.02,
                                                      final_time=0.2, photon_number=2,
                                                      ground_2=0.75)
        assert_sectors_match_dense(every_sector(config), build_hamiltonian(config))

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_emission_sectors_match_dense_assembly(self, cutoff):
        # conserved: L (atoms in E1 plus photons) and the atoms in G2
        config = rd.readout_config(transition_1=121.5).replace(emission_mode_cutoff=cutoff)
        frequency = config.emission_frequency + 0.3
        sectors = rd._rotating_frame_hamiltonian(
            config, frequency, np.ones(rd.emission_basis(config).dimension))
        assert_sectors_match_dense(
            sectors, assemble_hamiltonian(*rd._rotating_frame_terms(config, frequency)))
        assert max(len(idx) for idx, _ in sectors.sectors) == (8 if cutoff == 1 else 9)

    def test_atom_only_drive(self):
        # the readout Hamiltonian conserves atoms in E1 plus photons: the
        # drive moves G1 <-> E2, the mode E1 <-> G1 with one photon
        config = rd.readout_config(transition_1=121.5)
        basis = rd.emission_basis(config)
        levels = [config.mean_level(name) for name in ("g1", "g2", "e1", "e2")]
        weights = [levels, levels, 110.0 * (np.arange(3) + 0.5)]
        exchange = []
        for atom in (0, 1):
            exchange += [(atom, rd.E1, rd.G1, 2, 0.7), (atom, rd.E2, rd.G1, None, 0.3)]
        labels = h.occupation_labels(basis, [[0, 0, 1, 0], [0, 0, 1, 0], [0, 1, 2]])
        assert_sectors_match_dense(
            h.assemble_sectors(basis, weights, exchange, labels, np.ones(basis.dimension)),
            assemble_hamiltonian(basis, weights, exchange))

    def test_block_evolver_from_sectors_matches_dense(self):
        config = zm.four_level_config_from_deltas(1.0, 0.5, cycle_time=0.02,
                                                  final_time=0.2, photon_number=2)
        dense = build_hamiltonian(config)
        sectors = h.BlockEvolver(every_sector(config))
        oracle = h.BlockEvolver(dense_sectors(dense, z2.conserved_labels(config)))
        psi = random_state(dense.basis, np.random.default_rng(8))
        for t in (0.01, 0.4):
            np.testing.assert_allclose(sectors.evolve(psi, t).amplitudes,
                                       h.evolve(psi, dense, t).amplitudes, atol=1e-10)
            np.testing.assert_array_equal(sectors.evolve(psi, t).amplitudes,
                                          oracle.evolve(psi, t).amplitudes)

    def test_rejects_term_crossing_sectors(self):
        basis = h.build_basis([h.Atom(2), h.Mode(2)])
        photons = h.occupation_labels(basis, [[0, 0], [0, 1, 2]])
        with pytest.raises(ValueError, match="couples different label sectors"):
            h.assemble_sectors(basis, [[0.0, 1.0], [0.5, 1.5, 2.5]],
                               [(0, 1, 0, 1, 0.5)], photons, np.ones(basis.dimension))

    def test_rejects_term_crossing_sectors_outside_the_start(self):
        # a Jaynes-Cummings term conserves atom plus photons; one relabelled
        # state breaks that only in the label-2 sector, and the start lies in
        # the label-0 sector, which no entry touches
        basis = h.build_basis([h.Atom(2), h.Mode(2)])
        labels = h.occupation_labels(basis, [[0, 1], [0, 1, 2]])
        labels[basis.index([1, 1])] += 100
        start = np.zeros(basis.dimension)
        start[basis.index([0, 0])] = 1.0
        weights, exchange = [[0.0, 1.0], [0.5, 1.5, 2.5]], [(0, 1, 0, 1, 0.5)]
        with pytest.raises(ValueError, match="couples different label sectors"):
            h.assemble_sectors(basis, weights, exchange, labels, start)
        labels[basis.index([1, 1])] -= 100
        held = h.assemble_sectors(basis, weights, exchange, labels, start)
        assert [idx.tolist() for idx, _ in held.sectors] == [[basis.index([0, 0])]]
