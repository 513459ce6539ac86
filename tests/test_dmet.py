"""Bath construction, embedding Hamiltonians, fragment solvers, and the
chemical-potential loop."""

import hashlib
import importlib.util
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import vqemb.chem as chem_mod
import vqemb.dmet as dmet_mod
from vqemb.ansatz import HeaConfig, build_hea
from vqemb.chem import (
    MeanField,
    MolecularIntegrals,
    ScfConvergenceError,
    WindowError,
    active_space,
    coulomb_exchange,
    restricted_hartree_fock,
)
from vqemb.dmet import (
    DegenerateGroundStateError,
    DmetConvergenceError,
    EmbeddingProblem,
    ExactFragmentSolver,
    FragmentSolution,
    Fragmentation,
    VqeFragmentSolver,
    build_embedding,
    democratic_fragment_energy,
    full_ci_ground_energy,
    make_bath,
    run_dmet,
    sector_ground_state,
    solve_fragment,
    spin_summed_rdms,
)
from vqemb.mapping import (
    JORDAN_WIGNER,
    PARITY,
    MappingSpec,
    build_fermionic_hamiltonian,
    decode_statevector,
    hartree_fock_bitstring,
    map_to_qubits,
)
from vqemb.optimize import NonFiniteObjectiveError
from vqemb.pauli import PauliExpectation, QubitHamiltonian
from vqemb.simulator import ReadoutNoiseModel, evolve
from vqemb.vqe import EstimatorSpec, NoiseWidthError, OptimizerSpec

from fermion_terms import fermion_operator

# the fragmentations of H10 that fit the exact solver's cap
H10_FRAGMENTS = {
    "5x2": ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)),
    "2+3+3+2": ((0, 1), (2, 3, 4), (5, 6, 7), (8, 9)),
}
EXACT = ExactFragmentSolver()
# the error of vqe.check_settings's one seed rule
SEED_RULE = "a random start, multi-start, sampled estimation or SPSA needs vqe.seed"


def hubbard_chain(n, t=1.0, u=2.0, n_electrons=None):
    """Hubbard chain in its particle-hole symmetric form, half-filled by default."""
    h = np.zeros((n, n))
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = -t
    np.fill_diagonal(h, -u / 2)
    g = np.zeros((n, n, n, n))
    for i in range(n):
        g[i, i, i, i] = u
    return MolecularIntegrals(n, n if n_electrons is None else n_electrons, 0.0, h, g)


def _fixture_generator():
    """tools/make_fixtures.py, which shares no code with the package."""
    path = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _failing_rhf(*args, **kwargs):
    raise ScfConvergenceError("forced failure", density_change=1.0)


@dataclass(frozen=True)
class MismatchSolver:
    """A fragment solver whose every solve returns an equal share of n_electrons + mismatch(mu)."""

    n_fragments: int
    n_electrons: int
    mismatch: Callable[[float], float]

    def prepare(self, e, window):
        return None

    def solve(self, e, prepared, mu, x0):
        share = (self.n_electrons + self.mismatch(mu)) / self.n_fragments
        return FragmentSolution(energy=0.0, n_electrons=share)


class CountingSolver:
    """Hands each call to ``solver``, logged as ("prepare", window) or ("solve", mu)."""

    def __init__(self, solver=EXACT):
        self.solver, self.calls = solver, []

    @property
    def solves(self):
        return [mu for kind, mu in self.calls if kind == "solve"]

    def prepare(self, e, window):
        self.calls.append(("prepare", window))
        return self.solver.prepare(e, window)

    def solve(self, e, prepared, mu, x0):
        self.calls.append(("solve", mu))
        return self.solver.solve(e, prepared, mu, x0)


def degenerate_levels():
    """Two electrons on two equal non-interacting levels: four degenerate ground states."""
    n = 2
    return EmbeddingProblem(
        one_body_bare=-np.eye(n), env_fold=np.zeros((n, n)), two_body=np.zeros((n,) * 4),
        fock=-np.eye(n), n_fragment=1, n_electrons=2, core_energy=0.0,
    )


def _count_calls(monkeypatch, name, module=dmet_mod):
    """Wrap ``module.<name>`` so that each call appends its arguments to the returned list."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _jw_expectation(n_modes, ops, state):
    h = map_to_qubits(fermion_operator(n_modes, ops), MappingSpec(JORDAN_WIGNER))
    return np.vdot(state, h.to_matrix() @ state)


class TestFragmentation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="more than one"):
            Fragmentation(((0, 1), (1, 2)))

    def test_empty_fragment_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Fragmentation(((0,), ()))

    def test_cover_check(self):
        with pytest.raises(ValueError, match="cover"):
            Fragmentation(((0,), (2,))).validate_cover(3)


class TestMakeBath:
    def test_whole_molecule_has_no_bath(self, h4, h4_mf):
        basis, env = make_bath(h4_mf, (0, 1, 2, 3))
        assert basis.shape == (4, 4)
        assert np.allclose(env, 0.0)

    def test_block_diagonal_density_gives_no_bath(self):
        # 4 electrons fill orbitals 0 and 1; the density is diagonal, so no
        # fragment-environment entanglement exists for any index fragment
        levels = MolecularIntegrals(
            4, 4, 0.0,
            np.diag([-2.0, -1.0, 1.0, 2.0]),
            np.zeros((4, 4, 4, 4)),
        )
        mf = restricted_hartree_fock(levels)
        basis, env = make_bath(mf, (2, 3))
        assert basis.shape[1] == 2  # no bath, fragment only
        assert np.trace(env) == pytest.approx(4.0, abs=1e-8)  # both pairs stay outside
        basis, env = make_bath(mf, (0, 1))
        assert basis.shape[1] == 2
        assert np.trace(env) == pytest.approx(0.0, abs=1e-8)  # all electrons inside

    def test_h4_fragment_bookkeeping(self, h4, h4_mf):
        m, _ = h4
        basis, env = make_bath(h4_mf, (0, 1))
        assert basis.shape[1] <= 4
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        emb_electrons = np.trace(basis.T @ h4_mf.density @ basis)
        assert emb_electrons + np.trace(env) == pytest.approx(m.n_electrons, abs=1e-8)


class TestFragmentHamiltonian:
    def test_whole_molecule_embedding_is_identity(self, h4, h4_mf):
        m, _ = h4
        ints = build_embedding(m, h4_mf, range(4)).solver_integrals()
        assert full_ci_ground_energy(ints) == pytest.approx(full_ci_ground_energy(m), abs=1e-8)

    def test_mu_shifts_fragment_diagonal_exactly(self, h4, h4_mf):
        m, _ = h4
        e = build_embedding(m, h4_mf, (0, 1))
        base = e.solver_integrals(0.0).one_body
        shifted = e.solver_integrals(0.25).one_body
        delta = base - shifted
        assert delta[0, 0] == pytest.approx(0.25) and delta[1, 1] == pytest.approx(0.25)
        off = delta - np.diag(np.diag(delta))
        assert np.allclose(off, 0.0)
        assert np.allclose(np.diag(delta)[2:], 0.0)

    @pytest.mark.parametrize(
        "system,fragments",
        [("h4", ((0, 1), (2, 3), (0,), (1,), (2,), (3,))), ("h10", H10_FRAGMENTS["5x2"]),
         ("h10", H10_FRAGMENTS["2+3+3+2"])],
        ids=["h4", "h10-5x2", "h10-2+3+3+2"],
    )
    def test_fock_is_the_mean_field_of_the_projected_density(self, system, fragments, request):
        # the Schmidt embedding of the lattice RHF state holds its mean field: no SCF needed
        m, _ = request.getfixturevalue(system)
        mf = request.getfixturevalue(f"{system}_mf")
        for fragment in fragments:
            e = build_embedding(m, mf, fragment)
            basis, _ = make_bath(mf, fragment)
            P = basis.T @ mf.density @ basis
            J, K = coulomb_exchange(e.two_body, P)
            fock_at_P = e.one_body_bare + e.env_fold + J - 0.5 * K
            assert np.allclose(e.fock, fock_at_P, rtol=0, atol=1e-8)
            occupied = np.linalg.eigh(e.fock)[1][:, : e.n_electrons // 2]
            aufbau = 2.0 * occupied @ occupied.T
            assert np.allclose(aufbau, P, rtol=0, atol=1e-12)
            scf = restricted_hartree_fock(e.solver_integrals()).density
            assert np.allclose(aufbau, scf, rtol=0, atol=1e-8)


# (system, active-space window or None for all orbitals, encoding): every case
# up to 10 qubits, which leaves out H10 window 3 under the two 12-qubit encodings
ENCODINGS = {
    "jordan_wigner": (JORDAN_WIGNER, False), "parity": (PARITY, False),
    "parity_reduced": (PARITY, True),
}
ORACLE_CASES = [
    (system, window, encoding)
    for system, windows in (("h2", (None, 1)), ("h4", (None, 1, 2)), ("h10", (1, 2, 3)))
    for window in windows
    for encoding in ENCODINGS
    if (system, window) != ("h10", 3) or encoding == "parity_reduced"
]


class TestSectorSolver:
    @pytest.mark.parametrize("system, window, encoding", ORACLE_CASES,
                             ids=lambda v: "full" if v is None else str(v))
    def test_full_ci_equals_the_dense_oracle(self, system, window, encoding, request):
        m = request.getfixturevalue(system)[0]
        if window is not None:
            m, _ = active_space(m, request.getfixturevalue(f"{system}_mf"), window)
        spec = MappingSpec(*ENCODINGS[encoding], n_electrons=m.n_electrons)
        dense, _ = map_to_qubits(build_fermionic_hamiltonian(m), spec).ground_state_energy()
        assert abs(full_ci_ground_energy(m) - dense) < 1e-13

    def test_matches_dense_oracle(self, h2):
        m, meta = h2
        h = map_to_qubits(build_fermionic_hamiltonian(m), MappingSpec(JORDAN_WIGNER))
        dense_energy, _ = h.ground_state_energy()
        sector_energy, state = sector_ground_state(m)
        assert sector_energy == pytest.approx(dense_energy, abs=1e-10)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_rdm_traces(self, h4):
        m, _ = h4
        _, state = sector_ground_state(m)
        gamma, Gamma = spin_summed_rdms(state, 4)
        assert np.trace(gamma) == pytest.approx(4.0, abs=1e-10)
        # energy reassembled from RDMs equals the eigenvalue
        e_rdm = (
            m.core_energy
            + float(np.sum(m.one_body * gamma))
            + 0.5 * float(np.einsum("pqrs,pqrs->", m.two_body, Gamma))
        )
        assert e_rdm == pytest.approx(full_ci_ground_energy(m), abs=1e-8)

    def test_rdms_match_operator_expectations(self, h2):
        # independent route: fermionic operators mapped to qubits
        m, _ = h2
        _, state = sector_ground_state(m)
        gamma, _ = spin_summed_rdms(state, 2)

        for p in range(2):
            for q in range(2):
                ops = tuple(
                    (1.0 + 0j, ((2 * p + s, True), (2 * q + s, False))) for s in (0, 1)
                )
                op = map_to_qubits(fermion_operator(4, ops), MappingSpec(JORDAN_WIGNER))
                value = np.vdot(state, op.to_matrix() @ state)
                assert value.real == pytest.approx(gamma[p, q], abs=1e-10)

    @pytest.mark.parametrize(
        "system",
        ["h2", "h4", (3, 2), (3, 4), (4, 4), (5, 4), (5, 6)],
        ids=lambda s: s if isinstance(s, str) else "hubbard{}_{}e".format(*s),
    )
    def test_energy_matches_independent_references(self, system, request):
        # Hubbard chains are (sites, electrons): odd chains cannot be exactly
        # half filled in a closed shell, so they take the fillings either side
        if isinstance(system, str):
            m = request.getfixturevalue(system)[0]
        else:
            m = hubbard_chain(system[0], n_electrons=system[1])
        energy, state = sector_ground_state(m)

        fci = _fixture_generator().fci_ground_energy(
            m.one_body, m.two_body, m.n_electrons, m.core_energy
        )
        assert energy == pytest.approx(fci, abs=1e-10)

        n_modes = 2 * m.n_orbitals
        alpha = sum(1 << (n_modes - 1 - mode) for mode in range(0, n_modes, 2))
        half = m.n_electrons // 2
        sector = [
            i for i in range(1 << n_modes)
            if bin(i & alpha).count("1") == half and bin(i & (alpha >> 1)).count("1") == half
        ]
        h = map_to_qubits(build_fermionic_hamiltonian(m), MappingSpec(JORDAN_WIGNER))
        block = h.to_matrix()[np.ix_(sector, sector)]
        assert energy == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-10)
        assert np.allclose(np.delete(state, sector), 0.0)

    @pytest.mark.parametrize("n_spatial", [2, 3])
    def test_rdms_of_random_fock_vectors(self, n_spatial):
        # real amplitudes on every basis state, so every particle-number
        # sector and every off-sector coherence contributes
        n_modes = 2 * n_spatial
        rng = np.random.default_rng(n_spatial)
        state = rng.normal(size=1 << n_modes)
        state /= np.linalg.norm(state)
        gamma, Gamma = spin_summed_rdms(state, n_spatial)
        orbitals = range(n_spatial)
        for p in orbitals:
            for q in orbitals:
                ops = tuple((1.0, ((2 * p + s, True), (2 * q + s, False))) for s in (0, 1))
                assert gamma[p, q] == pytest.approx(
                    _jw_expectation(n_modes, ops, state).real, abs=1e-12
                )
                for r in orbitals:
                    for t in orbitals:
                        ops = tuple(
                            (1.0, ((2 * p + a, True), (2 * r + b, True),
                                   (2 * t + b, False), (2 * q + a, False)))
                            for a in (0, 1) for b in (0, 1)
                        )
                        assert Gamma[p, q, r, t] == pytest.approx(
                            _jw_expectation(n_modes, ops, state).real, abs=1e-12
                        )

    def test_cap_is_checked_before_building(self, h10, monkeypatch):
        def no_build(*args):
            raise AssertionError("built the excitation table past the cap")

        monkeypatch.setattr(dmet_mod, "_excitation_operators", no_build)
        m, _ = h10
        with pytest.raises(ValueError, match="20 qubits exceeds the exact-solver cap of 14"):
            sector_ground_state(m)


class TestPreparedSectorOperator:
    @pytest.mark.parametrize(
        "system,fragments",
        [("h4", ((0, 1), (2, 3))), ("h10", H10_FRAGMENTS["5x2"]), ("h10", H10_FRAGMENTS["2+3+3+2"])],
        ids=["h4", "h10-5x2", "h10-2+3+3+2"],
    )
    def test_prepared_solve_matches_a_fresh_build(self, system, fragments, request):
        m, _ = request.getfixturevalue(system)
        mf = request.getfixturevalue(f"{system}_mf")
        for fragment in fragments:
            e = build_embedding(m, mf, fragment)
            F = e.n_fragment
            prepared = EXACT.prepare(e)
            for mu in (0.0, 1e-4, -1e-4, 0.05):
                ints = e.solver_integrals(mu)
                energy, state = sector_ground_state(ints)
                ref_gamma, ref_Gamma = spin_summed_rdms(state, e.n_orbitals)
                gamma, Gamma, _ = dmet_mod._solve_embedding_sector(e, prepared, mu)
                assert np.allclose(gamma, ref_gamma, rtol=0, atol=1e-10)
                assert np.allclose(Gamma, ref_Gamma, rtol=0, atol=1e-10)
                # H(mu) = H(0) - mu diag(n_F) has the eigenvalue of the rebuilt H(mu)
                e_rdm = (
                    ints.core_energy
                    + float(np.sum(ints.one_body * gamma))
                    + 0.5 * float(np.einsum("pqrs,pqrs->", ints.two_body, Gamma))
                )
                assert e_rdm == pytest.approx(energy, abs=1e-10)
                sol = EXACT.solve(e, prepared, mu)
                ref = democratic_fragment_energy(ref_gamma, ref_Gamma, e)
                assert sol.energy == pytest.approx(ref, abs=1e-10)
                assert sol.n_electrons == pytest.approx(np.trace(ref_gamma[:F, :F]), abs=1e-10)

    def test_one_build_per_embedding_per_run(self, h10, h10_mf, monkeypatch):
        built = []
        build = dmet_mod._excitation_operators

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(dmet_mod, "_excitation_operators", counting)
        fragments = H10_FRAGMENTS["2+3+3+2"]
        res = run_dmet(h10[0], h10_mf, Fragmentation(fragments))
        assert len(res.trace) == 2  # mu = 0 and one Newton step on the analytic slope
        # one per mirror class: [8, 9] reuses [0, 1] and [5, 6, 7] reuses [2, 3, 4]
        assert len(built) == 2


class TestWindowedSectorOperator:
    @pytest.mark.parametrize(
        "system,fragments,window",
        [("h4", ((0, 1), (0,)), 1),
         ("h10", H10_FRAGMENTS["5x2"][:3], 1),
         ("h10", H10_FRAGMENTS["5x2"][:3], 2),
         ("h10", H10_FRAGMENTS["2+3+3+2"][:2], 2)],
        ids=["h4-window1", "h10-5x2-window1", "h10-5x2-window2", "h10-2+3+3+2-window2"],
    )
    def test_windowed_solve_matches_a_fresh_rebuild(self, system, fragments, window, request):
        m, _ = request.getfixturevalue(system)
        mf = request.getfixturevalue(f"{system}_mf")
        for fragment in fragments:
            e = build_embedding(m, mf, fragment)
            n, F = e.n_orbitals, e.n_fragment
            # the window is fixed at the orbitals of the embedding's Fock matrix at mu = 0;
            # active_space reads only the orbitals and their energies
            eps, C = np.linalg.eigh(e.fock)
            orbitals = MeanField(C, eps, density=None, hf_energy=None)
            prepared = EXACT.prepare(e, window)
            for mu in (0.0, 0.05):
                acts, info = active_space(e.solver_integrals(mu), orbitals, window)
                _, state = sector_ground_state(acts)
                # the active state with every frozen orbital doubly occupied, on
                # the full register of those orbitals (mode 0 on the top bit)
                lo, hi = info.active_orbitals[0], info.active_orbitals[-1] + 1
                frozen_bits = ((1 << 2 * lo) - 1) << 2 * (n - lo)
                full = np.zeros(1 << 2 * n)
                full[frozen_bits | np.arange(state.size) << 2 * (n - hi)] = state
                gamma_mo, Gamma_mo = spin_summed_rdms(full, n)
                gamma = C @ gamma_mo @ C.T
                Gamma = np.einsum("pa,qb,rc,sd,abcd->pqrs", C, C, C, C, Gamma_mo)
                sol = EXACT.solve(e, prepared, mu)
                assert sol.energy == pytest.approx(
                    democratic_fragment_energy(gamma, Gamma, e), abs=1e-10
                )
                assert sol.n_electrons == pytest.approx(np.trace(gamma[:F, :F]), abs=1e-10)

    def test_one_rhf_per_embedding_and_no_probes(self, h10, h10_mf, monkeypatch):
        rhf = _count_calls(monkeypatch, "restricted_hartree_fock", chem_mod)
        solver = CountingSolver()
        res = run_dmet(h10[0], h10_mf, Fragmentation(H10_FRAGMENTS["5x2"]), solver, window=2)
        assert res.converged
        # no SCF: every window reads its embedding's projected lattice Fock matrix
        assert len(rhf) == 0 and not hasattr(dmet_mod, "restricted_hartree_fock")
        assert res.fragment_solves == len(solver.solves) == 6 == 3 * len(res.trace)

    @pytest.mark.parametrize(
        "name,window,total_energy,mu,steps",
        [("5x2", 1, -5.380716561319, -0.011648607310, 3),
         ("2+3+3+2", 2, -5.436288174842, -0.001559892309, 2)],
    )
    def test_h10_windowed_runs_are_pinned(
        self, h10, h10_mf, name, window, total_energy, mu, steps
    ):
        res = run_dmet(h10[0], h10_mf, Fragmentation(H10_FRAGMENTS[name]), window=window)
        assert res.converged
        assert res.total_energy == pytest.approx(total_energy, abs=1e-9)
        assert res.mu == pytest.approx(mu, abs=1e-9)
        assert len(res.trace) == steps

    def test_cap_is_checked_before_the_scf(self, h10, h10_mf, monkeypatch):
        # the cap on the active register is checked before anything is built
        def no_build(*args):
            raise AssertionError("built the excitation table past the cap")

        monkeypatch.setattr(dmet_mod, "_excitation_operators", no_build)
        halves = Fragmentation(((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
        with pytest.raises(ValueError, match="16 qubits exceeds the exact-solver cap of 14"):
            run_dmet(h10[0], h10_mf, halves, window=4)


def _digest(*arrays):
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    return hashlib.sha256(data).hexdigest()[:32]


class TestSectorPins:
    """The sector Hamiltonian and the RDMs, bit for bit (sha256 of their bytes)."""

    # (fragment, mu) -> (H of the H10 embedding, gamma and Gamma at its ground state)
    PINNED = {
        ((0, 1), 0.0): ("21384e6a0563bd9e8fc3063075ccfb7a", "118835a140280bf253421f2cd810eda8"),
        ((0, 1), 0.05): ("ff60ca60d61b1d119658b0de159909dc", "65e6e64f5a0f8adf78e1b2035dd7bc39"),
        ((2, 3, 4), 0.0): ("a55252d366c42d2d9b2fcb3dd9fce82e", "a27ef820fa225c3c72cf643d0e74ab16"),
        ((2, 3, 4), 0.05): ("d66dca0bb03565c02857eb08d509fd66", "67b9590d31a00a026489cc714a05bad9"),
    }

    @pytest.mark.parametrize("fragment,mu", list(PINNED), ids=lambda v: str(v))
    def test_h10_sector_hamiltonian_and_rdms(self, h10, h10_mf, fragment, mu):
        e = build_embedding(h10[0], h10_mf, fragment)
        _, E, H = dmet_mod._sector_hamiltonian(e.solver_integrals(mu))
        # LAPACK's last bits depend on its thread count, so the ground state is
        # rounded to float32 and its largest component made positive
        c0 = np.linalg.eigh(H)[1][:, 0].astype(np.float32).astype(float)
        c0 *= np.sign(c0[np.argmax(np.abs(c0))])
        h_digest, rdm_digest = self.PINNED[fragment, mu]
        assert _digest(H) == h_digest
        assert _digest(*dmet_mod._rdms(E, c0, e.n_orbitals)) == rdm_digest

    @pytest.mark.parametrize("n,sectors", [(2, "all"), (3, "all"), (4, (2, 2)), (6, (3, 3))])
    def test_excitation_table_layout(self, n, sectors):
        labels = dmet_mod._sector_labels(n)
        if sectors == "all":
            indices = np.arange(labels.size)
        else:
            indices = np.flatnonzero(labels == sectors[0] * (n + 1) + sectors[1])
        d = indices.size
        op, row, col, val = dmet_mod._excitation_operators(n, indices)
        assert all(a.dtype == np.int64 for a in (op, row, col)) and val.dtype == np.float64
        key = (op * d + row) * d + col
        assert np.all(np.diff(key) > 0)  # sorted by (op, row, col), no duplicates
        assert set(np.unique(val)) <= {-1.0, 1.0, 2.0}
        p, q = np.divmod(op, n)
        assert np.all((val != 2.0) | ((p == q) & (row == col)))
        assert np.bincount(op * d + row).max() <= 2  # one entry per spin
        assert op.min() == 0 and op.max() == n * n - 1

    def test_rdms_of_a_decoded_parity_state(self, h4):
        m = h4[0]
        spec = MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=m.n_electrons)
        bits = hartree_fock_bitstring(m.n_orbitals, m.n_electrons, spec)
        circuit = build_hea(HeaConfig(len(bits), 2), bits)
        params = np.random.default_rng(7).uniform(-np.pi, np.pi, circuit.n_parameters)
        state = decode_statevector(evolve(circuit, params), 2 * m.n_orbitals, spec)
        assert state.dtype == float
        assert _digest(*spin_summed_rdms(state, m.n_orbitals)) == "8cbff97b27bd25694ee65fa69e133a0b"

    def test_rdms_of_a_real_state_on_every_sector(self):
        rng = np.random.default_rng(3)
        state = rng.normal(size=64)
        state /= np.linalg.norm(state)
        assert _digest(*spin_summed_rdms(state, 3)) == "506618c7d6ecac8edcc6b3b0135c33f8"

    def test_complex_state_is_refused_as_the_evaluator_refuses_it(self):
        # every circuit state is real; the RDMs read a state through the same check
        state = np.full(16, 0.25 + 0.0j)
        ev = PauliExpectation(QubitHamiltonian.from_dict(4, {"ZIII": 1.0}))
        messages = []
        for read in (ev, lambda v: spin_summed_rdms(v, 2)):
            with pytest.raises(ValueError, match="complex") as info:
                read(state)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_state_of_the_wrong_size_is_refused(self):
        with pytest.raises(ValueError, match="state dimension 8 does not match 4 qubits"):
            spin_summed_rdms(np.ones(8), 2)


class TestMuSlope:
    H4_FRAGMENTS = ((0, 1), (2, 3), (0,), (1,), (2,), (3,))
    H10_MIXED = H10_FRAGMENTS["5x2"] + ((2, 3, 4), (5, 6, 7))

    @pytest.mark.parametrize(
        "system,fragments,window",
        [pytest.param("h4", H4_FRAGMENTS, None, id="h4-fragments0"),
         pytest.param("h10", H10_MIXED, None, id="h10-fragments1"),
         pytest.param("h4", H4_FRAGMENTS, 1, id="h4-window1"),
         pytest.param("h10", H10_MIXED, 1, id="h10-window1"),
         pytest.param("h10", H10_MIXED, 2, id="h10-window2")],
    )
    def test_analytic_slope_matches_central_difference(self, system, fragments, window, request):
        m, _ = request.getfixturevalue(system)
        mf = request.getfixturevalue(f"{system}_mf")
        step = 1e-4
        for fragment in fragments:
            e = build_embedding(m, mf, fragment)
            prepared = EXACT.prepare(e, window)
            for mu in (0.0, 0.05):
                slope = EXACT.solve(e, prepared, mu).slope
                plus = EXACT.solve(e, prepared, mu + step).n_electrons
                minus = EXACT.solve(e, prepared, mu - step).n_electrons
                assert slope > 0
                assert slope == pytest.approx((plus - minus) / (2 * step), abs=1e-6)

    def test_windowed_solves_carry_a_slope_and_vqe_solves_none(self, h2, h2_mf, h4, h4_mf):
        windowed = solve_fragment(build_embedding(h4[0], h4_mf, (0, 1)), EXACT, window=1)
        assert windowed.slope > 0
        solver = VqeFragmentSolver(
            optimizer=OptimizerSpec("quasi_newton"), estimator=EstimatorSpec("exact")
        )
        assert solve_fragment(build_embedding(h2[0], h2_mf, (0,)), solver).slope is None

    def test_exact_newton_steps_need_no_probes(self, h4, h4_mf):
        solver = CountingSolver()
        res = run_dmet(h4[0], h4_mf, Fragmentation(((0,), (1,), (2,), (3,))), solver)
        assert res.converged and len(res.trace) > 1
        # [3] and [2] reuse [0] and [1]
        assert res.fragment_solves == len(solver.solves) == 2 * len(res.trace)


class TestMirrorClasses:
    @pytest.mark.parametrize("name,classes", [("5x2", 3), ("2+3+3+2", 2)])
    def test_one_solve_per_class_per_mu(self, h10, h10_mf, monkeypatch, name, classes):
        solver = CountingSolver()
        builds = _count_calls(monkeypatch, "build_embedding")
        fragments = H10_FRAGMENTS[name]
        res = run_dmet(h10[0], h10_mf, Fragmentation(fragments), solver)
        assert len(builds) == classes
        assert res.fragment_solves == len(solver.solves) == classes * len(res.trace)
        kinds = [kind for kind, _ in solver.calls]  # one prepare per class, all before any solve
        assert kinds == ["prepare"] * classes + ["solve"] * res.fragment_solves
        n = len(fragments)
        assert res.solved_as == [min(i, n - 1 - i) for i in range(n)]
        for i in range(n):  # a reused solve is the same numbers, not nearly equal ones
            assert res.fragment_energies[i] == res.fragment_energies[n - 1 - i]
            assert res.fragment_electrons[i] == res.fragment_electrons[n - 1 - i]

    def test_broken_symmetry_solves_every_fragment(self, h4):
        m, _ = h4
        h = m.one_body.copy()
        h[0, 0] += 1e-9
        perturbed = MolecularIntegrals(m.n_orbitals, m.n_electrons, m.core_energy, h, m.two_body)
        solver = CountingSolver()
        mf = restricted_hartree_fock(perturbed)
        res = run_dmet(perturbed, mf, Fragmentation(((0, 1), (2, 3))), solver)
        assert res.converged
        assert res.solved_as == [0, 1]
        assert res.fragment_solves == len(solver.solves) == 2 * len(res.trace)

    def test_fragmentation_without_a_mirror_pair_solves_every_fragment(
        self, h4, h4_mf, monkeypatch
    ):
        solver = CountingSolver()
        builds = _count_calls(monkeypatch, "build_embedding")
        res = run_dmet(h4[0], h4_mf, Fragmentation(((0,), (1,), (2, 3))), solver)
        assert res.converged
        assert res.solved_as == [0, 1, 2] and len(builds) == 3
        assert res.fragment_solves == len(solver.solves) == 3 * len(res.trace)

    def test_vqe_run_reuses_the_mirror_solve(self, h2, h2_mf):
        solver = CountingSolver(VqeFragmentSolver(
            optimizer=OptimizerSpec("quasi_newton"), estimator=EstimatorSpec("exact"),
            initial="random", seed=5,
        ))
        res = run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), solver=solver)
        assert res.solved_as == [0, 0]
        assert res.fragment_solves == len(solver.solves)
        assert res.fragment_energies[0] == res.fragment_energies[1]


class TestSolveFragment:
    @pytest.mark.parametrize("mapping", [MappingSpec(JORDAN_WIGNER), MappingSpec(PARITY),
                                         MappingSpec(PARITY, two_qubit_reduction=True)],
                             ids=["jw", "parity", "reduced-parity"])
    def test_vqe_solve_hands_a_real_state_to_the_rdms(self, h4, h4_mf, monkeypatch, mapping):
        calls = _count_calls(monkeypatch, "spin_summed_rdms")
        solver = VqeFragmentSolver(
            optimizer=OptimizerSpec("quasi_newton"), estimator=EstimatorSpec("exact"),
            mapping=mapping,
        )
        solve_fragment(build_embedding(h4[0], h4_mf, (0, 1)), solver)
        assert len(calls) == 1 and calls[0][0].dtype == np.float64

    def test_degenerate_ground_state_raises_naming_the_gap(self):
        e = degenerate_levels()
        gap = r"gap to the next root is 0\.000e\+00 Ha"
        with pytest.raises(DegenerateGroundStateError, match=gap):
            dmet_mod._solve_embedding_sector(e, EXACT.prepare(e), 0.0)
        with pytest.raises(ValueError, match="degenerate"):
            solve_fragment(e, EXACT)

    def test_degenerate_windowed_ground_state_raises_naming_the_gap(self):
        # zero integrals on two orbitals and two electrons: all four determinants are ground states
        zero = EmbeddingProblem(
            one_body_bare=np.zeros((2, 2)), env_fold=np.zeros((2, 2)), two_body=np.zeros((2,) * 4),
            fock=np.zeros((2, 2)), n_fragment=1, n_electrons=2, core_energy=0.0,
        )
        gap = r"gap to the next root is 0\.000e\+00 Ha"
        with pytest.raises(DegenerateGroundStateError, match=gap):
            solve_fragment(zero, EXACT, window=1)

    def test_degenerate_fragment_stops_the_run_naming_the_fragment(self, h2, h2_mf, monkeypatch):
        monkeypatch.setattr(dmet_mod, "build_embedding", lambda *args: degenerate_levels())
        with pytest.raises(DegenerateGroundStateError, match=r"^fragment 0 at mu=0\.0: degenerate"):
            run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))))
        with pytest.raises(DegenerateGroundStateError, match=r"^fragment 0 at mu=0\.0: degenerate"):
            run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), window=1)

    def test_non_interacting_energy(self):
        levels = MolecularIntegrals(
            2, 2, 0.0, np.diag([-1.5, 0.5]), np.zeros((2, 2, 2, 2))
        )
        mf = restricted_hartree_fock(levels)
        e = build_embedding(levels, mf, (0, 1))
        sol = solve_fragment(e, EXACT)
        assert sol.energy == pytest.approx(-3.0, abs=1e-8)
        assert sol.n_electrons == pytest.approx(2.0, abs=1e-8)

    def test_whole_molecule_electron_count(self, h4, h4_mf):
        m, _ = h4
        e = build_embedding(m, h4_mf, (0, 1, 2, 3))
        sol = solve_fragment(e, EXACT)
        assert sol.n_electrons == pytest.approx(m.n_electrons, abs=1e-10)

    def test_exact_vs_vqe_two_orbital_embedding(self, h2, h2_mf):
        m, _ = h2
        e = build_embedding(m, h2_mf, (0,))
        assert e.n_orbitals == 2
        exact = solve_fragment(e, EXACT)
        solver = VqeFragmentSolver(
            layers=1,
            optimizer=OptimizerSpec("quasi_newton"),
            estimator=EstimatorSpec("exact"),
            initial="random",
            seed=2,
        )
        via_vqe = solve_fragment(e, solver)
        assert abs(via_vqe.energy - exact.energy) < 2e-3
        assert via_vqe.n_electrons == pytest.approx(exact.n_electrons, abs=1e-3)


class TestVqeFragmentSolver:
    @pytest.mark.parametrize("settings,message", [
        ({"initial": "bogus"}, "unknown initial-parameter policy 'bogus'"),
        ({"initial": "random"}, SEED_RULE),
        ({"restarts": 2}, SEED_RULE),
        ({"estimator": EstimatorSpec("sampled"), "seed": 1}, "quasi-Newton optimizer needs exact"),
        ({"layers": -1}, "layers must be >= 0"),
        ({"restarts": 0}, "restarts must be >= 1, got 0"),
    ], ids=["unknown-initial", "random-without-seed", "restarts-without-seed", "sampled-lbfgs",
            "negative-layers", "no-restarts"])
    def test_bad_settings_are_refused_at_construction(self, settings, message):
        with pytest.raises(ValueError, match=message):
            VqeFragmentSolver(**settings)

    # mitigation -> (energy, n_electrons) of one sampled SPSA solve of H2's first fragment
    SAMPLED_SOLVES = {
        "none": (-0.8887914361330177, 0.9519957475025808),
        "m3": (-0.9042089073658661, 1.019679978697072),
        "trex": (-0.8521688417887476, 0.9858758955567721),
    }

    @pytest.mark.parametrize("mitigation", sorted(SAMPLED_SOLVES))
    def test_sampled_solves_are_pinned(self, h2, h2_mf, fixtures_dir, mitigation):
        # the shots, the readout calibration and SPSA of a fragment solve, bit for bit
        noise = ReadoutNoiseModel.from_text((fixtures_dir / "noise_2q_2pct.txt").read_text())
        solver = VqeFragmentSolver(
            estimator=EstimatorSpec("sampled", shots=1000, noise=noise, mitigation=mitigation),
            optimizer=OptimizerSpec("spsa", iterations=30), seed=11,
        )
        sol = solve_fragment(build_embedding(h2[0], h2_mf, [0]), solver, 0.0)
        assert (sol.energy, sol.n_electrons) == self.SAMPLED_SOLVES[mitigation]


class TestRunDmet:
    def test_whole_molecule_identity(self, h2, h4, h2_mf, h4_mf):
        for (m, _), mf in (((h2[0], None), h2_mf), ((h4[0], None), h4_mf)):
            res = run_dmet(m, mf, Fragmentation((tuple(range(m.n_orbitals)),)))
            assert res.total_energy == pytest.approx(full_ci_ground_energy(m), abs=1e-8)
            assert res.mu == 0.0
            assert len(res.trace) == 1  # accepted at the first evaluation
            assert res.converged

    def test_h4_two_fragments(self, h4, h4_mf):
        m, _ = h4
        res = run_dmet(m, h4_mf, Fragmentation(((0, 1), (2, 3))))
        assert abs(res.electron_mismatch) < 1e-6
        assert abs(res.total_energy - full_ci_ground_energy(m)) < 1e-2
        assert res.converged

    def test_h4_single_orbital_fragments_move_mu(self, h4, h4_mf):
        m, _ = h4
        res = run_dmet(m, h4_mf, Fragmentation(((0,), (1,), (2,), (3,))))
        assert res.converged
        assert abs(res.electron_mismatch) < 1e-6
        assert len(res.trace) > 1  # Newton actually iterated
        assert abs(res.total_energy - full_ci_ground_energy(m)) < 1e-2

    def test_particle_hole_symmetric_mu_is_zero(self):
        m = hubbard_chain(4)
        mf = restricted_hartree_fock(m)
        res = run_dmet(m, mf, Fragmentation(((0, 1), (2, 3))))
        assert abs(res.mu) < 1e-6
        assert res.converged

    def test_dmet_vqe_agrees_with_exact(self, h2, h2_mf):
        m, _ = h2
        frag = Fragmentation(((0,), (1,)))
        exact = run_dmet(m, h2_mf, frag)
        solver = VqeFragmentSolver(
            layers=1,
            optimizer=OptimizerSpec("quasi_newton"),
            estimator=EstimatorSpec("exact"),
            initial="random",
            seed=0,
        )
        via_vqe = run_dmet(m, h2_mf, frag, solver=solver)
        assert abs(via_vqe.total_energy - exact.total_energy) < 5e-3

    def test_windowed_run_matches_full_when_window_covers(self, h2, h4, h2_mf, h4_mf):
        m, _ = h4
        frag = Fragmentation(((0, 1), (2, 3)))
        plain = run_dmet(m, h4_mf, frag)
        # every embedding has 4 orbitals / 4 electrons: window 2 covers all
        windowed = run_dmet(m, h4_mf, frag, window=2)
        assert windowed.total_energy == pytest.approx(plain.total_energy, abs=1e-8)
        # a VQE solve sees the same RHF-basis problem with or without a covering window;
        # the H2 embeddings have 2 orbitals / 2 electrons, so window 1 covers them
        for (m, _), mf, fragments, window, seed in (
            (h2, h2_mf, ((0,), (1,)), 1, 5),
            (h4, h4_mf, ((0, 1), (2, 3)), 2, 0),
        ):
            solver = VqeFragmentSolver(
                layers=1,
                optimizer=OptimizerSpec("quasi_newton"),
                estimator=EstimatorSpec("exact"),
                initial="random",
                seed=seed,
            )
            plain = run_dmet(m, mf, Fragmentation(fragments), solver=solver)
            windowed = run_dmet(m, mf, Fragmentation(fragments), solver=solver, window=window)
            assert windowed.total_energy == pytest.approx(plain.total_energy, abs=1e-10)
            assert windowed.mu == pytest.approx(plain.mu, abs=1e-10)
            assert len(windowed.trace) == len(plain.trace)

    def test_windowed_ring_at_strong_coupling_matches_the_unwindowed_run(self, hubbard_ring):
        # at U/t = 8 an SCF on an embedding does not converge; DMET needs none
        m = hubbard_ring
        frag = Fragmentation(((0, 1), (2, 3), (4, 5)))
        mf = restricted_hartree_fock(m)
        plain = run_dmet(m, mf, frag)
        assert plain.total_energy == pytest.approx(-1.9759390677, abs=1e-9)
        windowed = run_dmet(m, mf, frag, window=2)  # every embedding has 4 orbitals: covered
        assert plain.converged and windowed.converged
        assert windowed.total_energy == pytest.approx(plain.total_energy, abs=1e-10)

    def test_runs_need_no_scf_beyond_the_lattice_mean_field(self, h2, h2_mf, h4, h4_mf,
                                                            monkeypatch):
        # an SCF under either name dmet could call it by fails the run
        monkeypatch.setattr(chem_mod, "restricted_hartree_fock", _failing_rhf)
        monkeypatch.setattr(dmet_mod, "restricted_hartree_fock", _failing_rhf, raising=False)
        windowed = run_dmet(h4[0], h4_mf, Fragmentation(((0, 1), (2, 3))), window=1)
        assert windowed.converged
        solver = VqeFragmentSolver(  # configs/h2_dmet_vqe.yaml
            layers=1, optimizer=OptimizerSpec("quasi_newton"), estimator=EstimatorSpec("exact"),
            initial="random", seed=5,
        )
        via_vqe = run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), solver=solver)
        assert via_vqe.converged

    def test_warm_started_vqe_resolves_run_once(self, h4, h4_mf, monkeypatch):
        runs, run = [], dmet_mod.vqe_mod.bounded_quasi_newton

        def counting(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(dmet_mod.vqe_mod, "bounded_quasi_newton", counting)
        solver = VqeFragmentSolver(
            layers=1, initial="random", seed=5, restarts=3,
            optimizer=OptimizerSpec("quasi_newton"), estimator=EstimatorSpec("exact"),
        )
        res = run_dmet(h4[0], h4_mf, Fragmentation(((0, 1), (2, 3))), solver=solver)
        assert res.fragment_solves == 7
        # the cold first solve runs its 3 restarts; every warm re-solve runs once
        assert len(runs) == 3 + (res.fragment_solves - 1)

    @pytest.mark.parametrize("window,reduced,width", [(None, True, 6), (None, False, 8),
                                                      (1, True, 2), (1, False, 4)])
    def test_noise_width_is_checked_before_the_first_solve(self, h4, h4_mf, window, reduced, width):
        # each H4 embedding has 4 orbitals: 8 spin orbitals, 4 in a window of 1
        noise = ReadoutNoiseModel.uniform(width + 2, 0.02)
        solver = CountingSolver(VqeFragmentSolver(
            estimator=EstimatorSpec("sampled", shots=100, noise=noise),
            optimizer=OptimizerSpec("spsa", iterations=1), seed=1,
            mapping=MappingSpec(PARITY, two_qubit_reduction=reduced),
        ))
        message = f"acts on {width + 2} qubits but the register has {width} qubits"
        with pytest.raises(NoiseWidthError, match=message):
            run_dmet(h4[0], h4_mf, Fragmentation(((0, 1), (2, 3))), solver=solver, window=window)
        assert solver.solves == []

    @pytest.mark.parametrize("solver", [EXACT, VqeFragmentSolver()], ids=["exact", "vqe"])
    @pytest.mark.parametrize("call,window,error,message", [
        ("run_dmet", 0, ValueError, "window must be >= 1"),
        ("run_dmet", -1, ValueError, "window must be >= 1"),
        ("run_dmet", 3, WindowError, "active-space window 3 exceeds the orbital range"),
        ("solve_fragment", 3, WindowError, "active-space window 3 exceeds the orbital range"),
    ], ids=["run-zero", "run-negative", "run-too-wide", "one-embedding-too-wide"])
    def test_bad_window_is_refused_before_the_first_solve(
        self, h4, h4_mf, solver, call, window, error, message
    ):
        # each H4 embedding has 4 orbitals and 4 electrons: windows 1 and 2 fit
        solver = CountingSolver(solver)
        with pytest.raises(error, match=message):
            if call == "run_dmet":
                run_dmet(h4[0], h4_mf, Fragmentation(((0, 1), (2, 3))), solver, window=window)
            else:
                solve_fragment(build_embedding(h4[0], h4_mf, (0, 1)), solver, window=window)
        assert solver.solves == []

    # what a VQE fragment solve can raise: (error type, its arguments, its message); an
    # exact solve's degenerate ground state is test_degenerate_fragment_stops_the_run_...'s
    VQE_FAILURES = {"non-finite": (NonFiniteObjectiveError, (float("nan"), 3),
                                   "non-finite objective value nan at iteration 3")}

    @pytest.mark.parametrize("failure", list(VQE_FAILURES))
    def test_fragment_failure_names_the_fragment_and_mu(self, h2, h2_mf, monkeypatch, failure):
        error, args, reason = self.VQE_FAILURES[failure]

        def failing(*_, **__):
            raise error(*args)

        monkeypatch.setattr(dmet_mod.vqe_mod, "solve", failing)
        solver = VqeFragmentSolver(
            optimizer=OptimizerSpec("quasi_newton"), estimator=EstimatorSpec("exact")
        )
        with pytest.raises(error, match=rf"^fragment 0 at mu=0\.0: {reason}$"):
            run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), solver=solver)

    def test_diverging_newton_raises_with_the_trace(self, h2, h2_mf):
        # Newton on a cube root doubles the distance to the root every step
        root = 0.1
        solver = MismatchSolver(2, h2[0].n_electrons, lambda mu: np.cbrt(mu - root))
        with pytest.raises(DmetConvergenceError, match="Newton steps on mu did not reach") as info:
            run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), solver, mu_tol=1e-2)
        trace = info.value.trace
        assert max(abs(mu - root) for mu, _ in trace) > 100  # Newton walked away
        # the stop is the step it refused, not the step count
        stop = re.search(r"after (\d+) steps .*before the step to mu = (\S+), past \|mu\| = 1e3",
                         str(info.value))
        assert stop and int(stop[1]) == len(trace) - 1 < 30 and abs(float(stop[2])) > 1e3

    def test_newton_without_a_root_raises_with_the_trace(self, h2, h2_mf):
        solver = MismatchSolver(2, h2[0].n_electrons, lambda mu: 1.0 + (mu - 0.5) ** 2)
        with pytest.raises(DmetConvergenceError, match="Newton steps on mu did not reach") as info:
            run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), solver)
        trace = info.value.trace
        assert trace[0] == (0.0, 1.25)
        assert len(trace) > 1 and all(f >= 1.0 for _, f in trace)
        assert "after 30 steps" in str(info.value) and "at the step limit" in str(info.value)
        assert len(trace) == 31

    def test_flat_mismatch_raises_naming_the_slope(self, h2, h2_mf):
        # a constant mismatch has a zero slope, so Newton stops before its first step
        solver = MismatchSolver(2, h2[0].n_electrons, lambda mu: 0.5)
        with pytest.raises(DmetConvergenceError, match="Newton steps on mu did not reach") as info:
            run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), solver)
        assert info.value.trace == ((0.0, 0.5),)
        assert "after 0 steps" in str(info.value)
        assert "on the slope d(mismatch)/d(mu) = 0.0, flat or not finite" in str(info.value)

    def test_non_finite_mismatch_raises_with_the_trace(self, h2, h2_mf):
        solver = MismatchSolver(2, h2[0].n_electrons, lambda mu: float("nan"))
        with pytest.raises(DmetConvergenceError) as info:
            run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), solver)
        (mu, f), = info.value.trace
        assert mu == 0.0 and np.isnan(f)
        assert "on a non-finite mismatch" in str(info.value)

    @pytest.mark.parametrize("mu_tol", [0.0, -1e-6, float("nan")])
    def test_mu_tol_must_be_positive(self, h2, h2_mf, mu_tol):
        solver = MismatchSolver(2, h2[0].n_electrons, lambda mu: mu)
        with pytest.raises(ValueError, match="mu_tol"):
            run_dmet(h2[0], h2_mf, Fragmentation(((0,), (1,))), solver, mu_tol=mu_tol)

    def test_windowed_reduction_is_sane(self, h4, h4_mf):
        m, _ = h4
        res = run_dmet(m, h4_mf, Fragmentation(((0, 1), (2, 3))), window=1)
        assert res.converged
        fci = full_ci_ground_energy(m)
        hf = h4_mf.hf_energy
        assert fci - 1e-6 <= res.total_energy <= hf + 1e-6

    def test_two_halves_of_h10_exceed_the_exact_cap(self, h10):
        m, _ = h10
        mf = restricted_hartree_fock(m)
        frag = Fragmentation(((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
        with pytest.raises(ValueError, match="20 qubits exceeds the exact-solver cap of 14"):
            run_dmet(m, mf, frag)

    @pytest.mark.parametrize(
        "name,total_energy,mu",
        [("5x2", -5.466904267893, 0.001673739082818), ("2+3+3+2", -5.474352030350, 0.002258332442744)],
    )
    def test_h10_exact_runs_are_pinned(self, h10, h10_mf, name, total_energy, mu):
        res = run_dmet(h10[0], h10_mf, Fragmentation(H10_FRAGMENTS[name]))
        assert res.converged
        assert res.total_energy == pytest.approx(total_energy, abs=1e-9)
        # positive: the fragments start short of electrons, and a flipped mu
        # shift would reach the same energies at -mu
        assert res.mu == pytest.approx(mu, abs=1e-9)
        assert len(res.trace) == 2
        energies = res.fragment_energies  # the chain is mirror-symmetric
        assert np.allclose(energies, energies[::-1], rtol=0, atol=1e-9)

    def test_result_text(self, h2, h2_mf):
        res = run_dmet(h2[0], h2_mf, Fragmentation(((0, 1),)))
        text = res.to_text()
        assert "total_energy=" in text and "mu_step" in text

    def test_result_text_shows_the_solves_and_which_fragment_reuses_which(self, h10, h10_mf):
        res = run_dmet(h10[0], h10_mf, Fragmentation(H10_FRAGMENTS["5x2"]))
        lines = res.to_text().splitlines()
        assert "fragment_solves=6" in lines
        fragment_lines = [l for l in lines if l.startswith("fragment ")]
        assert [l.rsplit(" ", 1)[1] for l in fragment_lines] == [
            "solved_as=0", "solved_as=1", "solved_as=2", "solved_as=1", "solved_as=0"
        ]
