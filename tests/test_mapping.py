"""Fermionic Hamiltonians and the Jordan-Wigner / parity encodings."""

import hashlib
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from vqemb.chem import MolecularIntegrals, active_space, restricted_hartree_fock
from vqemb.mapping import (
    JORDAN_WIGNER,
    PARITY,
    FermionOperator,
    MappingSpec,
    build_fermionic_hamiltonian,
    decode_statevector,
    hartree_fock_bitstring,
    map_to_qubits,
)
from vqemb.pauli import QubitHamiltonian

from fermion_terms import fermion_operator, fermion_terms


# -- the former tuple builder ----------------------------------------------------


def reference_fermionic_terms(m):
    """[(coefficient, ops)] as ``build_fermionic_hamiltonian`` built them before
    it held arrays: one Python tuple per term, in nested-loop order."""
    terms = []
    if m.core_energy != 0.0:
        terms.append((complex(m.core_energy), ()))
    for p, q in np.argwhere(~(np.abs(m.one_body) < 1e-14)).tolist():
        h = m.one_body[p, q]
        terms += [(complex(h), ((2 * p + s, True), (2 * q + s, False))) for s in (0, 1)]
    for p, q, r, s_ in np.argwhere(~(np.abs(m.two_body) < 1e-14)).tolist():
        g = 0.5 * complex(m.two_body[p, q, r, s_])
        terms += [
            (g, ((2 * p + sa, True), (2 * r + sb, True), (2 * s_ + sb, False), (2 * q + sa, False)))
            for sa in (0, 1)
            for sb in (0, 1)
        ]
    return terms


# -- term-by-term reference encodings -------------------------------------------
#
# The expansion ``map_to_qubits`` and ``decode_statevector`` used before they
# worked on whole arrays: Python-int masks, one product and one dict update
# per Pauli word, one loop iteration per basis index.


def _ref_mul_masks(xa, za, xb, zb):
    x, z = xa ^ xb, za ^ zb
    k = (xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
    return (k + 2 * (za & xb).bit_count()) % 4, x, z


def _ref_ladder_words(position, creation, n, kind):
    sign = -1.0j if creation else 1.0j

    def bit(q):
        return 1 << (n - 1 - q)

    if kind == JORDAN_WIGNER:
        z_chain = 0
        for q in range(position):
            z_chain |= bit(q)
        return [(0.5 + 0j, bit(position), z_chain),
                (0.5 * sign, bit(position), z_chain | bit(position))]
    x_chain = 0
    for q in range(position + 1, n):
        x_chain |= bit(q)
    z_below = bit(position - 1) if position > 0 else 0
    return [(0.5 + 0j, x_chain | bit(position), z_below),
            (0.5 * sign, x_chain | bit(position), bit(position))]


def _ref_letters(x, z, n):
    out = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        xb, zb = bool(x & bit), bool(z & bit)
        out.append("Y" if (xb and zb) else "X" if xb else "Z" if zb else "I")
    return "".join(out)


def _ref_drop_bits(mask, n, drop_qubits):
    out, new_n, new_q = 0, n - len(drop_qubits), 0
    for q in range(n):
        if q in drop_qubits:
            continue
        if mask & (1 << (n - 1 - q)):
            out |= 1 << (new_n - 1 - new_q)
        new_q += 1
    return out


def _ref_simplify(accum, n, drop_tol):
    acc = {}
    for (x, z), c in accum.items():
        w = _ref_letters(x, z, n)
        acc[w] = acc.get(w, 0.0) + complex(c)
    return [(w, acc[w]) for w in sorted(acc) if abs(acc[w]) >= drop_tol]


def reference_map_to_qubits(f, spec, drop_tol=1e-12):
    """(n_qubits, [(letters, coefficient)]) from the term-by-term expansion."""
    n = f.n_modes
    perm = [(j // 2) + (j % 2) * (n // 2) for j in range(n)] if spec.kind == PARITY else range(n)
    accum = {}
    for coeff, ops in fermion_terms(f):
        words = [(complex(coeff), 0, 0)]
        for index, creation in ops:
            factor = _ref_ladder_words(perm[index], creation, n, spec.kind)
            words = [
                (c1 * c2 * (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[k], x, z)
                for c1, x1, z1 in words
                for c2, x2, z2 in factor
                for k, x, z in [_ref_mul_masks(x1, z1, x2, z2)]
            ]
        for c, x, z in words:
            accum[(x, z)] = accum.get((x, z), 0.0) + c
    if not spec.two_qubit_reduction:
        return n, _ref_simplify(accum, n, drop_tol)
    half = n // 2
    taper = {half - 1: (-1.0) ** (spec.n_electrons // 2), n - 1: (-1.0) ** spec.n_electrons}
    reduced = {}
    for (x, z), c in accum.items():
        if abs(c) < drop_tol:
            continue
        for q, eig in taper.items():
            assert not x & (1 << (n - 1 - q))
            if z & (1 << (n - 1 - q)):
                c = c * eig
        key = (_ref_drop_bits(x, n, (half - 1, n - 1)), _ref_drop_bits(z, n, (half - 1, n - 1)))
        reduced[key] = reduced.get(key, 0.0) + c
    return n - 2, _ref_simplify(reduced, n - 2, drop_tol)


def reference_text(n, terms):
    lines = [f"nqubits={n}"] + [f"{c.real!r} {c.imag!r} {w}" for w, c in terms]
    return "\n".join(lines) + "\n"


def reference_decode(state, n_modes, spec):
    """Per-index loop form of ``decode_statevector`` for the parity encoding."""
    half = n_modes // 2
    state = np.asarray(state, dtype=complex)
    if spec.two_qubit_reduction:
        expanded = np.zeros(1 << n_modes, dtype=complex)
        for idx in range(state.size):
            bits = [(idx >> (n_modes - 3 - q)) & 1 for q in range(n_modes - 2)]
            bits.insert(half - 1, (spec.n_electrons // 2) % 2)
            bits.insert(n_modes - 1, spec.n_electrons % 2)
            full = 0
            for q, b in enumerate(bits):
                full |= b << (n_modes - 1 - q)
            expanded[full] = state[idx]
        state = expanded
    perm = [(j // 2) + (j % 2) * half for j in range(n_modes)]
    inv = [0] * n_modes
    for mode, pos in enumerate(perm):
        inv[pos] = mode
    out = np.zeros_like(state)
    for idx in np.nonzero(state)[0]:
        p_bits = [(int(idx) >> (n_modes - 1 - q)) & 1 for q in range(n_modes)]
        occ_block = [p_bits[0]] + [p_bits[q] ^ p_bits[q - 1] for q in range(1, n_modes)]
        target = 0
        for mode in range(n_modes):
            if occ_block[perm[mode]]:
                target |= 1 << (n_modes - 1 - mode)
        occupied = [inv[pos] for pos in range(n_modes) if occ_block[pos]]
        inversions = sum(
            1
            for i in range(len(occupied))
            for j in range(i + 1, len(occupied))
            if occupied[i] > occupied[j]
        )
        out[target] = state[idx] * (-1.0) ** inversions
    return out


# -- independent dense fermion operators ------------------------------------------

_Z = np.diag([1.0, -1.0])
_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0|: occupy the mode


def dense_ladder(mode, creation, n_modes):
    """a+ or a of one mode on the occupation basis (mode 0 on the top bit)."""
    op = _RAISE if creation else _RAISE.T
    return reduce(np.kron, [_Z] * mode + [op] + [np.eye(2)] * (n_modes - mode - 1))


def dense_fermion(f):
    out = np.zeros((1 << f.n_modes,) * 2, dtype=complex)
    for coeff, ops in fermion_terms(f):
        term = np.eye(1 << f.n_modes, dtype=complex)
        for mode, creation in ops:
            term = term @ dense_ladder(mode, creation, f.n_modes)
        out += coeff * term
    return out


def random_fermion_operator(rng, n_modes, n_terms, conserve_parities=False):
    """Complex, non-Hermitian terms of 0-4 ladder operators; modes may repeat.

    With ``conserve_parities`` every term has an even number of alpha (even
    mode) and of beta (odd mode) operators, so it commutes with both parity
    symmetries the two-qubit reduction removes.
    """
    terms = []
    for _ in range(n_terms):
        coeff = complex(rng.normal(), rng.normal())
        if conserve_parities:
            spins = [0, 0] * int(rng.integers(0, 2)) + [1, 1] * int(rng.integers(0, 2))
            modes = [2 * int(rng.integers(0, n_modes // 2)) + s for s in rng.permutation(spins)]
        else:
            modes = [int(m) for m in rng.integers(0, n_modes, size=rng.integers(0, 5))]
        ops = tuple((m, bool(rng.integers(0, 2))) for m in modes)
        terms.append((coeff, ops))
    return fermion_operator(n_modes, terms)


def parity_to_occupation(n_modes, spec):
    """Signed permutation taking parity-register vectors to the occupation basis."""
    dim = 1 << (n_modes - 2 if spec.two_qubit_reduction else n_modes)
    return np.stack([reference_decode(e, n_modes, spec) for e in np.eye(dim)], axis=1)


def single_orbital(eps=0.0, g=0.0, core=0.0, n_electrons=2):
    h = np.array([[eps]])
    two = np.zeros((1, 1, 1, 1))
    two[0, 0, 0, 0] = g
    return MolecularIntegrals(1, n_electrons, core, h, two)


class TestFermionicHamiltonian:
    def test_single_orbital_number_terms(self):
        f = build_fermionic_hamiltonian(single_orbital(eps=0.5))
        expected = {((0, True), (0, False)), ((1, True), (1, False))}
        got = {ops for coeff, ops in fermion_terms(f) if ops}
        assert got == expected
        for coeff, ops in fermion_terms(f):
            if ops:
                assert coeff == pytest.approx(0.5)

    def test_hubbard_term_survives_spin_sum(self):
        # (00|00) = g produces only the cross-spin double-occupation term
        f = build_fermionic_hamiltonian(single_orbital(g=2.0))
        h = map_to_qubits(f, MappingSpec(JORDAN_WIGNER))
        mat = h.to_matrix()
        # |11> (both spin-orbitals occupied) is the only state with energy g
        assert mat[3, 3] == pytest.approx(2.0)
        assert mat[0, 0] == pytest.approx(0.0)
        assert mat[1, 1] == pytest.approx(0.0)

    def test_index_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            fermion_operator(2, [(1.0, ((2, True),))])

    @pytest.mark.parametrize("mode", [4, -1])
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_index_range_checked_in_every_block(self, mode, block):
        # a constant block, then blocks of two terms of 1, 2 and 4 in-range operators
        blocks = [(np.ones(2, dtype=complex), np.arange(2 * k).reshape(2, k)) for k in (0, 1, 2, 4)]
        assert len(FermionOperator(4, tuple(blocks))) == 8
        coeffs, ladder = blocks[block]
        ladder = ladder.copy()
        ladder[1, 0] = 2 * mode + 1
        blocks[block] = (coeffs, ladder)
        with pytest.raises(ValueError, match=f"mode index {mode} out of range 0..3"):
            FermionOperator(4, tuple(blocks))


class TestJordanWigner:
    def test_number_operator_single_mode(self):
        f = fermion_operator(1, [(1.0 + 0j, ((0, True), (0, False)))])
        h = map_to_qubits(f, MappingSpec(JORDAN_WIGNER))
        terms = {t.word.letters: t.coefficient for t in h.terms}
        assert terms["I"] == pytest.approx(0.5)
        assert terms["Z"] == pytest.approx(-0.5)

    def test_h2_oracle_matches_reference_fci(self, h2):
        m, meta = h2
        h = map_to_qubits(build_fermionic_hamiltonian(m), MappingSpec(JORDAN_WIGNER))
        energy, _ = h.ground_state_energy()
        assert energy == pytest.approx(meta["fci_energy"], abs=1e-8)

    def test_real_coefficients_after_simplify(self, h2):
        h = map_to_qubits(build_fermionic_hamiltonian(h2[0]), MappingSpec(JORDAN_WIGNER))
        assert all(abs(t.coefficient.imag) < 1e-10 for t in h.terms)

    def test_number_operator_commutes(self, h2):
        m, _ = h2
        spec = MappingSpec(JORDAN_WIGNER)
        h = map_to_qubits(build_fermionic_hamiltonian(m), spec).to_matrix()
        modes = np.arange(2 * m.n_orbitals)  # sum of a+_j a_j over every spin-orbital
        number = FermionOperator(modes.size, (
            (np.ones(modes.size, dtype=complex), np.stack([2 * modes + 1, 2 * modes], 1)),
        ))
        num = map_to_qubits(number, spec).to_matrix()
        assert np.linalg.norm(h @ num - num @ h) < 1e-10


class TestParity:
    def test_isospectral_with_jordan_wigner(self, h2):
        m, _ = h2
        f = build_fermionic_hamiltonian(m)
        e_jw = np.linalg.eigvalsh(map_to_qubits(f, MappingSpec(JORDAN_WIGNER)).to_matrix())
        e_par = np.linalg.eigvalsh(map_to_qubits(f, MappingSpec(PARITY)).to_matrix())
        assert np.allclose(e_jw, e_par, atol=1e-10)

    def test_two_qubit_reduction_preserves_ground_energy(self, h2):
        m, _ = h2
        f = build_fermionic_hamiltonian(m)
        e_jw, _ = map_to_qubits(f, MappingSpec(JORDAN_WIGNER)).ground_state_energy()
        reduced = map_to_qubits(f, MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=2))
        assert reduced.n_qubits == 2
        e_red, _ = reduced.ground_state_energy()
        assert e_red == pytest.approx(e_jw, abs=1e-10)

    def test_reduction_requires_parity(self):
        with pytest.raises(ValueError, match="parity"):
            MappingSpec(JORDAN_WIGNER, two_qubit_reduction=True, n_electrons=2)

    def test_reduction_requires_electron_count(self, h2):
        f = build_fermionic_hamiltonian(h2[0])
        with pytest.raises(ValueError, match="electron count"):
            map_to_qubits(f, MappingSpec(PARITY, two_qubit_reduction=True))

    def test_random_two_orbital_spectra_agree(self):
        rng = np.random.default_rng(8)
        h1 = rng.normal(size=(2, 2))
        h1 = (h1 + h1.T) / 2
        g = rng.normal(size=(2, 2, 2, 2)) * 0.1
        sym = np.zeros_like(g)
        for perm in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                     (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)):
            sym += np.transpose(g, perm) / 8.0
        m = MolecularIntegrals(2, 2, 0.0, h1, sym)
        f = build_fermionic_hamiltonian(m)
        e_jw = np.linalg.eigvalsh(map_to_qubits(f, MappingSpec(JORDAN_WIGNER)).to_matrix())
        e_par = np.linalg.eigvalsh(map_to_qubits(f, MappingSpec(PARITY)).to_matrix())
        assert np.allclose(e_jw, e_par, atol=1e-10)


class TestHartreeFockBitstring:
    def test_jw_interleaved(self):
        spec = MappingSpec(JORDAN_WIGNER)
        assert hartree_fock_bitstring(2, 2, spec) == [1, 1, 0, 0]

    def test_zero_electrons(self):
        for spec in (MappingSpec(JORDAN_WIGNER), MappingSpec(PARITY)):
            assert hartree_fock_bitstring(2, 0, spec) == [0, 0, 0, 0]

    def test_too_many_electrons(self):
        with pytest.raises(ValueError, match="exceed"):
            hartree_fock_bitstring(1, 3, MappingSpec(JORDAN_WIGNER))

    @pytest.mark.parametrize(
        "spec",
        [
            MappingSpec(JORDAN_WIGNER),
            MappingSpec(PARITY),
            MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=2),
        ],
    )
    def test_prepared_state_energy_equals_hf(self, h2, h2_mf, spec):
        # cross-module consistency: the mapped bitstring state must reproduce
        # the mean-field energy from the SCF module
        m, _ = h2
        from vqemb.chem import transform_integrals

        h_mo, g_mo = transform_integrals(m.one_body, m.two_body, h2_mf.orbital_coeffs)
        m_mo = MolecularIntegrals(2, 2, m.core_energy, h_mo, g_mo)
        h = map_to_qubits(build_fermionic_hamiltonian(m_mo), spec)
        bits = hartree_fock_bitstring(2, 2, spec)
        index = int("".join(str(b) for b in bits), 2)
        state = np.zeros(1 << h.n_qubits, dtype=complex)
        state[index] = 1.0
        energy = np.vdot(state, h.to_matrix() @ state).real
        assert energy == pytest.approx(h2_mf.hf_energy, abs=1e-8)


class TestDecodeStatevector:
    @pytest.mark.parametrize(
        "spec",
        [MappingSpec(PARITY), MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=2)],
    )
    def test_parity_eigvector_decodes_to_jw_eigvector(self, h2, spec):
        m, _ = h2
        f = build_fermionic_hamiltonian(m)
        h_par = map_to_qubits(f, spec)
        h_jw = map_to_qubits(f, MappingSpec(JORDAN_WIGNER))
        e_par, v_par = h_par.ground_state_energy()
        decoded = decode_statevector(v_par, 2 * m.n_orbitals, spec)
        energy = np.vdot(decoded, h_jw.to_matrix() @ decoded).real
        assert energy == pytest.approx(e_par, abs=1e-10)


class TestArrayMapping:
    @pytest.mark.parametrize("n_modes", [4, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jordan_wigner_matches_dense_ladder_products(self, n_modes, seed):
        f = random_fermion_operator(np.random.default_rng(seed), n_modes, 40)
        assert {len(ops) for _, ops in fermion_terms(f)} == {0, 1, 2, 3, 4}
        h = map_to_qubits(f, MappingSpec(JORDAN_WIGNER))
        assert np.abs(h.to_matrix() - dense_fermion(f)).max() < 1e-12

    @pytest.mark.parametrize("n_modes", [4, 6])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_parity_matches_dense_ladder_products(self, n_modes, seed):
        f = random_fermion_operator(np.random.default_rng(seed), n_modes, 40)
        spec = MappingSpec(PARITY)
        p = parity_to_occupation(n_modes, spec)
        h = map_to_qubits(f, spec).to_matrix()
        assert np.abs(p @ h @ p.T - dense_fermion(f)).max() < 1e-12

    @pytest.mark.parametrize("n_modes,n_electrons", [(4, 2), (6, 2), (6, 4), (8, 6)])
    def test_reduced_register_is_the_parity_sector_block(self, n_modes, n_electrons):
        rng = np.random.default_rng(n_modes + n_electrons)
        f = random_fermion_operator(rng, n_modes, 30, conserve_parities=True)
        full = map_to_qubits(f, MappingSpec(PARITY)).to_matrix()
        reduced = map_to_qubits(f, MappingSpec(PARITY, True, n_electrons)).to_matrix()
        # the sector's register states: qubit n/2-1 (bit n/2) holds the
        # alpha-electron parity, qubit n-1 (bit 0) the total parity
        idx = np.arange(1 << n_modes)
        alpha_bit, total_bit = (idx >> (n_modes // 2)) & 1, idx & 1
        rows = idx[(alpha_bit == (n_electrons // 2) % 2) & (total_bit == n_electrons % 2)]
        assert len(rows) == reduced.shape[0]
        assert np.abs(full[np.ix_(rows, rows)] - reduced).max() < 1e-12

    def test_reduction_rejects_a_spin_flip(self):
        f = fermion_operator(4, [(1.0 + 0j, ((0, True), (0, False))), (1.0 + 0j, ((0, True), (1, False)))])
        with pytest.raises(ValueError, match="does not commute with the parity symmetry on qubit 1"):
            map_to_qubits(f, MappingSpec(PARITY, True, 2))

    @pytest.mark.parametrize("n_modes", [4, 6, 8])
    @pytest.mark.parametrize("kind", [JORDAN_WIGNER, PARITY])
    def test_random_operators_are_bit_identical_to_reference(self, kind, n_modes):
        spec = MappingSpec(kind)
        for seed in range(6):
            f = random_fermion_operator(np.random.default_rng(seed), n_modes, 60)
            assert {len(ops) for _, ops in fermion_terms(f)} == {0, 1, 2, 3, 4}
            h = map_to_qubits(f, spec)
            assert h.to_text() == reference_text(*reference_map_to_qubits(f, spec)), seed

    @pytest.mark.parametrize("n_modes", [4, 6, 8])
    def test_random_reduced_operators_are_pinned(self, n_modes):
        # the reference sums words that meet after tapering in their first-
        # occurrence order, map_to_qubits in mask order, so the last bits of
        # those sums may differ: the texts are pinned by hash instead
        texts = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            f = random_fermion_operator(rng, n_modes, 60, conserve_parities=True)
            for n_electrons in range(0, n_modes + 1, 2):
                texts.append(map_to_qubits(f, MappingSpec(PARITY, True, n_electrons)).to_text())
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == _REDUCED_RANDOM_SHA256[n_modes]

    @pytest.mark.parametrize("kind", [JORDAN_WIGNER, PARITY])
    def test_repeated_creation_vanishes(self, kind):
        f = fermion_operator(4, [(1.0 + 0.5j, ((2, True), (2, True)))])
        assert len(map_to_qubits(f, MappingSpec(kind))) == 0

    @pytest.mark.parametrize(
        "n_modes,spec",
        [(63, MappingSpec(JORDAN_WIGNER)), (62, MappingSpec(PARITY)),
         (62, MappingSpec(PARITY, True, 2))],
    )
    def test_widest_registers_match_reference(self, n_modes, spec):
        top, low = n_modes - 1, (n_modes - 1) % 2  # same spin
        f = fermion_operator(n_modes, [
            (0.25 + 0j, ((top, True), (low, False))),
            (0.25 + 0j, ((low, True), (top, False))),
            (-1.5 + 0j, ((top - 1, True), (top, True), (top, False), (top - 1, False))),
        ])
        h = map_to_qubits(f, spec)
        assert h.to_text() == reference_text(*reference_map_to_qubits(f, spec))

    def test_registers_past_63_qubits_raise(self):
        f = fermion_operator(64, [(1.0 + 0j, ((63, True), (0, False)))])
        with pytest.raises(ValueError, match="63-qubit limit"):
            map_to_qubits(f, MappingSpec(JORDAN_WIGNER))
        with pytest.raises(ValueError, match="63-qubit limit"):
            QubitHamiltonian.from_dict(64, {"Z" * 64: 1.0})
        with pytest.raises(ValueError, match="63-qubit limit"):
            QubitHamiltonian.from_arrays(64, [0], [1], [1.0])


def _systems(h2, h4, h10):
    m10, _ = h10
    mf = restricted_hartree_fock(m10)
    yield "h2", h2[0]
    yield "h4", h4[0]
    for k in (1, 2):  # windows 3-4 are pinned by out/h10_resources/resources.csv
        yield f"h10-window{k}", active_space(m10, mf, window=k + 1)[0]


def test_array_builder_reproduces_the_tuple_builder(h2, h4, h10):
    m10, _ = h10
    mf = restricted_hartree_fock(m10)
    systems = [("h2", h2[0], 73), ("h4", h4[0], 1057)]
    # resource windows 1-4, then the whole molecule
    systems += [(f"h10-window{k}", active_space(m10, mf, window=k + 1)[0], count)
                for k, count in zip((1, 2, 3, 4), (529, 2629, 8261, 20101))]
    systems.append(("h10", m10, 40201))
    for name, m, count in systems:
        f = build_fermionic_hamiltonian(m)
        got, ref = fermion_terms(f), reference_fermionic_terms(m)
        assert len(f) == len(ref) == count, name
        assert [ops for _, ops in got] == [ops for _, ops in ref], name
        assert [repr(c) for c, _ in got] == [repr(c) for c, _ in ref], name


@pytest.mark.parametrize("kind,reduced", [(JORDAN_WIGNER, False), (PARITY, False), (PARITY, True)])
def test_array_mapping_is_bit_identical_to_reference(h2, h4, h10, kind, reduced):
    for name, m in _systems(h2, h4, h10):
        spec = MappingSpec(kind, reduced, m.n_electrons)
        f = build_fermionic_hamiltonian(m)
        h = map_to_qubits(f, spec)
        n, terms = reference_map_to_qubits(f, spec)
        assert [repr(c) for c in h.coeffs.tolist()] == [repr(c) for _, c in terms], name
        assert h.to_text() == reference_text(n, terms), name


_REDUCED_RANDOM_SHA256 = {
    4: "a9787ef52522fa2ac5df6ac75b4a7ea29724ca7d3929f86cfa77f2bdd30131d5",
    6: "95a0aadf50f545921a9c160861ff643c85fdacad617c0b9bdbb55072362ed788",
    8: "b60a8ddd76e79346562cc56c849334e4529d44527890fa1d880db36b9e2b86b4",
}

# sha256 of to_text() for the H10 resource windows (active_space window k + 1)
_H10_RESOURCE_SHA256 = {
    (1, JORDAN_WIGNER, False): "70f371d55d3b989eb20ae13579c52ff754935913dc544326715ec334b3e6a284",
    (1, PARITY, False): "b3dc41514e872d531c9c9d9867c2c5e5bd7731e8d0acfb381562406b0d528026",
    (1, PARITY, True): "5d0abd82e24ca38f72c98bd8da15a2349823cf3440f81dd37b4ee7b4823a0738",
    (2, JORDAN_WIGNER, False): "8dc63940075d4b90e0d961623056ea95c8cbe538d1ab78bd0ebe1910895fbac9",
    (2, PARITY, False): "15c2fee5d00a97666b07fd36f0c0bba944f228f5ff3e7ca52a8ab86e2d014596",
    (2, PARITY, True): "178274bfa7cb3cd07eb713a72d44bf7c1e0ad745c8eef081fe9a9dac18d058cf",
    (3, JORDAN_WIGNER, False): "71d8aa7c7cb29838387f30620646f21d711925e10bdd6f039df1405d57b5fb20",
    (3, PARITY, False): "2606cbb619c711a4c4aff80af570eb87c868f353e833adb93319d1a9a7f9ec5e",
    (3, PARITY, True): "0c29cd56c5ec7347ba9f7a9869ded48d400577427b892107678e84346b9a02a2",
    (4, JORDAN_WIGNER, False): "2ffc9f8d2e926e0f524cba63b055a3a0c280de5a65f8a73d5b7be7465adb3265",
    (4, PARITY, False): "de7c0017c7bd5e6489d117639a1d4bb6692b2c54b5622649ef112b5ac54969d1",
    (4, PARITY, True): "05adb8c1f73ce955315f474892673f2d6add9bdb4b1bd74b71015df3c6493938",
}


@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_h10_resource_mappings_are_pinned(h10, h10_mf, window):
    m = active_space(h10[0], h10_mf, window=window + 1)[0]
    f = build_fermionic_hamiltonian(m)
    for kind, reduced in ((JORDAN_WIGNER, False), (PARITY, False), (PARITY, True)):
        text = map_to_qubits(f, MappingSpec(kind, reduced, m.n_electrons)).to_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == _H10_RESOURCE_SHA256[window, kind, reduced], (kind, reduced)


def test_widest_resource_mapping_peak_memory(h10, h10_mf):
    # the benchmark bounds peak RSS; the 20-qubit window is its largest mapping
    f = build_fermionic_hamiltonian(active_space(h10[0], h10_mf, window=5)[0])
    tracemalloc.start()
    try:
        h = map_to_qubits(f, MappingSpec(JORDAN_WIGNER))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.n_qubits == 20
    assert peak < 8e6


class TestDecodeAgainstLoop:
    @pytest.mark.parametrize("n_modes", [4, 6, 8, 10])
    @pytest.mark.parametrize("reduced", [False, True])
    def test_signed_permutation_is_bit_identical(self, n_modes, reduced):
        rng = np.random.default_rng(n_modes + 100 * reduced)
        for n_electrons in range(0, n_modes + 1, 2):
            spec = MappingSpec(PARITY, reduced, n_electrons if reduced else None)
            dim = 1 << (n_modes - 2 if reduced else n_modes)
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state[rng.random(dim) < 0.3] = 0.0
            state[rng.random(dim) < 0.1] = -0.0
            got = decode_statevector(state, n_modes, spec)
            assert got.tobytes() == reference_decode(state, n_modes, spec).tobytes()
