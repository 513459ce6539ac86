"""Pauli words, Hamiltonian simplification, the real-vector evaluator and the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqemb.pauli import (
    MATRIX_QUBIT_CAP,
    PauliExpectation,
    PauliTerm,
    PauliWord,
    QubitHamiltonian,
    _DROP_TOL,
    _masks,
    _merge,
    _qubitwise_commute,
)

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_matrix(letters):
    """Independent dense oracle: explicit Kronecker chain, qubit 0 first."""
    out = PAULI_MATS[letters[0]]
    for c in letters[1:]:
        out = np.kron(out, PAULI_MATS[c])
    return out


def dense(h):
    dim = 2**h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for t in h.terms:
        out += t.coefficient * kron_matrix(t.word.letters)
    return out


words = st.text(alphabet="IXYZ", min_size=1, max_size=5)


def random_hamiltonian(rng, n, n_terms):
    """Random words with real coefficients."""
    letters = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(n_terms)]
    coeffs = rng.normal(size=n_terms)
    return QubitHamiltonian(n, [PauliTerm(complex(c), PauliWord(w)) for c, w in zip(coeffs, letters)])


class TestSimplify:
    def test_merges_like_terms(self):
        h = QubitHamiltonian(1, [PauliTerm(1.0, PauliWord("Z")), PauliTerm(1.0, PauliWord("Z"))])
        s = h.simplify()
        assert len(s) == 1
        assert s.terms[0].coefficient == pytest.approx(2.0)

    def test_drops_small_terms(self):
        h = QubitHamiltonian(1, [PauliTerm(1e-15, PauliWord("X"))])
        assert len(h) == 0

    def test_canonical_order(self):
        h = QubitHamiltonian.from_dict(2, {"ZZ": 1.0, "IX": 2.0, "XI": 3.0})
        assert [t.word.letters for t in h.simplify().terms] == ["IX", "XI", "ZZ"]

    def test_random_hamiltonian_matrix_preserved(self):
        rng = np.random.default_rng(4)
        letters = ["".join(rng.choice(list("IXYZ"), size=4)) for _ in range(20)]
        terms = [PauliTerm(complex(rng.normal()), PauliWord(w)) for w in letters]
        h = QubitHamiltonian(4, terms)
        assert np.allclose(dense(h), dense(h.simplify()), atol=1e-12)


class TestCanonicalForm:
    """Every entry point gives the same merged, letter-ordered, filtered words."""

    # shuffled words: ZIX three times, IXY twice, XYZ cancelling to zero and
    # XXI below the 1e-12 drop tolerance
    TERMS = [("ZIX", 0.1), ("YZI", 0.25 - 0.5j), ("IXY", -0.5), ("XXI", 1e-13), ("ZIX", 0.2),
             ("XYZ", 0.4), ("IIZ", 0.75), ("IXY", 0.125j), ("ZIX", 0.3), ("XYZ", -0.4),
             ("III", -1.5)]
    X, Z = [0, 0, 3, 4, 1], [0, 1, 1, 6, 4]  # III, IIZ, IXY, YZI, ZIX
    # ZIX sums 0.1 + 0.2 + 0.3 in occurrence order, from zero
    COEFFS = ["(-1.5+0j)", "(0.75+0j)", "(-0.5+0.125j)", "(0.25-0.5j)", "(0.6000000000000001+0j)"]

    @staticmethod
    def masks(word):
        n = len(word)
        x = sum(1 << (n - 1 - q) for q, c in enumerate(word) if c in "XY")
        z = sum(1 << (n - 1 - q) for q, c in enumerate(word) if c in "ZY")
        return x, z

    def entry_points(self):
        terms = [PauliTerm(complex(c), PauliWord(w)) for w, c in self.TERMS]
        merged = {}
        for w, c in self.TERMS:
            merged[w] = merged.get(w, 0.0) + c
        text = "nqubits=3\n" + "".join(
            f"{complex(c).real!r} {complex(c).imag!r} {w}\n" for w, c in self.TERMS)
        x, z = np.array([self.masks(w) for w, _ in self.TERMS]).T
        coeffs = np.array([c for _, c in self.TERMS], dtype=complex)
        yield "init", QubitHamiltonian(3, terms)
        yield "from_dict", QubitHamiltonian.from_dict(3, merged)
        yield "from_text", QubitHamiltonian.from_text(text)
        yield "from_arrays", QubitHamiltonian.from_arrays(3, x, z, coeffs)

    def test_every_entry_point_gives_the_pinned_arrays(self):
        for name, h in self.entry_points():
            for s in (h.simplify(), h):  # construction already canonicalises
                assert s.x.tolist() == self.X and s.z.tolist() == self.Z, name
                assert [repr(c) for c in s.coeffs.tolist()] == self.COEFFS, name


def reference_canonical(n, x, z, coeffs):
    """Pure-Python canonical form: (letters, coefficient) pairs in letter order.

    Sums each word's coefficients in occurrence order from zero in a dict,
    drops sums below the drop tolerance and sorts the letter strings with
    I < X < Y < Z, qubit 0 first.
    """
    acc = {}
    for xi, zi, c in zip(x, z, coeffs):
        w = "".join("IXZY"[((xi >> b) & 1) + 2 * ((zi >> b) & 1)] for b in range(n - 1, -1, -1))
        acc[w] = acc.get(w, 0j) + complex(c)
    rank = str.maketrans("IXYZ", "0123")
    return sorted(((w, c) for w, c in acc.items() if abs(c) >= _DROP_TOL),
                  key=lambda wc: wc[0].translate(rank))


class TestFromArraysLimbBoundaries:
    """``from_arrays`` on both sides of each packed sort limb's capacity."""

    @staticmethod
    def words(rng, n):
        """Words sharing long prefixes, each differing from a template in a few qubits."""
        templates = [rng.integers(0, 1 << n, size=2, dtype=np.int64).tolist() for _ in range(3)]
        pool = [(0, 0), ((1 << n) - 1, (1 << n) - 1)]  # the identity and all-Y
        for _ in range(60):
            x, z = templates[rng.integers(3)]
            for bit in rng.choice(n, size=min(n, rng.integers(1, 3)), replace=False).tolist():
                x ^= int(rng.integers(2)) << bit
                z ^= int(rng.integers(2)) << bit
            pool.append((x, z))
        for bit in {0, n - 1, max(n - 31, 0), min(31, n - 1), min(32, n - 1)}:
            pool += [(1 << bit, 0), (0, 1 << bit), (1 << bit, 1 << bit)]
        return pool

    @pytest.mark.parametrize("n", [1, 30, 31, 32, 62, 63])
    def test_matches_the_reference_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        pool = self.words(rng, n)
        rows = [(pool[i], complex(rng.normal(), rng.normal()))
                for i in rng.integers(len(pool), size=300).tolist()]
        special = [pool[i] for i in rng.choice(len(pool), size=5, replace=False).tolist()]
        # order-dependent sums (1e16 + 1.0 rounds away the 1.0), a cancellation,
        # a word below the drop tolerance, and negative zeros
        rows += [(special[0], 1e16), (special[0], 1.0), (special[0], -1e16), (special[0], 3.0),
                 (special[1], 0.4), (special[1], -0.4),
                 (special[2], 1e-13),
                 (special[3], -0.0), (special[4], complex(0.5, -0.0))]
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order.tolist()]
        x = [w[0] for w, _ in rows]
        z = [w[1] for w, _ in rows]
        coeffs = [c for _, c in rows]
        h = QubitHamiltonian.from_arrays(n, x, z, coeffs)
        ref = reference_canonical(n, x, z, coeffs)
        assert [t.word.letters for t in h.terms] == [w for w, _ in ref]
        assert [repr(c) for c in h.coeffs.tolist()] == [repr(c) for _, c in ref]
        assert h.to_text() == "nqubits=%d\n" % n + "".join(
            f"{c.real!r} {c.imag!r} {w}\n" for w, c in ref)

    def test_zero_qubit_register_merges_its_identities(self):
        h = QubitHamiltonian.from_arrays(0, [0, 0], [0, 0], [1.0, 2.0])
        assert h.to_text() == "nqubits=0\n3.0 0.0 \n"

    @pytest.mark.parametrize("n", [1, 30, 31, 32, 62, 63])
    def test_merge_returns_words_in_mask_order(self, n):
        # the two-qubit reduction sums words that meet after tapering in this order
        rng = np.random.default_rng(100 + n)
        pool = self.words(rng, n)
        x, z = np.array([pool[i] for i in rng.integers(len(pool), size=200).tolist()]).T
        xs, zs, _ = _merge(x, z, np.ones(len(x), dtype=complex), n)
        assert list(zip(xs.tolist(), zs.tolist())) == sorted(set(zip(x.tolist(), z.tolist())))


class TestFromArraysInput:
    @pytest.mark.parametrize("x,z", [([8], [0]), ([-1], [0]), ([0], [4]), ([0, 1], [4, 0]),
                                     ([0], [-(1 << 63)])])
    def test_mask_outside_the_register_is_refused(self, x, z):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^2\)"):
            QubitHamiltonian.from_arrays(2, x, z, [1.0] * len(x))

    def test_mask_at_the_widest_register_is_kept(self):
        top = (1 << 63) - 1
        h = QubitHamiltonian.from_arrays(63, [top], [top], [1.0])
        assert h.terms[0].word.letters == "Y" * 63

    @pytest.mark.parametrize("x,z,coeffs", [([0, 1], [0, 1], [1.0]), ([0, 1], [0], [1.0, 2.0]),
                                            ([0], [0, 1], [1.0, 2.0])])
    def test_unequal_lengths_are_refused(self, x, z, coeffs):
        with pytest.raises(ValueError, match="lengths"):
            QubitHamiltonian.from_arrays(2, x, z, coeffs)


class TestToMatrix:
    def test_single_z(self):
        h = QubitHamiltonian.from_dict(1, {"Z": 1.0})
        assert np.allclose(h.to_matrix(), np.diag([1.0, -1.0]))

    def test_identity_two_qubits(self):
        h = QubitHamiltonian.from_dict(2, {"II": 1.0})
        assert np.allclose(h.to_matrix(), np.eye(4))

    def test_xx_plus_yy_block(self):
        h = QubitHamiltonian.from_dict(2, {"XX": 0.5, "YY": 0.5})
        m = h.to_matrix()
        assert np.allclose(m, m.conj().T)
        assert abs(np.trace(m)) < 1e-12
        assert np.allclose(m, dense(h), atol=1e-12)

    def test_matches_kron_oracle_random(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5):
            letters = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6)]
            h = QubitHamiltonian(n, [PauliTerm(complex(rng.normal(), rng.normal()), PauliWord(w)) for w in letters])
            assert np.allclose(h.to_matrix(), dense(h), atol=1e-12)

    def test_cap_refused(self):
        h = QubitHamiltonian.from_dict(MATRIX_QUBIT_CAP + 1, {"I" * (MATRIX_QUBIT_CAP + 1): 1.0})
        with pytest.raises(ValueError, match="cap"):
            h.to_matrix()


class TestGroundState:
    def test_minus_z(self):
        # Z = diag(1, -1), so -Z is minimized by |0>
        e, v = QubitHamiltonian.from_dict(1, {"Z": -1.0}).ground_state_energy()
        assert e == pytest.approx(-1.0, abs=1e-12)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)

    def test_plus_z(self):
        e, v = QubitHamiltonian.from_dict(1, {"Z": 1.0}).ground_state_energy()
        assert e == pytest.approx(-1.0, abs=1e-12)
        assert abs(v[1]) == pytest.approx(1.0, abs=1e-12)

    def test_zz_degenerate_pair(self):
        e, v = QubitHamiltonian.from_dict(2, {"ZZ": 1.0}).ground_state_energy()
        assert e == pytest.approx(-1.0, abs=1e-12)
        probs = np.abs(v) ** 2
        assert probs[1] + probs[2] == pytest.approx(1.0, abs=1e-10)

    def test_non_hermitian_rejected(self):
        h = QubitHamiltonian.from_dict(1, {"X": 1.0j})
        with pytest.raises(ValueError, match="Hermitian"):
            h.ground_state_energy()

    def test_variational_bound(self):
        rng = np.random.default_rng(7)
        letters = ["".join(rng.choice(list("IXYZ"), size=3)) for _ in range(8)]
        h = QubitHamiltonian(3, [PauliTerm(complex(rng.normal()), PauliWord(w)) for w in letters])
        e0, _ = h.ground_state_energy()
        mat = h.to_matrix()
        for _ in range(100):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v /= np.linalg.norm(v)
            assert e0 <= np.real(np.vdot(v, mat @ v)) + 1e-10

    def test_eigenvalues_real_for_hermitian(self):
        rng = np.random.default_rng(9)
        letters = ["".join(rng.choice(list("IXYZ"), size=4)) for _ in range(10)]
        h = QubitHamiltonian(4, [PauliTerm(complex(rng.normal()), PauliWord(w)) for w in letters])
        evals = np.linalg.eigvals(h.to_matrix())
        assert np.max(np.abs(evals.imag)) < 1e-10


class TestApplyAndExpectation:
    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(3)
        for w in ("X", "ZY", "XYZ", "IYXZ"):
            v = rng.normal(size=2 ** len(w)) + 1j * rng.normal(size=2 ** len(w))
            mat = QubitHamiltonian.from_dict(len(w), {w: 1.0}).to_matrix()
            assert np.allclose(mat @ v, kron_matrix(w) @ v, atol=1e-12)

    def test_real_kernel_matches_dense_real_part(self):
        rng = np.random.default_rng(9)
        letters = ["".join(rng.choice(list("IXYZ"), size=4)) for _ in range(20)]
        h = QubitHamiltonian.from_dict(4, {w: float(rng.normal()) for w in letters})
        ev = PauliExpectation(h)
        v = rng.normal(size=16)
        assert np.abs(ev.apply(v) - dense(h).real @ v).max() < 1e-12
        assert ev(v) == pytest.approx(float(np.real(np.vdot(v, dense(h) @ v))), abs=1e-12)

    def test_only_imaginary_terms(self):
        # odd-Y words have imaginary real-vector matrix elements only
        ev = PauliExpectation(QubitHamiltonian.from_dict(2, {"XY": 1.0}))
        v = np.array([0.5, -0.5, 0.5, 0.5])
        assert ev(v) == 0.0 and np.array_equal(ev.apply(v), np.zeros(4))

    def test_complex_vector_rejected(self):
        # every simulated state is real; a complex one has no evaluator here
        ev = PauliExpectation(QubitHamiltonian.from_dict(1, {"X": 1.0}))
        for evaluate in (ev, ev.apply):
            with pytest.raises(ValueError, match="real"):
                evaluate(np.array([1.0, 1.0j]) / np.sqrt(2))

    def test_non_hermitian_rejected_at_construction(self):
        with pytest.raises(ValueError, match="Hermitian"):
            PauliExpectation(QubitHamiltonian.from_dict(1, {"X": 1.0j}))

    def test_real_table_and_matrix_match_the_per_term_loops(self):
        # the former per-term loops, kept as references: same sums in the
        # same order, so the tables and the matrix are bit-identical
        rng = np.random.default_rng(12)
        for n in (1, 2, 4, 6):
            h = random_hamiltonian(rng, n, 4 * n)
            h = QubitHamiltonian(n, h.terms + h.terms[: n + 1])  # repeated words
            idx = np.arange(2**n)
            rows, mat = {}, np.zeros((2**n, 2**n), dtype=complex)
            for c, x, z in zip(h.coeffs.tolist(), h.x.tolist(), h.z.tolist()):
                phase = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[(x & z).bit_count() % 4]
                mat[idx ^ x, idx] += c * phase * (1.0 - 2.0 * (np.bitwise_count(idx & z) & 1))
                weight = (c * phase).real
                if weight != 0.0:
                    signs = 1.0 - 2.0 * (np.bitwise_count((idx ^ x) & z) & 1)
                    rows[x] = rows.get(x, 0.0) + weight * signs
            ev = PauliExpectation(h)
            masks = sorted(rows)
            assert np.array_equal(ev._perms, np.array([idx ^ x for x in masks]).reshape(-1, 2**n))
            assert ev._weights.tobytes() == np.array([rows[x] for x in masks]).tobytes()
            assert h.to_matrix().tobytes() == mat.tobytes()


class TestSerialization:
    def test_round_trip_bit_exact(self):
        h = QubitHamiltonian.from_dict(3, {"XZI": 0.5, "IIZ": -0.125, "YYY": 1.0 / 3.0}).simplify()
        again = QubitHamiltonian.from_text(h.to_text())
        assert again.n_qubits == 3
        for a, b in zip(h.terms, again.terms):
            assert a.word == b.word
            assert a.coefficient == b.coefficient  # exact, repr round-trip

    def test_header_required(self):
        with pytest.raises(ValueError, match="nqubits"):
            QubitHamiltonian.from_text("0.5 0.0 XZ\n")

    def test_word_length_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            QubitHamiltonian.from_text("nqubits=3\n0.5 0.0 XZ\n")


def qubitwise_commute(a: str, b: str) -> bool:
    return _qubitwise_commute(*_masks(a), *_masks(b))


def test_qubitwise_commute():
    assert qubitwise_commute("XI", "XZ")
    assert not qubitwise_commute("XI", "ZI")


@given(a=words, b=words)
@settings(max_examples=200, deadline=None)
def test_qubitwise_commute_matches_letter_rule(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    expected = all(ca == cb or "I" in (ca, cb) for ca, cb in zip(a, b))
    assert qubitwise_commute(a, b) == expected
