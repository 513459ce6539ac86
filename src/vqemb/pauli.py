"""Pauli-word algebra, qubit Hamiltonians, and the dense diagonalization oracle.

A Hamiltonian is a weighted sum of Pauli words (tensor products over
{I, X, Y, Z}).  Words are stored as strings with qubit 0 leftmost; the
matrix convention puts qubit 0 on the most significant bit, i.e.
``matrix(word) = kron(P[letters[0]], P[letters[1]], ...)``.

Dense matrix expansion and exact diagonalization are capped at
``MATRIX_QUBIT_CAP`` qubits; calls beyond the cap raise instead of
switching method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

PAULI_LETTERS = "IXYZ"

# Largest register for which dense matrix expansion / eigensolves are allowed.
MATRIX_QUBIT_CAP = 14

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k


def _masks(letters: str) -> tuple[int, int]:
    """(x, z) bitmasks in basis-index space: qubit q sits on bit n-1-q."""
    n = len(letters)
    x = z = 0
    for q, c in enumerate(letters):
        bit = 1 << (n - 1 - q)
        if c in ("X", "Y"):
            x |= bit
        if c in ("Z", "Y"):
            z |= bit
    return x, z


def _letters(x: int, z: int, n: int) -> str:
    out = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        xb, zb = bool(x & bit), bool(z & bit)
        out.append("Y" if (xb and zb) else "X" if xb else "Z" if zb else "I")
    return "".join(out)


def _popcount(v: int) -> int:
    return v.bit_count()


def _mul_masks(xa: int, za: int, xb: int, zb: int) -> tuple[int, int, int]:
    """Multiply two words in mask form; returns (phase power of i mod 4, x, z)."""
    x, z = xa ^ xb, za ^ zb
    k = _popcount(xa & za) + _popcount(xb & zb) - _popcount(x & z) + 2 * _popcount(za & xb)
    return k % 4, x, z


@dataclass(frozen=True)
class PauliWord:
    """Tensor product of single-qubit Paulis, e.g. ``PauliWord("XZI")``."""

    letters: str

    def __post_init__(self):
        if not all(c in PAULI_LETTERS for c in self.letters):
            raise ValueError(f"invalid Pauli letters in {self.letters!r}")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliWord":
        return cls("I" * n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) <= {"I"}

    def support(self) -> tuple[int, ...]:
        """Qubit indices carrying a non-identity letter."""
        return tuple(q for q, c in enumerate(self.letters) if c != "I")

    def __str__(self) -> str:
        return self.letters


def multiply(a: PauliWord, b: PauliWord) -> tuple[complex, PauliWord]:
    """Product of two equal-length words: matrix(a) @ matrix(b) = phase * matrix(word)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"length mismatch: {a.n_qubits} vs {b.n_qubits}")
    xa, za = _masks(a.letters)
    xb, zb = _masks(b.letters)
    k, x, z = _mul_masks(xa, za, xb, zb)
    return _PHASES[k], PauliWord(_letters(x, z, a.n_qubits))


@dataclass(frozen=True)
class PauliTerm:
    """A complex coefficient (Hartree) attached to a Pauli word."""

    coefficient: complex
    word: PauliWord


class QubitHamiltonian:
    """Sum of Pauli terms over a fixed qubit register."""

    def __init__(self, n_qubits: int, terms: Iterable[PauliTerm] = ()):
        self.n_qubits = int(n_qubits)
        self.terms = tuple(terms)
        for t in self.terms:
            if t.word.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {t.word} has {t.word.n_qubits} qubits, expected {self.n_qubits}"
                )

    @classmethod
    def from_dict(cls, n_qubits: int, terms: dict[str, complex]) -> "QubitHamiltonian":
        return cls(n_qubits, [PauliTerm(complex(c), PauliWord(w)) for w, c in terms.items()])

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"QubitHamiltonian({self.n_qubits} qubits, {len(self.terms)} terms)"

    def simplify(self, drop_tol: float = 1e-12) -> "QubitHamiltonian":
        """Merge like terms, drop |coeff| < drop_tol, sort words lexicographically."""
        acc: dict[str, complex] = {}
        for t in self.terms:
            acc[t.word.letters] = acc.get(t.word.letters, 0.0) + complex(t.coefficient)
        kept = {w: c for w, c in acc.items() if abs(c) >= drop_tol}
        return QubitHamiltonian(
            self.n_qubits,
            [PauliTerm(kept[w], PauliWord(w)) for w in sorted(kept)],
        )

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (qubit 0 on the most significant bit)."""
        if self.n_qubits > MATRIX_QUBIT_CAP:
            raise ValueError(
                f"{self.n_qubits} qubits exceeds the dense-matrix cap of {MATRIX_QUBIT_CAP}"
            )
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        idx = np.arange(dim)
        for t in self.terms:
            x, z = _masks(t.word.letters)
            signs = 1.0 - 2.0 * _parity(idx & z)
            phase = _PHASES[_popcount(x & z) % 4]
            mat[idx ^ x, idx] += t.coefficient * phase * signs
        return mat

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        s = self.simplify(drop_tol=0.0)
        return all(abs(t.coefficient.imag) < tol for t in s.terms)

    def ground_state_energy(self) -> tuple[float, np.ndarray]:
        """Minimum eigenvalue and a unit-norm eigenvector via dense eigh."""
        if not self.is_hermitian():
            raise ValueError("Hamiltonian is not Hermitian (complex coefficients survive simplify)")
        evals, evecs = np.linalg.eigh(self.to_matrix())
        return float(evals[0]), evecs[:, 0]

    def expectation(self, state: np.ndarray) -> complex:
        """<state|H|state> without building the dense matrix."""
        vec = np.asarray(state, dtype=complex).ravel()
        if vec.size != 1 << self.n_qubits:
            raise ValueError(
                f"state dimension {vec.size} does not match {self.n_qubits} qubits"
            )
        total = 0.0 + 0.0j
        for t in self.terms:
            total += t.coefficient * np.vdot(vec, apply_word(t.word, vec))
        return total

    # -- text serialization ------------------------------------------------

    def to_text(self) -> str:
        """One term per line ``<re> <im> <word>`` after a ``nqubits=`` header."""
        lines = [f"nqubits={self.n_qubits}"]
        for t in self.terms:
            c = complex(t.coefficient)
            lines.append(f"{c.real!r} {c.imag!r} {t.word.letters}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "QubitHamiltonian":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("nqubits="):
            raise ValueError("missing 'nqubits=' header line")
        n = int(lines[0].split("=", 1)[1])
        terms = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"malformed term line: {ln!r}")
            re_, im_, word = parts
            if len(word) != n:
                raise ValueError(f"word {word!r} does not match nqubits={n}")
            terms.append(PauliTerm(complex(float(re_), float(im_)), PauliWord(word)))
        return cls(n, terms)


def _parity(v: np.ndarray) -> np.ndarray:
    """Bitwise parity of each entry of an integer array."""
    return np.bitwise_count(v) & 1


def apply_word(word: PauliWord, vec: np.ndarray) -> np.ndarray:
    """Apply a Pauli word to a statevector (qubit 0 = most significant bit)."""
    n = word.n_qubits
    vec = np.asarray(vec, dtype=complex).ravel()
    if vec.size != 1 << n:
        raise ValueError(f"vector dimension {vec.size} does not match {n} qubits")
    x, z = _masks(word.letters)
    idx = np.arange(vec.size)
    signs = 1.0 - 2.0 * _parity(idx & z)
    phase = _PHASES[_popcount(x & z) % 4]
    out = np.empty_like(vec)
    out[idx ^ x] = phase * signs * vec
    return out


def words_qubitwise_commute(a: PauliWord, b: PauliWord) -> bool:
    """True when on every qubit the letters are equal or one is identity."""
    return all(ca == cb or ca == "I" or cb == "I" for ca, cb in zip(a.letters, b.letters))


class PauliExpectation:
    """Precomputed H·v and <v|H|v> for many real vectors of one Hamiltonian.

    For a real vector v, <v|H|v> = <v|Re H|v> and Re(H v) = (Re H) v, so only
    the real part of each term's phased-sign table is kept; terms with the
    same X mask share one gather and one summed weight row.  Complex vectors
    go through ``QubitHamiltonian.expectation``.  The Hamiltonian must be
    Hermitian, which is checked once here.
    """

    def __init__(self, h: QubitHamiltonian):
        if h.n_qubits > MATRIX_QUBIT_CAP:
            raise ValueError(
                f"{h.n_qubits} qubits exceeds the dense-evaluation cap of {MATRIX_QUBIT_CAP}"
            )
        if not h.is_hermitian():
            raise ValueError("Hamiltonian is not Hermitian (complex coefficients survive simplify)")
        self.n_qubits = h.n_qubits
        self._hamiltonian = h
        dim = 1 << h.n_qubits
        idx = np.arange(dim)
        rows: dict[int, np.ndarray] = {}
        for t in h.terms:
            x, z = _masks(t.word.letters)
            phase = _PHASES[_popcount(x & z) % 4]
            weight = (complex(t.coefficient) * phase).real
            if weight == 0.0:  # a word with an odd number of Y is imaginary
                continue
            # (P v)[i] = phase * (-1)^popcount((i ^ x) & z) * v[i ^ x]
            signs = 1.0 - 2.0 * _parity((idx ^ x) & z)
            rows[x] = rows.get(x, 0.0) + weight * signs
        masks = sorted(rows)
        self._perms = np.array([idx ^ x for x in masks], dtype=np.intp).reshape(len(masks), dim)
        self._weights = np.array([rows[x] for x in masks]).reshape(len(masks), dim)

    def _checked(self, state: np.ndarray) -> np.ndarray:
        vec = np.asarray(state).ravel()
        if vec.size != 1 << self.n_qubits:
            raise ValueError(
                f"state dimension {vec.size} does not match {self.n_qubits} qubits"
            )
        return vec

    def apply(self, state: np.ndarray) -> np.ndarray:
        """(Re H) v for a real vector v."""
        vec = self._checked(state)
        return np.einsum("ij,ij->j", self._weights, vec[self._perms])

    def __call__(self, state: np.ndarray) -> float:
        vec = self._checked(state)
        if np.iscomplexobj(vec):
            return float(self._hamiltonian.expectation(vec).real)
        return float(vec @ self.apply(vec))
