"""Pauli words, qubit Hamiltonians, their real-statevector evaluator and dense oracle.

A Hamiltonian is a weighted sum of Pauli words (tensor products over
{I, X, Y, Z}).  A word is written as a string with qubit 0 leftmost and
stored in a Hamiltonian as two int64 masks in basis-index space; the matrix
convention puts qubit 0 on the most significant bit, i.e.
``matrix(word) = kron(P[letters[0]], P[letters[1]], ...)``.

A Hamiltonian is canonical from construction: like words are merged, each
sum in occurrence order from zero, merged coefficients below the one drop
tolerance ``_DROP_TOL`` are dropped, and the words are kept in letter order
(I < X < Y < Z, qubit 0 first).  Both steps are one stable ``np.lexsort`` on
packed int64 keys: the merge on ``(x << n) | z`` (the two keys x, z past 31
qubits), the letter order on 2 bits a qubit, 31 qubits a key.

The dense oracle serves bare qubit Hamiltonians up to ``MATRIX_QUBIT_CAP``
(12) qubits; a molecule's is the DMET sector solver's full CI, which with
``PauliExpectation`` reaches ``VECTOR_QUBIT_CAP`` (14).  A call past its cap
raises ``ExactCapError`` before it allocates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

PAULI_LETTERS = "IXYZ"

# Largest register whose dense 2^n x 2^n matrix is built: 268 MB of complex128
# at 12 qubits, and eigh needs about four times the matrix.
MATRIX_QUBIT_CAP = 12
# Largest register for tables of whole-register vectors (PauliExpectation) and
# for the DMET sector solver.
VECTOR_QUBIT_CAP = 14
# Words whose merged coefficient is smaller than this in magnitude are dropped.
_DROP_TOL = 1e-12
# A Hamiltonian is Hermitian when no merged coefficient has an imaginary part this large.
_HERMITIAN_TOL = 1e-10

_PHASE_ARRAY = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])  # i**k

MASK_QUBIT_CAP = 63  # masks are int64, so qubit 0 sits at most on bit 62
_LETTER_CODES = np.frombuffer(b"IXZY", dtype=np.uint8)  # x bit + 2 * z bit
_LIMB_QUBITS = 31  # qubits a packed int64 sort key holds at 2 bits each, sign bit clear
_SHUFFLE = ((16, 0x00000000FFFF0000), (8, 0x0000FF000000FF00), (4, 0x00F000F000F000F0),
            (2, 0x0C0C0C0C0C0C0C0C), (1, 0x2222222222222222))  # 64-bit outer perfect shuffle


class ExactCapError(ValueError):
    """A register too wide for an exact method's allocation."""


def _check_cap(n_qubits: int, cap: int, what: str) -> None:
    if n_qubits > cap:
        raise ExactCapError(f"{n_qubits} qubits exceeds the {what} cap of {cap}")


def _check_register(n_qubits: int) -> None:
    if n_qubits > MASK_QUBIT_CAP:
        raise ValueError(
            f"{n_qubits} qubits exceeds the {MASK_QUBIT_CAP}-qubit limit of int64 Pauli masks"
        )


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


def _words(x: np.ndarray, z: np.ndarray, n: int) -> list[str]:
    """Letter strings of mask arrays, qubit 0 leftmost."""
    shifts = np.arange(n - 1, -1, -1)
    codes = ((x[:, None] >> shifts) & 1) + 2 * ((z[:, None] >> shifts) & 1)
    raw = _LETTER_CODES[codes].tobytes().decode("ascii")
    return [raw[i * n:(i + 1) * n] for i in range(len(x))]


def _sort_limbs(x: np.ndarray, z: np.ndarray, n: int, letters: bool = False) -> list:
    """Packed int64 sort keys of words, most significant limb first.

    Mask order packs ``(x << n) | z`` into one limb up to 31 qubits and keeps
    the two limbs ``x, z`` past that.  Letter order gives each qubit a 2-bit
    code (I=0, X=1, Y=2, Z=3), qubit 0 most significant, 31 qubits a limb.
    """
    if not letters:
        return [x, z] if n > _LIMB_QUBITS else [(x << n) | z]
    y, limbs = x ^ z, []
    for hi in range(n, 0, -_LIMB_QUBITS):  # the limb of mask bits [lo, hi)
        lo, field = max(hi - _LIMB_QUBITS, 0), (1 << min(hi, _LIMB_QUBITS)) - 1
        key = ((z >> lo) & field) << 32 | (y >> lo) & field
        for shift, mask in _SHUFFLE:  # interleave: z bit i to bit 2i+1, y bit i to 2i
            t = (key ^ (key >> shift)) & mask
            key ^= t ^ (t << shift)
        limbs.append(key)
    return limbs or [np.zeros_like(x)]


def _merge(x: np.ndarray, z: np.ndarray, coeffs: np.ndarray, n: int):
    """Sum the coefficients of equal ``n``-qubit words, each sum in occurrence order.

    One stable ``np.lexsort`` on the mask-order limbs of ``_sort_limbs`` (one
    up to 31 qubits, two past that) puts the words in (x, z) mask order; the
    sums start from zero, as a dict accumulator ``acc.get(w, 0.0) + c`` would.
    """
    if len(x) == 0:
        return x, z, coeffs
    order = np.lexsort(_sort_limbs(x, z, n)[::-1])  # stable: equal words keep their occurrence order
    xs, zs = x[order], z[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1])
    xs, zs = xs[starts], zs[starts]  # frees the sorted copies before the sums
    acc = np.zeros(len(xs), dtype=complex)
    np.add.at(acc, np.cumsum(starts) - 1, coeffs[order])
    return xs, zs, acc


def _lexicographic_order(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """Permutation sorting distinct words by their letters (I < X < Y < Z, qubit 0 first).

    One ``np.lexsort`` on the letter limbs: one up to 31 qubits, three at 63.
    """
    return np.lexsort(_sort_limbs(x, z, n, letters=True)[::-1])


@dataclass(frozen=True)
class PauliWord:
    """Tensor product of single-qubit Paulis, e.g. ``PauliWord("XZI")``."""

    letters: str

    def __post_init__(self):
        if not all(c in PAULI_LETTERS for c in self.letters):
            raise ValueError(f"invalid Pauli letters in {self.letters!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True)
class PauliTerm:
    """A complex coefficient (Hartree) attached to a Pauli word."""

    coefficient: complex
    word: PauliWord


class QubitHamiltonian:
    """Sum of Pauli terms over a fixed qubit register, canonical from construction.

    Stored as arrays: ``x`` and ``z`` hold each word's int64 masks in
    basis-index space (qubit q on bit n-1-q) and ``coeffs`` the complex128
    coefficients.  ``terms`` builds ``PauliTerm`` objects on first use.
    """

    def __init__(self, n_qubits: int, terms: Iterable[PauliTerm] = ()):
        self.n_qubits = int(n_qubits)
        _check_register(self.n_qubits)
        terms = tuple(terms)
        for t in terms:
            if t.word.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {t.word} has {t.word.n_qubits} qubits, expected {self.n_qubits}"
                )
        x, z = np.array([_masks(t.word.letters) for t in terms], dtype=np.int64).reshape(-1, 2).T
        self._store(x, z, np.array([complex(t.coefficient) for t in terms], dtype=complex))

    @classmethod
    def from_arrays(cls, n_qubits: int, x, z, coeffs) -> "QubitHamiltonian":
        """Hamiltonian from index-space masks, each in [0, 2^n), and their coefficients."""
        h = cls(n_qubits)
        x, z, coeffs = np.asarray(x), np.asarray(z), np.asarray(coeffs, complex)
        if not len(x) == len(z) == len(coeffs):
            raise ValueError(f"x, z and coeffs have lengths {len(x)}, {len(z)} and {len(coeffs)}")
        if len(x):  # np.asarray([]) is float64, so only masks that exist are typed
            if not {x.dtype.kind, z.dtype.kind} <= set("iu"):
                raise ValueError(f"masks must be integers, not {x.dtype} and {z.dtype}")
            n = h.n_qubits
            if min(int(x.min()), int(z.min())) < 0 or max(int(x.max()), int(z.max())) >> n:
                raise ValueError(f"a mask lies outside [0, 2^{n}) for {n} qubits")
        h._store(x.astype(np.int64, copy=False), z.astype(np.int64, copy=False), coeffs)
        return h

    def _store(self, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> None:
        x, z, c = _merge(x, z, coeffs, self.n_qubits)
        kept = np.abs(c) >= _DROP_TOL
        x, z, c = x[kept], z[kept], c[kept]
        order = _lexicographic_order(x, z, self.n_qubits)
        self.x, self.z, self.coeffs, self._terms = x[order], z[order], c[order], None

    @property
    def terms(self) -> tuple[PauliTerm, ...]:
        if self._terms is None:
            words = _words(self.x, self.z, self.n_qubits)
            self._terms = tuple(
                PauliTerm(c, PauliWord(w)) for c, w in zip(self.coeffs.tolist(), words)
            )
        return self._terms

    @classmethod
    def from_dict(cls, n_qubits: int, terms: dict[str, complex]) -> "QubitHamiltonian":
        return cls(n_qubits, [PauliTerm(complex(c), PauliWord(w)) for w, c in terms.items()])

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"QubitHamiltonian({self.n_qubits} qubits, {len(self)} terms)"

    def simplify(self) -> "QubitHamiltonian":
        """This Hamiltonian, which construction has already put in canonical form."""
        return self

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (qubit 0 on the most significant bit)."""
        _check_cap(self.n_qubits, MATRIX_QUBIT_CAP, "dense-matrix")
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        idx = np.arange(dim)
        for x, row in _weight_rows(self, real=False):
            mat[idx, idx ^ x] = row
        return mat

    def is_hermitian(self) -> bool:
        return bool(np.all(np.abs(self.coeffs.imag) < _HERMITIAN_TOL))

    def ground_state_energy(self) -> tuple[float, np.ndarray]:
        """Minimum eigenvalue and a unit-norm eigenvector via dense eigh."""
        _check_cap(self.n_qubits, MATRIX_QUBIT_CAP, "dense-matrix")
        if not self.is_hermitian():
            raise ValueError("Hamiltonian is not Hermitian (a merged coefficient is complex)")
        evals, evecs = np.linalg.eigh(self.to_matrix())
        return float(evals[0]), evecs[:, 0]

    # -- text serialization ------------------------------------------------

    def to_text(self) -> str:
        """One term per line ``<re> <im> <word>`` after a ``nqubits=`` header."""
        lines = [f"nqubits={self.n_qubits}"]
        for c, w in zip(self.coeffs.tolist(), _words(self.x, self.z, self.n_qubits)):
            lines.append(f"{c.real!r} {c.imag!r} {w}")
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


def _state_vector(state, n_qubits: int) -> np.ndarray:
    """``state`` as a flat real array, checked against a register of ``n_qubits``."""
    vec = np.asarray(state).ravel()
    if vec.size != 1 << n_qubits:
        raise ValueError(f"state dimension {vec.size} does not match {n_qubits} qubits")
    if np.iscomplexobj(vec):
        raise ValueError("state is complex; only real statevectors are evaluated")
    return vec


def _parity(v: np.ndarray) -> np.ndarray:
    """Bitwise parity of each entry of an integer array."""
    return np.bitwise_count(v) & 1


def _weight_rows(h: QubitHamiltonian, real: bool):
    """Yield ``(x, row)`` for each distinct X mask of ``h``, in sorted mask order.

    ``H v = sum(row * v[idx ^ x])`` over the rows: a term c P(x, z) adds
    c i^popcount(x & z) (-1)^popcount((idx ^ x) & z) to the row of its X mask,
    the terms of a row summed in term order.  With ``real`` each weight keeps
    only its real part and terms whose real weight is zero are dropped, which
    gives the rows of Re H.  No Hermiticity check is made.
    """
    weights = h.coeffs * _PHASE_ARRAY[np.bitwise_count(h.x & h.z) & 3]
    x, z = h.x, h.z
    if real:
        weights = weights.real
        keep = weights != 0.0  # purely imaginary, e.g. a real coefficient on an odd-Y word
        weights, x, z = weights[keep], x[keep], z[keep]
    idx = np.arange(1 << h.n_qubits)
    order = np.argsort(x, kind="stable")
    masks, starts = np.unique(x[order], return_index=True)
    for mask, terms in zip(masks.tolist(), np.split(order, starts[1:])):
        row = np.zeros(idx.size, dtype=weights.dtype)
        for w, zt in zip(weights[terms], z[terms].tolist()):
            row += w * (1.0 - 2.0 * _parity((idx ^ mask) & zt))
        yield mask, row


def _qubitwise_commute(xa: int, za: int, xb: int, zb: int) -> bool:
    """True when two words' masks agree wherever both words act."""
    return ((xa ^ xb) | (za ^ zb)) & (xa | za) & (xb | zb) == 0


class PauliExpectation:
    """Precomputed H·v and <v|H|v> for many real vectors of one Hamiltonian.

    For a real vector v, <v|H|v> = <v|Re H|v> and Re(H v) = (Re H) v, so only
    the real weight rows are kept: terms with the same X mask share one
    gather and one summed row.  Every circuit here prepares a real state, so
    a complex vector is refused with ``ValueError``; the dense ``to_matrix``
    is the reference for anything else.  The Hamiltonian must be Hermitian,
    which is checked once here.
    """

    def __init__(self, h: QubitHamiltonian):
        _check_cap(h.n_qubits, VECTOR_QUBIT_CAP, "dense-evaluation")
        if not h.is_hermitian():
            raise ValueError("Hamiltonian is not Hermitian (a merged coefficient is complex)")
        self.n_qubits = h.n_qubits
        dim = 1 << h.n_qubits
        idx = np.arange(dim)
        rows = list(_weight_rows(h, real=True))
        self._perms = np.array([idx ^ x for x, _ in rows], dtype=np.intp).reshape(len(rows), dim)
        self._weights = np.array([row for _, row in rows]).reshape(len(rows), dim)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """(Re H) v for a real vector v."""
        vec = _state_vector(state, self.n_qubits)
        return np.einsum("ij,ij->j", self._weights, vec[self._perms])

    def __call__(self, state: np.ndarray) -> float:
        vec = _state_vector(state, self.n_qubits)
        return float(vec @ self.apply(vec))
