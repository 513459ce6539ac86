"""Second-quantized Hamiltonians and fermion-to-qubit encodings.

Spin-orbitals use the interleaved convention: spatial orbital p maps to
spin-orbitals 2p (alpha) and 2p+1 (beta).  Jordan-Wigner encodes occupations
directly.  The parity encoding first reorders modes into spin blocks (all
alpha, then all beta) so that qubit M/2-1 carries the alpha-block parity and
qubit M-1 the total parity; the optional two-qubit reduction removes those
two qubits and substitutes the eigenvalues fixed by the electron count.

A ladder operator maps to two Pauli words with one X mask and coefficients
0.5 and +-0.5i, so the 2^k products of a k-operator term share one X mask.
``_expand`` writes each product's phase in closed form from popcounts and
scales the term's coefficient once by 0.5^k * i^m; every factor is exact, so
the result is bit-identical to multiplying the words in one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chem import MolecularIntegrals
from .pauli import _DROP_TOL, _PHASE_ARRAY, QubitHamiltonian, _check_register, _merge

JORDAN_WIGNER = "jordan_wigner"
PARITY = "parity"


@dataclass(frozen=True)
class MappingSpec:
    """Which encoding to use and whether to taper the two parity qubits."""

    kind: str = JORDAN_WIGNER
    two_qubit_reduction: bool = False
    n_electrons: int | None = None

    def __post_init__(self):
        if self.kind not in (JORDAN_WIGNER, PARITY):
            raise ValueError(f"unknown mapping kind {self.kind!r}")
        if self.two_qubit_reduction and self.kind != PARITY:
            raise ValueError("two-qubit reduction requires the parity mapping")


@dataclass(frozen=True)
class FermionOperator:
    """Sum of products of creation/annihilation operators, held as arrays.

    ``blocks`` holds (coeffs, ladder) pairs in term order: coeffs is a complex
    (T,) array and ladder a (T, k) integer array whose row lists a term's
    operators left to right as 2 * spin_orbital + is_creation.  Every term of
    a block has k operators; k = 0 is a constant.
    """

    n_modes: int
    blocks: tuple = ()

    def __post_init__(self):
        for _, ladder in self.blocks:
            modes = np.asarray(ladder) >> 1
            bad = modes[(modes < 0) | (modes >= self.n_modes)]
            if bad.size:
                raise ValueError(f"mode index {bad[0]} out of range 0..{self.n_modes - 1}")

    def __len__(self) -> int:
        return sum(len(coeffs) for coeffs, _ in self.blocks)


def _spin_summed(values, orbitals, spins, creation):
    """Block of value * (ladder product) for every spin choice, spins innermost.

    ``orbitals`` is (T, k) spatial orbitals in operator order, ``spins`` the
    (S, k) spin of each operator per choice, ``creation`` the k flags.
    """
    ladder = 4 * orbitals[:, None, :] + 2 * np.array(spins) + np.array(creation)
    return np.repeat(values, len(spins)).astype(complex), ladder.reshape(-1, len(creation))


def build_fermionic_hamiltonian(m: MolecularIntegrals) -> FermionOperator:
    """Second-quantized molecular Hamiltonian from spatial integrals.

    H = E_core + sum_pq h_pq a+_ps a_qs
              + 1/2 sum_pqrs (pq|rs) a+_ps a+_rt a_st a_qs
    with s, t summed over both spins.
    """
    n_const = int(m.core_energy != 0.0)
    # np.argwhere walks the indices in the order of nested p, q(, r, s) loops
    pq = np.argwhere(~(np.abs(m.one_body) < 1e-14))
    pqrs = np.argwhere(~(np.abs(m.two_body) < 1e-14))
    return FermionOperator(2 * m.n_orbitals, (
        (np.full(n_const, m.core_energy, dtype=complex), np.zeros((n_const, 0), dtype=np.intp)),
        _spin_summed(m.one_body[tuple(pq.T)], pq, [[0, 0], [1, 1]], [1, 0]),
        # operators on orbitals p, r, s, q with spins s, t, t, s
        _spin_summed(0.5 * m.two_body[tuple(pqrs.T)], pqrs[:, [0, 2, 3, 1]],
                     [[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]], [1, 1, 0, 0]),
    ))


def _block_permutation(n_modes: int) -> list[int]:
    """Interleaved mode index -> block-ordered position (alpha block first)."""
    half = n_modes // 2
    return [(j // 2) + (j % 2) * half for j in range(n_modes)]


# Fermion terms are expanded this many at a time, bounding the product arrays.
_TERM_CHUNK = 4096


def _ladder_table(n: int, kind: str):
    """X mask, Z masks and coefficient phases of the two words of every ladder operator.

    Column 2 * mode + is_creation.  Both words share the X mask; row 0 of the
    Z masks and phases is the X-type word, row 1 the Y-type word, whose
    coefficient is 0.5 * i^phase.  Masks live in basis-index space (qubit q
    on bit n-1-q).
    """
    positions = _block_permutation(n) if kind == PARITY else list(range(n))
    bit = np.int64(1) << (n - 1 - np.repeat(np.array(positions, dtype=np.int64), 2))
    full = np.int64((1 << n) - 1)
    if kind == JORDAN_WIGNER:
        z_chain = full ^ (2 * bit - 1)  # Z on every qubit before the position
        x, z = bit, np.stack([z_chain, z_chain | bit])
    else:
        # parity: X chain on qubits above the position, Z on the qubit below
        x, z = 2 * bit - 1, np.stack([(bit << 1) & full, bit])
    # the Y-type word carries +i on an annihilator, -i on a creator
    phase = np.array([[0, 0] * n, [1, 3] * n], dtype=np.uint8)
    return x, z, phase


def _expand(coeffs: np.ndarray, rows: np.ndarray, table):
    """Every Pauli product of k-operator terms, in the order of the term-by-term expansion.

    ``rows`` is (terms, k) ladder-table columns.  Term t's 2^k products come
    out consecutively, the first operator's choice of word most significant.

    Closed form: with P(x, z) = i^|x & z| X^x Z^z, the words of a term share
    the X mask x = x_1 ^ ... ^ x_k, and a product's Z mask is the XOR of the
    chosen words' masks z_j.  Moving each X^x_j left past the Z^z_i of the
    operators before it gives the product's power of i,

        sum_j [phase_j + |x_j & z_j| + 2 |z_j & (x_{j+1} ^ ... ^ x_k)|] - |x & z|,

    in which only the last popcount depends on more than one choice.  Every
    factor a term-by-term product multiplies in (0.5, +-i, i^m) is exact, so
    c * 0.5^k * i^power is the same double, up to the sign of a zero that no
    sum starting from +0 can show.
    """
    tx, tz, tphase = table
    count = np.bitwise_count  # uint8 counts: wrapping mod 256 keeps the value mod 4
    cols = np.ascontiguousarray(rows.T)  # operator-major, so each step runs along terms
    xs, zs = tx[cols], tz.take(cols, axis=1)  # (k, T), (2, k, T)
    x = np.bitwise_xor.reduce(xs, axis=0)
    later = x ^ np.bitwise_xor.accumulate(xs, axis=0)  # x_{j+1} ^ ... ^ x_k
    own = tphase.take(cols, axis=1) + count(xs & zs) + 2 * count(zs & later)
    z = np.zeros((1, len(coeffs)), dtype=np.int64)
    power = np.zeros((1, len(coeffs)), dtype=np.uint8)
    for j in range(len(cols)):
        z = (z[:, None] ^ zs[None, :, j]).reshape(-1, len(coeffs))
        power = (power[:, None] + own[None, :, j]).reshape(-1, len(coeffs))
    power = (power - count(x & z)) & 3
    c = (coeffs * 0.5 ** len(cols)) * _PHASE_ARRAY[power]
    return np.repeat(x, len(z)), z.T.ravel(), c.T.ravel()


def map_to_qubits(f: FermionOperator, spec: MappingSpec) -> QubitHamiltonian:
    """Encode a fermionic operator as a qubit Hamiltonian.

    Each block is expanded a chunk of terms at a time; like words are summed
    in the order a term-by-term expansion meets them.
    """
    n = f.n_modes
    _check_register(n)
    table = _ladder_table(n, spec.kind)
    x = z = np.zeros(0, dtype=np.int64)
    c = np.zeros(0, dtype=complex)
    for coeffs, ladder in f.blocks:
        for lo in range(0, len(coeffs), _TERM_CHUNK):
            chunk = slice(lo, lo + _TERM_CHUNK)
            # unnamed, the products are freed once concatenated, before the merge
            x, z, c = _merge(*map(np.concatenate, zip(
                (x, z, c), _expand(coeffs[chunk], ladder[chunk], table))), n)

    if spec.two_qubit_reduction:
        return _reduce_two_qubits(x, z, c, n, _reduced_electrons(spec))
    return QubitHamiltonian.from_arrays(n, x, z, c)


def _reduced_electrons(spec: MappingSpec) -> int:
    """The electron count whose parities a two-qubit reduction fixes."""
    if spec.n_electrons is None:
        raise ValueError("two-qubit reduction needs the electron count on the mapping spec")
    if spec.n_electrons % 2:
        raise ValueError("two-qubit reduction assumes a closed-shell (even) electron count")
    return spec.n_electrons


def _reduce_two_qubits(x, z, c, n, n_electrons) -> QubitHamiltonian:
    """Remove the alpha-parity and total-parity qubits of a block-parity register."""
    half = n // 2
    kept = np.abs(c) >= _DROP_TOL
    x, z, c = x[kept], z[kept], c[kept]
    # qubit half-1 sits on bit n-half = half, qubit n-1 on bit 0
    clash = x & ((1 << half) | 1)
    if clash.any():
        q = half - 1 if clash[clash != 0][0] >> half else n - 1
        raise ValueError(
            f"operator does not commute with the parity symmetry on qubit {q}; "
            "two-qubit reduction is invalid"
        )
    c = np.where(z & (1 << half), c * (-1.0) ** (n_electrons // 2), c)
    c = np.where(z & 1, c * (-1.0) ** n_electrons, c)

    def drop_bits(v):
        v = v >> 1
        low = (1 << (half - 1)) - 1
        return ((v >> half) << (half - 1)) | (v & low)

    return QubitHamiltonian.from_arrays(n - 2, drop_bits(x), drop_bits(z), c)


def decode_statevector(state: np.ndarray, n_modes: int, spec: MappingSpec) -> np.ndarray:
    """Relabel a mapped-register statevector into the occupation basis.

    Both encodings permute computational basis states; the parity encoding's
    block order also brings the fermionic sign of reordering the occupied
    modes.  On a tapered register each nonzero amplitude's index gains the
    two parity bits fixed by the electron-number sector.  Qubit/mode 0 sits
    on the most significant bit throughout.  The result keeps the input's
    dtype, and a Jordan-Wigner state is returned as it is.
    """
    state = np.asarray(state)
    n_qubits = n_modes - 2 * spec.two_qubit_reduction
    if state.size != 1 << n_qubits:
        raise ValueError(f"state dimension {state.size} does not match {n_qubits} qubits")
    if spec.kind == JORDAN_WIGNER:
        return state
    half = n_modes // 2
    idx = np.flatnonzero(state)
    amplitudes = state[idx]
    if spec.two_qubit_reduction:
        n_electrons = _reduced_electrons(spec)
        # reduced qubits before half-1 move up past the alpha-parity bit (bit half)
        # and the rest past the total-parity bit (bit 0)
        low = (1 << (half - 1)) - 1
        idx = ((idx & ~low) << 2) | (idx & low) << 1
        idx |= ((n_electrons // 2) % 2) << half | n_electrons % 2
    occ = idx ^ (idx >> 1)  # block-ordered occupations: parity prefix differences
    target = np.zeros_like(idx)
    for mode, pos in enumerate(_block_permutation(n_modes)):
        target |= ((occ >> (n_modes - 1 - pos)) & 1) << (n_modes - 1 - mode)
    # fermionic sign of reordering the occupied creation operators from
    # block order (alpha orbitals, then beta) to ascending interleaved order:
    # one inversion per occupied beta orbital b and occupied alpha orbital a > b
    alpha, beta = occ >> half, occ & ((1 << half) - 1)
    inversions = np.zeros_like(idx)
    for b in range(half):
        below = (1 << (half - 1 - b)) - 1  # alpha orbitals after b
        inversions += ((beta >> (half - 1 - b)) & 1) * np.bitwise_count(alpha & below)
    out = np.zeros(1 << n_modes, dtype=state.dtype)
    out[target] = amplitudes * (1.0 - 2.0 * (inversions & 1))
    return out


def hartree_fock_bitstring(
    n_spatial: int, n_electrons: int, spec: MappingSpec
) -> list[int]:
    """Qubit-register bits preparing the Hartree-Fock (aufbau) state under a mapping."""
    if spec.n_electrons not in (None, n_electrons):
        raise ValueError(f"the mapping spec is for {spec.n_electrons} electrons, not {n_electrons}")
    n_modes = 2 * n_spatial
    if n_electrons > n_modes:
        raise ValueError(f"{n_electrons} electrons exceed {n_modes} spin-orbitals")
    occ = [1 if j < n_electrons else 0 for j in range(n_modes)]
    if spec.kind == JORDAN_WIGNER:
        return occ
    blocked = [0] * n_modes
    for j, pos in enumerate(_block_permutation(n_modes)):
        blocked[pos] = occ[j]
    bits = [int(b) for b in np.cumsum(blocked) % 2]
    if spec.two_qubit_reduction:
        bits = [b for q, b in enumerate(bits) if q not in (n_spatial - 1, n_modes - 1)]
    return bits
