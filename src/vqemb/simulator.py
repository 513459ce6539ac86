"""Statevector circuit simulation, expectation estimation, and readout noise.

States are dense float64 vectors with qubit 0 on the most significant bit
of the basis index, and a measurement outcome is that basis index.
Circuits carry X, Ry and CNOT gates, all real, so a real state stays real;
Ry angles sit in slots that are either free (an index into the parameter
vector) or frozen at a fixed angle.  Each circuit is compiled once into rotations and index
permutations (every run of X and CNOT gates becomes one gather), and each
evaluation binds all its rotation matrices in one table.  The energy and its
gradient in all free angles come from one forward and one adjoint sweep
(Jones & Gacon, arXiv:2009.02823).

Measurement grouping for sampled expectations uses greedy qubit-wise
commutativity; Y-basis measurements rotate with S-dagger followed by H.
Shots are drawn as packed basis indices.  Every stochastic operation takes
an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .pauli import (
    PauliExpectation,
    PauliWord,
    QubitHamiltonian,
    _parity,
    _qubitwise_commute,
    _words,
)

_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
# -iY, the generator of Ry: d/dθ Ry(θ) = ½ (-iY) Ry(θ).
_RY_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class FreeSlot:
    """Rotation angle bound to position `index` of the parameter vector."""

    index: int


@dataclass(frozen=True)
class FrozenSlot:
    """Rotation angle fixed at construction time (radians)."""

    angle: float


Slot = Union[FreeSlot, FrozenSlot]


@dataclass(frozen=True)
class PauliXGate:
    qubit: int


@dataclass(frozen=True)
class RyGate:
    qubit: int
    slot: Slot


@dataclass(frozen=True)
class CnotGate:
    control: int
    target: int


Gate = Union[PauliXGate, RyGate, CnotGate]


class Circuit:
    """Ordered gate list over a fixed register.

    Free parameter slots must form a contiguous 0..P-1 index range.
    """

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()):
        self.n_qubits = int(n_qubits)
        self.gates = tuple(gates)
        slots = []  # (parameter index, None) or (None, frozen angle) per Ry gate
        for g in self.gates:
            if isinstance(g, CnotGate):
                if g.control == g.target:
                    raise ValueError("CNOT control and target must differ")
                qubits = (g.control, g.target)
            else:
                qubits = (g.qubit,)
            for q in qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit {q} out of range for {self.n_qubits}-qubit circuit")
            if isinstance(g, RyGate):
                free = isinstance(g.slot, FreeSlot)
                slots.append((g.slot.index, None) if free else (None, g.slot.angle))
        indices = sorted(i for i, _ in slots if i is not None)
        if indices != list(range(len(indices))):
            raise ValueError(f"free parameter indices {indices} are not contiguous from 0")
        self.n_parameters = len(indices)
        self._ry_slots = tuple(slots)

    def free_gates(self) -> list[tuple[int, int]]:
        """(gate position, parameter index) for every free Ry gate."""
        return [
            (pos, g.slot.index)
            for pos, g in enumerate(self.gates)
            if isinstance(g, RyGate) and isinstance(g.slot, FreeSlot)
        ]

    @cached_property
    def program(self) -> tuple:
        """The gate list compiled for simulation, built on first use.

        A ``("ry", qubit, k, parameter index or None)`` step for the k-th Ry
        gate, whose matrix is row k of the table ``_rotations`` binds, and a
        ``("perm", index, inverse)`` step per maximal run of X and CNOT gates:
        that run maps a state ``s`` to ``s[index]``.
        """
        steps = []
        ar = np.arange(1 << self.n_qubits)
        index = None
        k = 0
        for g in self.gates:
            if isinstance(g, RyGate):
                if index is not None:
                    steps.append(("perm", index, np.argsort(index)))
                    index = None
                steps.append(("ry", g.qubit, k, self._ry_slots[k][0]))
                k += 1
                continue
            if isinstance(g, PauliXGate):
                gate = ar ^ _bit(g.qubit, self.n_qubits)
            else:
                flip = (ar & _bit(g.control, self.n_qubits)) != 0
                gate = ar ^ (flip * _bit(g.target, self.n_qubits))
            index = gate if index is None else index[gate]
        if index is not None:
            steps.append(("perm", index, np.argsort(index)))
        return tuple(steps)


def _bit(qubit: int, n: int) -> int:
    """Basis-index bit of ``qubit`` (qubit 0 is the most significant)."""
    return 1 << (n - 1 - qubit)


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(1 << n_qubits)
    state[0] = 1.0
    return state


def _pairs(states: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """View of one C-contiguous state or stack of states as (-1, 2, rest),
    with axis 1 the bit of ``qubit``; writes to it write the states."""
    return states.reshape(-1, 2, 1 << (n - 1 - qubit))


def _rotations(circuit: Circuit, params: Sequence[float]) -> np.ndarray:
    """(k, 2, 2) table of the matrices [[c, -s], [s, c]] of the circuit's k Ry
    gates bound to ``params``, with c, s the ``math`` cosine and sine of θ/2
    (``np.cos`` and ``np.sin`` may differ in the last bit)."""
    params = np.asarray(params, dtype=float)
    if params.size != circuit.n_parameters:
        raise ValueError(f"expected {circuit.n_parameters} parameters, got {params.size}")
    params = params.tolist()
    half = [(a if i is None else params[i]) / 2.0 for i, a in circuit._ry_slots]
    table = np.empty((len(half), 4))  # C-contiguous, so each matrix is too
    table[:, 0] = table[:, 3] = [math.cos(h) for h in half]
    table[:, 2] = [math.sin(h) for h in half]
    np.negative(table[:, 2], out=table[:, 1])
    return table.reshape(-1, 2, 2)


def evolve(circuit: Circuit, params: Sequence[float] = ()) -> np.ndarray:
    """Run the circuit on |0...0>, binding free slots to ``params``."""
    table = _rotations(circuit, params)
    n = circuit.n_qubits
    state = zero_state(n)
    for step in circuit.program:
        if step[0] == "perm":
            state = state[step[1]]
        else:
            view = _pairs(state, step[1], n)
            np.matmul(table[step[2]], view, out=view)
    return state


def energy_and_gradient(
    circuit: Circuit, params: Sequence[float], expectation: PauliExpectation
) -> tuple[float, np.ndarray]:
    """<H> at ``params`` and its gradient in every free angle.

    One forward pass gives psi; one backward pass walks the gates in reverse
    with lambda = H psi, undoing each gate on both vectors.  At a free Ry on
    qubit q, with both vectors taken just after the gate, the derivative is
    <lambda| -iY_q |psi>, which equals 2 <lambda| dRy psi_before> with
    dRy(θ) = Ry(θ + π) / 2.  Each Ry is undone by its transpose, Ry(-θ).
    """
    # copied C-contiguous: a strided transpose takes another matmul kernel
    inverses = np.ascontiguousarray(_rotations(circuit, params).transpose(0, 2, 1))
    n = circuit.n_qubits
    psi = evolve(circuit, params)
    lam = expectation.apply(psi)
    energy = float(psi @ lam)
    grad = np.zeros(circuit.n_parameters)
    both = np.stack((psi, lam))
    for step in reversed(circuit.program):
        if step[0] == "perm":
            both = np.take(both, step[2], axis=1)  # C-contiguous, unlike both[:, index]
            continue
        _, qubit, k, index = step
        view = _pairs(both, qubit, n)
        if index is not None:
            halves = view.reshape(2, -1, 2, view.shape[-1])
            grad[index] = np.vdot(halves[1], _RY_GENERATOR @ halves[0])
        np.matmul(inverses[k], view, out=view)
    return energy, grad


# -- readout noise ---------------------------------------------------------------

_FLIP_BLOCK = 8  # qubits per readout-flip table, 2^8 rows


@dataclass(frozen=True)
class ReadoutNoiseModel:
    """Per-qubit confusion matrices, columns indexed by the true bit.

    ``matrices[q] = [[p(0|0), p(0|1)], [p(1|0), p(1|1)]]``.
    """

    matrices: tuple

    def __post_init__(self):
        for q, m in enumerate(self.matrices):
            m = np.asarray(m, dtype=float)
            if m.shape != (2, 2) or (m < -1e-12).any() or (m > 1 + 1e-12).any():
                raise ValueError(f"qubit {q}: confusion matrix entries must lie in [0, 1]")
            if not np.allclose(m.sum(axis=0), 1.0, atol=1e-12):
                raise ValueError(f"qubit {q}: confusion matrix columns must sum to 1")

    @property
    def n_qubits(self) -> int:
        return len(self.matrices)

    @cached_property
    def _stacked(self) -> np.ndarray:
        """Read-only (n, 2, 2) array of the confusion matrices."""
        out = np.array(self.matrices, dtype=float).reshape(-1, 2, 2)
        out.flags.writeable = False
        return out

    @cached_property
    def _flip_tables(self) -> tuple:
        """(first qubit, end qubit, read-only table) for each block of at most
        ``_FLIP_BLOCK`` consecutive qubits, qubit 0's block first.  Row b of a
        w-qubit block's (2^w, w) table holds each of its qubits' flip
        probability, p(1|0) or p(0|1), given that qubit's bit in b, the block's
        bits of a basis index.  One (2^n, n) table would take 168 MB at 20
        qubits; its blocks take 33 kB."""
        blocks = []
        for lo in range(0, self.n_qubits, _FLIP_BLOCK):
            hi = min(lo + _FLIP_BLOCK, self.n_qubits)
            w = hi - lo
            bits = (np.arange(1 << w)[:, None] >> (w - 1 - np.arange(w))) & 1
            table = self._stacked[np.arange(lo, hi), 1 - bits, bits]
            table.flags.writeable = False
            blocks.append((lo, hi, table))
        return tuple(blocks)

    @cached_property
    def _weights(self) -> np.ndarray:
        """Basis-index weight 2^(n-1-q) of each qubit q."""
        return 1 << (self.n_qubits - 1 - np.arange(self.n_qubits))

    def flip_probs(self) -> np.ndarray:
        """(n, 2) array of [p(1|0), p(0|1)] per qubit."""
        return self._stacked[:, [1, 0], [0, 1]]

    @classmethod
    def uniform(cls, n_qubits: int, p_flip: float) -> "ReadoutNoiseModel":
        m = ((1 - p_flip, p_flip), (p_flip, 1 - p_flip))
        return cls(tuple(m for _ in range(n_qubits)))

    @classmethod
    def from_flip_probs(cls, p10: Sequence[float], p01: Sequence[float]) -> "ReadoutNoiseModel":
        return cls(tuple(
            ((1 - a, b), (a, 1 - b)) for a, b in zip(p10, p01)
        ))

    @classmethod
    def from_text(cls, text: str) -> "ReadoutNoiseModel":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("nqubits="):
            raise ValueError("missing 'nqubits=' header line")
        n = int(lines[0].split("=", 1)[1])
        if len(lines) - 1 != n:
            raise ValueError(f"expected {n} noise lines, found {len(lines) - 1}")
        p10, p01 = [], []
        for ln in lines[1:]:
            a, b = ln.split()
            p10.append(float(a))
            p01.append(float(b))
        return cls.from_flip_probs(p10, p01)


@dataclass(frozen=True)
class ShotCounts:
    """Measured histogram in a fixed Pauli basis: the distinct outcomes as
    sorted int64 basis indices, and how often each was measured."""

    outcomes: np.ndarray
    counts: np.ndarray
    basis: PauliWord

    @property
    def shots(self) -> int:
        return int(self.counts.sum())


def _positive_mass(total):
    """``total``, a Born probability mass; ValueError unless finite and positive."""
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"Born probabilities must have finite positive mass, got {total}")
    return total


def _rotate_to_basis(state: np.ndarray, basis: PauliWord, n: int) -> np.ndarray:
    """``state`` rotated so that Z measures ``basis``: H on each X qubit,
    S-dagger then H on each Y qubit; an all-I/Z basis returns ``state``.
    Raises ValueError unless ``state`` has finite, positive mass."""
    if not set(basis.letters) - {"I", "Z"}:
        return state
    # checked before rotating: H would turn inf into nan with a RuntimeWarning
    _positive_mass(np.vdot(state, state).real)
    out = state.astype(complex)
    for q, letter in enumerate(basis.letters):
        if letter in "XY":
            view = _pairs(out, q, n)
            if letter == "Y":
                view[:, 1] *= -1j  # S-dagger
            if q < n - 1:
                np.matmul(_H_MAT, view, out=view)
            else:
                # H is symmetric; a (-1, 2, 1) stack would skip BLAS and round differently
                rows = out.reshape(-1, 2)
                np.matmul(rows, _H_MAT, out=rows)
    return out


def _sample_outcomes(
    probs: np.ndarray, n: int, shots: int, noise: Optional[ReadoutNoiseModel], rng, twirl=None
) -> np.ndarray:
    """Measured int64 basis indices of ``shots`` shots from the Born weights
    ``probs``, with the readout flips of ``noise`` (or none).

    The ideal outcomes make the draws and arithmetic of
    ``rng.choice(probs.size, shots, p=probs / probs.sum())``; then one uniform
    per shot and qubit decides its flip.  ``twirl``, X masks as basis indices
    (one, or one per shot), is applied before the flips and undone after them.
    Raises ValueError unless ``probs`` has finite, positive mass.
    """
    total = _positive_mass(probs.sum())
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    outcomes = cdf.searchsorted(rng.random(shots), side="right")
    if noise is None:
        return outcomes
    if noise.n_qubits != n:
        raise ValueError(f"readout noise covers {noise.n_qubits} qubits, the register {n}")
    uniforms = rng.random((shots, n))
    twirled = outcomes if twirl is None else outcomes ^ twirl
    weights = noise._weights
    for lo, hi, table in noise._flip_tables:
        # the block's bits of each twirled outcome; a register of one block
        # indexes its table directly
        rows = twirled >> (n - hi) if hi < n else twirled
        if lo:
            rows = rows & ((1 << (hi - lo)) - 1)
        flips = uniforms[:, lo:hi] < table.take(rows, axis=0)
        outcomes = outcomes ^ (flips @ weights[lo:hi])
    return outcomes


def _z_eigenvalues(outcomes: np.ndarray, mask: int) -> np.ndarray:
    """+1/-1 eigenvalue of the Z string on the bits of ``mask`` for each basis index."""
    return 1.0 - 2.0 * _parity(outcomes & mask)


def _member_values(outcomes: np.ndarray, members: list) -> np.ndarray:
    """Coefficient-weighted sum of the members' eigenvalues for each basis index."""
    v = np.zeros(len(outcomes))
    for coeff, mask in members:
        v += coeff * _z_eigenvalues(outcomes, mask)
    return v


def sample(
    state: np.ndarray,
    basis: PauliWord,
    shots: int,
    noise: Optional[ReadoutNoiseModel] = None,
    seed: int = 0,
) -> ShotCounts:
    """Born-rule sampling of all qubits after rotating into ``basis``: the
    ``_sample_outcomes`` of ``np.random.default_rng(seed)``, counted."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    n = basis.n_qubits
    if state.size != 1 << n:
        raise ValueError(f"state dimension {state.size} does not match basis {basis.letters}")
    rng = np.random.default_rng(seed)
    probs = np.abs(_rotate_to_basis(state, basis, n)) ** 2
    counts = np.bincount(_sample_outcomes(probs, n, shots, noise, rng), minlength=1 << n)
    outcomes = counts.nonzero()[0]
    return ShotCounts(outcomes, counts[outcomes], basis)


# -- grouped sampled expectations ------------------------------------------------

def group_qubitwise(h: QubitHamiltonian) -> tuple[float, list]:
    """Greedy first-fit partition into qubit-wise commuting groups.

    Returns (identity constant, groups); each group is (basis word,
    [(coefficient, Z mask), ...]), where a member's Z mask is its word's
    ``x | z``, measured as Z once the group's basis is rotated in.
    Coefficients are taken real.
    """
    n = h.n_qubits
    constant = 0.0
    groups: list[list] = []  # [x mask, z mask, members]
    for coeff, x, z in zip(h.coeffs.tolist(), h.x.tolist(), h.z.tolist()):
        if abs(coeff.imag) > 1e-10:
            raise ValueError("sampled estimation requires a Hermitian Hamiltonian")
        if not x | z:
            constant += coeff.real
            continue
        member = (coeff.real, x | z)
        for group in groups:
            if _qubitwise_commute(x, z, group[0], group[1]):
                group[0] |= x
                group[1] |= z
                group[2].append(member)
                break
        else:
            groups.append([x, z, [member]])
    bases = _words(np.array([g[0] for g in groups], dtype=np.int64),
                   np.array([g[1] for g in groups], dtype=np.int64), n)
    return constant, [(PauliWord(b), g[2]) for b, g in zip(bases, groups)]


def tally_counts(counts: ShotCounts, members: list) -> tuple[float, float]:
    """Weighted eigenvalue mean and variance-of-mean from a histogram.

    ``members`` holds (coefficient, Z mask) pairs measured in the same basis;
    the per-shot variable is the coefficient-weighted sum of parities.
    """
    total = counts.shots
    v = _member_values(counts.outcomes, members)
    wv = counts.counts / total * v
    # running sums add the outcomes one at a time, in histogram order
    mean = float(np.cumsum(wv)[-1])
    second = float(np.cumsum(wv * v)[-1])
    var = max(second - mean * mean, 0.0) / total
    return mean, var


class RawGroupEstimator:
    """Unmitigated group estimation: sample and tally."""

    def estimate_group(self, state, basis, members, shots, noise, seed):
        counts = sample(state, basis, shots, noise, seed)
        return tally_counts(counts, members)


def sampled_expectation(
    circuit: Circuit,
    params: Sequence[float],
    h: QubitHamiltonian | tuple,
    shots: int,
    noise: Optional[ReadoutNoiseModel] = None,
    mitigator=None,
    seed: int = 0,
) -> tuple[float, float]:
    """Shot-based estimate of <H> with one measurement per commuting group.

    Returns (value, stderr).  ``h`` is a QubitHamiltonian or the (constant,
    groups) pair ``group_qubitwise`` returns for it, so a caller evaluating
    one Hamiltonian many times groups it once.  ``mitigator`` may supply an
    ``estimate_group`` hook (see mitigation module); None means raw counts.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    state = evolve(circuit, params)
    constant, groups = group_qubitwise(h) if isinstance(h, QubitHamiltonian) else h
    estimator = mitigator if mitigator is not None else RawGroupEstimator()
    rng = np.random.default_rng(seed)
    value = constant
    variance = 0.0
    for basis, members in groups:
        sub_seed = int(rng.integers(0, 2**63 - 1))
        mean, var = estimator.estimate_group(state, basis, members, shots, noise, sub_seed)
        value += mean
        variance += var
    return value, math.sqrt(variance)
