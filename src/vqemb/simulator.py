"""Statevector circuit simulation, expectation estimation, and readout noise.

States are dense float64 vectors with qubit 0 on the most significant bit,
so bitstring output reads left to right as qubit 0, 1, ...  Circuits carry
X, Ry and CNOT gates, all real, so a real state stays real; Ry angles sit in
slots that are either free (an index into the parameter vector) or frozen at
a fixed angle.  Each circuit is compiled once into rotations and index
permutations (every run of X and CNOT gates becomes one gather).  The energy
and its gradient in all free angles come from one forward and one adjoint
sweep (Jones & Gacon, arXiv:2009.02823).

Measurement grouping for sampled expectations uses greedy qubit-wise
commutativity; Y-basis measurements rotate with S-dagger followed by H.
Every stochastic operation takes an explicit seed.
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
_SDG_MAT = np.array([[1, 0], [0, -1j]], dtype=complex)
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
        indices = []
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
            if isinstance(g, RyGate) and isinstance(g.slot, FreeSlot):
                indices.append(g.slot.index)
        if sorted(indices) != list(range(len(indices))):
            raise ValueError(f"free parameter indices {sorted(indices)} are not contiguous from 0")
        self.n_parameters = len(indices)

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

        A ``("ry", qubit, parameter index or None, frozen angle)`` step per Ry
        gate, and a ``("perm", index, inverse)`` step per maximal run of X and
        CNOT gates: that run maps a state ``s`` to ``s[index]``.
        """
        steps = []
        ar = np.arange(1 << self.n_qubits)
        index = None
        for g in self.gates:
            if isinstance(g, RyGate):
                if index is not None:
                    steps.append(("perm", index, np.argsort(index)))
                    index = None
                free = isinstance(g.slot, FreeSlot)
                steps.append(("ry", g.qubit, g.slot.index if free else None,
                              None if free else g.slot.angle))
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


def _apply_1q(state: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Complex one-qubit gate; used only to rotate into a measurement basis."""
    tensor = state.reshape([2] * n)
    tensor = np.tensordot(mat, tensor, axes=([1], [qubit]))
    return np.moveaxis(tensor, 0, qubit).reshape(-1)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def _pairs(states: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """View of one C-contiguous state or stack of states as (-1, 2, rest),
    with axis 1 the bit of ``qubit``; writes to it write the states."""
    return states.reshape(-1, 2, 1 << (n - 1 - qubit))


def _checked_params(circuit: Circuit, params) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.size != circuit.n_parameters:
        raise ValueError(
            f"expected {circuit.n_parameters} parameters, got {params.size}"
        )
    return params


def _angle(step, params: np.ndarray) -> float:
    _, _, index, frozen = step
    return frozen if index is None else params[index]


def evolve(circuit: Circuit, params: Sequence[float] = ()) -> np.ndarray:
    """Run the circuit on |0...0>, binding free slots to ``params``."""
    params = _checked_params(circuit, params)
    n = circuit.n_qubits
    state = zero_state(n)
    for step in circuit.program:
        if step[0] == "perm":
            state = state[step[1]]
        else:
            view = _pairs(state, step[1], n)
            np.matmul(_ry(_angle(step, params)), view, out=view)
    return state


def energy_and_gradient(
    circuit: Circuit, params: Sequence[float], expectation: PauliExpectation
) -> tuple[float, np.ndarray]:
    """<H> at ``params`` and its gradient in every free angle.

    One forward pass gives psi; one backward pass walks the gates in reverse
    with lambda = H psi, undoing each gate on both vectors.  At a free Ry on
    qubit q, with both vectors taken just after the gate, the derivative is
    <lambda| -iY_q |psi>, which equals 2 <lambda| dRy psi_before> with
    dRy(θ) = Ry(θ + π) / 2.
    """
    params = _checked_params(circuit, params)
    n = circuit.n_qubits
    psi = evolve(circuit, params)
    lam = expectation.apply(psi)
    energy = float(psi @ lam)
    grad = np.zeros(params.size)
    both = np.stack((psi, lam))
    for step in reversed(circuit.program):
        if step[0] == "perm":
            both = np.take(both, step[2], axis=1)  # C-contiguous, unlike both[:, index]
            continue
        _, qubit, index, _ = step
        view = _pairs(both, qubit, n)
        if index is not None:
            halves = view.reshape(2, -1, 2, view.shape[-1])
            grad[index] = np.vdot(halves[1], _RY_GENERATOR @ halves[0])
        np.matmul(_ry(-_angle(step, params)), view, out=view)
    return energy, grad


def exact_expectation(state: np.ndarray, h: QubitHamiltonian) -> float:
    """<state|H|state>; raises if a Hermitian value does not come out real."""
    value = h.expectation(state)
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary part {value.imag:.3e}; Hamiltonian not Hermitian?")
    return float(value.real)


# -- readout noise ---------------------------------------------------------------

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

    def flip_probs(self) -> np.ndarray:
        """(n, 2) array of [p(1|0), p(0|1)] per qubit."""
        out = np.empty((self.n_qubits, 2))
        for q, m in enumerate(self.matrices):
            m = np.asarray(m, dtype=float)
            out[q] = (m[1, 0], m[0, 1])
        return out

    @classmethod
    def uniform(cls, n_qubits: int, p_flip: float) -> "ReadoutNoiseModel":
        m = ((1 - p_flip, p_flip), (p_flip, 1 - p_flip))
        return cls(tuple(m for _ in range(n_qubits)))

    @classmethod
    def from_flip_probs(cls, p10: Sequence[float], p01: Sequence[float]) -> "ReadoutNoiseModel":
        return cls(tuple(
            ((1 - a, b), (a, 1 - b)) for a, b in zip(p10, p01)
        ))

    def to_text(self) -> str:
        lines = [f"nqubits={self.n_qubits}"]
        for a, b in self.flip_probs():
            lines.append(f"{float(a)!r} {float(b)!r}")
        return "\n".join(lines) + "\n"

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
    """Measured bitstring histogram in a fixed Pauli basis."""

    counts: dict
    shots: int
    basis: PauliWord

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to the shot total")

    def to_text(self) -> str:
        lines = [f"shots={self.shots}", f"basis={self.basis.letters}"]
        for b in sorted(self.counts):
            lines.append(f"{b} {self.counts[b]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ShotCounts":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2 or not lines[0].startswith("shots=") or not lines[1].startswith("basis="):
            raise ValueError("missing 'shots='/'basis=' header lines")
        shots = int(lines[0].split("=", 1)[1])
        basis = PauliWord(lines[1].split("=", 1)[1])
        counts = {}
        for ln in lines[2:]:
            b, c = ln.split()
            counts[b] = int(c)
        return cls(counts, shots, basis)


def _rotate_to_basis(state: np.ndarray, basis: PauliWord, n: int) -> np.ndarray:
    for q, letter in enumerate(basis.letters):
        if letter == "X":
            state = _apply_1q(state, _H_MAT, q, n)
        elif letter == "Y":
            state = _apply_1q(state, _SDG_MAT, q, n)
            state = _apply_1q(state, _H_MAT, q, n)
    return state


def _sample_bits(
    probs: np.ndarray, n: int, shots: int, fp: Optional[np.ndarray], rng, twirl=0
) -> np.ndarray:
    """(shots, n) matrix of measured bits, including readout flips ``fp``
    (a noise model's ``flip_probs()``, or None), drawn from normalized Born
    probabilities.  ``twirl``, an X mask of 0/1 entries (one ``(n,)`` mask or
    one row per shot), is applied to the ideal bits before the readout flips
    and undone after them.
    """
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    bits = ((outcomes[:, None] >> (n - 1 - np.arange(n))) & 1) ^ twirl
    if fp is not None:
        u = rng.random(size=(shots, n))
        p_flip = np.where(bits == 0, fp[:, 0], fp[:, 1])
        bits = bits ^ (u < p_flip)
    return (bits ^ twirl).astype(np.int64)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Basis index of each row of a (shots, n) bit matrix."""
    n = bits.shape[1]
    return bits @ (1 << (n - 1 - np.arange(n)))


def _z_eigenvalues(outcomes: np.ndarray, support, n: int) -> np.ndarray:
    """+1/-1 eigenvalue of the Z string on ``support`` for each basis index."""
    mask = sum(1 << (n - 1 - q) for q in support)
    return 1.0 - 2.0 * _parity(outcomes & mask)


def _member_values(outcomes: np.ndarray, members: list, n: int) -> np.ndarray:
    """Coefficient-weighted sum of the members' eigenvalues for each basis index."""
    v = np.zeros(len(outcomes))
    for coeff, support in members:
        v += coeff * _z_eigenvalues(outcomes, support, n)
    return v


def sample(
    state: np.ndarray,
    basis: PauliWord,
    shots: int,
    noise: Optional[ReadoutNoiseModel] = None,
    seed: int = 0,
) -> ShotCounts:
    """Born-rule sampling of all qubits after rotating into ``basis``."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    n = basis.n_qubits
    if state.size != 1 << n:
        raise ValueError(f"state dimension {state.size} does not match basis {basis.letters}")
    rng = np.random.default_rng(seed)
    probs = np.abs(_rotate_to_basis(state, basis, n)) ** 2
    fp = noise.flip_probs() if noise is not None else None
    bits = _sample_bits(probs / probs.sum(), n, shots, fp, rng)
    values, counts = np.unique(_pack(bits), return_counts=True)
    return ShotCounts({format(int(v), f"0{n}b"): int(c) for v, c in zip(values, counts)}, shots, basis)


# -- grouped sampled expectations ------------------------------------------------

def group_qubitwise(h: QubitHamiltonian) -> tuple[float, list]:
    """Greedy first-fit partition into qubit-wise commuting groups.

    Returns (identity constant, groups); each group is (basis word,
    [(coefficient, support tuple), ...]).  Coefficients are taken real.
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
        # qubit q sits on bit n-1-q
        member = (coeff.real, tuple(q for q in range(n) if (x | z) >> (n - 1 - q) & 1))
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

    ``members`` holds (coefficient, support) pairs measured in the same basis;
    the per-shot variable is the coefficient-weighted sum of parities.
    """
    total = counts.shots
    outcomes = np.array([int(b, 2) for b in counts.counts], dtype=np.int64)
    v = _member_values(outcomes, members, counts.basis.n_qubits)
    wv = np.array(list(counts.counts.values())) / total * v
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
    constant, groups = group_qubitwise(h.simplify()) if isinstance(h, QubitHamiltonian) else h
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
