"""Readout-error mitigation.

Two schemes: assignment-matrix inversion restricted to the observed-bitstring
subspace (direct solve below 500 distinct bitstrings, preconditioned GMRES
above), and twirled readout estimation, where random X masks symmetrize the
readout channel and a calibration pass on the empty circuit measures the
attenuation factor to divide out.

Quasi-probabilities are renormalized to unit sum (restriction to the observed
subspace can lose the unobserved probability mass) and are never clipped;
expectation values are computed directly from the quasi-distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .pauli import PauliTerm, PauliWord, QubitHamiltonian
from .simulator import (
    Circuit,
    ReadoutNoiseModel,
    ShotCounts,
    _member_values,
    _pack,
    _rotate_to_basis,
    _sample_bits,
    _z_eigenvalues,
    sample,
    sampled_expectation,
    zero_state,
)

DIRECT_SOLVE_LIMIT = 500
_TWIRL_BATCHES = 16  # twirl masks drawn per sampling pass


@dataclass(frozen=True)
class ReadoutCalibration(ReadoutNoiseModel):
    """Confusion matrices estimated from prepared 0/1 states, with the shot
    count and seed of the estimate."""

    shots: int
    seed: int

    def to_text(self) -> str:
        header, flips = super().to_text().split("\n", 1)
        return f"{header}\nshots={self.shots}\nseed={self.seed}\n{flips}"


def calibrate(noise: ReadoutNoiseModel, shots: int, seed: int = 0) -> ReadoutCalibration:
    """Estimate each qubit's flip rates by measuring all-0 and all-1 preparations."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = np.random.default_rng(seed)
    fp = noise.flip_probs()
    n = noise.n_qubits
    p10 = (rng.random((shots, n)) < fp[:, 0]).mean(axis=0)
    p01 = (rng.random((shots, n)) < fp[:, 1]).mean(axis=0)
    matrices = tuple(
        ((1.0 - a, b), (a, 1.0 - b)) for a, b in zip(p10, p01)
    )
    return ReadoutCalibration(matrices, shots, seed)


def _restricted_matrix(outcomes: np.ndarray, n: int, cal: ReadoutCalibration) -> np.ndarray:
    """Assignment matrix A[i, j] = P(measure b_i | true b_j) on the observed set."""
    bits = (outcomes[:, None] >> (n - 1 - np.arange(n))) & 1
    m = len(outcomes)
    A = np.ones((m, m))
    for q in range(n):
        Mq = np.asarray(cal.matrices[q], dtype=float)
        A *= Mq[bits[:, None, q], bits[None, :, q]]
    return A


def _solve_assignment(A: np.ndarray, p: np.ndarray) -> np.ndarray:
    if len(p) < DIRECT_SOLVE_LIMIT:
        try:
            return np.linalg.solve(A, p)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"singular restricted assignment matrix: {exc}") from exc
    diag = np.diag(A).copy()
    if (np.abs(diag) < 1e-12).any():
        raise ValueError("restricted assignment matrix has a vanishing diagonal")
    precond = LinearOperator(A.shape, matvec=lambda v: v / diag)
    x, info = gmres(A, p, rtol=1e-10, atol=0.0, restart=50, M=precond)
    if info != 0:
        raise ValueError(f"iterative assignment solve did not converge (info={info})")
    return x


def _subspace_inversion(counts: ShotCounts, cal: ReadoutCalibration):
    """Observed bitstrings in sorted order, their indices, their frequencies p,
    the restricted assignment matrix A, and the solution x of A x = p.

    Raises when the quasi-probability mass sum(x) vanishes.
    """
    if not counts.counts:
        raise ValueError("empty counts")
    observed = sorted(counts.counts)
    p = np.array([counts.counts[b] for b in observed], dtype=float) / counts.shots
    outcomes = np.array([int(b, 2) for b in observed], dtype=np.int64)
    A = _restricted_matrix(outcomes, counts.basis.n_qubits, cal)
    x = _solve_assignment(A, p)
    if abs(x.sum()) < 1e-8:
        raise ValueError("quasi-probability mass vanished; calibration is pathological")
    return observed, outcomes, p, A, x


def m3_mitigate(counts: ShotCounts, cal: ReadoutCalibration) -> dict:
    """Quasi-probability distribution over the observed bitstrings.

    Solves A x = p with A restricted to the observed subspace; x is
    renormalized to unit sum and may carry negative entries.
    """
    observed, _, _, _, x = _subspace_inversion(counts, cal)
    return dict(zip(observed, (x / x.sum()).tolist()))


class M3GroupEstimator:
    """Group-estimation hook for sampled expectations with subspace inversion.

    The group value is w . p_hat with A^T w = v, where v holds each observed
    bitstring's coefficient-weighted parity; the variance is propagated from
    the multinomial covariance of p_hat (renormalization treated as constant).
    """

    def __init__(self, calibration: ReadoutCalibration):
        self.calibration = calibration

    def estimate_group(self, state, basis, members, shots, noise, seed):
        counts = sample(state, basis, shots, noise, seed)
        _, outcomes, p, A, x = _subspace_inversion(counts, self.calibration)
        s = x.sum()
        w = _solve_assignment(A.T, _member_values(outcomes, members, basis.n_qubits))
        mean = float(w @ p) / s
        var = max(float(p @ (w * w)) - float(w @ p) ** 2, 0.0) / shots / (s * s)
        return mean, var


# -- twirled readout estimation ---------------------------------------------------

def _twirled_bits(
    state: np.ndarray, n: int, shots: int, noise: Optional[ReadoutNoiseModel], rng
) -> np.ndarray:
    """Measured bits with per-batch X-mask twirling already compensated."""
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    fp = noise.flip_probs() if noise is not None else None
    sizes = [shots // _TWIRL_BATCHES] * _TWIRL_BATCHES
    for i in range(shots % _TWIRL_BATCHES):
        sizes[i] += 1
    out = []
    for size in sizes:
        if size == 0:
            continue
        mask = rng.integers(0, 2, size=n)
        out.append(_sample_bits(probs, n, size, fp, rng, twirl=mask))
    return np.concatenate(out, axis=0)


def trex_expectation(
    circuit: Circuit,
    params,
    observable: PauliWord,
    shots: int,
    noise: Optional[ReadoutNoiseModel] = None,
    seed: int = 0,
    cal_shots: Optional[int] = None,
) -> tuple[float, float]:
    """Twirled estimate of a diagonal (I/Z) observable, divided by the
    calibrated attenuation of its Z support.

    Returns (value, stderr); stderr combines the main and calibration passes.
    This is ``sampled_expectation`` of the one-term Hamiltonian with a
    ``TrexGroupEstimator`` calibrating on ``cal_shots`` (default ``shots``).
    """
    if set(observable.letters) - {"I", "Z"}:
        raise ValueError("twirled readout estimation needs a diagonal (I/Z) observable")
    if shots <= 0:
        raise ValueError("shots must be positive")
    h = QubitHamiltonian(observable.n_qubits, [PauliTerm(1.0, observable)])
    estimator = TrexGroupEstimator(cal_shots if cal_shots is not None else shots)
    return sampled_expectation(circuit, params, h, shots, noise, mitigator=estimator, seed=seed)


class TrexGroupEstimator:
    """Group-estimation hook applying twirled readout to every term.

    One twirled calibration pass (lazy, on the first group) serves all Z
    supports; each support's attenuation and its variance are computed from
    the stored bit matrix once and cached until the calibration is redone.
    """

    def __init__(self, cal_shots: int = 20000):
        self.cal_shots = cal_shots
        self._cal_bits = None
        self._attenuations: dict = {}

    def _calibration_bits(self, n: int, noise, seed) -> np.ndarray:
        if self._cal_bits is None or self._cal_bits.shape[1] != n:
            rng = np.random.default_rng(seed)
            self._cal_bits = _twirled_bits(zero_state(n), n, self.cal_shots, noise, rng)
            self._attenuations = {}
        return self._cal_bits

    def _attenuation(self, cal_bits: np.ndarray, support) -> tuple[float, float]:
        """(attenuation, its variance) of one Z support, from the calibration bits."""
        if support not in self._attenuations:
            cal_eigs = _z_eigenvalues(_pack(cal_bits), support, cal_bits.shape[1])
            att = float(cal_eigs.mean())
            if abs(att) < 1e-6:
                raise ValueError(f"twirled attenuation {att:.2e} is too small to mitigate")
            var_att = max(float((cal_eigs**2).mean()) - att * att, 0.0) / self.cal_shots
            self._attenuations[support] = (att, var_att)
        return self._attenuations[support]

    def estimate_group(self, state, basis, members, shots, noise, seed):
        n = basis.n_qubits
        rng = np.random.default_rng(seed)
        cal_bits = self._calibration_bits(n, noise, seed + 1 if seed is not None else 1)
        rotated = _rotate_to_basis(state, basis, n)
        outcomes = _pack(_twirled_bits(rotated, n, shots, noise, rng))

        per_shot = np.zeros(shots)
        extra_var = 0.0
        for coeff, support in members:
            eigs = _z_eigenvalues(outcomes, support, n)
            att, var_att = self._attenuation(cal_bits, support)
            raw = float(eigs.mean())
            per_shot += coeff * eigs / att
            extra_var += (coeff * raw / att**2) ** 2 * var_att
        mean = float(per_shot.mean())
        var = max(float((per_shot**2).mean()) - mean * mean, 0.0) / shots
        return mean, var + extra_var
