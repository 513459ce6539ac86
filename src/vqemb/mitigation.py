"""Readout-error mitigation.

Two schemes: assignment-matrix inversion restricted to the subspace of
observed outcomes, solved directly on the dense restricted matrix, and
twirled readout estimation, where random X masks symmetrize the readout
channel and a calibration pass on the empty circuit measures the attenuation
factor to divide out.

Quasi-probabilities are renormalized to unit sum (restriction to the observed
subspace can lose the unobserved probability mass) and are never clipped;
expectation values are computed directly from the quasi-distribution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .simulator import (
    ReadoutNoiseModel,
    ShotCounts,
    _member_values,
    _rotate_to_basis,
    _sample_outcomes,
    _z_eigenvalues,
    sample,
    zero_state,
)

_TWIRL_BATCHES = 16  # twirl masks drawn per sampling pass


def calibrate(noise: ReadoutNoiseModel, shots: int, seed: int = 0) -> ReadoutNoiseModel:
    """Estimate each qubit's flip rates by measuring all-0 and all-1 preparations."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = np.random.default_rng(seed)
    fp = noise.flip_probs()
    n = noise.n_qubits
    p10 = (rng.random((shots, n)) < fp[:, 0]).mean(axis=0)
    p01 = (rng.random((shots, n)) < fp[:, 1]).mean(axis=0)
    return ReadoutNoiseModel.from_flip_probs(p10, p01)


def _restricted_matrix(outcomes: np.ndarray, n: int, cal: ReadoutNoiseModel) -> np.ndarray:
    """Assignment matrix A[i, j] = P(measure b_i | true b_j) on the observed set."""
    bits = (outcomes[:, None] >> (n - 1 - np.arange(n))) & 1
    m = len(outcomes)
    A = np.ones((m, m))
    for q, Mq in enumerate(cal._stacked):
        A *= Mq[bits[:, None, q], bits[None, :, q]]
    return A


def _solve_assignment(A: np.ndarray, p: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(A, p)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular restricted assignment matrix: {exc}") from exc


def _subspace_inversion(counts: ShotCounts, cal: ReadoutNoiseModel):
    """The observed outcomes' frequencies p, the restricted assignment matrix
    A, and the solution x of A x = p, all in the order of ``counts.outcomes``.

    Raises when the quasi-probability mass sum(x) vanishes.
    """
    if not counts.outcomes.size:
        raise ValueError("empty counts")
    p = counts.counts / counts.shots
    A = _restricted_matrix(counts.outcomes, counts.basis.n_qubits, cal)
    x = _solve_assignment(A, p)
    if abs(x.sum()) < 1e-8:
        raise ValueError("quasi-probability mass vanished; calibration is pathological")
    return p, A, x


def m3_mitigate(counts: ShotCounts, cal: ReadoutNoiseModel) -> dict:
    """Quasi-probability distribution over the observed outcomes, keyed by
    basis index.

    Solves A x = p with A restricted to the observed subspace; x is
    renormalized to unit sum and may carry negative entries.
    """
    _, _, x = _subspace_inversion(counts, cal)
    return dict(zip(counts.outcomes.tolist(), (x / x.sum()).tolist()))


class M3GroupEstimator:
    """Group-estimation hook for sampled expectations with subspace inversion.

    The group value is w . p_hat with A^T w = v, where v holds each observed
    outcome's coefficient-weighted parity; the variance is propagated from
    the multinomial covariance of p_hat (renormalization treated as constant).
    """

    def __init__(self, calibration: ReadoutNoiseModel):
        self.calibration = calibration

    def estimate_group(self, state, basis, members, shots, noise, seed):
        counts = sample(state, basis, shots, noise, seed)
        p, A, x = _subspace_inversion(counts, self.calibration)
        s = x.sum()
        w = _solve_assignment(A.T, _member_values(counts.outcomes, members))
        mean = float(w @ p) / s
        var = max(float(p @ (w * w)) - float(w @ p) ** 2, 0.0) / shots / (s * s)
        return mean, var


# -- twirled readout estimation ---------------------------------------------------

def _twirled_bits(
    state: np.ndarray, n: int, shots: int, noise: Optional[ReadoutNoiseModel], rng
) -> np.ndarray:
    """Measured outcomes (int64 basis indices) with per-batch X-mask
    twirling already compensated.

    ``_TWIRL_BATCHES`` masks each cover one block of consecutive shots of
    ``shots // _TWIRL_BATCHES``, the first ``shots % _TWIRL_BATCHES`` blocks
    one shot longer; all shots are drawn in one pass.
    """
    masks = rng.integers(0, 2, size=(_TWIRL_BATCHES, n)) @ (1 << (n - 1 - np.arange(n)))
    sizes = shots // _TWIRL_BATCHES + (np.arange(_TWIRL_BATCHES) < shots % _TWIRL_BATCHES)
    return _sample_outcomes(np.abs(state) ** 2, n, shots, noise, rng, twirl=np.repeat(masks, sizes))


class TrexGroupEstimator:
    """Group-estimation hook applying twirled readout to every term.

    One twirled calibration pass (lazy, on the first group) serves all Z
    masks; each mask's attenuation and its variance are computed from the
    stored calibration outcomes once and cached until the calibration is
    redone for another register width.
    """

    def __init__(self, cal_shots: int):
        if cal_shots <= 0:
            raise ValueError("cal_shots must be positive")
        self.cal_shots = cal_shots
        self._cal_width = None
        self._cal_outcomes = None
        self._attenuations: dict = {}

    def _calibrate(self, n: int, noise, seed) -> None:
        """Run the calibration pass unless one for an n-qubit register is stored."""
        if self._cal_width != n:
            rng = np.random.default_rng(seed)
            self._cal_outcomes = _twirled_bits(zero_state(n), n, self.cal_shots, noise, rng)
            self._cal_width = n
            self._attenuations = {}

    def _attenuation(self, mask: int) -> tuple[float, float]:
        """(attenuation, its variance) of one Z mask, from the calibration outcomes."""
        if mask not in self._attenuations:
            cal_eigs = _z_eigenvalues(self._cal_outcomes, mask)
            att = float(cal_eigs.mean())
            if abs(att) < 1e-6:
                raise ValueError(f"twirled attenuation {att:.2e} is too small to mitigate")
            var_att = max(float((cal_eigs**2).mean()) - att * att, 0.0) / self.cal_shots
            self._attenuations[mask] = (att, var_att)
        return self._attenuations[mask]

    def estimate_group(self, state, basis, members, shots, noise, seed):
        n = basis.n_qubits
        rng = np.random.default_rng(seed)
        self._calibrate(n, noise, seed + 1 if seed is not None else 1)
        rotated = _rotate_to_basis(state, basis, n)
        outcomes = _twirled_bits(rotated, n, shots, noise, rng)

        per_shot = np.zeros(shots)
        extra_var = 0.0
        for coeff, mask in members:
            eigs = _z_eigenvalues(outcomes, mask)
            att, var_att = self._attenuation(mask)
            raw = float(eigs.mean())
            per_shot += coeff * eigs / att
            extra_var += (coeff * raw / att**2) ** 2 * var_att
        mean = float(per_shot.mean())
        var = max(float((per_shot**2).mean()) - mean * mean, 0.0) / shots
        return mean, var + extra_var
