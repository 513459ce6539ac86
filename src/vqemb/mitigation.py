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


def _subspace_inversion(counts: ShotCounts, A: np.ndarray):
    """The observed outcomes' frequencies p, the solution x of A x = p for
    their restricted assignment matrix A, and the mass sum(x), all in the
    order of ``counts.outcomes``.

    Raises when the quasi-probability mass vanishes.
    """
    if not counts.outcomes.size:
        raise ValueError("empty counts")
    p = counts.counts / counts.shots
    x = _solve_assignment(A, p)
    s = x.sum()
    if abs(s) < 1e-8:
        raise ValueError("quasi-probability mass vanished; calibration is pathological")
    return p, x, s


def m3_mitigate(counts: ShotCounts, cal: ReadoutNoiseModel) -> dict:
    """Quasi-probability distribution over the observed outcomes, keyed by
    basis index.

    Solves A x = p with A restricted to the observed subspace; x is
    renormalized to unit sum and may carry negative entries.
    """
    A = _restricted_matrix(counts.outcomes, counts.basis.n_qubits, cal)
    _, x, s = _subspace_inversion(counts, A)
    return dict(zip(counts.outcomes.tolist(), (x / s).tolist()))


class M3GroupEstimator:
    """Group-estimation hook for sampled expectations with subspace inversion.

    The group value is w . p_hat with A^T w = v, where v holds each observed
    outcome's coefficient-weighted parity; the variance is propagated from
    the multinomial covariance of p_hat (renormalization treated as constant).
    Each group keeps A and w for its last observed set until the set changes.
    """

    def __init__(self, calibration: ReadoutNoiseModel):
        self.calibration = calibration
        self._last = {}  # (basis letters, members) -> (outcome bytes, A, w, w * w)

    def estimate_group(self, state, basis, members, shots, noise, seed):
        counts = sample(state, basis, shots, noise, seed)
        group, observed = (basis.letters, tuple(members)), counts.outcomes.tobytes()
        last = self._last.get(group)
        if last is None or last[0] != observed:
            A = _restricted_matrix(counts.outcomes, basis.n_qubits, self.calibration)
            w = _solve_assignment(A.T, _member_values(counts.outcomes, members))
            last = self._last[group] = (observed, A, w, w * w)
        _, A, w, w2 = last
        p, _, s = _subspace_inversion(counts, A)
        wp = float(w @ p)
        var = max(float(p @ w2) - wp**2, 0.0) / shots / (s * s)
        return wp / s, var


# -- twirled readout estimation ---------------------------------------------------

def _twirl_layout(n: int, shots: int) -> tuple:
    """(n, shots, register weights, block sizes) of a twirled pass: each of
    ``_TWIRL_BATCHES`` masks covers one block of ``shots // _TWIRL_BATCHES``
    consecutive shots, the first ``shots % _TWIRL_BATCHES`` one shot longer."""
    sizes = shots // _TWIRL_BATCHES + (np.arange(_TWIRL_BATCHES) < shots % _TWIRL_BATCHES)
    return n, shots, 1 << (n - 1 - np.arange(n)), sizes


def _twirled_pass(state: np.ndarray, layout: tuple, noise: Optional[ReadoutNoiseModel], rng):
    """Measured int64 basis indices of one twirled pass in ``layout``, all
    shots drawn in one pass, with the X-mask twirling already compensated."""
    n, shots, weights, sizes = layout
    masks = rng.integers(0, 2, size=(_TWIRL_BATCHES, n)) @ weights
    return _sample_outcomes(np.abs(state) ** 2, n, shots, noise, rng, twirl=masks.repeat(sizes))


def _twirled_bits(state: np.ndarray, n: int, shots: int, noise, rng) -> np.ndarray:
    """``_twirled_pass`` of ``shots`` shots on an n-qubit register."""
    return _twirled_pass(state, _twirl_layout(n, shots), noise, rng)


class TrexGroupEstimator:
    """Group-estimation hook applying twirled readout to every term.

    One twirled calibration pass (lazy, on the first group) serves all Z
    masks; each mask's attenuation and its variance are computed from the
    stored calibration outcomes once and cached until the calibration is
    redone for another register width.  The estimation passes' twirl layout
    is rebuilt only for a new register width or shot count.
    """

    def __init__(self, cal_shots: int):
        if cal_shots <= 0:
            raise ValueError("cal_shots must be positive")
        self.cal_shots = cal_shots
        self._cal_width = None
        self._cal_outcomes = None
        self._attenuations: dict = {}
        self._layout = (None, None)

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
        if self._layout[:2] != (n, shots):
            self._layout = _twirl_layout(n, shots)
        outcomes = _twirled_pass(_rotate_to_basis(state, basis, n), self._layout, noise, rng)

        # np.add.reduce(x) / shots is np.mean(x) without its Python wrapper
        per_shot = np.zeros(shots)
        extra_var = 0.0
        for coeff, mask in members:
            eigs = _z_eigenvalues(outcomes, mask)
            att, var_att = self._attenuation(mask)
            raw = float(np.add.reduce(eigs) / shots)
            per_shot += coeff * eigs / att
            extra_var += (coeff * raw / att**2) ** 2 * var_att
        mean = float(np.add.reduce(per_shot) / shots)
        var = max(float(np.add.reduce(per_shot**2) / shots) - mean * mean, 0.0) / shots
        return mean, var + extra_var
