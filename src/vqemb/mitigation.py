"""Readout-error mitigation.

Two schemes: assignment-matrix inversion restricted to the subspace of
observed outcomes, solved directly on the dense restricted matrix, and
twirled readout estimation, where random X masks symmetrize the readout
channel and a calibration pass on the empty circuit measures the attenuation
factor to divide out.  Calibrations draw from a generator of their own, not
from the shots' generator that ``estimate_group`` receives.

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


def calibrate(noise: ReadoutNoiseModel, shots: int, *,
              rng: np.random.Generator) -> ReadoutNoiseModel:
    """Estimate each qubit's flip rates by measuring all-0 and all-1
    preparations, drawing from ``rng``."""
    if shots <= 0:
        raise ValueError("shots must be positive")
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


def _frequencies(counts: ShotCounts) -> np.ndarray:
    """The observed outcomes' frequencies, in the order of ``counts.outcomes``."""
    if not counts.outcomes.size:
        raise ValueError("empty counts")
    return counts.counts / counts.shots


def _quasi_mass(s: float) -> float:
    """``s``, the mass sum(A^-1 p) of a quasi-distribution; raises when it vanishes."""
    if abs(s) < 1e-8:
        raise ValueError("quasi-probability mass vanished; calibration is pathological")
    return s


def m3_mitigate(counts: ShotCounts, cal: ReadoutNoiseModel) -> dict:
    """Quasi-probability distribution over the observed outcomes, keyed by
    basis index.

    Solves A x = p with A restricted to the observed subspace; x is
    renormalized to unit sum and may carry negative entries.
    """
    A = _restricted_matrix(counts.outcomes, counts.basis.n_qubits, cal)
    x = _solve_assignment(A, _frequencies(counts))
    s = _quasi_mass(x.sum())
    return dict(zip(counts.outcomes.tolist(), (x / s).tolist()))


class M3GroupEstimator:
    """Group-estimation hook for sampled expectations with subspace inversion.

    The group value is w . p_hat / s with A^T [w u] = [v 1], where v holds each
    observed outcome's coefficient-weighted parity and s = u . p_hat = sum(A^-1
    p_hat) is the quasi-probability mass; the variance is propagated from the
    multinomial covariance of p_hat (renormalization treated as constant).
    Each group keeps w and u for its last observed set until the set changes.
    """

    def __init__(self, calibration: ReadoutNoiseModel):
        self.calibration = calibration
        self._last = {}  # (basis letters, members) -> (outcome bytes, w, w * w, u)

    def estimate_group(self, state, basis, members, shots, noise, rng):
        counts = sample(state, basis, shots, noise, rng=rng)
        p = _frequencies(counts)
        group, observed = (basis.letters, tuple(members)), counts.outcomes.tobytes()
        last = self._last.get(group)
        if last is None or last[0] != observed:
            A = _restricted_matrix(counts.outcomes, basis.n_qubits, self.calibration)
            v = _member_values(counts.outcomes, members)
            w, u = _solve_assignment(A.T, np.stack((v, np.ones_like(v)), axis=1)).T
            last = self._last[group] = (observed, w, w * w, u)
        _, w, w2, u = last
        s = _quasi_mass(float(u @ p))
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
    redone for another register width; calibration passes draw from
    ``cal_rng``.  The estimation passes' twirl layout is rebuilt only for a
    new register width or shot count.
    """

    def __init__(self, cal_shots: int, cal_rng: np.random.Generator):
        if cal_shots <= 0:
            raise ValueError("cal_shots must be positive")
        self.cal_shots = cal_shots
        self._cal_rng = cal_rng
        self._cal_width = None
        self._cal_outcomes = None
        self._attenuations: dict = {}
        self._layout = (None, None)

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

    def estimate_group(self, state, basis, members, shots, noise, rng):
        n = basis.n_qubits
        if self._cal_width != n:  # one calibration pass per register width
            cal = _twirled_bits(zero_state(n), n, self.cal_shots, noise, self._cal_rng)
            self._cal_outcomes, self._cal_width, self._attenuations = cal, n, {}
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
