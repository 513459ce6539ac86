"""Readout-error mitigation.

Two group estimators for ``sampled_expectation``: assignment-matrix
inversion restricted to the subspace of observed outcomes, solved directly on
the dense restricted matrix, and twirled readout estimation, where random X
masks symmetrize the readout channel and a calibration pass on the empty
circuit measures the attenuation factor to divide out.  Each holds its shot
count, noise model and shot generator; calibrations (``calibrate`` for M3,
TREX's one pass at construction) draw from a generator of their own.

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
    Every group draws ``shots`` shots under ``noise`` from ``rng``.
    """

    def __init__(self, calibration: ReadoutNoiseModel, shots: int,
                 noise: Optional[ReadoutNoiseModel], rng: np.random.Generator):
        self.calibration = calibration
        self.shots, self.noise, self.rng = shots, noise, rng
        self._last = {}  # (basis letters, members) -> (outcome bytes, w, w * w, u)

    def estimate_group(self, state, basis, members):
        counts = sample(state, basis, self.shots, self.noise, rng=self.rng)
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
        var = max(float(p @ w2) - wp**2, 0.0) / self.shots / (s * s)
        return wp / s, var


# -- twirled readout estimation ---------------------------------------------------

def _block_sizes(shots: int) -> np.ndarray:
    """Shots under each of the ``_TWIRL_BATCHES`` masks of a twirled pass:
    ``shots // _TWIRL_BATCHES``, the first ``shots % _TWIRL_BATCHES`` one more."""
    return shots // _TWIRL_BATCHES + (np.arange(_TWIRL_BATCHES) < shots % _TWIRL_BATCHES)


def _twirled_bits(state: np.ndarray, weights: np.ndarray, sizes: np.ndarray,
                  noise: Optional[ReadoutNoiseModel], rng) -> np.ndarray:
    """Measured int64 basis indices of one twirled pass over the register whose
    qubits have the basis-index ``weights``, all shots drawn in one pass, with
    the X-mask twirling already compensated: mask i of ``_TWIRL_BATCHES``
    covers the next ``sizes[i]`` shots."""
    n = weights.size
    twirl = (rng.integers(0, 2, size=(_TWIRL_BATCHES, n)) @ weights).repeat(sizes)
    return _sample_outcomes(np.abs(state) ** 2, n, twirl.size, noise, rng, twirl=twirl)


class TrexGroupEstimator:
    """Group-estimation hook applying twirled readout to every term.

    Every group is one twirled pass of ``shots`` shots on the ``n_qubits``
    register under ``noise``, drawn from ``rng``.  One twirled calibration
    pass of ``cal_shots`` shots on the empty circuit, drawn from ``cal_rng``
    at construction, serves all Z masks; each mask's attenuation and its
    variance are computed from the stored calibration outcomes once.
    """

    def __init__(self, n_qubits: int, shots: int, noise: Optional[ReadoutNoiseModel],
                 rng: np.random.Generator, cal_shots: int, cal_rng: np.random.Generator):
        if min(shots, cal_shots) <= 0:
            raise ValueError("shots and cal_shots must be positive")
        self.shots, self.noise, self.rng, self.cal_shots = shots, noise, rng, cal_shots
        self._weights = 1 << (n_qubits - 1 - np.arange(n_qubits))
        self._sizes = _block_sizes(shots)
        self._cal_outcomes = _twirled_bits(zero_state(n_qubits), self._weights,
                                           _block_sizes(cal_shots), noise, cal_rng)
        self._attenuations: dict = {}

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

    def estimate_group(self, state, basis, members):
        shots = self.shots
        outcomes = _twirled_bits(_rotate_to_basis(state, basis, basis.n_qubits), self._weights,
                                 self._sizes, self.noise, self.rng)

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
