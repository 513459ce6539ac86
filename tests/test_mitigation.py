"""Readout calibration, subspace inversion, and twirled readout estimation."""

import math

import numpy as np
import pytest

from vqemb.mitigation import (
    M3GroupEstimator,
    ReadoutCalibration,
    TrexGroupEstimator,
    calibrate,
    m3_mitigate,
    trex_expectation,
)
from vqemb.pauli import PauliWord, QubitHamiltonian
from vqemb.simulator import (
    Circuit,
    CnotGate,
    FrozenSlot,
    PauliXGate,
    ReadoutNoiseModel,
    RyGate,
    ShotCounts,
    evolve,
    sample,
    sampled_expectation,
)


def ghz(n):
    gates = [RyGate(0, FrozenSlot(math.pi / 2))]
    gates += [CnotGate(q, q + 1) for q in range(n - 1)]
    return Circuit(n, gates)


class TestCalibrate:
    def test_noiseless_is_exact(self):
        cal = calibrate(ReadoutNoiseModel.uniform(3, 0.0), shots=50, seed=1)
        for m in cal.matrices:
            assert np.allclose(np.asarray(m), np.eye(2))

    def test_flip_estimates_within_binomial_band(self):
        noise = ReadoutNoiseModel.uniform(2, 0.05)
        cal = calibrate(noise, shots=100000, seed=2)
        for m in cal.matrices:
            p10 = np.asarray(m)[1, 0]
            assert 0.0466 <= p10 <= 0.0534  # 5 sigma around 0.05

    def test_asymmetric_directions_recovered(self):
        noise = ReadoutNoiseModel.from_flip_probs([0.02], [0.08])
        cal = calibrate(noise, shots=200000, seed=3)
        m = np.asarray(cal.matrices[0])
        assert m[1, 0] == pytest.approx(0.02, abs=5 * math.sqrt(0.02 * 0.98 / 200000))
        assert m[0, 1] == pytest.approx(0.08, abs=5 * math.sqrt(0.08 * 0.92 / 200000))

    def test_columns_sum_to_one(self):
        cal = calibrate(ReadoutNoiseModel.uniform(2, 0.03), shots=1000, seed=4)
        for m in cal.matrices:
            assert np.allclose(np.asarray(m).sum(axis=0), 1.0, atol=1e-12)

    def test_serialization_family(self):
        cal = calibrate(ReadoutNoiseModel.uniform(2, 0.03), shots=1000, seed=4)
        text = cal.to_text()
        assert text.startswith("nqubits=2\nshots=1000\nseed=4\n")
        assert len(text.strip().splitlines()) == 5

    def test_text_flip_lines_are_plain_floats(self):
        noise = ReadoutNoiseModel.from_flip_probs([0.03, 0.01], [0.02, 0.05])
        cal = calibrate(noise, shots=1000, seed=4)
        rows = [[float(v) for v in line.split()] for line in cal.to_text().splitlines()[3:]]
        assert rows == cal.flip_probs().tolist()


class TestM3:
    def test_identity_calibration_is_passthrough(self):
        cal = calibrate(ReadoutNoiseModel.uniform(2, 0.0), shots=10, seed=0)
        counts = ShotCounts({"00": 70, "11": 30}, 100, PauliWord("ZZ"))
        quasi = m3_mitigate(counts, cal)
        assert quasi["00"] == pytest.approx(0.7)
        assert quasi["11"] == pytest.approx(0.3)

    def test_single_qubit_analytic_inverse(self):
        # true |0>, symmetric 10% flips, exact observed frequencies
        cal = ReadoutCalibration((((0.9, 0.1), (0.1, 0.9)),), shots=1, seed=0)
        counts = ShotCounts({"0": 90, "1": 10}, 100, PauliWord("Z"))
        quasi = m3_mitigate(counts, cal)
        assert quasi["0"] == pytest.approx(1.0, abs=1e-10)
        assert quasi["1"] == pytest.approx(0.0, abs=1e-10)

    def test_quasi_distribution_sums_to_one(self):
        noise = ReadoutNoiseModel.uniform(3, 0.04)
        cal = calibrate(noise, shots=50000, seed=5)
        from vqemb.simulator import sample

        counts = sample(evolve(ghz(3), []), PauliWord("ZZZ"), 5000, noise=noise, seed=6)
        quasi = m3_mitigate(counts, cal)
        assert sum(quasi.values()) == pytest.approx(1.0, abs=1e-8)

    def test_empty_counts_rejected(self):
        cal = calibrate(ReadoutNoiseModel.uniform(1, 0.0), shots=10, seed=0)
        with pytest.raises(ValueError, match="empty"):
            m3_mitigate(ShotCounts({}, 0, PauliWord("Z")), cal)

    def test_ghz_parity_recovered(self):
        noise = ReadoutNoiseModel.uniform(4, 0.02)
        cal = calibrate(noise, shots=100000, seed=7)
        h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
        value, err = sampled_expectation(
            ghz(4), [], h, 10000, noise=noise, mitigator=M3GroupEstimator(cal), seed=8
        )
        assert abs(value - 1.0) <= 3 * err
        raw, raw_err = sampled_expectation(ghz(4), [], h, 10000, noise=noise, seed=8)
        assert (1.0 - raw) > 5 * raw_err

    def test_quasi_distribution_gives_the_group_estimate(self):
        # sum_b q(b) v(b) = v . x / sum(x) = w . p / sum(x) with A^T w = v
        noise = ReadoutNoiseModel.from_flip_probs([0.02, 0.05, 0.03], [0.04, 0.01, 0.06])
        cal = calibrate(noise, shots=20000, seed=9)
        state = evolve(ghz(3), [])
        members = [(0.7, (0, 1)), (-0.3, (2,)), (1.1, (0, 1, 2))]
        for basis in ("ZZZ", "XXZ"):
            counts = sample(state, PauliWord(basis), 3000, noise, seed=10)
            quasi = m3_mitigate(counts, cal)
            parity = {
                b: sum(c * (-1) ** sum(int(b[q]) for q in support) for c, support in members)
                for b in quasi
            }
            mean, _ = M3GroupEstimator(cal).estimate_group(
                state, PauliWord(basis), members, 3000, noise, 10
            )
            assert mean == pytest.approx(sum(quasi[b] * parity[b] for b in quasi), abs=1e-12)


class TestTrex:
    def test_standalone_is_the_group_estimator(self):
        noise = ReadoutNoiseModel.uniform(4, 0.03)
        for observable, cal_shots in (("ZZZZ", None), ("ZIZI", 3000), ("IIII", None)):
            h = QubitHamiltonian.from_dict(4, {observable: 1.0})
            expected = sampled_expectation(
                ghz(4), [], h, 2000, noise=noise,
                mitigator=TrexGroupEstimator(cal_shots or 2000), seed=6,
            )
            got = trex_expectation(
                ghz(4), [], PauliWord(observable), 2000, noise=noise, seed=6, cal_shots=cal_shots
            )
            assert got == expected

    def test_zero_noise_passthrough(self):
        # even-size GHZ: <Z...Z> = +1 (odd-weight parities vanish instead)
        value, err = trex_expectation(ghz(4), [], PauliWord("ZZZZ"), 4000, noise=None, seed=1)
        assert abs(value - 1.0) <= 5 * max(err, 1e-12)

    def test_attenuation_matches_analytic_model(self):
        # uniform flips p: twirled attenuation of a weight-n Z string is
        # (1-2p)^n, so dividing recovers the ideal parity of |111>
        p, n, shots = 0.05, 3, 200000
        noise = ReadoutNoiseModel.uniform(n, p)
        ones = Circuit(n, [PauliXGate(q) for q in range(n)])
        value, err = trex_expectation(
            ones, [], PauliWord("Z" * n), shots, noise=noise, seed=2, cal_shots=shots
        )
        assert value == pytest.approx(-1.0, abs=5 * err)
        raw = value * (1 - 2 * p) ** n
        assert raw == pytest.approx(-((1 - 2 * p) ** n), abs=5 * err)

    def test_diagonal_observable_required(self):
        with pytest.raises(ValueError, match="diagonal"):
            trex_expectation(ghz(2), [], PauliWord("XZ"), 100, seed=0)

    def test_ghz_mitigated_vs_raw(self):
        noise = ReadoutNoiseModel.uniform(4, 0.02)
        value, err = trex_expectation(
            ghz(4), [], PauliWord("ZZZZ"), 10000, noise=noise, seed=42, cal_shots=20000
        )
        assert abs(value - 1.0) <= 3 * err
        h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
        raw, raw_err = sampled_expectation(ghz(4), [], h, 10000, noise=noise, seed=42)
        assert (1.0 - raw) > 5 * raw_err

    def test_group_estimator_matches_standalone_scale(self):
        noise = ReadoutNoiseModel.uniform(4, 0.02)
        h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
        value, err = sampled_expectation(
            ghz(4), [], h, 10000, noise=noise,
            mitigator=TrexGroupEstimator(cal_shots=20000), seed=4,
        )
        assert abs(value - 1.0) <= 3 * err

    def test_attenuation_cache_reused_and_reset(self):
        noise = ReadoutNoiseModel.uniform(3, 0.05)
        est = TrexGroupEstimator(cal_shots=5000)
        state = evolve(ghz(3), [])
        members = [(1.0, (0, 1)), (0.5, (1, 2))]
        first = est.estimate_group(state, PauliWord("ZZZ"), members, 1000, noise, 3)
        cached = dict(est._attenuations)
        assert set(cached) == {(0, 1), (1, 2)}
        for support, (att, var_att) in cached.items():
            eigs = 1.0 - 2.0 * (est._cal_bits[:, list(support)].sum(axis=1) % 2)
            assert att == float(eigs.mean())
            assert var_att == max(float((eigs**2).mean()) - att * att, 0.0) / 5000
        assert est.estimate_group(state, PauliWord("ZZZ"), members, 1000, noise, 3) == first
        # a calibration rebuilt for another register drops the cached values
        est.estimate_group(evolve(ghz(2), []), PauliWord("ZZ"), [(1.0, (0,))], 100, None, 4)
        assert set(est._attenuations) == {(0,)}

    def test_convergence_with_shots(self):
        # mitigated estimates stay consistent with the ideal value at every
        # shot count while the propagated error bar shrinks
        noise = ReadoutNoiseModel.uniform(4, 0.03)
        h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
        errs = []
        for shots in (1000, 10000, 100000):
            value, err = sampled_expectation(
                ghz(4), [], h, shots, noise=noise,
                mitigator=TrexGroupEstimator(cal_shots=4 * shots), seed=11,
            )
            assert abs(value - 1.0) <= 5 * err
            errs.append(err)
        assert errs[2] < errs[1] < errs[0]

    def test_m3_convergence_with_shots(self):
        noise = ReadoutNoiseModel.uniform(4, 0.03)
        cal = calibrate(noise, 400000, seed=31)
        h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
        errs = []
        for shots in (1000, 10000, 100000):
            value, err = sampled_expectation(
                ghz(4), [], h, shots, noise=noise,
                mitigator=M3GroupEstimator(cal), seed=13,
            )
            assert abs(value - 1.0) <= 5 * err
            errs.append(err)
        assert errs[2] < errs[1] < errs[0]
