"""Readout calibration, subspace inversion, and twirled readout estimation."""

import hashlib
import math

import numpy as np
import pytest

from vqemb.mitigation import (
    M3GroupEstimator,
    TrexGroupEstimator,
    _restricted_matrix,
    _twirled_bits,
    calibrate,
    m3_mitigate,
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
    _member_values,
    evolve,
    group_qubitwise,
    sample,
    sampled_expectation,
    tally_counts,
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


class TestM3:
    def test_identity_calibration_is_passthrough(self):
        cal = calibrate(ReadoutNoiseModel.uniform(2, 0.0), shots=10, seed=0)
        counts = ShotCounts(np.array([0b00, 0b11]), np.array([70, 30]), PauliWord("ZZ"))
        quasi = m3_mitigate(counts, cal)
        assert quasi[0b00] == pytest.approx(0.7)
        assert quasi[0b11] == pytest.approx(0.3)

    def test_single_qubit_analytic_inverse(self):
        # true |0>, symmetric 10% flips, exact observed frequencies
        cal = ReadoutNoiseModel((((0.9, 0.1), (0.1, 0.9)),))
        counts = ShotCounts(np.array([0b0, 0b1]), np.array([90, 10]), PauliWord("Z"))
        quasi = m3_mitigate(counts, cal)
        assert quasi[0b0] == pytest.approx(1.0, abs=1e-10)
        assert quasi[0b1] == pytest.approx(0.0, abs=1e-10)

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
            empty = np.array([], dtype=np.int64)
            m3_mitigate(ShotCounts(empty, empty, PauliWord("Z")), cal)

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
        members = [(0.7, 0b110), (-0.3, 0b001), (1.1, 0b111)]
        for basis in ("ZZZ", "XXZ"):
            counts = sample(state, PauliWord(basis), 3000, noise, seed=10)
            quasi = m3_mitigate(counts, cal)
            parity = {
                b: sum(c * (-1) ** bin(b & mask).count("1") for c, mask in members)
                for b in quasi
            }
            mean, _ = M3GroupEstimator(cal).estimate_group(
                state, PauliWord(basis), members, 3000, noise, 10
            )
            assert mean == pytest.approx(sum(quasi[b] * parity[b] for b in quasi), abs=1e-12)

    @pytest.mark.parametrize("flip", [0.02, 0.30])
    def test_many_outcomes_are_solved_directly(self, flip):
        # A x = p and A^T w = v are one np.linalg.solve each, however many
        # distinct outcomes there are
        n = 10
        rng = np.random.default_rng(14)
        state = rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        noise = ReadoutNoiseModel.uniform(n, flip)
        basis = PauliWord("Z" * n)
        counts = sample(state, basis, 4000, noise, seed=15)
        assert counts.outcomes.size > 500
        A = _restricted_matrix(counts.outcomes, n, noise)
        p = counts.counts / counts.shots
        x = np.linalg.solve(A, p)
        quasi = m3_mitigate(counts, noise)
        assert list(quasi) == counts.outcomes.tolist()
        assert list(quasi.values()) == (x / x.sum()).tolist()

        members = [(0.7, 0b1100000011), (-0.3, 0b0000000001), (1.1, (1 << n) - 1)]
        w = np.linalg.solve(A.T, _member_values(counts.outcomes, members))
        s = x.sum()
        mean = float(w @ p) / s
        var = max(float(p @ (w * w)) - float(w @ p) ** 2, 0.0) / 4000 / (s * s)
        got = M3GroupEstimator(noise).estimate_group(state, basis, members, 4000, noise, 15)
        assert got == (mean, var)

def pack(bits):
    """Basis index of each row of a (shots, n) bit matrix, or of one (n,) row."""
    n = np.shape(bits)[-1]
    return bits @ (1 << (n - 1 - np.arange(n)))


def batch_of_each_shot(shots, batches=16):
    """Twirl batch of every shot: ``shots // batches`` consecutive shots per
    batch, the first ``shots % batches`` batches one shot longer."""
    sizes = [shots // batches + (i < shots % batches) for i in range(batches)]
    return [i for i, size in enumerate(sizes) for _ in range(size)]


class TestTwirledBits:
    def random_state(self, n, seed):
        amps = np.random.default_rng(seed).normal(size=2**n)
        return amps / np.linalg.norm(amps)

    @pytest.mark.parametrize("shots", [1, 15, 16, 17, 1000])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_one_pass_draw_order(self, shots, n, noisy):
        # masks first, then every shot's outcome, then every shot's flip draw
        state = self.random_state(n, shots + n)
        noise = ReadoutNoiseModel.from_flip_probs([0.1, 0.2, 0.3][:n], [0.25, 0.05, 0.15][:n])
        noise = noise if noisy else None
        rng = np.random.default_rng(77)
        masks = rng.integers(0, 2, size=(16, n))
        twirl = masks[batch_of_each_shot(shots)]
        probs = np.abs(state) ** 2
        outcomes = rng.choice(2**n, size=shots, p=probs / probs.sum())
        bits = np.array([[(int(o) >> (n - 1 - q)) & 1 for q in range(n)] for o in outcomes])
        if noisy:
            u = rng.random(size=(shots, n))
            measured = bits ^ twirl
            fp = noise.flip_probs()
            p_flip = np.where(measured == 0, fp[:, 0], fp[:, 1])
            bits = measured ^ (u < p_flip) ^ twirl
        got = _twirled_bits(state, n, shots, noise, np.random.default_rng(77))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, pack(bits))

    @pytest.mark.parametrize("shots", [1, 15, 16, 17, 1000])
    def test_always_one_channel_returns_complemented_masks(self, shots):
        n = 3
        always_one = ReadoutNoiseModel.from_flip_probs([1.0] * n, [0.0] * n)
        masks = np.random.default_rng(5).integers(0, 2, size=(16, n))
        got = _twirled_bits(self.random_state(n, 1), n, shots, always_one, np.random.default_rng(5))
        assert got.shape == (shots,)
        for shot, batch in enumerate(batch_of_each_shot(shots)):
            assert got[shot] == pack(1 - masks[batch])

    # register width -> sha256 of 3000 twirled noisy outcomes
    PINNED_WIDE = {
        10: "a27433efdd2a0c47ea40c6ad2112f1f0",
        12: "8f7338f5556b69007dbff0c683689917",
        17: "9f2f96f661abb7449831986fe85faa6b",
    }

    @pytest.mark.parametrize("n", sorted(PINNED_WIDE))
    def test_wide_registers_are_pinned(self, n):
        noise = ReadoutNoiseModel.from_flip_probs(np.linspace(0.01, 0.3, n), np.linspace(0.25, 0.02, n))
        got = _twirled_bits(self.random_state(n, 200 + n), n, 3000, noise, np.random.default_rng(300 + n))
        assert hashlib.sha256(got.tobytes()).hexdigest()[:32] == self.PINNED_WIDE[n]

    def test_twirl_cancels_without_noise(self):
        n = 3
        state = np.zeros(2**n)
        state[0b101] = 1.0
        got = _twirled_bits(state, n, 1000, None, np.random.default_rng(8))
        np.testing.assert_array_equal(got, np.full(1000, 0b101))


    @pytest.mark.parametrize("bad", ["nan", "inf", "zero"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_state_without_finite_mass_is_rejected(self, bad, noisy):
        state = self.random_state(2, 4) if bad != "zero" else np.zeros(4)
        if bad != "zero":
            state[1] = float(bad)
        noise = ReadoutNoiseModel.uniform(2, 0.05) if noisy else None
        with pytest.raises(ValueError):
            _twirled_bits(state, 2, 100, noise, np.random.default_rng(3))


class TestTrex:
    @pytest.mark.parametrize("bad", ["nan", "inf", "zero"])
    def test_rotated_state_without_finite_mass_is_rejected(self, bad):
        state = evolve(ghz(2), []) if bad != "zero" else np.zeros(4)
        if bad != "zero":
            state[3] = float(bad)
        noise = ReadoutNoiseModel.uniform(2, 0.05)
        with pytest.raises(ValueError, match="finite positive mass"):
            TrexGroupEstimator(1000).estimate_group(state, PauliWord("XZ"), [(1.0, 0b11)], 100, noise, 1)

    @pytest.mark.parametrize("cal_shots", [0, -5])
    def test_nonpositive_calibration_budget_rejected(self, cal_shots):
        # an empty calibration would give a NaN attenuation
        with pytest.raises(ValueError, match="cal_shots must be positive"):
            TrexGroupEstimator(cal_shots)

    def test_zero_noise_passthrough(self):
        # even-size GHZ: <Z...Z> = +1 (odd-weight parities vanish instead)
        h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
        value, err = sampled_expectation(
            ghz(4), [], h, 4000, noise=None, mitigator=TrexGroupEstimator(4000), seed=1
        )
        assert abs(value - 1.0) <= 5 * max(err, 1e-12)

    def test_attenuation_matches_analytic_model(self):
        # uniform flips p: twirled attenuation of a weight-n Z string is
        # (1-2p)^n, so dividing recovers the ideal parity of |111>
        p, n, shots = 0.05, 3, 200000
        noise = ReadoutNoiseModel.uniform(n, p)
        ones = Circuit(n, [PauliXGate(q) for q in range(n)])
        h = QubitHamiltonian.from_dict(n, {"Z" * n: 1.0})
        value, err = sampled_expectation(
            ones, [], h, shots, noise=noise, mitigator=TrexGroupEstimator(shots), seed=2
        )
        assert value == pytest.approx(-1.0, abs=5 * err)
        raw = value * (1 - 2 * p) ** n
        assert raw == pytest.approx(-((1 - 2 * p) ** n), abs=5 * err)

    def test_ghz_mitigated_vs_raw(self):
        noise = ReadoutNoiseModel.uniform(4, 0.02)
        h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
        value, err = sampled_expectation(
            ghz(4), [], h, 10000, noise=noise, mitigator=TrexGroupEstimator(20000), seed=42
        )
        assert abs(value - 1.0) <= 3 * err
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
        members = [(1.0, 0b110), (0.5, 0b011)]
        first = est.estimate_group(state, PauliWord("ZZZ"), members, 1000, noise, 3)
        cached = dict(est._attenuations)
        assert set(cached) == {0b110, 0b011}
        for mask, (att, var_att) in cached.items():
            eigs = 1.0 - 2.0 * np.array([bin(o & mask).count("1") % 2 for o in est._cal_outcomes])
            assert att == float(eigs.mean())
            assert var_att == max(float((eigs**2).mean()) - att * att, 0.0) / 5000
        assert est.estimate_group(state, PauliWord("ZZZ"), members, 1000, noise, 3) == first
        # a calibration rebuilt for another register drops the cached values
        est.estimate_group(evolve(ghz(2), []), PauliWord("ZZ"), [(1.0, 0b10)], 100, None, 4)
        assert set(est._attenuations) == {0b10}

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


def test_estimates_are_pinned():
    # Raw, M3 and TREX estimates of a four-group Hamiltonian on GHZ(3) under
    # asymmetric readout noise, and one sampled histogram, pinned bit for bit.
    h = QubitHamiltonian.from_dict(3, {
        "III": -0.25, "ZZI": 0.5, "IZZ": -0.3, "ZIZ": 0.15, "ZZZ": 0.2,
        "XXX": 0.7, "YYX": -0.4, "XYY": 0.35, "IXX": 0.1,
    })
    noise = ReadoutNoiseModel.from_flip_probs([0.02, 0.05, 0.03], [0.04, 0.01, 0.06])
    assert len(group_qubitwise(h.simplify())[1]) == 4
    assert sampled_expectation(ghz(3), [], h, 2000, noise=noise, seed=21) == (
        0.66235, 0.014090481494611886)
    m3 = M3GroupEstimator(calibrate(noise, 20000, seed=22))
    assert sampled_expectation(ghz(3), [], h, 2000, noise=noise, mitigator=m3, seed=21) == (
        0.8419582178230568, 0.017141801580304105)
    trex = TrexGroupEstimator(4000)
    assert sampled_expectation(ghz(3), [], h, 2000, noise=noise, mitigator=trex, seed=21) == (
        0.8537644379477394, 0.021105998409340597)
    # The tallies of the seven Z strings fix all eight outcome counts of the histogram.
    counts = sample(evolve(ghz(3), []), PauliWord("ZZZ"), 1000, noise=noise, seed=23)
    assert counts.shots == 1000 and len(counts.counts) == 8
    tallies = {}
    for word in ("ZII", "IZI", "IIZ", "ZZI", "ZIZ", "IZZ", "ZZZ"):
        _, [(_, members)] = group_qubitwise(QubitHamiltonian.from_dict(3, {word: 1.0}))
        tallies[word] = tally_counts(counts, members)
    assert tallies == {
        "ZII": (0.0019999999999999463, 0.000999996),
        "IZI": (-0.066, 0.000995644),
        "IIZ": (0.01799999999999996, 0.000999676),
        "ZZI": (0.8800000000000001, 0.0002255999999999998),
        "ZIZ": (0.8639999999999999, 0.00025350400000000015),
        "IZZ": (0.8480000000000001, 0.0002808959999999998),
        "ZZZ": (-0.025999999999999968, 0.000999324),
    }


def test_reused_estimators_match_fresh_ones():
    # An objective keeps one estimator for all its evaluations. Whatever the
    # estimator keeps between calls must give, bit for bit, what a fresh one
    # gives, while the observed outcomes, members, basis and shot count change.
    noise = ReadoutNoiseModel.from_flip_probs([0.02, 0.05, 0.03], [0.04, 0.01, 0.06])
    cal = calibrate(noise, 20000, seed=22)
    state = evolve(ghz(3), [])
    member_lists = ([(0.7, 0b110), (-0.3, 0b001)], [(1.1, 0b111)], [(0.7, 0b110), (-0.2, 0b001)])
    calls = [
        (basis, members, 30 + seed % 2, seed)
        for seed in range(8) for basis in ("ZZZ", "XXZ") for members in member_lists
    ]
    observed = {b: [sample(state, PauliWord(b), 30 + seed % 2, noise, seed).outcomes.tolist()
                    for seed in range(8)] for b in ("ZZZ", "XXZ")}
    # from one seed to the next the observed set changes in the Z basis and
    # recurs in the X basis
    assert all(a != b for a, b in zip(observed["ZZZ"], observed["ZZZ"][1:]))
    assert observed["XXZ"][0] == observed["XXZ"][1] == observed["XXZ"][3]

    m3 = M3GroupEstimator(cal)
    trex = TrexGroupEstimator(4000)
    for basis, members, shots, seed in calls:
        args = (state, PauliWord(basis), members, shots, noise, seed)
        assert m3.estimate_group(*args) == M3GroupEstimator(cal).estimate_group(*args)
        got = trex.estimate_group(*args)
        fresh = TrexGroupEstimator(4000)  # with the reused one's calibration pass
        fresh._cal_width, fresh._cal_outcomes = trex._cal_width, trex._cal_outcomes
        assert got == fresh.estimate_group(*args)
    # a TREX estimator recalibrates for another register width
    args = (evolve(ghz(2), []), PauliWord("ZX"), [(0.5, 0b11), (1.0, 0b01)], 45, None, 9)
    assert trex.estimate_group(*args) == TrexGroupEstimator(4000).estimate_group(*args)
