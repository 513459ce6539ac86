"""Circuit evolution, sampling, and grouped shot-based expectations."""

import hashlib
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from vqemb.ansatz import HeaConfig, build_hea
from vqemb.mapping import (
    JORDAN_WIGNER,
    MappingSpec,
    build_fermionic_hamiltonian,
    hartree_fock_bitstring,
    map_to_qubits,
)
from vqemb.pauli import PauliExpectation, PauliWord, QubitHamiltonian
from vqemb.simulator import (
    Circuit,
    CnotGate,
    FreeSlot,
    FrozenSlot,
    PauliXGate,
    ReadoutNoiseModel,
    RyGate,
    ShotCounts,
    energy_and_gradient,
    evolve,
    exact_expectation,
    group_qubitwise,
    sample,
    sampled_expectation,
    tally_counts,
    zero_state,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def ghz(n):
    gates = [RyGate(0, FrozenSlot(math.pi / 2))]
    gates += [CnotGate(q, q + 1) for q in range(n - 1)]
    return Circuit(n, gates)


class TestCircuit:
    def test_param_indices_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            Circuit(1, [RyGate(0, FreeSlot(1))])

    def test_cnot_control_differs(self):
        with pytest.raises(ValueError, match="differ"):
            Circuit(2, [CnotGate(1, 1)])

    def test_qubit_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(1, [PauliXGate(1)])


class TestEvolve:
    def test_empty_circuit(self):
        assert np.allclose(evolve(Circuit(2), []), [1, 0, 0, 0])

    def test_pauli_x(self):
        state = evolve(Circuit(1, [PauliXGate(0)]), [])
        assert np.allclose(state, [0, 1])

    def test_ry_half_pi(self):
        state = evolve(Circuit(1, [RyGate(0, FreeSlot(0))]), [math.pi / 2])
        assert np.allclose(state, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_frozen_slot_used(self):
        state = evolve(Circuit(1, [RyGate(0, FrozenSlot(math.pi))]), [])
        assert np.allclose(state, [0, 1], atol=1e-12)

    def test_param_length_checked(self):
        with pytest.raises(ValueError, match="parameters"):
            evolve(Circuit(1, [RyGate(0, FreeSlot(0))]), [])

    def test_cnot_truth_table(self):
        state = evolve(Circuit(2, [PauliXGate(0), CnotGate(0, 1)]), [])
        assert np.allclose(state, [0, 0, 0, 1])  # |11>

    def test_ghz_state(self):
        state = evolve(ghz(3), [])
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        assert np.allclose(state, expected, atol=1e-12)

    def test_norm_preserved_random_circuit(self):
        rng = np.random.default_rng(0)
        gates = []
        p = 0
        for _ in range(30):
            kind = rng.integers(3)
            if kind == 0:
                gates.append(PauliXGate(int(rng.integers(4))))
            elif kind == 1:
                gates.append(RyGate(int(rng.integers(4)), FreeSlot(p)))
                p += 1
            else:
                a, b = rng.choice(4, size=2, replace=False)
                gates.append(CnotGate(int(a), int(b)))
        c = Circuit(4, gates)
        state = evolve(c, rng.uniform(-3, 3, size=p))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


def random_circuit(n, n_gates, seed):
    """X, free and frozen Ry, and CNOT gates in random order on n qubits."""
    rng = np.random.default_rng(seed)
    gates, p = [], 0
    for _ in range(n_gates):
        kind = rng.integers(4)
        if kind == 0:
            gates.append(PauliXGate(int(rng.integers(n))))
        elif kind == 1:
            gates.append(RyGate(int(rng.integers(n)), FreeSlot(p)))
            p += 1
        elif kind == 2:
            gates.append(RyGate(int(rng.integers(n)), FrozenSlot(float(rng.uniform(-4, 4)))))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(CnotGate(int(a), int(b)))
    return Circuit(n, gates), rng.uniform(-4, 4, size=p)


def dense_reference_state(circuit, params):
    """|0..0> pushed through each gate as a dense kron-built matrix."""
    n = circuit.n_qubits
    eye, x = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])

    def on(ops):
        return reduce(np.kron, [ops.get(q, eye) for q in range(n)])

    state = np.zeros(1 << n)
    state[0] = 1.0
    for g in circuit.gates:
        if isinstance(g, PauliXGate):
            state = on({g.qubit: x}) @ state
        elif isinstance(g, RyGate):
            t = g.slot.angle if isinstance(g.slot, FrozenSlot) else params[g.slot.index]
            c, s = math.cos(t / 2), math.sin(t / 2)
            state = on({g.qubit: np.array([[c, -s], [s, c]])}) @ state
        else:
            state = (on({g.control: p0}) + on({g.control: p1, g.target: x})) @ state
    return state


class TestEvolveAgainstDense:
    @pytest.mark.parametrize("n,seed", [(2, 1), (3, 2), (4, 3), (5, 4)])
    def test_random_circuits(self, n, seed):
        circuit, params = random_circuit(n, 40, seed)
        state = evolve(circuit, params)
        assert state.dtype == np.float64
        assert np.abs(state - dense_reference_state(circuit, params)).max() < 1e-12

    def test_hea_with_reference_bits(self):
        circuit = build_hea(HeaConfig(4, 2), [1, 0, 1, 1])
        params = np.random.default_rng(7).uniform(-4, 4, size=circuit.n_parameters)
        reference = dense_reference_state(circuit, params)
        assert np.abs(evolve(circuit, params) - reference).max() < 1e-12


def central_differences(circuit, params, evaluator, step=1e-6):
    grad = np.empty(params.size)
    for i in range(params.size):
        e = np.zeros(params.size)
        e[i] = step
        grad[i] = (evaluator(evolve(circuit, params + e)) - evaluator(evolve(circuit, params - e))) / (2 * step)
    return grad


def freeze(circuit, positions, angle):
    """Freeze the free Ry gates at ``positions`` and renumber the rest."""
    gates, p = [], 0
    for pos, g in enumerate(circuit.gates):
        if isinstance(g, RyGate) and pos in positions:
            gates.append(RyGate(g.qubit, FrozenSlot(angle)))
        elif isinstance(g, RyGate):
            gates.append(RyGate(g.qubit, FreeSlot(p)))
            p += 1
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, gates)


class TestAdjointGradient:
    def check(self, h, circuit, seed):
        evaluator = PauliExpectation(h.simplify())
        rng = np.random.default_rng(seed)
        for _ in range(3):
            params = rng.uniform(-math.pi, math.pi, size=circuit.n_parameters)
            energy, grad = energy_and_gradient(circuit, params, evaluator)
            assert energy == pytest.approx(exact_expectation(evolve(circuit, params), h), abs=1e-12)
            assert np.abs(grad - central_differences(circuit, params, evaluator)).max() < 1e-7

    def test_chain5_with_frozen_slots(self):
        h = QubitHamiltonian.from_text((FIXTURES / "chain5.ham").read_text())
        circuit = freeze(build_hea(HeaConfig(5, 1), [0] * 5), {0, 11}, math.pi / 2)
        assert circuit.n_parameters == 8
        self.check(h, circuit, seed=5)

    def test_chain5_with_frozen_slots_is_pinned(self):
        # the evolved state (sha256 of its bytes), the energy and the gradient, bit for bit
        h = QubitHamiltonian.from_text((FIXTURES / "chain5.ham").read_text())
        circuit = freeze(build_hea(HeaConfig(5, 1), [0] * 5), {0, 11}, math.pi / 2)
        evaluator = PauliExpectation(h)
        rng = np.random.default_rng(31)
        pins = [
            ("e4f530038a3e728cc054fb928cc1c7b9", "-0x1.fa5f0d0f2bf3ep-1", [
                "0x1.2003dd3801d02p-1", "-0x1.19b8e649e5a8bp-1", "-0x1.88caec70cc537p-4",
                "0x1.347fba0d247dbp+0", "0x1.6d84cf8756f1ep-1", "0x1.fc906f4841910p-4",
                "-0x1.d9644e82bebc8p-4", "0x1.7828ed5bc75ebp-2"]),
            ("f9fb95fb1752fca701f1bd700d7e39cf", "-0x1.237e0c2e83780p-1", [
                "0x1.680e68c85fa3cp-2", "0x1.ae191b977724fp-4", "-0x1.d0fe7d59112b4p-4",
                "-0x1.a991f57fb5162p-3", "0x1.f67ad0148ef24p-4", "0x1.1f57c2a0a928bp-3",
                "-0x1.55fc3df02d300p-6", "0x1.4eca443c4308cp-5"]),
            ("c95424e108183ac427db53ae223d750e", "-0x1.f8615cc668e4dp+0", [
                "0x1.38a52b585884cp-1", "0x1.f6b98beec0a51p-3", "0x1.4854eaeeeb44dp-1",
                "0x1.b72f5d6d94cf8p-2", "-0x1.265848677c4eep-1", "0x1.d9bec01034125p-3",
                "-0x1.0ff52ee3b1ee0p-7", "0x1.bafca0de58d7ap-2"]),
        ]
        for state_digest, energy_hex, grad_hex in pins:
            params = rng.uniform(-math.pi, math.pi, size=circuit.n_parameters)
            state = evolve(circuit, params)
            assert hashlib.sha256(state.tobytes()).hexdigest()[:32] == state_digest
            energy, grad = energy_and_gradient(circuit, params, evaluator)
            assert energy.hex() == energy_hex
            assert [g.hex() for g in grad] == grad_hex

    def test_jordan_wigner_h2_two_layers(self, h2):
        spec = MappingSpec(JORDAN_WIGNER)
        h = map_to_qubits(build_fermionic_hamiltonian(h2[0]), spec)
        bits = hartree_fock_bitstring(2, 2, spec)
        assert any(bits)
        self.check(h, build_hea(HeaConfig(4, 2), bits), seed=6)

    def test_random_circuit_with_y_terms(self):
        rng = np.random.default_rng(8)
        letters = ["".join(rng.choice(list("IXYZ"), size=4)) for _ in range(12)]
        h = QubitHamiltonian.from_dict(4, {w: float(rng.normal()) for w in letters})
        circuit, _ = random_circuit(4, 30, 9)
        self.check(h, circuit, seed=10)

    def test_no_free_parameters(self):
        h = QubitHamiltonian.from_dict(3, {"ZZI": 1.0})
        energy, grad = energy_and_gradient(ghz(3), [], PauliExpectation(h))
        assert energy == pytest.approx(1.0) and grad.shape == (0,)


class TestExactExpectation:
    def test_z_eigenstates(self):
        h = QubitHamiltonian.from_dict(1, {"Z": 1.0})
        assert exact_expectation(zero_state(1), h) == pytest.approx(1.0)
        one = evolve(Circuit(1, [PauliXGate(0)]), [])
        assert exact_expectation(one, h) == pytest.approx(-1.0)

    def test_matches_dense(self):
        rng = np.random.default_rng(2)
        letters = ["".join(rng.choice(list("IXYZ"), size=4)) for _ in range(10)]
        h = QubitHamiltonian.from_dict(4, {w: float(rng.normal()) for w in letters})
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        dense = h.to_matrix()
        assert exact_expectation(v, h) == pytest.approx(np.real(np.vdot(v, dense @ v)), abs=1e-10)


class TestNoiseModel:
    def test_columns_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ReadoutNoiseModel((((0.9, 0.1), (0.2, 0.9)),))

    def test_flip_tables_stay_small_on_wide_registers(self):
        # one (2^n, n) table of doubles would take 167.8 MB at 20 qubits
        noise = ReadoutNoiseModel.uniform(20, 0.05)
        assert sum(table.nbytes for _, _, table in noise._flip_tables) < 1 << 20

    def test_text_round_trip(self):
        noise = ReadoutNoiseModel.from_flip_probs([0.02, 0.05], [0.01, 0.03])
        again = ReadoutNoiseModel.from_text(noise.to_text())
        assert np.allclose(noise.flip_probs(), again.flip_probs())


class TestSample:
    def test_zero_state_z_basis(self):
        counts = sample(zero_state(2), PauliWord("ZZ"), 100, seed=1)
        assert histogram(counts) == {0b00: 100}

    def test_plus_state_x_basis(self):
        plus = evolve(Circuit(1, [RyGate(0, FrozenSlot(math.pi / 2))]), [])
        counts = sample(plus, PauliWord("X"), 200, seed=1)
        assert histogram(counts) == {0b0: 200}

    def test_flip_rate_within_binomial_band(self):
        noise = ReadoutNoiseModel.from_flip_probs([0.1], [0.0])
        counts = sample(zero_state(1), PauliWord("Z"), 100000, noise=noise, seed=3)
        frac = histogram(counts).get(0b1, 0) / 100000
        assert 0.094 <= frac <= 0.106  # 5 sigma around 0.1

    # basis -> histograms of 1000 shots without and with readout noise
    PINNED_HISTOGRAMS = {
        "X": ({0: 427, 1: 573}, {0: 537, 1: 463}),
        "Y": ({0: 215, 1: 785}, {0: 400, 1: 600}),
        "IZ": ({0: 285, 1: 132, 2: 25, 3: 558}, {0: 231, 1: 305, 2: 51, 3: 413}),
        "XY": ({0: 488, 1: 139, 2: 20, 3: 353}, {0: 373, 1: 293, 2: 59, 3: 275}),
        "YXI": ({0: 45, 1: 228, 2: 115, 3: 171, 4: 209, 5: 92, 6: 7, 7: 133},
                {0: 96, 1: 189, 2: 120, 3: 211, 4: 92, 5: 110, 6: 56, 7: 126}),
        "ZIY": ({0: 545, 1: 231, 2: 10, 3: 9, 4: 20, 5: 5, 6: 111, 7: 69},
                {0: 301, 1: 241, 2: 111, 3: 106, 4: 51, 5: 43, 6: 56, 7: 91}),
        "XYZ": ({0: 5, 1: 203, 2: 112, 3: 62, 4: 216, 5: 202, 6: 39, 7: 161},
                {0: 67, 1: 183, 2: 96, 3: 149, 4: 107, 5: 159, 6: 79, 7: 160}),
    }

    @pytest.mark.parametrize("basis", sorted(PINNED_HISTOGRAMS))
    @pytest.mark.parametrize("noisy", [False, True])
    def test_histograms_are_pinned(self, basis, noisy):
        n = len(basis)
        rng = np.random.default_rng(n)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        noise = ReadoutNoiseModel.from_flip_probs([0.1, 0.2, 0.3][:n], [0.25, 0.05, 0.15][:n])
        counts = sample(state, PauliWord(basis), 1000, noise=noise if noisy else None, seed=40 + n)
        assert counts.outcomes.dtype == np.int64 and counts.counts.dtype == np.int64
        assert histogram(counts) == self.PINNED_HISTOGRAMS[basis][noisy]

    # basis -> (distinct outcomes, sha256 of outcomes and counts) of 3000 noisy
    # shots; the widths put the readout flips across several blocks of qubits
    PINNED_WIDE = {
        "XYZIXYZIXY": (875, "a394fd860594548b2fd2aa4e993a55a8"),
        "ZXYZIXYZIYXZ": (1938, "c7e58112af3662803e8a67a75aadb55e"),
        "YZXIZYXZIZXYZIYXZ": (2945, "3865b09e065110ccc9b0ceebfb1301bd"),
    }

    @pytest.mark.parametrize("basis", sorted(PINNED_WIDE, key=len))
    def test_wide_noisy_histograms_are_pinned(self, basis):
        n = len(basis)
        rng = np.random.default_rng(100 + n)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        noise = ReadoutNoiseModel.from_flip_probs(np.linspace(0.01, 0.3, n), np.linspace(0.25, 0.02, n))
        counts = sample(state, PauliWord(basis), 3000, noise=noise, seed=60 + n)
        digest = hashlib.sha256(counts.outcomes.tobytes() + counts.counts.tobytes()).hexdigest()[:32]
        assert (counts.outcomes.size, digest) == self.PINNED_WIDE[basis]

    @pytest.mark.parametrize("bad", ["nan", "inf", "zero"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_state_without_finite_mass_is_rejected(self, bad, noisy):
        state = evolve(ghz(2), []) if bad != "zero" else np.zeros(4)
        if bad != "zero":
            state[3] = float(bad)
        noise = ReadoutNoiseModel.uniform(2, 0.05) if noisy else None
        with pytest.raises(ValueError):
            sample(state, PauliWord("XZ"), 100, noise=noise, seed=1)

    @pytest.mark.parametrize("width", [1, 3])
    def test_noise_model_of_another_width_is_rejected(self, width):
        noise = ReadoutNoiseModel.uniform(width, 0.05)
        with pytest.raises(ValueError, match=f"covers {width} qubits"):
            sample(evolve(ghz(2), []), PauliWord("ZZ"), 100, noise=noise, seed=1)

    def test_deterministic_given_seed(self):
        state = evolve(ghz(3), [])
        a = sample(state, PauliWord("ZZZ"), 500, seed=9)
        b = sample(state, PauliWord("ZZZ"), 500, seed=9)
        assert histogram(a) == histogram(b)
        assert a.shots == 500


class TestGrouping:
    def test_groups_never_conflict(self):
        rng = np.random.default_rng(5)
        letters = ["".join(rng.choice(list("IXYZ"), size=5)) for _ in range(30)]
        h = QubitHamiltonian.from_dict(5, {w: 1.0 for w in letters}).simplify()
        _, groups = group_qubitwise(h)
        for basis, members in groups:
            for _, mask in members:
                for q in range(5):
                    if mask >> (4 - q) & 1:
                        assert basis.letters[q] != "I"
        # every member's letters agree with the group basis on its support
        term_letters = {t.word.support(): t.word for t in h.terms}

    def test_array_hamiltonian_is_grouped_from_its_masks(self):
        rng = np.random.default_rng(6)
        x, z = rng.integers(0, 1 << 5, size=(2, 40))
        coeffs = rng.normal(size=40)
        h = QubitHamiltonian.from_arrays(5, x, z, coeffs)
        constant, groups = group_qubitwise(h)
        assert h._terms is None
        # the same members, read from the PauliTerm objects
        expected = [(c.real, sum(1 << (4 - q) for q in t.word.support()))
                    for c, t in zip(h.coeffs.tolist(), h.terms) if t.word.support()]
        assert sorted(m for _, members in groups for m in members) == sorted(expected)
        assert constant == sum(c.real for c, t in zip(h.coeffs.tolist(), h.terms)
                               if not t.word.support())

    def test_identity_only(self):
        h = QubitHamiltonian.from_dict(2, {"II": 1.25})
        value, err = sampled_expectation(Circuit(2), [], h, shots=10, seed=0)
        assert value == pytest.approx(1.25) and err == 0.0


def histogram(counts):
    """{basis index: count} of a ShotCounts."""
    return dict(zip(counts.outcomes.tolist(), counts.counts.tolist()))


def tally_reference(counts, members):
    """The former character-by-character tally, kept as the reference."""
    n = counts.basis.n_qubits
    mean = second = 0.0
    for outcome, c in histogram(counts).items():
        bitstring = format(outcome, f"0{n}b")
        v = 0.0
        for coeff, mask in members:
            support = [q for q, bit in enumerate(format(mask, f"0{n}b")) if bit == "1"]
            parity = sum(int(bitstring[q]) for q in support) & 1
            v += coeff * (1.0 - 2.0 * parity)
        w = c / counts.shots
        mean += w * v
        second += w * v * v
    return mean, max(second - mean * mean, 0.0) / counts.shots


def test_tally_counts_matches_character_loop():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        keys = rng.choice(2**n, size=int(rng.integers(1, min(2**n, 40) + 1)), replace=False)
        hist = {int(k): int(rng.integers(1, 500)) for k in keys}
        outcomes = np.array(sorted(hist))
        counts = ShotCounts(outcomes, np.array([hist[k] for k in outcomes]), PauliWord("Z" * n))
        members = [
            (float(rng.normal()), sum(1 << (n - 1 - q) for q in range(n) if rng.random() < 0.5))
            for _ in range(int(rng.integers(1, 6)))
        ]
        assert tally_counts(counts, members) == tally_reference(counts, members)


class TestSampledExpectation:
    def test_consistent_with_exact(self):
        rng = np.random.default_rng(12)
        letters = ["".join(rng.choice(list("IXYZ"), size=4)) for _ in range(8)]
        h = QubitHamiltonian.from_dict(4, {w: float(rng.normal()) for w in letters}).simplify()
        gates, p = [], 0
        for q in range(4):
            gates.append(RyGate(q, FreeSlot(p)))
            p += 1
        gates += [CnotGate(q, q + 1) for q in range(3)]
        c = Circuit(4, gates)
        params = rng.uniform(-2, 2, size=p)
        exact = exact_expectation(evolve(c, params), h)
        value, err = sampled_expectation(c, params, h, shots=20000, seed=77)
        assert abs(value - exact) < 5 * max(err, 1e-12)

    def test_ghz_parity_bias_with_readout_flips(self):
        # uncorrected 2% flips shrink <ZZZZ> by about (1 - 2p)^4
        h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
        noise = ReadoutNoiseModel.uniform(4, 0.02)
        value, err = sampled_expectation(ghz(4), [], h, shots=100000, noise=noise, seed=21)
        assert value == pytest.approx(0.96**4, abs=5 * max(err, 1e-4))

    def test_seed_determinism(self):
        h = QubitHamiltonian.from_dict(2, {"ZZ": 1.0, "XX": 0.5})
        a = sampled_expectation(ghz(2), [], h, shots=1000, seed=4)
        b = sampled_expectation(ghz(2), [], h, shots=1000, seed=4)
        assert a == b
