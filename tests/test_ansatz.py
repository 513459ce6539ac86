"""Hardware-efficient ansatz structure and the deparameterisation loop."""

import math

import numpy as np
import pytest

import vqemb.vqe as vqe_mod
from vqemb.ansatz import (
    DEFAULT_CANDIDATE_ANGLES,
    HeaConfig,
    build_hea,
    deparameterise,
    molecular_problem,
    nearest_candidate,
)
from vqemb.dmet import _rhf_basis, build_embedding
from vqemb.mapping import (
    JORDAN_WIGNER,
    PARITY,
    MappingSpec,
    build_fermionic_hamiltonian,
    hartree_fock_bitstring,
    map_to_qubits,
)
from vqemb.pauli import QubitHamiltonian
from vqemb.simulator import CnotGate, PauliXGate, evolve
from vqemb.vqe import EstimatorSpec, OptimizerSpec, VqeProblem


def field_chain(n, g):
    """-sum X_i - g * sum Z_i Z_{i+1}; product ground state at g = 0."""
    terms = {}
    for q in range(n):
        terms["I" * q + "X" + "I" * (n - 1 - q)] = -1.0
    for q in range(n - 1):
        terms["I" * q + "ZZ" + "I" * (n - 2 - q)] = -g
    return QubitHamiltonian.from_dict(n, terms)


def _count_calls(monkeypatch, name):
    """Wrap ``vqemb.vqe.<name>`` so that each call appends its arguments to the returned list."""
    calls, original = [], getattr(vqe_mod, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(vqe_mod, name, counting)
    return calls


class TestBuildHea:
    @pytest.mark.parametrize("n,layers", [(1, 0), (2, 1), (5, 1), (8, 2), (3, 4)])
    def test_parameter_count(self, n, layers):
        c = build_hea(HeaConfig(n, layers), [0] * n)
        assert c.n_parameters == n * (layers + 1)

    def test_five_qubits_one_layer_has_ten_parameters(self):
        assert build_hea(HeaConfig(5, 1), [0] * 5).n_parameters == 10

    def test_single_qubit_no_entanglers(self):
        c = build_hea(HeaConfig(1, 0), [0])
        assert c.n_parameters == 1
        assert not any(isinstance(g, CnotGate) for g in c.gates)

    def test_eight_qubit_two_layer_gate_tally(self):
        c = build_hea(HeaConfig(8, 2), [0] * 8)
        assert c.n_parameters == 24
        assert sum(isinstance(g, CnotGate) for g in c.gates) == 14

    def test_x_gates_realize_bitstring(self):
        c = build_hea(HeaConfig(4, 0), [1, 0, 1, 0])
        xs = [g.qubit for g in c.gates if isinstance(g, PauliXGate)]
        assert xs == [0, 2]

    def test_zero_params_prepare_reference_when_no_set_controls(self):
        # with an all-zero reference the CNOT chain is inert
        c = build_hea(HeaConfig(3, 2), [0, 0, 0])
        state = evolve(c, np.zeros(c.n_parameters))
        assert abs(state[0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_params_equal_entanglers_on_reference(self):
        # with set control bits the state equals the CNOT chain applied to
        # the reference bitstring, not the reference itself
        from vqemb.simulator import Circuit

        bits = [1, 1, 0, 0]
        c = build_hea(HeaConfig(4, 1), bits)
        state = evolve(c, np.zeros(c.n_parameters))
        ref_gates = [PauliXGate(q) for q, b in enumerate(bits) if b]
        ref_gates += [CnotGate(q, q + 1) for q in range(3)]
        expected = evolve(Circuit(4, ref_gates), [])
        assert np.allclose(state, expected, atol=1e-12)

    def test_bit_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            build_hea(HeaConfig(3, 1), [0, 1])


class TestMolecularProblem:
    @pytest.fixture(params=["h2", "h4-embedding"])
    def integrals(self, request, h4, h4_mf):
        if request.param == "h2":
            return request.getfixturevalue("h2")[0]
        # the H4 embedding of orbitals 0 and 1 in its mean-field orbitals, as a VQE solve sees it
        return _rhf_basis(build_embedding(h4[0], h4_mf, (0, 1)), 0.0, None)[0]

    @pytest.mark.parametrize("mapping", [MappingSpec(JORDAN_WIGNER), MappingSpec(PARITY),
                                         MappingSpec(PARITY, two_qubit_reduction=True)],
                             ids=["jw", "parity", "reduced-parity"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_the_hand_assembled_chain(self, integrals, mapping, layers):
        m = integrals
        settings = {"initial": "random", "seed": 3, "restarts": 2}
        problem, spec = molecular_problem(m, mapping, layers, **settings)
        hand_spec = mapping  # counted only where the reduction reads the count
        if mapping.two_qubit_reduction:
            hand_spec = MappingSpec(PARITY, True, n_electrons=m.n_electrons)
        h = map_to_qubits(build_fermionic_hamiltonian(m), hand_spec)
        bits = hartree_fock_bitstring(m.n_orbitals, m.n_electrons, hand_spec)
        circuit = build_hea(HeaConfig(h.n_qubits, layers), bits)
        assert problem.hamiltonian.to_text() == h.to_text()
        assert problem.circuit.n_qubits == circuit.n_qubits
        assert problem.circuit.gates == circuit.gates
        x_qubits = [g.qubit for g in problem.circuit.gates if isinstance(g, PauliXGate)]
        assert x_qubits == [q for q, b in enumerate(bits) if b] and any(bits)
        assert spec == MappingSpec(mapping.kind, mapping.two_qubit_reduction, m.n_electrons)
        assert (problem.initial, problem.seed, problem.restarts) == ("random", 3, 2)

    def test_settings_are_checked_by_the_problem(self, h2):
        with pytest.raises(ValueError,
                           match="a random start, multi-start, sampled estimation or SPSA needs vqe.seed"):
            molecular_problem(h2[0], restarts=2)


class TestNearestCandidate:
    def test_exact_hits(self):
        # -pi and +pi are the same rotation up to a global phase, so either
        # may come back for the pair; the rest must hit exactly
        for c in DEFAULT_CANDIDATE_ANGLES:
            got = nearest_candidate(c)
            if abs(c) == math.pi:
                assert abs(got) == math.pi
            else:
                assert got == c

    def test_tie_prefers_zero(self):
        assert nearest_candidate(math.pi / 4) == 0.0
        assert nearest_candidate(-math.pi / 4) == 0.0

    def test_wraps_large_angles(self):
        assert nearest_candidate(2 * math.pi + 0.1) == 0.0

    def test_pi_region(self):
        assert abs(nearest_candidate(3.0)) == pytest.approx(math.pi)


class TestDeparameterise:
    def test_single_qubit_toy_reaches_zero_parameters(self):
        # H = -Z, reference |0>, 1-parameter ansatz: theta* = 0 freezes cleanly
        h = QubitHamiltonian.from_dict(1, {"Z": -1.0})
        circ = build_hea(HeaConfig(1, 0), [0])
        problem = VqeProblem(h, circ, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"))
        report = deparameterise(problem, h.ground_state_energy()[0], tolerance=1e-6)
        assert len(report.steps) == 1
        assert report.steps[0].angle == 0.0
        assert report.steps[0].virtual_identity
        assert report.final_circuit.n_parameters == 0
        assert report.steps[0].params_before == 1 and report.steps[0].params_after == 0

    def test_accepted_steps_within_tolerance(self):
        rng = np.random.default_rng(20)
        diag = {"".join(w): float(rng.normal()) for w in
                {tuple(rng.choice(list("IZ"), size=4)) for _ in range(6)}}
        h = QubitHamiltonian.from_dict(4, diag).simplify()
        circ = build_hea(HeaConfig(4, 1), [0] * 4)
        problem = VqeProblem(
            h, circ, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
            initial="random", seed=1, restarts=2,
        )
        report = deparameterise(problem, h.ground_state_energy()[0], tolerance=1e-2)
        for step in report.steps:
            assert step.relative_error <= 1e-2
        assert all(
            any(abs(step.angle - c) < 1e-12 for c in DEFAULT_CANDIDATE_ANGLES)
            for step in report.steps
        )

    def test_parameter_count_strictly_decreases(self):
        h = field_chain(3, 0.2)
        circ = build_hea(HeaConfig(3, 1), [0] * 3)
        problem = VqeProblem(
            h, circ, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
            initial="random", seed=3, restarts=2,
        )
        report = deparameterise(problem, h.ground_state_energy()[0], tolerance=1e-2)
        counts = [s.params_after for s in report.steps]
        assert counts == sorted(counts, reverse=True)
        if report.steps:
            assert report.steps[-1].params_after == report.final_circuit.n_parameters

    def test_each_trial_runs_once_from_its_warm_start(self, monkeypatch):
        # the baseline runs every configured restart; a trial only its warm start
        solves = _count_calls(monkeypatch, "solve")
        runs = _count_calls(monkeypatch, "bounded_quasi_newton")
        h = field_chain(3, 0.2)
        problem = VqeProblem(
            h, build_hea(HeaConfig(3, 1), [0] * 3), EstimatorSpec("exact"),
            OptimizerSpec("quasi_newton"), initial="random", seed=3, restarts=3,
        )
        report = deparameterise(problem, h.ground_state_energy()[0], tolerance=1e-2)
        # a trial with no free rotation left is evaluated, not optimized
        optimized = [args for args in solves[1:] if args[0].circuit.n_parameters]
        assert report.steps and optimized
        assert len(runs) == problem.restarts + len(optimized)

    def test_zero_tolerance_stops_early(self):
        h = field_chain(2, 0.5)
        circ = build_hea(HeaConfig(2, 1), [0, 0])
        problem = VqeProblem(
            h, circ, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
            initial="random", seed=5,
        )
        report = deparameterise(problem, h.ground_state_energy()[0], tolerance=0.0)
        assert len(report.steps) <= 1

    def test_report_text_round_trip_fields(self):
        h = QubitHamiltonian.from_dict(1, {"Z": -1.0})
        circ = build_hea(HeaConfig(1, 0), [0])
        problem = VqeProblem(h, circ, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"))
        text = deparameterise(problem, h.ground_state_energy()[0], tolerance=1e-6).to_text()
        assert "baseline_energy=" in text and "step gate=" in text
