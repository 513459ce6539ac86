"""End-to-end VQE solves against the dense oracle."""

import math
import re

import numpy as np
import pytest

from vqemb.ansatz import HeaConfig, build_hea
from vqemb.mapping import (
    JORDAN_WIGNER,
    PARITY,
    MappingSpec,
    build_fermionic_hamiltonian,
    hartree_fock_bitstring,
    map_to_qubits,
)
from vqemb import vqe as vqe_mod
from vqemb.pauli import QubitHamiltonian
from vqemb.vqe import EstimatorSpec, OptimizerSpec, VqeProblem, relative_error, solve


@pytest.fixture(scope="module")
def h2_reduced(h2):
    m, meta = h2
    spec = MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=2)
    h = map_to_qubits(build_fermionic_hamiltonian(m), spec)
    bits = hartree_fock_bitstring(2, 2, spec)
    circuit = build_hea(HeaConfig(h.n_qubits, 1), bits)
    oracle, _ = h.ground_state_energy()
    return h, circuit, oracle, meta


class TestRelativeError:
    def test_exact_match(self):
        assert relative_error(-1.0, -1.0) == 0.0

    def test_one_percent(self):
        assert relative_error(-0.99, -1.0) == pytest.approx(0.01)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero reference"):
            relative_error(1.0, 0.0)

    def test_sign_flip_symmetry(self):
        assert relative_error(-0.97, -1.1) == relative_error(0.97, 1.1)


class TestSolve:
    def test_single_qubit_analytic_landscape(self):
        # <Ry(t) 0| -Z |Ry(t) 0> = -cos(t), minimum -1 at t = 0
        h = QubitHamiltonian.from_dict(1, {"Z": -1.0})
        circuit = build_hea(HeaConfig(1, 0), [0])
        result = solve(VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton")))
        assert result.energy == pytest.approx(-1.0, abs=1e-6)

    def test_h2_quasi_newton_reaches_fci(self, h2_reduced):
        h, circuit, oracle, _ = h2_reduced
        result = solve(
            VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton")),
            reference=oracle,
        )
        assert abs(result.energy - oracle) < 2e-3

    def test_h2_spsa_converges(self, h2_reduced):
        h, circuit, oracle, _ = h2_reduced
        result = solve(
            VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("spsa", iterations=100, seed=11)),
            reference=oracle,
        )
        assert result.relative_error <= 5e-3

    def test_variational_bound(self, h2_reduced):
        h, circuit, oracle, _ = h2_reduced
        result = solve(VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton")))
        assert result.energy >= oracle - 1e-9

    def test_energy_equals_trace_best(self, h2_reduced):
        h, circuit, _, _ = h2_reduced
        result = solve(VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("spsa", iterations=40, seed=2)))
        assert result.energy == min(result.trace.values)

    def test_bitwise_reproducible(self, h2_reduced):
        h, circuit, _, _ = h2_reduced
        problem = VqeProblem(
            h, circuit,
            EstimatorSpec("sampled", shots=500, seed=13),
            OptimizerSpec("spsa", iterations=20, seed=7),
        )
        r1, r2 = solve(problem), solve(problem)
        assert r1.energy == r2.energy
        assert r1.trace.values == r2.trace.values
        assert np.array_equal(r1.parameters, r2.parameters)

    def test_multi_start_keeps_best(self, h2_reduced):
        h, circuit, oracle, _ = h2_reduced
        single = solve(VqeProblem(
            h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
            initial="random", initial_seed=8,
        ))
        multi = solve(VqeProblem(
            h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
            initial="random", initial_seed=8, restarts=4,
        ))
        assert multi.energy <= single.energy + 1e-12

    def test_warm_start_is_one_run_whatever_the_restarts(self, h2_reduced, monkeypatch):
        h, circuit, _, _ = h2_reduced
        starts, run = [], vqe_mod.bounded_quasi_newton

        def counted(fun, x0, *args, **kwargs):
            starts.append(np.array(x0))
            return run(fun, x0, *args, **kwargs)

        monkeypatch.setattr(vqe_mod, "bounded_quasi_newton", counted)
        problem = VqeProblem(
            h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
            initial="random", initial_seed=8, restarts=3,
        )
        x0 = np.full(circuit.n_parameters, 0.1)
        result = solve(problem, x0=x0)
        assert len(starts) == 1 and np.array_equal(starts[0], x0)
        assert result.restart_index == 0
        solve(problem)
        assert len(starts) == 1 + problem.restarts

    def test_warm_start_shifted_by_a_period_ends_at_the_same_energy(self, h2_reduced):
        # every free parameter is an Ry angle: the energy is 2π-periodic in each
        h, circuit, _, _ = h2_reduced
        problem = VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"))
        x0 = np.full(circuit.n_parameters, 0.1)
        shifted = solve(problem, x0=x0 + 2.0 * math.pi)
        assert shifted.energy == pytest.approx(solve(problem, x0=x0).energy, abs=1e-10)

    def test_sampled_estimator_requires_seed(self, h2_reduced):
        with pytest.raises(ValueError, match="seed"):
            EstimatorSpec("sampled", shots=100)

    def test_sampled_energies_with_quasi_newton_rejected(self, h2_reduced):
        h, circuit, _, _ = h2_reduced
        with pytest.raises(ValueError, match="exact gradients"):
            VqeProblem(h, circuit, EstimatorSpec("sampled", shots=100, seed=1),
                       OptimizerSpec("quasi_newton"))

    @pytest.mark.parametrize("settings,message", [
        ({"iterations": 0}, "optimizer.iterations must be >= 1, got 0"),
        ({"max_iter": 0}, "optimizer.max_iter must be >= 1, got 0"),
        ({"conv_tol": -1.0}, "optimizer.conv_tol must be finite and >= 0, got -1.0"),
        ({"conv_tol": math.nan}, "optimizer.conv_tol must be finite and >= 0, got nan"),
        ({"conv_tol": math.inf}, "optimizer.conv_tol must be finite and >= 0, got inf"),
    ], ids=["no-iterations", "no-max-iter", "negative-conv-tol", "nan-conv-tol", "inf-conv-tol"])
    def test_bad_optimizer_settings_rejected(self, settings, message):
        # without the check, max_iter=0 ends H2 at -0.883636 and conv_tol=-1 at -0.520567
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimizerSpec(**settings)

    def test_zero_restarts_rejected(self, h2_reduced):
        # without the check, solve runs no optimizer and returns None
        h, circuit, _, _ = h2_reduced
        with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
            VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
                       restarts=0)

    def test_qubit_count_mismatch_rejected(self, h2_reduced):
        h, _, _, _ = h2_reduced
        wrong = build_hea(HeaConfig(h.n_qubits + 1, 1), [0] * (h.n_qubits + 1))
        with pytest.raises(ValueError, match="qubits"):
            VqeProblem(h, wrong, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"))

    def test_result_text_fields(self, h2_reduced):
        h, circuit, oracle, _ = h2_reduced
        result = solve(
            VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton")),
            reference=oracle,
        )
        text = result.to_text()
        assert "energy=" in text and "relative_error=" in text and "parameters=" in text


class TestJordanWignerPath:
    def test_jw_mapping_solvable_with_two_layers(self, h2):
        # the 4-qubit JW register needs a deeper circuit and restarts; checks
        # the solver machinery rather than chemically useful accuracy
        m, _ = h2
        spec = MappingSpec(JORDAN_WIGNER)
        h = map_to_qubits(build_fermionic_hamiltonian(m), spec)
        oracle, _ = h.ground_state_energy()
        circuit = build_hea(HeaConfig(4, 2), hartree_fock_bitstring(2, 2, spec))
        result = solve(VqeProblem(
            h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
            initial="random", initial_seed=4, restarts=6,
        ))
        assert result.energy >= oracle - 1e-9
        assert result.energy < -0.9
