"""VQE driver: ties a qubit Hamiltonian, a parameterized circuit, an energy
estimator, and a classical optimizer into one seeded, reproducible solve."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mitigation
from .optimize import OptimizerTrace, bounded_quasi_newton, spsa
from .pauli import PauliExpectation, QubitHamiltonian
from .simulator import (
    Circuit,
    ReadoutNoiseModel,
    energy_and_gradient,
    evolve,
    group_qubitwise,
    sampled_expectation,
)

# Calibration shots of the M3 assignment matrices and of the TREX attenuations.
_CALIBRATION_SHOTS = 20000


@dataclass(frozen=True)
class EstimatorSpec:
    """How the energy is evaluated: exact statevector or shot-based."""

    kind: str = "exact"  # exact | sampled
    shots: int = 1000
    noise: Optional[ReadoutNoiseModel] = None
    mitigation: str = "none"  # none | m3 | trex

    def __post_init__(self):
        if self.kind not in ("exact", "sampled"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.mitigation not in ("none", "m3", "trex"):
            raise ValueError(f"unknown mitigation kind {self.mitigation!r}")
        if self.shots <= 0:
            raise ValueError(f"estimator.shots must be positive, got {self.shots}")


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "quasi_newton"  # quasi_newton | spsa
    iterations: int = 100
    conv_tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.kind not in ("quasi_newton", "spsa"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        for name in ("iterations", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"optimizer.{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.conv_tol < math.inf:
            raise ValueError(f"optimizer.conv_tol must be finite and >= 0, got {self.conv_tol}")


def check_settings(estimator: EstimatorSpec, optimizer: OptimizerSpec, initial: str = "zeros",
                   seed: Optional[int] = None, restarts: int = 1):
    """The checks that need the VQE settings alone: a known start policy, at least one start,
    the seed that every random stream of the run reads (random starts, multi-start, shot
    sampling, SPSA), and an optimizer the estimator can serve (quasi-Newton needs exact
    gradients, which shot-based energies do not have)."""
    if initial not in ("zeros", "random"):
        raise ValueError(f"unknown initial-parameter policy {initial!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if seed is None and (initial == "random" or restarts > 1 or estimator.kind == "sampled"
                         or optimizer.kind == "spsa"):
        raise ValueError("a random start, multi-start, sampled estimation or SPSA needs vqe.seed")
    if estimator.kind == "sampled" and optimizer.kind == "quasi_newton":
        raise ValueError(
            "the quasi-Newton optimizer needs exact gradients; "
            "use optimizer spsa with a sampled estimator"
        )


class NoiseWidthError(ValueError):
    """A readout noise model whose width is not that of the register it reads."""


def check_noise_width(noise: Optional[ReadoutNoiseModel], n_qubits: int):
    if noise is not None and noise.n_qubits != n_qubits:
        raise NoiseWidthError(
            f"estimator.noise: the noise model acts on {noise.n_qubits} qubits "
            f"but the register has {n_qubits} qubits"
        )


@dataclass(frozen=True)
class VqeProblem:
    hamiltonian: QubitHamiltonian
    circuit: Circuit
    estimator: EstimatorSpec = EstimatorSpec()
    optimizer: OptimizerSpec = OptimizerSpec()
    initial: str = "zeros"  # zeros | random
    seed: Optional[int] = None  # of every random stream: starts, shots, calibration, SPSA
    restarts: int = 1

    def __post_init__(self):
        if self.circuit.n_qubits != self.hamiltonian.n_qubits:
            raise ValueError(
                f"circuit acts on {self.circuit.n_qubits} qubits but the "
                f"Hamiltonian has {self.hamiltonian.n_qubits}"
            )
        check_noise_width(self.estimator.noise, self.hamiltonian.n_qubits)
        check_settings(self.estimator, self.optimizer, self.initial, self.seed, self.restarts)


@dataclass
class VqeResult:
    energy: float
    parameters: np.ndarray
    trace: OptimizerTrace
    relative_error: Optional[float] = None
    restart_index: int = 0

    def to_text(self) -> str:
        lines = [
            f"energy={self.energy!r}",
            f"relative_error={'none' if self.relative_error is None else repr(self.relative_error)}",
            f"restart_index={self.restart_index}",
            f"n_parameters={len(self.parameters)}",
            "parameters=" + ",".join(repr(float(p)) for p in self.parameters),
        ]
        return "\n".join(lines) + "\n"


def relative_error(energy: float, reference: float) -> float:
    """|energy - reference| / |reference| (the accuracy metric of the tables)."""
    if reference == 0:
        raise ValueError("relative error is undefined for a zero reference")
    return abs(energy - reference) / abs(reference)


def build_objective(problem: VqeProblem):
    """Energy-evaluation closure for the configured estimator."""
    est = problem.estimator
    if est.kind == "exact":
        evaluator = PauliExpectation(problem.hamiltonian)

        def objective(params):
            return evaluator(evolve(problem.circuit, params))

        return objective

    mitigator = None
    if est.mitigation == "m3":
        cal = mitigation.calibrate(
            est.noise
            if est.noise is not None
            else ReadoutNoiseModel.uniform(problem.circuit.n_qubits, 0.0),
            _CALIBRATION_SHOTS,
            seed=problem.seed,
        )
        mitigator = mitigation.M3GroupEstimator(cal)
    elif est.mitigation == "trex":
        mitigator = mitigation.TrexGroupEstimator(cal_shots=_CALIBRATION_SHOTS)

    rng = np.random.default_rng(problem.seed)
    grouped = group_qubitwise(problem.hamiltonian)

    def objective(params):
        sub_seed = int(rng.integers(0, 2**63 - 1))
        value, _ = sampled_expectation(
            problem.circuit,
            params,
            grouped,
            est.shots,
            noise=est.noise,
            mitigator=mitigator,
            seed=sub_seed,
        )
        return value

    return objective


def _initial_vector(problem: VqeProblem, restart: int, init_rng) -> np.ndarray:
    n = problem.circuit.n_parameters
    if problem.initial == "zeros" and restart == 0:
        return np.zeros(n)
    return init_rng.uniform(-math.pi, math.pi, size=n)


def _optimizer_runner(problem: VqeProblem):
    """Function from a start point to (parameters, trace) for the configured optimizer."""
    opt = problem.optimizer
    if opt.kind == "spsa":
        objective = build_objective(problem)
        return lambda x0: spsa(objective, x0, iterations=opt.iterations, seed=problem.seed)
    # quasi-Newton: VqeProblem admits it only with the exact estimator
    evaluator = PauliExpectation(problem.hamiltonian)

    def energy_gradient(params):
        return energy_and_gradient(problem.circuit, params, evaluator)

    return lambda x0: bounded_quasi_newton(
        energy_gradient, x0, conv_tol=opt.conv_tol, max_iter=opt.max_iter
    )


def solve(
    problem: VqeProblem,
    x0: Optional[np.ndarray] = None,
    reference: Optional[float] = None,
) -> VqeResult:
    """Minimize the estimated energy over the circuit's free parameters.

    ``x0`` is a warm start: one optimizer run from it, whatever
    ``problem.restarts`` says.  ``reference`` fills in the relative-error
    field.  Deterministic for a fixed ``problem.seed``: the start draws, the
    shot sampling with its M3 calibration, and SPSA each draw from their own
    ``np.random.default_rng(problem.seed)``.
    """
    if problem.circuit.n_parameters == 0:
        trace = OptimizerTrace()
        value = float(build_objective(problem)(np.zeros(0)))
        trace.record(0, value, np.zeros(0))
        result = VqeResult(value, np.zeros(0), trace)
        if reference is not None:
            result.relative_error = relative_error(value, reference)
        return result
    run = _optimizer_runner(problem)
    init_rng = np.random.default_rng(problem.seed)
    best = None
    for r in range(1 if x0 is not None else problem.restarts):
        start = x0 if x0 is not None else _initial_vector(problem, r, init_rng)
        params, trace = run(start)
        energy, best_params = trace.best()
        if best is None or energy < best.energy:
            best = VqeResult(energy, best_params, trace, restart_index=r)
    if reference is not None:
        best.relative_error = relative_error(best.energy, reference)
    return best
