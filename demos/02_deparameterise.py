"""Greedy deparameterisation of a one-layer ansatz.

A 5-qubit transverse-field chain is solved with a 10-parameter ansatz;
rotations are then frozen one at a time at standardized angles
(0, +-pi/2, +-pi) while the relative error against the exact ground
energy stays inside the tolerance.  Prints the freeze schedule.
"""

from pathlib import Path

from vqemb import (
    EstimatorSpec,
    HeaConfig,
    OptimizerSpec,
    QubitHamiltonian,
    VqeProblem,
    build_hea,
    deparameterise,
    relative_error,
)

ROOT = Path(__file__).resolve().parent.parent

hamiltonian = QubitHamiltonian.from_text((ROOT / "fixtures" / "chain5.ham").read_text())
oracle, _ = hamiltonian.ground_state_energy()
print(f"exact ground energy: {oracle:.8f}")

circuit = build_hea(HeaConfig(5, layers=1), [0] * 5)
problem = VqeProblem(
    hamiltonian,
    circuit,
    EstimatorSpec("exact"),
    OptimizerSpec("quasi_newton"),
    initial="random",
    seed=2,
    restarts=3,
)
report = deparameterise(problem, oracle, tolerance=1e-2)
print(f"baseline VQE: {report.baseline_energy:.8f}  "
      f"rel err {relative_error(report.baseline_energy, oracle):.2e}  "
      f"({circuit.n_parameters} parameters)")
print(f"\n{'step':>4} {'gate':>4} {'angle':>9} {'energy':>12} {'rel err':>9} {'params':>7}")
for i, step in enumerate(report.steps, start=1):
    tag = " (virtual identity)" if step.virtual_identity else ""
    print(f"{i:>4} {step.gate_index:>4} {step.angle:>+9.4f} {step.energy:>12.6f} "
          f"{step.relative_error:>9.1e} {step.params_after:>7}{tag}")

print(f"\n{circuit.n_parameters} -> {report.final_circuit.n_parameters} trainable parameters")
