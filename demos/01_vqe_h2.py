"""Ground-state VQE on the shipped H2 integrals.

Walks the full pipeline: parse FCIDUMP integrals, run restricted
Hartree-Fock, map to qubits with the parity encoding plus two-qubit
reduction, build a one-layer hardware-efficient ansatz from the
Hartree-Fock bitstring, and optimize with both SPSA and the
quasi-Newton driver.  Energies are compared against the dense
exact-diagonalization oracle and the convergence curve is written as SVG.
"""

from dataclasses import replace
from pathlib import Path

from vqemb import (
    EstimatorSpec,
    MappingSpec,
    OptimizerSpec,
    molecular_problem,
    parse_fcidump,
    restricted_hartree_fock,
    solve,
)
from vqemb.svg import line_plot

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "demo_out"

integrals = parse_fcidump((ROOT / "fixtures" / "h2.fcidump").read_text())
mf = restricted_hartree_fock(integrals)
print(f"Hartree-Fock energy:     {mf.hf_energy:.8f} Ha")

# the mapped Hamiltonian and the one-layer ansatz over the Hartree-Fock bits, in one call
problem, _ = molecular_problem(
    integrals, MappingSpec("parity", two_qubit_reduction=True), layers=1,
    estimator=EstimatorSpec("exact"), optimizer=OptimizerSpec("spsa", iterations=100), seed=11,
)
hamiltonian, circuit = problem.hamiltonian, problem.circuit
oracle, _ = hamiltonian.ground_state_energy()
print(f"exact ground energy:     {oracle:.8f} Ha  ({hamiltonian.n_qubits} qubits, {len(hamiltonian)} terms)")
print(f"ansatz: {circuit.n_parameters} free rotations over {circuit.n_qubits} qubits")

spsa_run = solve(problem, reference=oracle)
print(f"SPSA (100 iterations):   {spsa_run.energy:.8f} Ha  rel err {spsa_run.relative_error:.2e}")

newton_run = solve(replace(problem, optimizer=OptimizerSpec("quasi_newton")), reference=oracle)
print(f"quasi-Newton:            {newton_run.energy:.8f} Ha  rel err {newton_run.relative_error:.2e}")

OUT.mkdir(exist_ok=True)
xs = list(range(len(spsa_run.trace.values)))
(OUT / "vqe_h2_convergence.svg").write_text(
    line_plot(
        "SPSA objective", xs, spsa_run.trace.values,
        title="VQE on H2 (parity, 2 qubits)",
        xlabel="evaluation",
        ylabel="energy (Ha)",
        hline=("exact", oracle),
    )
)
print(f"wrote {OUT / 'vqe_h2_convergence.svg'}")
