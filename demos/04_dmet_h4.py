"""Density-matrix embedding on hydrogen chains.

Shows the key identities and the chemical-potential loop: a whole-molecule
fragment reproduces full CI exactly, orbital-pair fragments of the H4 chain
stay within millihartrees, single-orbital fragments drive a real
Newton-Raphson search for the chemical potential, and a VQE fragment solver
reproduces the exact-solver result on H2.
"""

from pathlib import Path

from vqemb import (
    EstimatorSpec,
    Fragmentation,
    OptimizerSpec,
    VqeFragmentSolver,
    full_ci_ground_energy,
    parse_fcidump,
    restricted_hartree_fock,
    run_dmet,
)

ROOT = Path(__file__).resolve().parent.parent

h4 = parse_fcidump((ROOT / "fixtures" / "h4.fcidump").read_text())
mf4 = restricted_hartree_fock(h4)
fci4 = full_ci_ground_energy(h4)
print(f"H4 chain: HF {mf4.hf_energy:.8f}, FCI {fci4:.8f}\n")

whole = run_dmet(h4, mf4, Fragmentation(((0, 1, 2, 3),)))
print(f"whole-molecule fragment:   E = {whole.total_energy:.8f}  "
      f"|E - FCI| = {abs(whole.total_energy - fci4):.1e}  mu = {whole.mu:+.4f}")

pairs = run_dmet(h4, mf4, Fragmentation(((0, 1), (2, 3))))
print(f"two 2-orbital fragments:   E = {pairs.total_energy:.8f}  "
      f"|E - FCI| = {abs(pairs.total_energy - fci4):.1e}  mu = {pairs.mu:+.4f}")

atoms = run_dmet(h4, mf4, Fragmentation(((0,), (1,), (2,), (3,))))
print(f"four 1-orbital fragments:  E = {atoms.total_energy:.8f}  "
      f"|E - FCI| = {abs(atoms.total_energy - fci4):.1e}  mu = {atoms.mu:+.6f}")
print("  chemical-potential trace:")
for mu, mismatch in atoms.trace:
    print(f"    mu = {mu:+.6f}   electron mismatch = {mismatch:+.2e}")

h2 = parse_fcidump((ROOT / "fixtures" / "h2.fcidump").read_text())
mf2 = restricted_hartree_fock(h2)
frag2 = Fragmentation(((0,), (1,)))
exact = run_dmet(h2, mf2, frag2)
solver = VqeFragmentSolver(
    layers=1,
    optimizer=OptimizerSpec("quasi_newton"),
    estimator=EstimatorSpec("exact"),
    initial="random",
    seed=3,
)
via_vqe = run_dmet(h2, mf2, frag2, solver=solver)
print(f"\nH2 single-orbital fragments:")
print(f"  exact fragment solver: E = {exact.total_energy:.8f}")
print(f"  VQE fragment solver:   E = {via_vqe.total_energy:.8f}  "
      f"|diff| = {abs(via_vqe.total_energy - exact.total_energy):.1e}")
