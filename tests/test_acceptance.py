"""Acceptance criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Each test pins the criterion's tolerance and wall-clock budget.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from vqemb.ansatz import HeaConfig, build_hea, deparameterise
from vqemb.cli import main as cli_main
from vqemb.dmet import (
    Fragmentation,
    VqeFragmentSolver,
    full_ci_ground_energy,
    run_dmet,
)
from vqemb.mapping import (
    JORDAN_WIGNER,
    PARITY,
    MappingSpec,
    build_fermionic_hamiltonian,
    hartree_fock_bitstring,
    map_to_qubits,
)
from vqemb.mitigation import M3GroupEstimator, TrexGroupEstimator, calibrate, m3_mitigate
from vqemb.pauli import PauliWord, QubitHamiltonian
from vqemb.resources import estimate
from vqemb.simulator import (
    Circuit,
    CnotGate,
    FrozenSlot,
    ReadoutNoiseModel,
    RyGate,
    ShotCounts,
    sampled_expectation,
)
from vqemb.vqe import EstimatorSpec, OptimizerSpec, VqeProblem, relative_error, solve

ROOT = Path(__file__).resolve().parent.parent


def report(name, detail):
    print(f"\nPASS {name}: {detail}")


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.1f}s exceeded the {self.budget}s budget"
            )


def test_criterion_1_oracle_identity(h2):
    m, meta = h2
    with Stopwatch(5) as clock:
        f = build_fermionic_hamiltonian(m)
        e_jw, _ = map_to_qubits(f, MappingSpec(JORDAN_WIGNER)).ground_state_energy()
        e_parity, _ = map_to_qubits(f, MappingSpec(PARITY)).ground_state_energy()
        reduced = map_to_qubits(f, MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=2))
        e_reduced, _ = reduced.ground_state_energy()
        e_sector = full_ci_ground_energy(m)
    assert abs(e_jw - meta["fci_energy"]) < 1e-8
    assert abs(e_parity - e_jw) < 1e-10
    assert abs(e_reduced - e_jw) < 1e-10
    assert abs(e_sector - e_jw) < 1e-10
    report(
        "criterion 1 (oracle identity)",
        f"|JW - FCI| = {abs(e_jw - meta['fci_energy']):.2e}, "
        f"|parity - JW| = {abs(e_parity - e_jw):.2e}, "
        f"|reduced - JW| = {abs(e_reduced - e_jw):.2e}, "
        f"|sector - JW| = {abs(e_sector - e_jw):.2e}, {clock.elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def h2_problem_parts(h2):
    m, _ = h2
    spec = MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=2)
    h = map_to_qubits(build_fermionic_hamiltonian(m), spec)
    circuit = build_hea(HeaConfig(h.n_qubits, 1), hartree_fock_bitstring(2, 2, spec))
    oracle, _ = h.ground_state_energy()
    return h, circuit, oracle


def test_criterion_2_vqe_convergence(h2_problem_parts):
    h, circuit, oracle = h2_problem_parts
    with Stopwatch(60) as clock:
        spsa_result = solve(
            VqeProblem(h, circuit, EstimatorSpec("exact"),
                       OptimizerSpec("spsa", iterations=100), seed=11),
            reference=oracle,
        )
        qn_result = solve(
            VqeProblem(h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton")),
            reference=oracle,
        )
    assert spsa_result.relative_error <= 5e-3
    assert qn_result.relative_error <= 2e-3
    report(
        "criterion 2 (VQE convergence)",
        f"SPSA rel err = {spsa_result.relative_error:.2e} (<= 5e-3), "
        f"quasi-Newton rel err = {qn_result.relative_error:.2e} (<= 2e-3), {clock.elapsed:.1f}s",
    )


def test_criterion_3_deparameterisation():
    h = QubitHamiltonian.from_text((ROOT / "fixtures" / "chain5.ham").read_text())
    circuit = build_hea(HeaConfig(5, 1), [0] * 5)
    assert circuit.n_parameters == 10
    problem = VqeProblem(
        h, circuit, EstimatorSpec("exact"), OptimizerSpec("quasi_newton"),
        initial="random", seed=2, restarts=3,
    )
    with Stopwatch(300) as clock:
        rep = deparameterise(problem, h.ground_state_energy()[0], tolerance=1e-2)
    removed = len(rep.steps)
    assert removed >= 5, f"only {removed} of 10 parameters removed"
    candidates = (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)
    for step in rep.steps:
        assert step.relative_error <= 1e-2
        assert any(abs(step.angle - c) < 1e-12 for c in candidates)
    report(
        "criterion 3 (deparameterisation)",
        f"10 -> {10 - removed} parameters in {removed} steps, "
        f"max step rel err = {max(s.relative_error for s in rep.steps):.2e} (<= 1e-2), "
        f"{clock.elapsed:.1f}s",
    )


def test_criterion_4_mitigation_efficacy():
    ghz = Circuit(4, [RyGate(0, FrozenSlot(math.pi / 2)),
                      CnotGate(0, 1), CnotGate(1, 2), CnotGate(2, 3)])
    h = QubitHamiltonian.from_dict(4, {"ZZZZ": 1.0})
    noise = ReadoutNoiseModel.uniform(4, 0.02)
    with Stopwatch(60) as clock:
        raw, raw_err = sampled_expectation(ghz, [], h, 10000, noise=noise, seed=42)
        cal = calibrate(noise, 100000, seed=7)
        m3_value, m3_err = sampled_expectation(
            ghz, [], h, 10000, noise=noise, mitigator=M3GroupEstimator(cal), seed=42
        )
        trex_value, trex_err = sampled_expectation(
            ghz, [], h, 10000, noise=noise, mitigator=TrexGroupEstimator(20000), seed=42
        )
        # zero-noise pass-throughs
        clean, _ = sampled_expectation(ghz, [], h, 10000, seed=5)
        ident_cal = calibrate(ReadoutNoiseModel.uniform(4, 0.0), 1000, seed=1)
        m3_clean, _ = sampled_expectation(
            ghz, [], h, 10000, mitigator=M3GroupEstimator(ident_cal), seed=5
        )
        counts = ShotCounts(np.array([0b0000, 0b1111]), np.array([6, 4]), PauliWord("ZZZZ"))
        quasi = m3_mitigate(counts, ident_cal)
        trex_clean, trex_clean_err = sampled_expectation(
            ghz, [], h, 10000, noise=None, mitigator=TrexGroupEstimator(10000), seed=5
        )
    assert (1.0 - raw) > 5 * raw_err, "raw estimate is not significantly biased"
    assert abs(m3_value - 1.0) <= 3 * m3_err
    assert abs(trex_value - 1.0) <= 3 * trex_err
    assert m3_clean == clean, "identity-calibration subspace inversion must be a pass-through"
    assert quasi == {0b0000: 0.6, 0b1111: 0.4}
    assert abs(trex_clean - 1.0) <= 5 * max(trex_clean_err, 1e-12)
    report(
        "criterion 4 (mitigation efficacy)",
        f"raw bias = {(1 - raw) / raw_err:.1f} sigma (> 5), "
        f"subspace-inversion dev = {abs(m3_value - 1) / m3_err:.2f} sigma (<= 3), "
        f"twirled-readout dev = {abs(trex_value - 1) / trex_err:.2f} sigma (<= 3), "
        f"pass-throughs exact, {clock.elapsed:.1f}s",
    )


def test_criterion_5_dmet(h2, h4, h2_mf, h4_mf):
    with Stopwatch(600) as clock:
        # whole-molecule-fragment identity on every oracle-sized fixture
        identity_devs = {}
        for name, (m, _), mf in (("h2", h2, h2_mf), ("h4", h4, h4_mf)):
            res = run_dmet(m, mf, Fragmentation((tuple(range(m.n_orbitals)),)))
            identity_devs[name] = abs(res.total_energy - full_ci_ground_energy(m))
            assert identity_devs[name] < 1e-8

        # H4 chain, two 2-orbital fragments, exact solver
        m4, _ = h4
        fci4 = full_ci_ground_energy(m4)
        res4 = run_dmet(m4, h4_mf, Fragmentation(((0, 1), (2, 3))), mu_tol=1e-6)
        assert abs(res4.electron_mismatch) < 1e-6
        assert abs(res4.total_energy - fci4) < 1e-2

        # DMET-VQE vs DMET-exact over 10 seeded runs (2-orbital embeddings)
        m2, _ = h2
        frag2 = Fragmentation(((0,), (1,)))
        exact2 = run_dmet(m2, h2_mf, frag2)
        deviations = []
        for seed in range(10):
            solver = VqeFragmentSolver(
                layers=1,
                optimizer=OptimizerSpec("quasi_newton"),
                estimator=EstimatorSpec("exact"),
                initial="random",
                seed=seed,
            )
            res = run_dmet(m2, h2_mf, frag2, solver=solver)
            deviations.append(abs(res.total_energy - exact2.total_energy))
        assert max(deviations) < 5e-3
    report(
        "criterion 5 (DMET identity and accuracy)",
        f"whole-molecule |E - FCI|: " +
        ", ".join(f"{k} {v:.1e}" for k, v in identity_devs.items()) +
        f" (< 1e-8); H4 2-fragment mismatch = {abs(res4.electron_mismatch):.1e} (< 1e-6), "
        f"|E - FCI| = {abs(res4.total_energy - fci4):.2e} (< 1e-2); "
        f"DMET-VQE vs exact over 10 runs: min/mean/max = "
        f"{min(deviations):.1e}/{np.mean(deviations):.1e}/{max(deviations):.1e} (< 5e-3), "
        f"{clock.elapsed:.1f}s",
    )


def test_criterion_6_resource_table(h10):
    m, _ = h10
    from vqemb.chem import restricted_hartree_fock

    with Stopwatch(120) as clock:
        mf = restricted_hartree_fock(m)
        est = estimate(m, mf, [1, 2, 3, 4], MappingSpec(JORDAN_WIGNER))
    widths = [e.circuit_width for e in est]
    terms = [e.hamiltonian_terms for e in est]
    assert widths == [8, 12, 16, 20]
    assert all(a < b for a, b in zip(terms, terms[1:]))
    report(
        "criterion 6 (resource table)",
        f"widths = {widths}, terms = {terms} (strictly increasing), {clock.elapsed:.1f}s",
    )


def test_criterion_7_determinism(tmp_path):
    comparisons = []
    jobs = [
        ("vqe", ROOT / "configs" / "h2_vqe_sampled.yaml",
         ("vqe_trace.csv", "vqe_result.txt", "vqe_convergence.svg")),
        ("deparam", ROOT / "configs" / "chain5_deparam.yaml",
         ("deparam_report.txt", "deparam_params.csv", "deparam_error.csv")),
        ("dmet", ROOT / "configs" / "h4_dmet.yaml",
         ("dmet_result.txt", "dmet_mu_trace.csv")),
        ("resources", ROOT / "configs" / "h10_resources.yaml",
         ("resources.txt", "resources.csv")),
    ]
    for verb, config, artifacts in jobs:
        out1, out2 = tmp_path / f"{verb}-1", tmp_path / f"{verb}-2"
        for out in (out1, out2):
            code = cli_main([verb, "--config", str(config), "--seed", "9", "--out", str(out)])
            assert code == 0
        for name in artifacts:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{verb}/{name} differs between seeded reruns"
            comparisons.append(f"{verb}/{name}")
    report(
        "criterion 7 (determinism)",
        f"byte-identical artifacts: {', '.join(comparisons)}",
    )
