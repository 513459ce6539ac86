"""The benchmark workloads, each a list of ``vqemb`` CLI invocations.

A workload is two parts.  ``deparam_sampled`` runs the chain5
deparameterisation and the 20 sampled H2 VQE runs, the circuit paths;
``dmet_resources`` runs the two H10 DMET fragmentations and the three H10
resource sweeps, the mapping and embedding paths.  ``prepare`` writes the
configs a workload needs into its scratch directory and returns one round of
operations, shuffled by the seed; the operations themselves are fixed, so
every seed does the same work.  ``collect`` reads a round's result files
back for the checks.  Importing this module does not import vqemb.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    out: Path


H10 = "fixtures/h10.fcidump"
DMET_MU_TOL = 1.0e-6
DMET_FRAGMENTATIONS = {
    "5x2": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
    "2+3+3+2": [[0, 1], [2, 3, 4], [5, 6, 7], [8, 9]],
}
RESOURCE_WINDOWS = [1, 2, 3, 4]
RESOURCE_MAPPINGS = {
    "jordan_wigner": ("jordan_wigner", False),
    "parity": ("parity", False),
    "parity_reduced": ("parity", True),
}
SAMPLED_CONFIG = "configs/h2_vqe_sampled.yaml"
SAMPLED_RUNS = {f"{mit}-{s}": (mit, s) for mit in ("m3", "trex") for s in range(10)}
DEPARAM_LABEL = "chain5"


def _op(label: str, verb: str, config, out: Path, *extra) -> Op:
    return Op(label, (verb, "--config", str(config), "--out", str(out), *extra), out)


def _write_config(path: Path, doc: dict) -> Path:
    # JSON is a subset of YAML, so the CLI's YAML loader reads it as is.
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _deparam_ops(scratch: Path) -> list:
    return [_op(DEPARAM_LABEL, "deparam", "configs/chain5_deparam.yaml", scratch / "chain5")]


def _dmet_ops(scratch: Path) -> list:
    ops = []
    for i, (label, frags) in enumerate(DMET_FRAGMENTATIONS.items()):
        cfg = _write_config(scratch / f"dmet{i}.yaml", {
            "system": {"fcidump": H10},
            "dmet": {"fragments": frags, "solver": "exact", "mu_tol": DMET_MU_TOL},
        })
        ops.append(_op(label, "dmet", cfg, scratch / f"dmet{i}"))
    return ops


def _resources_ops(scratch: Path) -> list:
    ops = []
    for label, (kind, reduced) in RESOURCE_MAPPINGS.items():
        cfg = _write_config(scratch / f"{label}.yaml", {
            "system": {"fcidump": H10},
            "mapping": {"kind": kind, "two_qubit_reduction": reduced},
            "resources": {"windows": RESOURCE_WINDOWS},
        })
        ops.append(_op(label, "resources", cfg, scratch / label))
    return ops


def _sampled_ops(scratch: Path) -> list:
    return [
        _op(label, "vqe", SAMPLED_CONFIG, scratch / label,
            "--seed", str(s), "--mitigation", mit)
        for label, (mit, s) in SAMPLED_RUNS.items()
    ]


PARTS = {
    "deparam": _deparam_ops,
    "dmet": _dmet_ops,
    "resources": _resources_ops,
    "sampled": _sampled_ops,
}
WORKLOADS = {
    "deparam_sampled": ("deparam", "sampled"),
    "dmet_resources": ("dmet", "resources"),
}


def prepare(name: str, scratch: Path, seed: int) -> list:
    scratch.mkdir(parents=True, exist_ok=True)
    ops = [op for part in WORKLOADS[name] for op in PARTS[part](scratch)]
    random.Random(seed).shuffle(ops)
    return ops


RESULT_FILE = {
    "deparam": "deparam_report.txt",
    "dmet": "dmet_result.txt",
    "resources": "resources.csv",
    "vqe": "vqe_result.txt",
}


def collect(ops: list) -> dict:
    """Result-file text of every operation, by label."""
    return {op.label: (op.out / RESULT_FILE[op.argv[0]]).read_text() for op in ops}


def describe_sampled_problem() -> dict:
    """Qubit Hamiltonian and ansatz gates of the sampled-VQE config.

    Built with the package's public API from the same config the CLI reads,
    so the checks can evaluate returned parameters with their own dense
    matrices.
    """
    import yaml
    from vqemb import (
        HeaConfig, MappingSpec, build_fermionic_hamiltonian, build_hea,
        hartree_fock_bitstring, map_to_qubits, parse_fcidump,
    )
    from vqemb.simulator import CnotGate, FreeSlot, PauliXGate

    cfg = yaml.safe_load(Path(SAMPLED_CONFIG).read_text())
    m = parse_fcidump(Path(cfg["system"]["fcidump"]).read_text())
    mapping = cfg["mapping"]
    spec = MappingSpec(
        kind=mapping["kind"],
        two_qubit_reduction=mapping["two_qubit_reduction"],
        n_electrons=m.n_electrons,
    )
    h = map_to_qubits(build_fermionic_hamiltonian(m), spec)
    circuit = build_hea(
        HeaConfig(h.n_qubits, cfg["ansatz"]["layers"]),
        hartree_fock_bitstring(m.n_orbitals, m.n_electrons, spec),
    )
    gates = []
    for g in circuit.gates:
        if isinstance(g, PauliXGate):
            gates.append(("x", g.qubit))
        elif isinstance(g, CnotGate):
            gates.append(("cnot", g.control, g.target))
        elif isinstance(g.slot, FreeSlot):
            gates.append(("ry", g.qubit, g.slot.index, None))
        else:
            gates.append(("ry", g.qubit, None, g.slot.angle))
    return {"hamiltonian": h.to_text(), "n_qubits": h.n_qubits, "gates": gates}
