"""Hardware-efficient ansatz construction, the VQE problem of a molecule, and greedy
gate deparameterisation.

The ansatz is X gates realizing a reference bitstring, then L repetitions of
[an Ry on every qubit, a linear CNOT chain], then a closing Ry layer; the
free parameter count is n_qubits * (L + 1).

Deparameterisation freezes one rotation per step at the candidate angle
nearest its current optimum, re-optimizes the remaining parameters from a
warm start, and keeps the freeze whose energy moves least from the baseline,
stopping as soon as the relative error against the exact ground energy would
exceed the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import vqe as vqe_mod
from .chem import MolecularIntegrals
from .mapping import MappingSpec, build_fermionic_hamiltonian, hartree_fock_bitstring, map_to_qubits
from .simulator import Circuit, CnotGate, FreeSlot, FrozenSlot, PauliXGate, RyGate

DEFAULT_CANDIDATE_ANGLES = (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)

# Angles whose rotation drops out of (or substitutes cheaply into) a compiled
# circuit: identity at 0, +/-pi handled by transpiler substitution.
VIRTUAL_IDENTITY_ANGLES = (0.0, math.pi, -math.pi)


@dataclass(frozen=True)
class HeaConfig:
    """Layer count and register size; the entangler is a linear CNOT chain."""

    n_qubits: int
    layers: int = 1

    def __post_init__(self):
        if self.layers < 0:
            raise ValueError("layers must be >= 0")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")


def build_hea(cfg: HeaConfig, hf_bits: Sequence[int]) -> Circuit:
    """Hardware-efficient ansatz over a reference-bitstring initial state."""
    if len(hf_bits) != cfg.n_qubits:
        raise ValueError(
            f"bitstring length {len(hf_bits)} does not match {cfg.n_qubits} qubits"
        )
    gates = [PauliXGate(q) for q, b in enumerate(hf_bits) if b]
    param = 0
    for _ in range(cfg.layers):
        for q in range(cfg.n_qubits):
            gates.append(RyGate(q, FreeSlot(param)))
            param += 1
        for q in range(cfg.n_qubits - 1):
            gates.append(CnotGate(q, q + 1))
    for q in range(cfg.n_qubits):
        gates.append(RyGate(q, FreeSlot(param)))
        param += 1
    return Circuit(cfg.n_qubits, gates)


def molecular_problem(m: MolecularIntegrals, mapping: MappingSpec = MappingSpec(), layers: int = 1,
                      **settings) -> tuple["vqe_mod.VqeProblem", MappingSpec]:
    """A molecule's mapped Hamiltonian under a ``layers``-layer HEA over its Hartree-Fock bits.

    Returns the VQE problem, whose other fields are ``settings``, and the spec it was mapped
    under, which carries ``m.n_electrons`` for two-qubit reduction and ``decode_statevector``.
    """
    spec = replace(mapping, n_electrons=m.n_electrons)
    h = map_to_qubits(build_fermionic_hamiltonian(m), spec)
    bits = hartree_fock_bitstring(m.n_orbitals, m.n_electrons, spec)
    circuit = build_hea(HeaConfig(h.n_qubits, layers), bits)
    return vqe_mod.VqeProblem(h, circuit, **settings), spec


@dataclass(frozen=True)
class DeparamStep:
    """One accepted freeze."""

    gate_index: int
    angle: float
    energy: float
    relative_error: float
    params_before: int
    params_after: int
    virtual_identity: bool


@dataclass
class DeparamReport:
    """Accepted freezes plus the resulting circuit and parameters."""

    steps: list
    baseline_energy: float
    oracle_energy: float
    tolerance: float
    final_circuit: Circuit

    def to_text(self) -> str:
        lines = [
            f"baseline_energy={self.baseline_energy!r}",
            f"oracle_energy={self.oracle_energy!r}",
            f"tolerance={self.tolerance!r}",
            f"steps={len(self.steps)}",
        ]
        for s in self.steps:
            lines.append(
                f"step gate={s.gate_index} angle={s.angle!r} energy={s.energy!r} "
                f"rel_error={s.relative_error!r} params_before={s.params_before} "
                f"params_after={s.params_after} "
                f"virtual_identity={'true' if s.virtual_identity else 'false'}"
            )
        return "\n".join(lines) + "\n"


def _wrap_angle(theta: float) -> float:
    """Map an angle into (-pi, pi]."""
    out = math.fmod(theta + math.pi, 2.0 * math.pi)
    if out <= 0.0:
        out += 2.0 * math.pi
    return out - math.pi


def nearest_candidate(theta: float, candidates: Sequence[float]) -> float:
    """Closest candidate on the circle; ties prefer smaller magnitude, then 0."""
    theta = _wrap_angle(theta)

    def keys(c):
        return (abs(_wrap_angle(theta - c)), abs(c), 0 if c >= 0 else 1)

    return min(candidates, key=keys)


def _freeze_gate(circuit: Circuit, gate_index: int, angle: float) -> Circuit:
    """Freeze one free Ry gate and renumber the remaining free slots."""
    target = circuit.gates[gate_index]
    if not (isinstance(target, RyGate) and isinstance(target.slot, FreeSlot)):
        raise ValueError(f"gate {gate_index} is not a free rotation")
    dropped = target.slot.index
    gates = []
    for pos, g in enumerate(circuit.gates):
        if pos == gate_index:
            gates.append(RyGate(g.qubit, FrozenSlot(angle)))
        elif isinstance(g, RyGate) and isinstance(g.slot, FreeSlot) and g.slot.index > dropped:
            gates.append(RyGate(g.qubit, FreeSlot(g.slot.index - 1)))
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, gates)


def deparameterise(
    problem: "vqe_mod.VqeProblem",
    oracle_energy: float,
    tolerance: float = 1e-2,
    baseline: Optional["vqe_mod.VqeResult"] = None,
) -> DeparamReport:
    """Greedily freeze rotations to standardized angles.

    The baseline, unless given, solves ``problem`` with all its restarts.
    Each step tries every remaining free rotation at its nearest candidate
    angle, re-optimizes the rest in one run warm-started from the current
    optimum, and accepts the freeze closest in energy to the baseline,
    provided the relative error against ``oracle_energy``, the exact ground
    energy of the problem's Hamiltonian, stays within the tolerance.  Returns
    an empty report when no freeze is admissible.
    """
    if baseline is None:
        baseline = vqe_mod.solve(problem)

    circuit = problem.circuit
    params = np.array(baseline.parameters, dtype=float)
    steps: list[DeparamStep] = []

    while circuit.n_parameters > 0:
        trials = []
        for gate_index, slot_index in circuit.free_gates():
            angle = nearest_candidate(params[slot_index], DEFAULT_CANDIDATE_ANGLES)
            trial_circuit = _freeze_gate(circuit, gate_index, angle)
            warm = np.delete(params, slot_index)
            trial_problem = replace(problem, circuit=trial_circuit, restarts=1)
            result = vqe_mod.solve(trial_problem, x0=warm)
            trials.append((abs(result.energy - baseline.energy), gate_index, angle, result))
        trials.sort(key=lambda t: (t[0], t[1]))
        deviation, gate_index, angle, result = trials[0]
        rel = vqe_mod.relative_error(result.energy, oracle_energy)
        if rel > tolerance:
            break
        circuit = _freeze_gate(circuit, gate_index, angle)
        params = np.array(result.parameters, dtype=float)
        steps.append(
            DeparamStep(
                gate_index=gate_index,
                angle=angle,
                energy=result.energy,
                relative_error=rel,
                params_before=circuit.n_parameters + 1,
                params_after=circuit.n_parameters,
                virtual_identity=any(
                    abs(_wrap_angle(angle - v)) < 1e-12 for v in VIRTUAL_IDENTITY_ANGLES
                ),
            )
        )
    return DeparamReport(
        steps=steps,
        baseline_energy=baseline.energy,
        oracle_energy=oracle_energy,
        tolerance=tolerance,
        final_circuit=circuit,
    )
