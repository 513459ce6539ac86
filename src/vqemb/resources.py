"""Resource estimation for active-space windows: circuit width and
Hamiltonian term counts after mapping.

Window k here means the orbital span HOMO-k ... LUMO+k, i.e. k+1 occupied
and k+1 virtual orbitals, so the Jordan-Wigner width grows as 4k + 4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .chem import MeanField, MolecularIntegrals, active_space
from .mapping import MappingSpec, build_fermionic_hamiltonian, map_to_qubits


@dataclass(frozen=True)
class ResourceEstimate:
    window: int
    circuit_width: int
    hamiltonian_terms: int
    mapping_kind: str


def estimate(
    m: MolecularIntegrals,
    mf: MeanField,
    windows: Sequence[int],
    spec: MappingSpec = MappingSpec(),
) -> list[ResourceEstimate]:
    """Width and post-simplification term count for each HOMO-k/LUMO+k window."""
    out = []
    for k in windows:
        if k < 0:
            raise ValueError("window must be >= 0")
        reduced, _ = active_space(m, mf, window=k + 1)
        window_spec = spec
        if spec.two_qubit_reduction:
            window_spec = replace(spec, n_electrons=reduced.n_electrons)
        h = map_to_qubits(build_fermionic_hamiltonian(reduced), window_spec)
        out.append(
            ResourceEstimate(
                window=k,
                circuit_width=h.n_qubits,
                hamiltonian_terms=len(h),
                mapping_kind=spec.kind + ("_reduced" if spec.two_qubit_reduction else ""),
            )
        )
    return out


def format_table(estimates: Sequence[ResourceEstimate]) -> str:
    """Aligned text table, windows as columns."""
    header = ["HOMO-LUMO"] + [str(e.window) for e in estimates]
    widths = ["Circuit Width"] + [str(e.circuit_width) for e in estimates]
    terms = ["Hamiltonian Terms"] + [str(e.hamiltonian_terms) for e in estimates]
    cols = [max(len(r[i]) for r in (header, widths, terms)) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(c) for cell, c in zip(row, cols)).rstrip()
        for row in (header, widths, terms)
    ]
    return "\n".join(lines) + "\n"


def to_csv(estimates: Sequence[ResourceEstimate]) -> str:
    lines = ["window,circuit_width,hamiltonian_terms,mapping"]
    for e in estimates:
        lines.append(f"{e.window},{e.circuit_width},{e.hamiltonian_terms},{e.mapping_kind}")
    return "\n".join(lines) + "\n"
