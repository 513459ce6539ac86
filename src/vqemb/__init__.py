"""vqemb: variational quantum eigensolver and density-matrix embedding toolkit.

Statevector VQE with hardware-efficient ansatzes and gate deparameterisation,
DMET with exact or VQE fragment solvers, readout-error mitigation, and
active-space resource estimation, all checkable at desk scale against an
exact oracle: full CI in the determinant basis for a molecule, dense
diagonalization for a bare qubit Hamiltonian.
"""

from .ansatz import DeparamReport, HeaConfig, build_hea, deparameterise, molecular_problem
from .chem import (
    MeanField,
    MolecularIntegrals,
    active_space,
    parse_fcidump,
    restricted_hartree_fock,
)
from .dmet import (
    DmetResult,
    EmbeddingProblem,
    ExactFragmentSolver,
    Fragmentation,
    VqeFragmentSolver,
    build_embedding,
    full_ci_ground_energy,
    make_bath,
    run_dmet,
    solve_fragment,
)
from .mapping import (
    FermionOperator,
    MappingSpec,
    build_fermionic_hamiltonian,
    hartree_fock_bitstring,
    map_to_qubits,
)
from .mitigation import calibrate, m3_mitigate
from .optimize import OptimizerTrace, bounded_quasi_newton, spsa
from .pauli import PauliTerm, PauliWord, QubitHamiltonian
from .resources import ResourceEstimate, estimate
from .simulator import (
    Circuit,
    CnotGate,
    FreeSlot,
    FrozenSlot,
    PauliXGate,
    RawGroupEstimator,
    ReadoutNoiseModel,
    RyGate,
    ShotCounts,
    energy_and_gradient,
    evolve,
    group_qubitwise,
    sample,
    sampled_expectation,
)
from .vqe import EstimatorSpec, OptimizerSpec, VqeProblem, VqeResult, relative_error, solve

__version__ = "0.1.0"
