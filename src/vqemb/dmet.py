"""Density-matrix embedding: Schmidt bath construction, embedding Hamiltonians,
fragment solvers, chemical-potential matching, and total-energy assembly.

Conventions: densities are spin-summed (trace = electron count), so the
environment fold of the one-body term is J - K/2 of the environment core
density.  Fragment energies use democratic partitioning (half weight on
fragment-environment cross terms), implemented as the first-index restricted
contraction, which equals the symmetric weighting because the integrals and
real-wavefunction RDMs carry the full 8-fold permutational symmetry.

Fragment problems are solved per electron-number sector: a dense
diagonalization of the Hamiltonian built from spin-summed excitation operators
E_pq on the (N/2, N/2) occupation-basis determinants, or a
hardware-efficient-ansatz VQE in the embedding's mean-field orbital basis.
Both hand their state to the same occupation-basis RDM code.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from . import vqe as vqe_mod
from .ansatz import HeaConfig, build_hea
from .chem import (
    MeanField,
    MolecularIntegrals,
    ScfConvergenceError,
    active_space,
    check_window,
    coulomb_exchange,
    restricted_hartree_fock,
    transform_integrals,
)
from .mapping import (
    PARITY,
    MappingSpec,
    build_fermionic_hamiltonian,
    decode_statevector,
    hartree_fock_bitstring,
    map_to_qubits,
)
from .optimize import NonFiniteObjectiveError
from .pauli import MATRIX_QUBIT_CAP
from .simulator import evolve
from .vqe import EstimatorSpec, OptimizerSpec


class DmetConvergenceError(RuntimeError):
    """Chemical-potential matching failed; carries the (mu, mismatch) trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = tuple(trace)


@dataclass(frozen=True)
class Fragmentation:
    """Disjoint orbital-index sets covering the whole orbital range."""

    fragments: tuple

    def __post_init__(self):
        seen = set()
        for f in self.fragments:
            if len(f) == 0:
                raise ValueError("fragments must be nonempty")
            for idx in f:
                if idx in seen:
                    raise ValueError(f"orbital {idx} appears in more than one fragment")
                seen.add(idx)
        object.__setattr__(self, "fragments", tuple(tuple(sorted(f)) for f in self.fragments))

    def validate_cover(self, n_orbitals: int):
        covered = sorted(i for f in self.fragments for i in f)
        if covered != list(range(n_orbitals)):
            raise ValueError(
                f"fragments cover {covered}, expected all orbitals 0..{n_orbitals - 1}"
            )


@dataclass(frozen=True)
class EmbeddingProblem:
    """Fragment+bath integrals and the environment pieces needed for energies.

    The first ``n_fragment`` embedding orbitals are the fragment unit vectors;
    ``one_body_bare``/``env_fold`` are the rotated kernel and environment
    correction, kept separate because democratic partitioning weights them
    differently.  ``solver_integrals(mu)`` assembles the solver-ready
    Hamiltonian including the chemical-potential shift.
    """

    basis: np.ndarray          # n x n_emb, orthonormal columns
    env_density: np.ndarray    # n x n environment core density
    one_body_bare: np.ndarray  # n_emb x n_emb rotated h
    env_fold: np.ndarray       # n_emb x n_emb rotated J - K/2 of env_density
    two_body: np.ndarray       # n_emb^4
    n_fragment: int
    n_electrons: int
    core_energy: float

    @property
    def n_orbitals(self) -> int:
        return self.one_body_bare.shape[0]

    def solver_integrals(self, mu: float = 0.0) -> MolecularIntegrals:
        h = self.one_body_bare + self.env_fold
        if mu != 0.0:
            h = h.copy()
            for i in range(self.n_fragment):
                h[i, i] -= mu
        return MolecularIntegrals(
            n_orbitals=self.n_orbitals,
            n_electrons=self.n_electrons,
            core_energy=self.core_energy,
            one_body=h,
            two_body=self.two_body,
        )


def make_bath(
    mf: MeanField, fragment: Sequence[int], bath_tol: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Bath orbitals from the environment-fragment block of the density.

    Returns (embedding basis, environment core density).  The embedding basis
    stacks fragment unit vectors with the singular vectors of D[env, frag]
    whose singular value exceeds ``bath_tol``; the core density is the
    mean-field density projected on the environment complement of the bath.
    """
    n = mf.density.shape[0]
    frag = sorted(fragment)
    env = [i for i in range(n) if i not in frag]
    D = mf.density

    basis_cols = []
    for i in frag:
        e = np.zeros(n)
        e[i] = 1.0
        basis_cols.append(e)

    if env:
        block = D[np.ix_(env, frag)]
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        kept = u[:, s > bath_tol]
        for col in kept.T:
            v = np.zeros(n)
            v[env] = col
            basis_cols.append(v)
        p_env = np.zeros((n, n))
        p_env[env, env] = 1.0
        p_bath = np.zeros((n, n))
        for col in kept.T:
            v = np.zeros(n)
            v[env] = col
            p_bath += np.outer(v, v)
        q = p_env - p_bath
        env_density = q @ D @ q
    else:
        env_density = np.zeros((n, n))

    basis = np.column_stack(basis_cols)
    return basis, env_density


def fragment_hamiltonian(
    m: MolecularIntegrals,
    basis: np.ndarray,
    env_density: np.ndarray,
    mu: float,
    n_fragment: int,
) -> MolecularIntegrals:
    """Embedding-space integrals with the environment fold and the mu shift."""
    return build_embedding_from_parts(m, basis, env_density, n_fragment).solver_integrals(mu)


def build_embedding_from_parts(
    m: MolecularIntegrals,
    basis: np.ndarray,
    env_density: np.ndarray,
    n_fragment: int,
) -> EmbeddingProblem:
    J, K = coulomb_exchange(m.two_body, env_density)
    fold_full = J - 0.5 * K
    h_bare, g = transform_integrals(m.one_body, m.two_body, basis)
    fold = basis.T @ fold_full @ basis

    n_core = float(np.trace(env_density))
    n_emb = m.n_electrons - int(round(n_core))
    if abs(n_core - round(n_core)) > 1e-6:
        raise ValueError(
            f"environment core holds a non-integer electron count ({n_core:.8f}); "
            "the mean-field density is not idempotent enough for this fragmentation"
        )
    if n_emb % 2 or n_emb < 0 or n_emb > 2 * basis.shape[1]:
        raise ValueError(f"embedding electron count {n_emb} is not a valid closed shell")

    return EmbeddingProblem(
        basis=basis,
        env_density=env_density,
        one_body_bare=h_bare,
        env_fold=fold,
        two_body=g,
        n_fragment=n_fragment,
        n_electrons=n_emb,
        core_energy=m.core_energy,
    )


def build_embedding(
    m: MolecularIntegrals,
    mf: MeanField,
    fragment: Sequence[int],
    bath_tol: float = 1e-6,
) -> EmbeddingProblem:
    basis, env_density = make_bath(mf, fragment, bath_tol)
    if basis.shape[1] > 2 * len(fragment):
        raise AssertionError("embedding dimension exceeded twice the fragment size")
    return build_embedding_from_parts(m, basis, env_density, len(fragment))


# -- exact solves in the occupation basis ------------------------------------------

def _excitation_operators(n_spatial: int, indices: np.ndarray) -> sp.csr_matrix:
    """Spin-summed E_pq = sum_s a+_ps a_qs over sorted occupation-basis indices.

    Mode 2p + s (s = 0 alpha, 1 beta) sits on bit 2n-1-(2p+s), mode 0 on the
    most significant bit, and a ladder operator's sign is the parity of the
    occupied lower modes, as in ``decode_statevector``.  The index set must be
    closed under every E_pq (a union of (N_alpha, N_beta) sectors).  Returns
    the n^2 matrices stacked into one (n^2 d) x d matrix: row (p n + q) d + i,
    column j holds <i|E_pq|j>.
    """
    n_modes = 2 * n_spatial
    pos = n_modes - 1 - np.arange(n_modes)
    bit, below = 1 << pos, (1 << n_modes) - (1 << (pos + 1))  # below: the lower modes' bits
    p, q, s = np.meshgrid(range(n_spatial), range(n_spatial), (0, 1), indexing="ij")
    op, cre, ann = (p * n_spatial + q).ravel(), (2 * p + s).ravel(), (2 * q + s).ravel()
    occupied = indices & bit[:, None] != 0
    # a_q needs mode q occupied; a+_p then needs mode p empty unless p = q
    k, col = np.nonzero(occupied[ann] & (~occupied[cre] | (cre == ann)[:, None]))
    op, cre, ann, v = op[k], cre[k], ann[k], indices[col]
    moved = v ^ bit[ann]
    parity = np.bitwise_count(v & below[ann]) + np.bitwise_count(moved & below[cre])
    rows = op * indices.size + np.searchsorted(indices, moved | bit[cre])
    return sp.csr_matrix(
        (1.0 - 2.0 * (parity & 1), (rows, col)),
        shape=(n_spatial**2 * indices.size, indices.size),
    )


def _sector_labels(n_spatial: int) -> np.ndarray:
    """N_alpha * (n + 1) + N_beta for every full-register index (alpha modes 0, 2, ...)."""
    idx = np.arange(1 << 2 * n_spatial)
    alpha = int("10" * n_spatial, 2)
    return np.bitwise_count(idx & alpha) * (n_spatial + 1) + np.bitwise_count(idx & ~alpha)


def sector_ground_state(m: MolecularIntegrals) -> tuple[float, np.ndarray]:
    """Ground state of the closed-shell (N/2, N/2) sector by dense ``eigh``.

    H = E_core + sum h'_pq E_pq + 1/2 sum (pq|rs) E_pq E_rs with
    h' = h - 1/2 sum_r (pr|rq), built on the sector determinants.  Returns the
    energy and the full-register statevector (interleaved Jordan-Wigner order).
    """
    n = m.n_orbitals
    if 2 * n > MATRIX_QUBIT_CAP:
        raise ValueError(f"{2 * n} qubits exceeds the exact-solver cap of {MATRIX_QUBIT_CAP}")
    if m.n_electrons % 2:
        raise ValueError("closed-shell full CI needs an even electron count")
    labels = _sector_labels(n)
    sel = np.flatnonzero(labels == m.n_electrons // 2 * (n + 2))  # N_alpha = N_beta = N/2
    d = sel.size
    E = _excitation_operators(n, sel)
    flat_T = E.reshape(n * n, d * d).T  # column pq: E_pq flattened
    h = m.one_body - 0.5 * np.einsum("prrq->pq", m.two_body)
    H = (flat_T @ h.ravel()).reshape(d, d)
    # one E_pq block at a time: the transient stays a few d x d arrays
    for pq, g_pq in enumerate(m.two_body.reshape(n * n, n * n)):
        H += 0.5 * (E[pq * d:(pq + 1) * d] @ (flat_T @ g_pq).reshape(d, d))
    if not np.allclose(H, H.T, atol=1e-10):
        raise ValueError("sector Hamiltonian is not Hermitian")
    evals, evecs = np.linalg.eigh(H)
    state = np.zeros(labels.size)
    state[sel] = evecs[:, 0]
    return float(evals[0]) + m.core_energy, state


def full_ci_ground_energy(m: MolecularIntegrals) -> float:
    """Exact ground energy of the closed-shell (N/2, N/2) sector."""
    return sector_ground_state(m)[0]


def spin_summed_rdms(state: np.ndarray, n_spatial: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin-summed one- and two-particle density matrices of a JW statevector.

    gamma[p, q] = <E_pq> = sum_s <a+_ps a_qs>;
    Gamma[p, q, r, s] = <E_pq E_rs> - delta_qr gamma[p, s]
                      = sum_st <a+_ps a+_rt a_st a_qs> (chemist pairing), so
    the energy contraction is sum(h * gamma) + 0.5 * sum(g * Gamma).  The
    state may leave the particle-number sector; complex states give the real
    parts.
    """
    n = n_spatial
    psi = np.asarray(state).ravel()
    if psi.size != 1 << 2 * n:
        raise ValueError(f"state dimension {psi.size} does not match {n} spatial orbitals")
    labels = _sector_labels(n)
    sel = np.flatnonzero(np.isin(labels, labels[psi != 0]))  # every sector psi touches
    psi = psi[sel]
    D = (_excitation_operators(n, sel) @ psi).reshape(n * n, -1)  # row pq: E_pq psi
    gamma = (D @ psi.conj()).real.reshape(n, n)
    pair = (D.conj() @ D.T).real.reshape(n, n, n, n)  # (E_qp psi)^+ (E_rs psi) at [q, p, r, s]
    Gamma = pair.transpose(1, 0, 2, 3) - np.einsum("qr,ps->pqrs", np.eye(n), gamma)
    return gamma, Gamma


def democratic_fragment_energy(
    gamma: np.ndarray,
    Gamma: np.ndarray,
    e: EmbeddingProblem,
) -> float:
    """Fragment energy with half-weighted cross terms.

    First-index restriction equals the symmetric democratic weighting here
    because h, the fold, gamma, g, and Gamma are all permutationally
    symmetric; the environment fold enters at half weight so fragment sums
    count each fragment-environment interaction exactly once.
    """
    F = e.n_fragment
    w1 = e.one_body_bare + 0.5 * e.env_fold
    e1 = float(np.sum(w1[:F, :] * gamma[:F, :]))
    e2 = 0.5 * float(np.einsum("pqrs,pqrs->", e.two_body[:F], Gamma[:F]))
    return e1 + e2


# -- fragment solvers ---------------------------------------------------------------

@dataclass(frozen=True)
class VqeFragmentSolver:
    """VQE configuration template for embedded fragments."""

    layers: int = 1
    optimizer: OptimizerSpec = OptimizerSpec()
    estimator: EstimatorSpec = EstimatorSpec()
    mapping: MappingSpec = MappingSpec(PARITY, two_qubit_reduction=True)
    initial: str = "zeros"
    initial_seed: Optional[int] = None
    restarts: int = 1
    fallback_to_exact: bool = True


@dataclass
class FragmentSolution:
    one_rdm: np.ndarray
    energy: float
    n_electrons: float
    vqe_parameters: Optional[np.ndarray] = None
    used_fallback: bool = False


def _solve_embedding_exact(ints: MolecularIntegrals) -> tuple[np.ndarray, np.ndarray]:
    """Sector-FCI RDMs of the embedding Hamiltonian, in the given basis."""
    return spin_summed_rdms(sector_ground_state(ints)[1], ints.n_orbitals)


def _solve_embedding_vqe(
    ints: MolecularIntegrals,
    solver: VqeFragmentSolver,
    x0: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, "vqe_mod.VqeResult"]:
    """VQE RDMs of the embedding Hamiltonian, rotated back to the given basis."""
    mf = restricted_hartree_fock(ints)
    C = mf.orbital_coeffs
    h_mo, g_mo = transform_integrals(ints.one_body, ints.two_body, C)
    ints_mo = MolecularIntegrals(
        ints.n_orbitals, ints.n_electrons, ints.core_energy, h_mo, g_mo
    )
    spec = solver.mapping
    if spec.two_qubit_reduction:
        spec = replace(spec, n_electrons=ints.n_electrons)
    h_q = map_to_qubits(build_fermionic_hamiltonian(ints_mo), spec)
    bits = hartree_fock_bitstring(ints.n_orbitals, ints.n_electrons, spec)
    circuit = build_hea(HeaConfig(h_q.n_qubits, solver.layers), bits)
    problem = vqe_mod.VqeProblem(
        hamiltonian=h_q,
        circuit=circuit,
        estimator=solver.estimator,
        optimizer=solver.optimizer,
        initial=solver.initial,
        initial_seed=solver.initial_seed,
        restarts=solver.restarts,
    )
    result = vqe_mod.solve(problem, x0=x0)
    state = decode_statevector(
        evolve(circuit, result.parameters), 2 * ints.n_orbitals, spec
    )
    gamma_mo, Gamma_mo = spin_summed_rdms(state, ints.n_orbitals)
    gamma = C @ gamma_mo @ C.T
    Gamma = np.einsum("pa,qb,rc,sd,abcd->pqrs", C, C, C, C, Gamma_mo, optimize=True)
    return gamma, Gamma, result


def _pad_windowed_rdms(
    ints: MolecularIntegrals, window: int, inner_solve
) -> tuple[np.ndarray, np.ndarray, Optional["vqe_mod.VqeResult"]]:
    """Correlate only an active window; pad frozen orbitals at mean field.

    ``inner_solve(active integral set)`` returns RDMs in the active basis
    (plus an optional VQE result).  The padded RDMs come back in the basis of
    ``ints``.
    """
    mf = restricted_hartree_fock(ints)
    acts, info = active_space(ints, mf, window)
    gamma_a, Gamma_a, extra = inner_solve(acts)

    n = ints.n_orbitals
    active = list(info.active_orbitals)
    frozen = list(info.frozen_occupied)
    D = np.zeros((n, n))
    for i in frozen:
        D[i, i] = 2.0
    g_full = np.zeros((n, n))
    g_full[np.ix_(active, active)] = gamma_a
    gamma_mo = D + g_full

    Gamma_mo = np.zeros((n,) * 4)
    Gamma_mo[np.ix_(active, active, active, active)] = Gamma_a
    Gamma_mo += np.einsum("pq,rs->pqrs", D, g_full) + np.einsum("pq,rs->pqrs", g_full, D)
    Gamma_mo -= 0.5 * (
        np.einsum("ps,rq->pqrs", D, g_full) + np.einsum("ps,rq->pqrs", g_full, D)
    )
    Gamma_mo += np.einsum("pq,rs->pqrs", D, D) - 0.5 * np.einsum("ps,rq->pqrs", D, D)

    C = mf.orbital_coeffs
    gamma = C @ gamma_mo @ C.T
    Gamma = np.einsum("pa,qb,rc,sd,abcd->pqrs", C, C, C, C, Gamma_mo, optimize=True)
    return gamma, Gamma, extra


Solver = Union[str, VqeFragmentSolver]


def solve_fragment(
    e: EmbeddingProblem,
    solver: Solver = "exact",
    mu: float = 0.0,
    window: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> FragmentSolution:
    """Correlated solve of one embedding at the given chemical potential."""
    ints = e.solver_integrals(mu)
    used_fallback = False

    if isinstance(solver, str) and solver != "exact":
        raise ValueError(f"unknown fragment solver {solver!r}")
    vqe_solver = None if isinstance(solver, str) else solver

    def solve(vqe):
        """RDMs and VQE result from the VQE solver ``vqe``, or the exact solve if None."""
        def inner(active_ints):
            if vqe is None:
                return (*_solve_embedding_exact(active_ints), None)
            return _solve_embedding_vqe(active_ints, vqe, x0=x0)

        return inner(ints) if window is None else _pad_windowed_rdms(ints, window, inner)

    try:
        gamma, Gamma, vqe_result = solve(vqe_solver)
    except (ScfConvergenceError, NonFiniteObjectiveError) as exc:
        if vqe_solver is None or not vqe_solver.fallback_to_exact:
            raise
        warnings.warn(f"VQE fragment solver failed ({exc}); falling back to exact", stacklevel=2)
        used_fallback = True
        gamma, Gamma, vqe_result = solve(None)

    energy = democratic_fragment_energy(gamma, Gamma, e)
    n_frag = float(np.trace(gamma[: e.n_fragment, : e.n_fragment]))
    return FragmentSolution(
        one_rdm=gamma,
        energy=energy,
        n_electrons=n_frag,
        vqe_parameters=None if vqe_result is None else vqe_result.parameters,
        used_fallback=used_fallback,
    )


# -- the chemical-potential loop -----------------------------------------------------

@dataclass
class DmetResult:
    total_energy: float
    mu: float
    fragment_energies: list
    fragment_electrons: list
    n_electrons: int
    trace: list  # (mu, electron-count mismatch) per evaluation
    converged: bool
    notes: list = field(default_factory=list)

    @property
    def electron_mismatch(self) -> float:
        return sum(self.fragment_electrons) - self.n_electrons

    def to_text(self) -> str:
        lines = [
            f"total_energy={self.total_energy!r}",
            f"mu={self.mu!r}",
            f"n_electrons={self.n_electrons}",
            f"electron_mismatch={self.electron_mismatch!r}",
            f"converged={'true' if self.converged else 'false'}",
        ]
        for i, (en, ne) in enumerate(zip(self.fragment_energies, self.fragment_electrons)):
            lines.append(f"fragment {i} energy={en!r} electrons={ne!r}")
        for mu, f in self.trace:
            lines.append(f"mu_step mu={mu!r} mismatch={f!r}")
        for note in self.notes:
            lines.append(f"note {note}")
        return "\n".join(lines) + "\n"


# Newton steps (and, after them, bisection steps) on mu, and the central
# finite-difference step of the electron-count derivative.
_MU_MAX_STEPS = 30
_MU_FD_STEP = 1e-4


def run_dmet(
    m: MolecularIntegrals,
    mf: MeanField,
    fragmentation: Fragmentation,
    solver: Solver = "exact",
    mu_tol: float = 1e-6,
    window: Optional[int] = None,
    bath_tol: float = 1e-6,
) -> DmetResult:
    """One-shot embedding with Newton-Raphson matching of the electron count.

    A single global chemical potential shifts every fragment's diagonal until
    the summed fragment electron counts match the molecule; the derivative
    comes from central finite differences, with a bisection fallback on a
    bracketed interval if Newton steps stop improving.
    """
    fragmentation.validate_cover(m.n_orbitals)
    embeddings = [build_embedding(m, mf, f, bath_tol) for f in fragmentation.fragments]
    if window is not None:
        for e in embeddings:
            check_window(e.n_orbitals, e.n_electrons, window)
    warm: dict[int, np.ndarray] = {}
    notes: list[str] = []

    def evaluate(mu: float):
        sols = []
        for i, e in enumerate(embeddings):
            sol = solve_fragment(e, solver, mu=mu, window=window, x0=warm.get(i))
            if sol.vqe_parameters is not None:
                warm[i] = sol.vqe_parameters
            if sol.used_fallback:
                notes.append(f"fragment {i} fell back to the exact solver at mu={mu!r}")
            sols.append(sol)
        mismatch = float(sum(s.n_electrons for s in sols)) - m.n_electrons
        return mismatch, sols

    trace: list[tuple[float, float]] = []
    history: list[tuple[float, float]] = []

    mu = 0.0
    mismatch, sols = evaluate(mu)
    trace.append((mu, mismatch))
    history.append((mu, mismatch))

    steps = 0
    while abs(mismatch) > mu_tol and steps < _MU_MAX_STEPS:
        f_plus, _ = evaluate(mu + _MU_FD_STEP)
        f_minus, _ = evaluate(mu - _MU_FD_STEP)
        history.extend([(mu + _MU_FD_STEP, f_plus), (mu - _MU_FD_STEP, f_minus)])
        deriv = (f_plus - f_minus) / (2.0 * _MU_FD_STEP)
        if abs(deriv) < 1e-14 or not math.isfinite(deriv):
            break
        mu_next = mu - mismatch / deriv
        if not math.isfinite(mu_next) or abs(mu_next) > 1e3:
            break
        mu = mu_next
        mismatch, sols = evaluate(mu)
        trace.append((mu, mismatch))
        history.append((mu, mismatch))
        steps += 1

    if abs(mismatch) > mu_tol:
        mu, mismatch, sols = _bisect_mu(evaluate, history, trace, mu_tol)

    total = float(sum(s.energy for s in sols)) + m.core_energy
    return DmetResult(
        total_energy=total,
        mu=mu,
        fragment_energies=[s.energy for s in sols],
        fragment_electrons=[s.n_electrons for s in sols],
        n_electrons=m.n_electrons,
        trace=trace,
        converged=abs(mismatch) <= mu_tol,
        notes=notes,
    )


def _bisect_mu(evaluate, history, trace, mu_tol):
    """Bisection fallback on a sign-changing bracket from past evaluations."""
    lo = max((p for p in history if p[1] < 0), key=lambda p: p[0], default=None)
    hi = min((p for p in history if p[1] > 0), key=lambda p: p[0], default=None)
    if lo is None or hi is None or lo[0] >= hi[0]:
        raise DmetConvergenceError(
            "chemical-potential matching diverged and no bracketing interval was found",
            trace,
        )
    (a, fa), (b, fb) = lo, hi
    mismatch, sols, mu = fa, None, a
    for _ in range(_MU_MAX_STEPS):
        mu = 0.5 * (a + b)
        mismatch, sols = evaluate(mu)
        trace.append((mu, mismatch))
        if abs(mismatch) <= mu_tol:
            return mu, mismatch, sols
        if mismatch < 0:
            a = mu
        else:
            b = mu
    raise DmetConvergenceError(
        f"bisection did not reach |mismatch| <= {mu_tol} (last {mismatch:.3e})", trace
    )
