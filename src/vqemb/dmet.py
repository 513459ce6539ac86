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
hardware-efficient-ansatz VQE.  Both hand their state to the same
occupation-basis RDM code.  Every exact solve, windowed or not, uses one
sector operator per embedding: mu only enters the one-body term, so
H(mu) = H(0) - mu N_F, and the eigenpairs of one ``eigh`` also give the
exact slope dN_F/dmu.  A window is fixed at the embedding's mu = 0 RHF
orbitals.  Only a VQE solve reruns RHF at each mu and takes slope probes:
in a basis fixed at mu = 0, H10 VQE-DMET did not converge.

When the orbital reversal i -> n-1-i maps the integrals and the RHF density
onto themselves, a fragment whose mirror image is an earlier fragment is
neither embedded nor solved: it reuses that fragment's solution at every mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import vqe as vqe_mod
from .ansatz import molecular_problem
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
from .mapping import PARITY, MappingSpec, decode_statevector
from .optimize import NonFiniteObjectiveError
from .pauli import VECTOR_QUBIT_CAP, _check_cap, _state_vector
from .simulator import evolve
from .vqe import EstimatorSpec, OptimizerSpec, check_settings


class DegenerateGroundStateError(ValueError):
    """An embedding's sector ground state is degenerate, so its RDMs are arbitrary."""


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

    one_body_bare: np.ndarray  # n_emb x n_emb rotated h
    env_fold: np.ndarray       # n_emb x n_emb rotated J - K/2 of the environment core
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

    def sector_operator(self, window: Optional[int] = None) -> tuple:
        """(E_pq table, H at mu = 0, N_F, orbitals) on the (N/2, N/2) sector, cached per window.

        H(mu) = H - mu N_F, where N_F = sum_pq (n_F)_pq E_pq counts the
        fragment's electrons, held as its nonzero (row, col, value) entries.
        Without a window the basis is the embedding's own, orbitals is None
        and N_F is diagonal.  A window is fixed at the embedding's mu = 0 RHF
        orbitals, orbitals = (C, active, frozen) from ``_rhf_basis`` and
        n_F = (C_F^T C_F)[active, active]: mu enters only the one-body term,
        so the frozen-core fold does not depend on it.  A window's cap is
        checked before its SCF.
        """
        cache = self.__dict__.setdefault("_sector_operators", {})
        if window in cache:
            return cache[window]
        ints, orbitals = self.solver_integrals(), None
        C_F = np.eye(self.n_fragment, self.n_orbitals)  # the fragment rows of the basis
        if window is not None:
            _check_cap(4 * window, VECTOR_QUBIT_CAP, "exact-solver")
            ints, orbitals = _rhf_basis(ints, window)
            C_F = orbitals[0][: self.n_fragment, orbitals[1]]
        sel, E, H = _sector_hamiltonian(ints)
        n_F = (C_F.T @ C_F).ravel()  # summed over the table in its order, as H is
        op, row, col, val = E
        k, d = np.flatnonzero(n_F[op]), sel.size
        key, entry = np.unique(row[k] * d + col[k], return_inverse=True)
        N_F = key // d, key % d, np.bincount(entry, weights=val[k] * n_F[op[k]])
        cache[window] = E, H, N_F, orbitals
        return cache[window]


# singular values of D[env, frag] at or below this carry no bath orbital
_BATH_TOL = 1e-6


def make_bath(mf: MeanField, fragment: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Bath orbitals from the environment-fragment block of the density.

    Returns (embedding basis, environment core density).  The embedding basis
    stacks fragment unit vectors with the singular vectors of D[env, frag]
    whose singular value exceeds ``_BATH_TOL``; the core density is the
    mean-field density projected on the environment complement of the bath.
    """
    n = mf.density.shape[0]
    frag = sorted(fragment)
    env = [i for i in range(n) if i not in frag]
    D = mf.density

    basis_cols = list(np.eye(n)[frag])  # the fragment unit vectors

    if env:
        block = D[np.ix_(env, frag)]
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        p_env = np.zeros((n, n))
        p_env[env, env] = 1.0
        p_bath = np.zeros((n, n))
        for col in u[:, s > _BATH_TOL].T:
            v = np.zeros(n)
            v[env] = col
            basis_cols.append(v)
            p_bath += np.outer(v, v)
        q = p_env - p_bath
        env_density = q @ D @ q
    else:
        env_density = np.zeros((n, n))

    basis = np.column_stack(basis_cols)
    return basis, env_density


def build_embedding(
    m: MolecularIntegrals, mf: MeanField, fragment: Sequence[int]
) -> EmbeddingProblem:
    basis, env_density = make_bath(mf, fragment)
    if basis.shape[1] > 2 * len(fragment):
        raise AssertionError("embedding dimension exceeded twice the fragment size")
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
        one_body_bare=h_bare,
        env_fold=fold,
        two_body=g,
        n_fragment=len(fragment),
        n_electrons=n_emb,
        core_energy=m.core_energy,
    )


# -- exact solves in the occupation basis ------------------------------------------

# (op, row, col, value): the nonzero <row|E_op|col> with op = p n + q, sorted
# by (op, row, col), int64 keys and float values
ExcitationTable = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _excitation_operators(n_spatial: int, indices: np.ndarray) -> ExcitationTable:
    """Spin-summed E_pq = sum_s a+_ps a_qs over sorted occupation-basis indices.

    Mode 2p + s (s = 0 alpha, 1 beta) sits on bit 2n-1-(2p+s), mode 0 on the
    most significant bit, and a ladder operator's sign is the parity of the
    occupied lower modes, as in ``decode_statevector``.  The index set must be
    closed under every E_pq (a union of (N_alpha, N_beta) sectors).  Returns
    the table (op, row, col, value): one entry per nonzero <row|E_op|col>,
    op = p n + q and row, col positions in ``indices``, sorted by (op, row,
    col), with the alpha and beta entries of each E_pp diagonal summed to 2.
    That is the canonical compressed-sparse-row layout of the n^2 stacked
    matrices, so a sum over entries in table order adds each output element's
    terms in the order a CSR product would.  Every value is +-1 or 2, and
    each (op, row) has at most two entries, one per spin, columns ascending.
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
    d = indices.size
    key = (op * d + np.searchsorted(indices, moved | bit[cre])) * d + col
    key, entry = np.unique(key, return_inverse=True)
    value = np.bincount(entry, weights=1.0 - 2.0 * (parity & 1))
    return key // (d * d), key // d % d, key % d, value


def _sector_labels(n_spatial: int) -> np.ndarray:
    """N_alpha * (n + 1) + N_beta for every full-register index (alpha modes 0, 2, ...)."""
    idx = np.arange(1 << 2 * n_spatial)
    alpha = int("10" * n_spatial, 2)
    return np.bitwise_count(idx & alpha) * (n_spatial + 1) + np.bitwise_count(idx & ~alpha)


def _sector_hamiltonian(m: MolecularIntegrals) -> tuple[np.ndarray, ExcitationTable, np.ndarray]:
    """The closed-shell (N/2, N/2) sector: its indices, E_pq table and Hamiltonian.

    H = sum h'_pq E_pq + 1/2 sum (pq|rs) E_pq E_rs with h' = h - 1/2 sum_r (pr|rq),
    without the core energy.  The cap and the electron count are checked
    before anything is built.  Both contractions walk the table in its
    (op, row, col) order, so each element of H adds its terms in the order
    of the CSR products: sum_pq w_pq E_pq over pq, and E_pq X over each
    row's (at most two) columns, ascending.  Every value is +-1 or 2, so the
    products are exact and H is the same to the bit.  A row of E_pq X starts
    from its first product rather than from 0 + it, which can differ only in
    the sign of a zero, and no -0 survives being added to H.
    """
    n = m.n_orbitals
    _check_cap(2 * n, VECTOR_QUBIT_CAP, "exact-solver")
    if m.n_electrons % 2:
        raise ValueError("closed-shell full CI needs an even electron count")
    labels = _sector_labels(n)
    sel = np.flatnonzero(labels == m.n_electrons // 2 * (n + 2))  # N_alpha = N_beta = N/2
    d = sel.size
    E = op, row, col, val = _excitation_operators(n, sel)
    flat = row * d + col

    def weighted_sum(w):  # sum_pq w_pq E_pq, flattened
        return np.bincount(flat, weights=val * w[op], minlength=d * d)

    h = m.one_body - 0.5 * np.einsum("prrq->pq", m.two_body)
    H = weighted_sum(h.ravel()).reshape(d, d)
    # the entries of each (op, row) run lower column first; paired: a second follows
    same = (op[1:] == op[:-1]) & (row[1:] == row[:-1])
    lead = np.flatnonzero(np.append(True, ~same))
    paired = np.append(same, False)
    lead_at = np.searchsorted(op[lead], np.arange(n * n + 1))
    # one E_pq block at a time, X freed before the row update: the transient
    # stays under three d x d arrays, so repeated builds reuse the heap pages
    for pq, g_pq in enumerate(m.two_body.reshape(n * n, n * n)):
        X = weighted_sum(g_pq).reshape(d, d)
        a = lead[lead_at[pq]:lead_at[pq + 1]]  # one entry per row E_pq reaches
        two = np.flatnonzero(paired[a])
        b = a[two] + 1
        Y = np.take(X, col[a], axis=0)
        Y *= val[a, None]
        Z = np.take(X, col[b], axis=0)
        Z *= val[b, None]
        Y[two] += Z
        Y *= 0.5
        del X, Z
        H[row[a]] += Y
    if not np.allclose(H, H.T, atol=1e-10):
        raise ValueError("sector Hamiltonian is not Hermitian")
    return sel, E, H


def sector_ground_state(m: MolecularIntegrals) -> tuple[float, np.ndarray]:
    """Ground state of the closed-shell (N/2, N/2) sector by dense ``eigh``.

    Returns the energy and the full-register statevector (interleaved
    Jordan-Wigner order).
    """
    sel, _, H = _sector_hamiltonian(m)
    evals, evecs = np.linalg.eigh(H)
    state = np.zeros(1 << 2 * m.n_orbitals)
    state[sel] = evecs[:, 0]
    return float(evals[0]) + m.core_energy, state


def full_ci_ground_energy(m: MolecularIntegrals) -> float:
    """Exact ground energy of the closed-shell (N/2, N/2) sector."""
    return sector_ground_state(m)[0]


def spin_summed_rdms(state: np.ndarray, n_spatial: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin-summed one- and two-particle density matrices of a real JW statevector.

    gamma[p, q] = <E_pq> = sum_s <a+_ps a_qs>;
    Gamma[p, q, r, s] = <E_pq E_rs> - delta_qr gamma[p, s]
                      = sum_st <a+_ps a+_rt a_st a_qs> (chemist pairing), so
    the energy contraction is sum(h * gamma) + 0.5 * sum(g * Gamma).  The
    state may leave the particle-number sector.  It is read through the check
    ``PauliExpectation`` uses, so a complex vector raises ``ValueError``.
    """
    n = n_spatial
    psi = _state_vector(state, 2 * n)
    labels = _sector_labels(n)
    sel = np.flatnonzero(np.isin(labels, labels[psi != 0]))  # every sector psi touches
    return _rdms(_excitation_operators(n, sel), psi[sel], n)


def _rdms(E: ExcitationTable, psi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``spin_summed_rdms`` of the real vector ``psi`` on the indices ``E`` was built over.

    Row pq of D is E_pq psi, summed over the table: each element adds at
    most two exact terms, one per spin, onto zero, in ascending column order
    as a CSR product does, so the RDMs are the same to the bit.
    """
    op, row, col, val = E
    D = np.bincount(op * psi.size + row, weights=val * psi[col], minlength=n * n * psi.size)
    D = D.reshape(n * n, -1)  # row pq: E_pq psi
    gamma = (D @ psi).reshape(n, n)
    pair = (D @ D.T).reshape(n, n, n, n)  # (E_qp psi) . (E_rs psi) at [q, p, r, s]
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

    def __post_init__(self):
        check_settings(self.estimator, self.optimizer, self.initial, self.initial_seed,
                       self.restarts)


@dataclass
class FragmentSolution:
    energy: float
    n_electrons: float
    vqe_parameters: Optional[np.ndarray] = None
    slope: Optional[float] = None  # exact dN_F/dmu of every exact solve; None for VQE


# a sector ground state closer than this (Ha) to the next root is degenerate
_GAP_TOL = 1e-8


def _sector_eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a sector Hamiltonian whose ground state is not degenerate.

    A gap to the next root below ``_GAP_TOL`` raises
    ``DegenerateGroundStateError``, since the RDMs of the ground state would
    then depend on how ``eigh`` mixes the degenerate roots.
    """
    evals, evecs = np.linalg.eigh(H)
    if evals.size > 1 and evals[1] - evals[0] < _GAP_TOL:
        raise DegenerateGroundStateError(
            f"degenerate embedding ground state: the gap to the next root is "
            f"{evals[1] - evals[0]:.3e} Ha, below {_GAP_TOL:g}"
        )
    return evals, evecs


def _rhf_basis(ints: MolecularIntegrals, window: Optional[int]) -> tuple[MolecularIntegrals, tuple]:
    """``ints`` in its RHF orbitals C, or in an active window of them, and (C, active, frozen)."""
    mf = restricted_hartree_fock(ints)
    C = mf.orbital_coeffs
    if window is None:
        h_mo, g_mo = transform_integrals(ints.one_body, ints.two_body, C)
        return replace(ints, one_body=h_mo, two_body=g_mo), (C, list(range(ints.n_orbitals)), [])
    acts, info = active_space(ints, mf, window)
    return acts, (C, list(info.active_orbitals), list(info.frozen_occupied))


def _from_rhf_basis(gamma_a: np.ndarray, Gamma_a: np.ndarray, orbitals: tuple) -> tuple:
    """Active-space RDMs in the basis of C, frozen orbitals padded at mean field."""
    C, active, frozen = orbitals
    n = C.shape[0]
    D = np.zeros((n, n))
    D[frozen, frozen] = 2.0
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

    gamma = C @ gamma_mo @ C.T
    Gamma = np.einsum("pa,qb,rc,sd,abcd->pqrs", C, C, C, C, Gamma_mo, optimize=True)
    return gamma, Gamma


def _solve_embedding_sector(e: EmbeddingProblem, mu: float, window: Optional[int] = None) -> tuple:
    """Sector-FCI RDMs of the embedding at ``mu``, in its basis, and the slope dN_F/dmu.

    H(mu) = H(0) - mu N_F, so first-order perturbation theory on the
    eigenpairs (E_k, V_k) gives the slope exactly:
    2 sum_{k>0} (V_k^T N_F c_0)^2 / (E_k - E_0).  A degenerate ground state
    raises ``DegenerateGroundStateError``.
    """
    E, H, (row, col, value), orbitals = e.sector_operator(window)
    H = H.copy()
    H[row, col] -= mu * value
    evals, evecs = _sector_eigh(H)
    c0 = evecs[:, 0]
    n_c0 = np.bincount(row, weights=value * c0[col], minlength=c0.size)
    slope = 2.0 * float(np.sum((evecs[:, 1:].T @ n_c0) ** 2 / (evals[1:] - evals[0])))
    if orbitals is None:
        return (*_rdms(E, c0, e.n_orbitals), slope)
    return (*_from_rhf_basis(*_rdms(E, c0, len(orbitals[1])), orbitals), slope)


def _solve_embedding_vqe(
    ints: MolecularIntegrals,
    window: Optional[int],
    solver: VqeFragmentSolver,
    x0: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, "vqe_mod.VqeResult"]:
    """VQE RDMs of ``ints``, solved in its RHF orbitals (or a window of them).

    A warm start ``x0`` is one optimizer run; a cold start runs every restart.
    """
    acts, orbitals = _rhf_basis(ints, window)
    problem, spec = molecular_problem(
        acts, solver.mapping, solver.layers, estimator=solver.estimator,
        optimizer=solver.optimizer, initial=solver.initial, initial_seed=solver.initial_seed,
        restarts=1 if x0 is not None else solver.restarts,
    )
    result = vqe_mod.solve(problem, x0=x0)
    state = evolve(problem.circuit, result.parameters)
    state = decode_statevector(state, 2 * acts.n_orbitals, spec)
    return (*_from_rhf_basis(*spin_summed_rdms(state, acts.n_orbitals), orbitals), result)


Solver = Union[str, VqeFragmentSolver]


def solve_fragment(
    e: EmbeddingProblem,
    solver: Solver = "exact",
    mu: float = 0.0,
    window: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> FragmentSolution:
    """Correlated solve of one embedding at the given chemical potential.

    The exact solver diagonalizes the embedding's cached sector operator and
    returns the slope dN_F/dmu; a VQE solve runs in the RHF orbitals of the
    mu-shifted embedding.
    """
    if isinstance(solver, str) and solver != "exact":
        raise ValueError(f"unknown fragment solver {solver!r}")
    slope = vqe_result = None
    if solver == "exact":
        gamma, Gamma, slope = _solve_embedding_sector(e, mu, window)
    else:
        gamma, Gamma, vqe_result = _solve_embedding_vqe(e.solver_integrals(mu), window, solver, x0)

    return FragmentSolution(
        energy=democratic_fragment_energy(gamma, Gamma, e),
        n_electrons=float(np.trace(gamma[: e.n_fragment, : e.n_fragment])),
        vqe_parameters=None if vqe_result is None else vqe_result.parameters,
        slope=slope,
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
    solved_as: list  # per fragment, the index of the fragment whose solve it reuses
    fragment_solves: int  # solve_fragment calls over the whole mu loop

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
            f"fragment_solves={self.fragment_solves}",
        ]
        for i, (en, ne, j) in enumerate(
            zip(self.fragment_energies, self.fragment_electrons, self.solved_as)
        ):
            lines.append(f"fragment {i} energy={en!r} electrons={ne!r} solved_as={j}")
        for mu, f in self.trace:
            lines.append(f"mu_step mu={mu!r} mismatch={f!r}")
        return "\n".join(lines) + "\n"


# Newton steps (and, after them, bisection steps) on mu, and the central
# finite-difference step of the electron-count derivative, which only VQE
# solves need (module docstring): every exact solve returns its slope.
_MU_MAX_STEPS = 30
_MU_FD_STEP = 1e-4

# the reversal i -> n-1-i is a symmetry when it maps h and g onto themselves to
# the first tolerance and the RHF density to the second
_MIRROR_INTEGRAL_TOL = 1e-12
_MIRROR_DENSITY_TOL = 1e-10


def _mirror_representatives(
    m: MolecularIntegrals, mf: MeanField, fragments: Sequence[tuple]
) -> list[int]:
    """For each fragment, the index of the fragment whose solve stands for it.

    A fragment whose reversal image is an earlier fragment reuses that
    fragment's solve when the reversal is a symmetry of the integrals and of
    the RHF density; every other fragment stands for itself.
    """
    def mirrored(a, tol):
        return float(np.max(np.abs(np.flip(a) - a))) <= tol

    reps = list(range(len(fragments)))
    if not (
        mirrored(m.one_body, _MIRROR_INTEGRAL_TOL)
        and mirrored(m.two_body, _MIRROR_INTEGRAL_TOL)
        and mirrored(mf.density, _MIRROR_DENSITY_TOL)
    ):
        return reps
    index = {f: i for i, f in enumerate(fragments)}
    last = m.n_orbitals - 1
    for i, f in enumerate(fragments):
        j = index.get(tuple(sorted(last - k for k in f)))
        if j is not None and j < i:
            reps[i] = j
    return reps


def run_dmet(
    m: MolecularIntegrals,
    mf: MeanField,
    fragmentation: Fragmentation,
    solver: Solver = "exact",
    mu_tol: float = 1e-6,
    window: Optional[int] = None,
) -> DmetResult:
    """One-shot embedding with Newton-Raphson matching of the electron count.

    A single global chemical potential shifts every fragment's diagonal until
    the summed fragment electron counts match the molecule.  The derivative is
    the sum of the exact solves' slopes; VQE solves carry none, so there it
    comes from central finite differences.  A bisection fallback on a
    bracketed interval takes over if Newton steps stop improving.  Each
    mirror class of fragments (``_mirror_representatives``) is embedded and
    solved once per mu, and VQE warm starts follow the representative.  Every
    exact operator is built, and every VQE register checked against the
    readout noise model's width, before the first solve.  A fragment's SCF,
    non-finite-objective or degenerate-ground-state failure propagates with
    the fragment index and mu added to its message.
    """
    fragmentation.validate_cover(m.n_orbitals)
    fragments = fragmentation.fragments
    solved_as = _mirror_representatives(m, mf, fragments)
    embeddings = {i: build_embedding(m, mf, fragments[i]) for i in sorted(set(solved_as))}

    def named(i: int, mu: float, call):  # a fragment's failure names the fragment and mu
        try:
            return call()
        except (ScfConvergenceError, NonFiniteObjectiveError, DegenerateGroundStateError) as exc:
            exc.args = (f"fragment {i} at mu={mu!r}: {exc}",)
            raise

    for e in embeddings.values():  # every embedding fits its solver before the first solve
        if window is not None:
            check_window(e.n_orbitals, e.n_electrons, window)
        if isinstance(solver, VqeFragmentSolver):  # two qubits an active orbital, less tapering
            n_active = e.n_orbitals if window is None else 2 * window
            n_qubits = 2 * (n_active - solver.mapping.two_qubit_reduction)
            vqe_mod.check_noise_width(solver.estimator.noise, n_qubits)
    if solver == "exact":
        for i, e in embeddings.items():
            named(i, 0.0, lambda: e.sector_operator(window))
    warm: dict[int, np.ndarray] = {}
    n_solves = 0

    def evaluate(mu: float):
        nonlocal n_solves
        solved = {}
        for i, e in embeddings.items():
            sol = named(
                i, mu, lambda: solve_fragment(e, solver, mu=mu, window=window, x0=warm.get(i))
            )
            if sol.vqe_parameters is not None:
                warm[i] = sol.vqe_parameters
            solved[i] = sol
        n_solves += len(solved)
        sols = [solved[j] for j in solved_as]
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
        if all(s.slope is not None for s in sols):
            deriv = sum(s.slope for s in sols)
        else:
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
        solved_as=solved_as,
        fragment_solves=n_solves,
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
