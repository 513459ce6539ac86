"""Density-matrix embedding: Schmidt bath construction, embedding Hamiltonians,
fragment solvers, chemical-potential matching, and total-energy assembly.

Conventions: densities are spin-summed (trace = electron count), so the
environment fold of the one-body term is J - K/2 of the environment core
density.  Fragment energies use democratic partitioning (half weight on
fragment-environment cross terms), implemented as the first-index restricted
contraction, which equals the symmetric weighting because the integrals and
real-wavefunction RDMs carry the full 8-fold permutational symmetry.

Every fragment solver has two methods: ``prepare(e, window)`` runs once per
embedding before the first solve, makes every window, cap and width check,
and returns what the solver reuses across mu; ``solve(e, prepared, mu, x0)``
returns the ``FragmentSolution`` at one mu.  ``ExactFragmentSolver``
diagonalizes the (N/2, N/2) sector Hamiltonian built from spin-summed
excitation operators E_pq on the occupation-basis determinants, and
``VqeFragmentSolver`` runs a hardware-efficient-ansatz VQE.  Both hand their
state to the same occupation-basis RDM code.  The exact ``prepare`` builds
one sector operator per embedding, windowed or not: mu only enters the
one-body term, so H(mu) = H(0) - mu N_F, and the eigenpairs of one ``eigh``
also give the exact slope dN_F/dmu.  No SCF runs: the Schmidt embedding of
the lattice RHF state holds its mean field, so the orbitals of an embedding
at mu diagonalize ``e.fock`` (the lattice Fock matrix in its basis) - mu on
the fragment.  ``chem.active_space`` alone rotates an embedding into those
orbitals and cuts a window of them, which it checks.  A window is fixed at
mu = 0.  Only a VQE solve takes the orbitals of its mu, and slope probes:
fixed at mu = 0, it needs more solves.

When the orbital reversal i -> n-1-i maps the integrals and the RHF density
onto themselves, a fragment whose mirror image is an earlier fragment is
neither embedded nor solved: it reuses that fragment's solution at every mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import vqe as vqe_mod
from .ansatz import check_layers, molecular_problem
from .chem import (
    MeanField,
    MolecularIntegrals,
    active_space,
    coulomb_exchange,
    hf_energy_expression,
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
    fock: np.ndarray           # n_emb x n_emb rotated lattice Fock matrix
    n_fragment: int
    n_electrons: int
    core_energy: float

    @property
    def n_orbitals(self) -> int:
        return self.one_body_bare.shape[0]

    def solver_integrals(self, mu: float = 0.0) -> MolecularIntegrals:
        h = self.one_body_bare + self.env_fold
        h[np.diag_indices(self.n_fragment)] -= mu
        return MolecularIntegrals(
            n_orbitals=self.n_orbitals,
            n_electrons=self.n_electrons,
            core_energy=self.core_energy,
            one_body=h,
            two_body=self.two_body,
        )


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
        fock=basis.T @ (mf.orbital_coeffs * mf.orbital_energies) @ mf.orbital_coeffs.T @ basis,
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

@dataclass
class FragmentSolution:
    energy: float
    n_electrons: float
    vqe_parameters: Optional[np.ndarray] = None
    slope: Optional[float] = None  # exact dN_F/dmu of every exact solve; None for VQE

    @classmethod
    def of(cls, e: EmbeddingProblem, gamma: np.ndarray, Gamma: np.ndarray, **extra):
        """The fragment's democratic energy and electron count from RDMs in the embedding basis."""
        F = e.n_fragment
        return cls(democratic_fragment_energy(gamma, Gamma, e), float(np.trace(gamma[:F, :F])),
                   **extra)


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


def _rhf_basis(e: EmbeddingProblem, mu: float, window: Optional[int]) -> tuple:
    """(``active_space`` of ``e`` at ``mu`` in the orbitals C of ``e.fock`` at mu, (C, info))."""
    ints, n = e.solver_integrals(mu), e.n_orbitals
    eps, C = np.linalg.eigh(e.fock - mu * np.diag(np.arange(n) < e.n_fragment))
    D = 2.0 * C[:, : e.n_electrons // 2] @ C[:, : e.n_electrons // 2].T
    acts, info = active_space(ints, MeanField(C, eps, D, hf_energy_expression(ints, D)), window)
    return acts, (C, info)


def _from_rhf_basis(gamma_a: np.ndarray, Gamma_a: np.ndarray, orbitals: tuple) -> tuple:
    """Active-space RDMs in the basis of C, frozen orbitals padded at mean field."""
    C, info = orbitals
    active, frozen = info.active_orbitals, info.frozen_occupied
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


def _solve_embedding_sector(e: EmbeddingProblem, prepared: tuple, mu: float) -> tuple:
    """Sector-FCI RDMs of the embedding at ``mu``, in its basis, and the slope dN_F/dmu.

    ``prepared`` is ``ExactFragmentSolver.prepare``'s.  H(mu) = H(0) - mu N_F,
    so first-order perturbation theory on the eigenpairs (E_k, V_k) gives the
    slope exactly: 2 sum_{k>0} (V_k^T N_F c_0)^2 / (E_k - E_0).  A degenerate
    ground state raises ``DegenerateGroundStateError``.
    """
    E, H, (row, col, value), orbitals = prepared
    H = H.copy()
    H[row, col] -= mu * value
    evals, evecs = _sector_eigh(H)
    c0 = evecs[:, 0]
    n_c0 = np.bincount(row, weights=value * c0[col], minlength=c0.size)
    slope = 2.0 * float(np.sum((evecs[:, 1:].T @ n_c0) ** 2 / (evals[1:] - evals[0])))
    if orbitals is None:
        return (*_rdms(E, c0, e.n_orbitals), slope)
    return (*_from_rhf_basis(*_rdms(E, c0, len(orbitals[1].active_orbitals)), orbitals), slope)


@dataclass(frozen=True)
class ExactFragmentSolver:
    """Sector full CI of an embedding: one operator per embedding, one ``eigh`` per mu."""

    def prepare(self, e: EmbeddingProblem, window: Optional[int] = None) -> tuple:
        """(E_pq table, H at mu = 0, N_F, orbitals) on the (N/2, N/2) sector.

        H(mu) = H - mu N_F, where N_F = sum_pq (n_F)_pq E_pq counts the
        fragment's electrons, held as its nonzero (row, col, value) entries.
        Without a window the basis is the embedding's own, orbitals is None
        and N_F is diagonal.  A window is fixed at the embedding's mu = 0
        mean-field orbitals, orbitals = (C, info) from ``_rhf_basis`` (whose
        ``active_space`` refuses a bad window) and n_F = (C_F^T C_F)[active,
        active]: mu enters only the one-body term, so the frozen-core fold does
        not depend on it.
        """
        ints, orbitals = e.solver_integrals(), None
        C_F = np.eye(e.n_fragment, e.n_orbitals)  # the fragment rows of the basis
        if window is not None:
            ints, orbitals = _rhf_basis(e, 0.0, window)
            C_F = orbitals[0][: e.n_fragment, orbitals[1].active_orbitals]
        sel, E, H = _sector_hamiltonian(ints)
        n_F = (C_F.T @ C_F).ravel()  # summed over the table in its order, as H is
        op, row, col, val = E
        k, d = np.flatnonzero(n_F[op]), sel.size
        key, entry = np.unique(row[k] * d + col[k], return_inverse=True)
        N_F = key // d, key % d, np.bincount(entry, weights=val[k] * n_F[op[k]])
        return E, H, N_F, orbitals

    def solve(self, e: EmbeddingProblem, prepared: tuple, mu: float,
              x0: Optional[np.ndarray] = None) -> FragmentSolution:
        """The sector ground state at ``mu``, with its slope; an exact solve has no ``x0``."""
        gamma, Gamma, slope = _solve_embedding_sector(e, prepared, mu)
        return FragmentSolution.of(e, gamma, Gamma, slope=slope)


@dataclass(frozen=True)
class VqeFragmentSolver:
    """VQE configuration template for embedded fragments."""

    layers: int = 1
    optimizer: OptimizerSpec = OptimizerSpec()
    estimator: EstimatorSpec = EstimatorSpec()
    mapping: MappingSpec = MappingSpec(PARITY, two_qubit_reduction=True)
    initial: str = "zeros"
    seed: Optional[int] = None
    restarts: int = 1

    def __post_init__(self):
        check_layers(self.layers)
        check_settings(self.estimator, self.optimizer, self.initial, self.seed, self.restarts)

    def prepare(self, e: EmbeddingProblem, window: Optional[int] = None) -> Optional[int]:
        """The window, once ``active_space`` has checked it and the readout noise
        model is checked against the register's width."""
        n_active = _rhf_basis(e, 0.0, window)[0].n_orbitals
        # two qubits an active orbital, less the tapered pair
        vqe_mod.check_noise_width(self.estimator.noise,
                                  2 * (n_active - self.mapping.two_qubit_reduction))
        return window

    def solve(self, e: EmbeddingProblem, prepared: Optional[int], mu: float,
              x0: Optional[np.ndarray] = None) -> FragmentSolution:
        """VQE from ``x0`` in the orbitals of the embedding at mu (or a window of them)."""
        acts, orbitals = _rhf_basis(e, mu, prepared)
        problem, spec = molecular_problem(
            acts, self.mapping, self.layers, estimator=self.estimator, optimizer=self.optimizer,
            initial=self.initial, seed=self.seed, restarts=self.restarts,
        )
        result = vqe_mod.solve(problem, x0=x0)
        state = evolve(problem.circuit, result.parameters)
        state = decode_statevector(state, 2 * acts.n_orbitals, spec)
        gamma, Gamma = _from_rhf_basis(*spin_summed_rdms(state, acts.n_orbitals), orbitals)
        return FragmentSolution.of(e, gamma, Gamma, vqe_parameters=result.parameters)


def solve_fragment(
    e: EmbeddingProblem,
    solver=ExactFragmentSolver(),
    mu: float = 0.0,
    window: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> FragmentSolution:
    """One solve of one embedding at ``mu``: ``solver.prepare``, then ``solver.solve``."""
    return solver.solve(e, solver.prepare(e, window), mu, x0)


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
    fragment_solves: int  # solver.solve calls over the whole mu loop

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


# Newton steps on mu, and the central finite-difference step of the
# electron-count derivative, which only VQE solves need (module docstring):
# every exact solve returns its slope.
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
    solver=ExactFragmentSolver(),
    mu_tol: float = 1e-6,
    window: Optional[int] = None,
) -> DmetResult:
    """One-shot embedding with Newton-Raphson matching of the electron count.

    A single global chemical potential shifts every fragment's diagonal until
    the summed fragment electron counts match the molecule.  The derivative is
    the sum of the exact solves' slopes; VQE solves carry none, so there it
    comes from central finite differences.  Newton is the only matching: when
    its steps end (at ``_MU_MAX_STEPS``, on a flat or non-finite slope, or on
    a step past |mu| = 1e3) with |mismatch| > ``mu_tol`` or a non-finite
    mismatch, ``DmetConvergenceError`` names that stop and carries the (mu,
    mismatch) trace, so every returned result is converged.  ``mu_tol`` must
    be positive.  Each mirror class of fragments (``_mirror_representatives``)
    is embedded and solved once per mu, and VQE warm starts follow the
    representative.  A
    solver is any object with ``prepare(e, window)`` and ``solve(e, prepared,
    mu, x0)`` returning a ``FragmentSolution``: ``solver.prepare`` runs once
    per representative, before the first solve, and makes every window check.
    ``mf`` is the only mean field: no embedding runs an SCF.  A fragment's
    non-finite-objective or degenerate-ground-state failure propagates with
    the fragment index and mu added to its message.
    """
    if not 0 < mu_tol < math.inf:
        raise ValueError(f"mu_tol must be a positive finite number, got {mu_tol!r}")
    fragmentation.validate_cover(m.n_orbitals)
    fragments = fragmentation.fragments
    solved_as = _mirror_representatives(m, mf, fragments)
    embeddings = {i: build_embedding(m, mf, fragments[i]) for i in sorted(set(solved_as))}

    def named(i: int, mu: float, call):  # a fragment's failure names the fragment and mu
        try:
            return call()
        except (NonFiniteObjectiveError, DegenerateGroundStateError) as exc:
            exc.args = (f"fragment {i} at mu={mu!r}: {exc}",)
            raise

    prepared = {i: named(i, 0.0, lambda: solver.prepare(e, window)) for i, e in embeddings.items()}
    warm: dict[int, np.ndarray] = {}
    n_solves = 0

    def evaluate(mu: float):
        nonlocal n_solves
        solved = {}
        for i, e in embeddings.items():
            sol = named(i, mu, lambda: solver.solve(e, prepared[i], mu, warm.get(i)))
            if sol.vqe_parameters is not None:
                warm[i] = sol.vqe_parameters
            solved[i] = sol
        n_solves += len(solved)
        sols = [solved[j] for j in solved_as]
        mismatch = float(sum(s.n_electrons for s in sols)) - m.n_electrons
        return mismatch, sols

    mu = 0.0
    mismatch, sols = evaluate(mu)
    trace = [(mu, mismatch)]

    steps, stop = 0, f"at the step limit of {_MU_MAX_STEPS}"
    while abs(mismatch) > mu_tol and steps < _MU_MAX_STEPS:
        if all(s.slope is not None for s in sols):
            deriv = sum(s.slope for s in sols)
        else:
            f_plus, _ = evaluate(mu + _MU_FD_STEP)
            f_minus, _ = evaluate(mu - _MU_FD_STEP)
            deriv = (f_plus - f_minus) / (2.0 * _MU_FD_STEP)
        if abs(deriv) < 1e-14 or not math.isfinite(deriv):
            stop = f"on the slope d(mismatch)/d(mu) = {deriv!r}, flat or not finite"
            break
        mu_next = mu - mismatch / deriv
        if not math.isfinite(mu_next) or abs(mu_next) > 1e3:
            stop = f"before the step to mu = {mu_next!r}, past |mu| = 1e3"
            break
        mu = mu_next
        mismatch, sols = evaluate(mu)
        trace.append((mu, mismatch))
        steps += 1

    if not abs(mismatch) <= mu_tol:  # NaN included
        if not math.isfinite(mismatch):
            stop = "on a non-finite mismatch"
        raise DmetConvergenceError(
            f"Newton steps on mu did not reach |mismatch| <= {mu_tol} after {steps} steps "
            f"(last {mismatch:.3e}), stopped {stop}", trace,
        )

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
