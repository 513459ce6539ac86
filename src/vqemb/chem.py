"""Electronic-structure ingestion: FCIDUMP parsing, restricted Hartree-Fock in
an orthonormal orbital basis, and HOMO/LUMO-window active-space reduction.

All integrals are spatial-orbital quantities: ``one_body[p, q]`` is h_pq and
``two_body[p, q, r, s]`` is the chemist-convention (pq|rs).  Densities are
spin-summed (trace = number of electrons), so Coulomb/exchange contractions
enter as J - K/2.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class ScfConvergenceError(RuntimeError):
    """SCF failed to converge; carries the last density change."""

    def __init__(self, message: str, density_change: float):
        super().__init__(message)
        self.density_change = density_change


@dataclass(frozen=True)
class MolecularIntegrals:
    """One- and two-electron integrals plus electron count and constant energy."""

    n_orbitals: int
    n_electrons: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        n = self.n_orbitals
        if self.one_body.shape != (n, n):
            raise ValueError(f"one_body shape {self.one_body.shape}, expected ({n}, {n})")
        if self.two_body.shape != (n, n, n, n):
            raise ValueError(f"two_body shape {self.two_body.shape}, expected 4x{n}")
        if not 0 < self.n_electrons <= 2 * n:
            raise ValueError(f"electron count {self.n_electrons} out of range for {n} orbitals")
        if not np.allclose(self.one_body, self.one_body.T, atol=1e-10):
            raise ValueError("one_body is not symmetric")
        g = self.two_body
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if not np.allclose(g, g.transpose(perm), atol=1e-10):
                raise ValueError("two_body violates 8-fold permutational symmetry")


@dataclass(frozen=True)
class MeanField:
    """Closed-shell mean field: an RHF solution, or an embedding's orbitals from its Fock matrix."""

    orbital_coeffs: np.ndarray   # columns are orbitals, energy-ascending
    orbital_energies: np.ndarray
    density: np.ndarray          # spin-summed, trace = n_electrons
    hf_energy: float
    energy_trace: tuple = field(default=(), repr=False)


# -- FCIDUMP -----------------------------------------------------------------

_HEADER_RE = re.compile(r"&FCI(.*)", re.IGNORECASE | re.DOTALL)


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP text into MolecularIntegrals.

    Header: ``&FCI NORB=n,NELEC=m,MS2=0`` closed by ``/`` or ``&END``; any
    other MS2 is refused, since every method here is closed-shell.  Body:
    ``value i j k l`` with 1-based indices; ``k = l = 0`` marks a one-electron
    integral, all-zero indices the constant energy, anything else the chemist
    two-electron integral (ij|kl) expanded to its 8-fold symmetry images.
    Fortran ``D`` exponents are accepted.  Conflicting duplicate records raise.
    """
    m = _HEADER_RE.search(text)
    if m is None:
        raise ValueError("FCIDUMP header '&FCI' not found")
    rest = m.group(1)
    end = re.search(r"(&END|/)", rest, re.IGNORECASE)
    if end is None:
        raise ValueError("FCIDUMP header is not terminated by '/' or '&END'")
    header, body = rest[: end.start()], rest[end.end():]

    def header_int(key):
        km = re.search(rf"{key}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if km is None:
            raise ValueError(f"FCIDUMP header is missing {key}")
        return int(km.group(1))

    n = header_int("NORB")
    nelec = header_int("NELEC")
    ms2 = header_int("MS2")
    if ms2 != 0:
        raise ValueError(f"FCIDUMP header has MS2={ms2}; only closed shells (MS2=0) are supported")

    raws = [raw for raw in body.splitlines() if raw.strip()]
    values, index, error = [], [], None
    for raw in raws:  # reading stops at the first unreadable record
        parts = raw.split()
        try:
            if len(parts) != 5:
                raise ValueError(f"malformed FCIDUMP record: {raw!r}")
            value = float(parts[0].replace("D", "e").replace("d", "e"))
            ijkl = [int(p) for p in parts[1:]]
            if max(ijkl) > n or min(ijkl) < 0:
                raise ValueError(f"orbital index out of range in record: {raw!r}")
        except ValueError as err:
            error = err
            break
        values.append(value)
        index.append(ijkl)
    values, index = np.array(values), np.array(index, dtype=np.int64).reshape(-1, 4)

    # all-zero: core; k = l = 0 < i, j: one-electron; none zero: two-electron
    zero = index == 0
    valid = zero.all(1) | (zero[:, 2] & zero[:, 3] & ~zero[:, 0] & ~zero[:, 1]) | ~zero.any(1)
    n_valid = len(values) if valid.all() else int(np.argmin(valid))
    values, index = values[:n_valid], index[:n_valid]
    # canonical key max((a, b, c, d), (c, d, a, b)) with a >= b, c >= d, as base-(n+1) digits
    base = n + 1
    place = base ** np.arange(3, -1, -1)
    ij = index[:, :2].max(1) * base + index[:, :2].min(1)
    kl = index[:, 2:].max(1) * base + index[:, 2:].min(1)
    keys = np.maximum(ij, kl) * base**2 + np.minimum(ij, kl)

    order = np.argsort(keys, kind="stable")  # a key's records stay in file order
    sorted_keys, sorted_values = keys[order], values[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    first = sorted_values[np.flatnonzero(starts)][np.cumsum(starts) - 1]
    # a record conflicts when it differs from its key's first record (a NaN always differs)
    conflicts = order[(sorted_values != first) & ~starts]
    if conflicts.size:
        r = int(conflicts.min())
        a, b, c, d = (keys[r] // place % base).tolist()
        key = ("core",) if a == 0 else ("one", a, b) if c == 0 else ("two", a, b, c, d)
        raise ValueError(f"conflicting duplicate record for {key}: {raws[r]!r}")
    if n_valid < len(valid):
        raise ValueError(f"bad index pattern in record: {raws[n_valid]!r}")
    if error is not None:
        raise error

    # the last record of each key sets its value (equal values may differ in a zero's sign)
    ends = np.ones(len(order), dtype=bool)
    ends[:-1] = starts[1:]
    last = order[ends]
    p, q, r, s = (keys[last, None] // place % base - 1).T
    values = values[last]
    core = float(values[p < 0][0]) if (p < 0).any() else 0.0
    one_e, two_e = (p >= 0) & (r < 0), s >= 0
    one = np.zeros((n, n))
    one[p[one_e], q[one_e]] = one[q[one_e], p[one_e]] = values[one_e]
    two = np.zeros((n, n, n, n))
    p, q, r, s = p[two_e], q[two_e], r[two_e], s[two_e]
    for image in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                  (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
        two[image] = values[two_e]

    return MolecularIntegrals(n, nelec, core, one, two)


# -- mean field ----------------------------------------------------------------

def coulomb_exchange(two_body: np.ndarray, density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J and K contractions of a spin-summed density with chemist integrals."""
    J = np.einsum("pqrs,rs->pq", two_body, density)
    K = np.einsum("prqs,rs->pq", two_body, density)
    return J, K


def hf_energy_expression(m: MolecularIntegrals, density: np.ndarray) -> float:
    J, K = coulomb_exchange(m.two_body, density)
    return float(
        m.core_energy
        + np.sum(density * m.one_body)
        + 0.5 * np.sum(density * (J - 0.5 * K))
    )


_SCF_DAMPING = 0.3  # share of the previous density mixed into the next Fock build


def restricted_hartree_fock(
    m: MolecularIntegrals,
    max_iter: int = 200,
    conv_tol: float = 1e-8,
) -> MeanField:
    """Closed-shell SCF in the orthonormal input basis (no overlap matrix).

    Converges when the Frobenius norm of the density change drops below
    ``conv_tol``; a fixed damping coefficient mixes in the previous density
    when building the next Fock matrix.
    """
    if m.n_electrons % 2:
        raise ValueError(f"restricted SCF needs an even electron count, got {m.n_electrons}")
    nocc = m.n_electrons // 2

    def aufbau(fock):
        energies, coeffs = np.linalg.eigh(fock)
        density = 2.0 * coeffs[:, :nocc] @ coeffs[:, :nocc].T
        return energies, coeffs, density

    _, _, D = aufbau(m.one_body)
    D_mix = D
    trace = []
    delta = np.inf
    for _ in range(max_iter):
        J, K = coulomb_exchange(m.two_body, D_mix)
        energies, coeffs, D_new = aufbau(m.one_body + J - 0.5 * K)
        trace.append(hf_energy_expression(m, D_new))
        delta = float(np.linalg.norm(D_new - D))
        if delta < conv_tol:
            return MeanField(
                orbital_coeffs=coeffs,
                orbital_energies=energies,
                density=D_new,
                hf_energy=trace[-1],
                energy_trace=tuple(trace),
            )
        D_mix = _SCF_DAMPING * D_mix + (1.0 - _SCF_DAMPING) * D_new
        D = D_new
    raise ScfConvergenceError(
        f"SCF not converged after {max_iter} iterations (last density change {delta:.3e})",
        density_change=delta,
    )


# -- active space ----------------------------------------------------------------

@dataclass(frozen=True)
class FrozenInfo:
    """Bookkeeping for an active-space reduction."""

    frozen_occupied: tuple
    active_orbitals: tuple


def transform_integrals(
    one_body: np.ndarray, two_body: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate integrals into the column space of ``basis`` (orthonormal columns)."""
    h = basis.T @ one_body @ basis
    g = np.einsum("ap,bq,cr,ds,abcd->pqrs", basis, basis, basis, basis, two_body, optimize=True)
    return h, g


class WindowError(ValueError):
    """An active-space window wider than the occupied or the virtual orbitals."""


def check_window(n_orbitals: int, n_electrons: int, window: int):
    """Raise WindowError unless ``window`` orbitals lie on each side of the gap."""
    nocc = n_electrons // 2
    if window > min(nocc, n_orbitals - nocc):
        raise WindowError(
            f"active-space window {window} exceeds the orbital range "
            f"({nocc} occupied, {n_orbitals - nocc} virtual)"
        )


def active_space(
    m: MolecularIntegrals, mf: MeanField, window: Optional[int] = None
) -> tuple[MolecularIntegrals, FrozenInfo]:
    """Rotate ``m`` into the mean-field orbitals and keep ``window`` occupied and
    ``window`` virtual orbitals around the gap, or every orbital when it is None.

    The one function that picks an orbital basis and checks a window: below 1
    raises ValueError, wider than either side of the gap ``WindowError``.
    Frozen occupied orbitals are folded into the active one-body term,
    h'_pq = h_pq + sum_i [2(pq|ii) - (pi|iq)], and into the constant energy.
    """
    lo, hi = 0, m.n_orbitals  # active orbitals are [lo, hi)
    if window is not None:
        if window < 1:
            raise ValueError("window must be >= 1")
        check_window(m.n_orbitals, m.n_electrons, window)
        lo, hi = m.n_electrons // 2 - window, m.n_electrons // 2 + window

    eps = mf.orbital_energies
    if lo > 0 and abs(eps[lo] - eps[lo - 1]) < 1e-8:
        warnings.warn(
            f"degenerate orbitals ({eps[lo - 1]:.10f}) straddle the frozen/active "
            "boundary; keeping the higher index",
            stacklevel=2,
        )
    if hi < m.n_orbitals and abs(eps[hi] - eps[hi - 1]) < 1e-8:
        warnings.warn(
            f"degenerate orbitals ({eps[hi - 1]:.10f}) straddle the active/virtual "
            "boundary; keeping the lower index",
            stacklevel=2,
        )

    h, g = transform_integrals(m.one_body, m.two_body, mf.orbital_coeffs)
    frozen = list(range(lo))
    active = list(range(lo, hi))

    e_frozen = 0.0
    if frozen:
        hf_block = h[np.ix_(frozen, frozen)]
        e_frozen = 2.0 * float(np.trace(hf_block))
        g_iijj = g[np.ix_(frozen, frozen, frozen, frozen)]
        e_frozen += float(
            2.0 * np.einsum("iijj->", g_iijj) - np.einsum("ijji->", g_iijj)
        )
        h = h + 2.0 * np.einsum("pqii->pq", g[:, :, frozen][:, :, :, frozen]) \
            - np.einsum("piiq->pq", g[:, frozen][:, :, frozen])

    sel = np.ix_(active, active)
    reduced = MolecularIntegrals(
        n_orbitals=len(active),
        n_electrons=m.n_electrons - 2 * len(frozen),
        core_energy=m.core_energy + e_frozen,
        one_body=h[sel],
        two_body=g[np.ix_(active, active, active, active)],
    )
    info = FrozenInfo(
        frozen_occupied=tuple(frozen),
        active_orbitals=tuple(active),
    )
    return reduced, info
