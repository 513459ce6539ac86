"""FCIDUMP parsing, restricted Hartree-Fock, and active-space reduction."""

import re

import numpy as np
import pytest

from vqemb.chem import (
    MolecularIntegrals,
    ScfConvergenceError,
    WindowError,
    active_space,
    parse_fcidump,
    restricted_hartree_fock,
    transform_integrals,
)
from vqemb.dmet import full_ci_ground_energy


def non_interacting(levels, n_electrons):
    n = len(levels)
    return MolecularIntegrals(
        n_orbitals=n,
        n_electrons=n_electrons,
        core_energy=0.0,
        one_body=np.diag(np.asarray(levels, dtype=float)),
        two_body=np.zeros((n, n, n, n)),
    )


def reference_parse_fcidump(text):
    """(n, core, one, two) of an FCIDUMP text, one record at a time, as
    ``parse_fcidump`` read it before it worked on whole arrays."""
    m = re.search(r"&FCI(.*)", text, re.IGNORECASE | re.DOTALL)
    rest = m.group(1)
    end = re.search(r"(&END|/)", rest, re.IGNORECASE)
    header, body = rest[: end.start()], rest[end.end():]
    n = int(re.search(r"NORB\s*=\s*(-?\d+)", header, re.IGNORECASE).group(1))
    one = np.zeros((n, n))
    two = np.zeros((n, n, n, n))
    core = 0.0
    seen = {}
    for raw in body.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"malformed FCIDUMP record: {raw!r}")
        value = float(parts[0].replace("D", "e").replace("d", "e"))
        i, j, k, l = (int(p) for p in parts[1:])
        if max(i, j, k, l) > n or min(i, j, k, l) < 0:
            raise ValueError(f"orbital index out of range in record: {raw!r}")
        if i == j == k == l == 0:
            key = ("core",)
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ValueError(f"bad index pattern in record: {raw!r}")
            key = ("one", max(i, j), min(i, j))
        elif min(i, j, k, l) == 0:
            raise ValueError(f"bad index pattern in record: {raw!r}")
        else:
            a, b = sorted((i, j), reverse=True)
            c, d = sorted((k, l), reverse=True)
            key = ("two",) + max((a, b, c, d), (c, d, a, b))
        if key in seen and seen[key] != value:
            raise ValueError(f"conflicting duplicate record for {key}: {raw!r}")
        seen[key] = value
        if key[0] == "core":
            core = value
        elif key[0] == "one":
            one[i - 1, j - 1] = one[j - 1, i - 1] = value
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b, c, d in (
                (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ):
                two[a, b, c, d] = value
    return n, core, one, two


_HEAD = "&FCI NORB=3,NELEC=2,MS2=0\n/\n"


class TestParseAgainstLoop:
    @pytest.mark.parametrize("name", ["h2", "h4", "h10"])
    def test_fixtures_are_bit_identical(self, fixtures_dir, name):
        text = (fixtures_dir / f"{name}.fcidump").read_text()
        m = parse_fcidump(text)
        n, core, one, two = reference_parse_fcidump(text)
        assert m.n_orbitals == n and repr(m.core_energy) == repr(core)
        assert np.array_equal(m.one_body, one) and m.one_body.tobytes() == one.tobytes()
        assert np.array_equal(m.two_body, two) and m.two_body.tobytes() == two.tobytes()

    def test_empty_body(self):
        m = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0\n/\n")
        assert m.core_energy == 0.0 and not m.one_body.any() and not m.two_body.any()

    def test_duplicates_keep_the_last_zero_sign(self):
        text = _HEAD + "0.0 2 1 0 0\n-0.0 1 2 0 0\n-0.0 3 2 2 1\n0.0 1 2 2 3\n"
        text += "0.0 0 0 0 0\n1.0 1 1 0 0\n"
        m = parse_fcidump(text)
        _, core, one, two = reference_parse_fcidump(text)
        assert m.one_body.tobytes() == one.tobytes() and m.two_body.tobytes() == two.tobytes()
        assert np.signbit(m.one_body[0, 1]) and not np.signbit(m.two_body[0, 1, 1, 2])

    @pytest.mark.parametrize("body", [
        "1.0 2 1 0 0\n1.0 1 2 0 0 7\n",  # malformed
        "1.0 2 1 0 0\nabc 1 1 0 0\n",  # unreadable value
        "1.0 2 1 0 0\n1.0 1 x 0 0\n",  # unreadable index
        "1.0 4 1 0 0\n",  # out of range
        "1.0 1 -1 1 1\n",  # negative index
        "1.0 99999999999999999999 1 0 0\n",  # past any fixed-width integer
        "1.0 0 1 0 0\n",  # one-electron record with a zero index
        "1.0 1 1 0 1\n",  # two-electron record with a zero index
        "1.0 2 1 2 1\n2.0 1 2 1 2\n",  # conflicting two-electron duplicate
        "1.0 2 1 3 3\n2.0 3 3 1 2\n",  # conflicting duplicate across the pair swap
        "0.5 0 0 0 0\n0.7 0 0 0 0\n",  # conflicting core
        "nan 1 1 0 0\nNaN 1 1 0 0\n",  # NaN conflicts with itself
        "nan 1 1 0 0\n1.0 4 1 0 0\n",  # but not without a duplicate
        # several faults: the first record at fault is reported
        "1.0 2 1 0 0\n2.0 1 2 0 0\n1.0 0 1 0 0\n1.0 4 1 0 0\n",
        "1.0 2 1 0 0\n1.0 0 1 0 0\n2.0 1 2 0 0\n",
        "1.0 0 1 0 0\nbad\n2.0 1 2 0 0\n",
        "1.0 2 1 0 0\n1.0 4 1 0 0\n2.0 1 2 0 0\n",
        "1.0 2 1 0 0\n2.0 1 2 0 0\nbad\n",
        "1.0 2 1 0 0\n1e400 2 1 0 0\n-1e400 2 2 0 0\n",
    ])
    def test_errors_name_the_record_the_loop_named(self, body):
        with pytest.raises(ValueError) as ref:
            reference_parse_fcidump(_HEAD + body)
        with pytest.raises(ValueError, match=re.escape(str(ref.value))):
            parse_fcidump(_HEAD + body)


class TestParse:
    def test_header_fields(self):
        m = parse_fcidump("&FCI NORB=4,NELEC=4,MS2=0\n/\n1.0 0 0 0 0\n")
        assert m.n_orbitals == 4 and m.n_electrons == 4

    def test_core_energy_record(self):
        m = parse_fcidump("&FCI NORB=1,NELEC=2,MS2=0\n/\n0.713 0 0 0 0\n")
        assert m.core_energy == pytest.approx(0.713)

    def test_fortran_exponent_and_symmetry(self):
        text = "&FCI NORB=2,NELEC=2,MS2=0\n/\n1.5D-01 2 1 2 1\n-0.5 2 1 0 0\n0.0 0 0 0 0\n"
        m = parse_fcidump(text)
        assert m.two_body[1, 0, 1, 0] == pytest.approx(0.15)
        # all eight permutation images filled
        assert m.two_body[0, 1, 0, 1] == pytest.approx(0.15)
        assert m.two_body[1, 0, 0, 1] == pytest.approx(0.15)
        assert m.one_body[0, 1] == pytest.approx(-0.5)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0\n/\n1.0 3 1 0 0\n")

    def test_conflicting_duplicate(self):
        text = "&FCI NORB=2,NELEC=2,MS2=0\n/\n1.0 2 1 0 0\n2.0 1 2 0 0\n"
        with pytest.raises(ValueError, match="conflicting"):
            parse_fcidump(text)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_fcidump("NORB=2\n")

    def test_open_shell_refused(self):
        with pytest.raises(ValueError, match="MS2=2"):
            parse_fcidump("&FCI NORB=2,NELEC=2,MS2=2\n/\n")


class TestHartreeFock:
    def test_non_interacting_fills_lowest(self):
        m = non_interacting([-1.0, 1.0], 2)
        mf = restricted_hartree_fock(m)
        assert mf.hf_energy == pytest.approx(-2.0, abs=1e-10)
        assert np.allclose(mf.density, np.diag([2.0, 0.0]), atol=1e-8)

    def test_h2_matches_reference(self, h2, h2_mf):
        _, meta = h2
        assert h2_mf.hf_energy == pytest.approx(meta["hf_energy"], abs=1e-8)

    def test_h4_matches_reference(self, h4, h4_mf):
        _, meta = h4
        assert h4_mf.hf_energy == pytest.approx(meta["hf_energy"], abs=1e-8)

    @pytest.mark.parametrize("name", ["h2", "h4", "h10"])
    def test_density_invariants(self, name, request):
        m, _ = request.getfixturevalue(name)
        mf = restricted_hartree_fock(m)
        assert np.trace(mf.density) == pytest.approx(m.n_electrons, abs=1e-8)
        assert np.allclose(mf.density @ mf.density, 2.0 * mf.density, atol=1e-6)
        assert np.all(np.diff(mf.orbital_energies) >= -1e-12)

    @pytest.mark.parametrize("name", ["h2", "h4", "h10"])
    def test_energy_monotone_under_damping(self, name, request):
        m, _ = request.getfixturevalue(name)
        mf = restricted_hartree_fock(m)
        diffs = np.diff(mf.energy_trace)
        assert np.all(diffs <= 1e-10)

    def test_odd_electron_count_rejected(self):
        m = non_interacting([-1.0, 1.0], 1)
        with pytest.raises(ValueError, match="even electron count"):
            restricted_hartree_fock(m)

    def test_non_convergence_reported(self, h4):
        with pytest.raises(ScfConvergenceError) as err:
            restricted_hartree_fock(h4[0], max_iter=2, conv_tol=1e-14)
        assert err.value.density_change > 0


class TestActiveSpace:
    def test_full_window_is_exact_rotation(self, h2, h2_mf):
        m, meta = h2
        for window in (1, None):  # None keeps every orbital
            active, info = active_space(m, h2_mf, window=window)
            assert active.n_orbitals == 2 and active.n_electrons == 2
            assert info.frozen_occupied == () and info.active_orbitals == (0, 1)
            e_full = full_ci_ground_energy(m)
            e_act = full_ci_ground_energy(active)
            assert e_act == pytest.approx(e_full, abs=1e-8)
            assert e_full == pytest.approx(meta["fci_energy"], abs=1e-8)
        # with no window the integrals are the bare rotation, bit for bit
        h, g = transform_integrals(m.one_body, m.two_body, h2_mf.orbital_coeffs)
        assert np.array_equal(active.one_body, h) and np.array_equal(active.two_body, g)
        assert active.core_energy == m.core_energy

    def test_no_window_keeps_an_unbalanced_gap_whole(self):
        # 1 occupied and 3 virtual orbitals: window 1 keeps 2 of them, window 2 is too wide
        m = non_interacting([-1.0, 0.5, 1.0, 2.0], 2)
        mf = restricted_hartree_fock(m)
        with pytest.raises(WindowError, match="exceeds the orbital range"):
            active_space(m, mf, window=2)
        active, info = active_space(m, mf)
        assert info.frozen_occupied == () and info.active_orbitals == (0, 1, 2, 3)
        assert active.n_orbitals == 4 and active.n_electrons == 2
        assert full_ci_ground_energy(active) == pytest.approx(-2.0, abs=1e-12)
        assert full_ci_ground_energy(m) == pytest.approx(-2.0, abs=1e-12)

    def test_h4_full_window_identity(self, h4, h4_mf):
        m, meta = h4
        active, info = active_space(m, h4_mf, window=2)
        assert full_ci_ground_energy(active) == pytest.approx(meta["fci_energy"], abs=1e-8)

    def test_window_sizes(self, h10):
        m, _ = h10
        mf = restricted_hartree_fock(m)
        for k in (1, 2, 3, 4, 5):
            active, info = active_space(m, mf, window=k)
            assert active.n_orbitals == 2 * k
            assert active.n_electrons == 2 * k
            assert len(info.frozen_occupied) == 5 - k

    def test_window_out_of_range(self, h2, h2_mf):
        with pytest.raises(ValueError, match="exceeds the orbital range"):
            active_space(h2[0], h2_mf, window=2)

    def test_frozen_block_decouples_exactly(self):
        # two non-interacting subsystems in block-diagonal integrals: freezing
        # the fully occupied block leaves the total energy invariant
        rng = np.random.default_rng(5)
        na, nb = 2, 2
        n = na + nb
        h = np.zeros((n, n))
        h[:na, :na] = np.diag([-5.0, -4.0])  # deep, stays occupied
        hb = rng.normal(size=(nb, nb)) * 0.2
        h[na:, na:] = (hb + hb.T) / 2 + np.diag([-1.0, 0.5])
        g = np.zeros((n, n, n, n))
        gb = rng.normal(size=(nb,) * 4) * 0.05
        for perm in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                     (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)):
            g[na:, na:, na:, na:] += np.transpose(gb, perm) / 8.0
        m = MolecularIntegrals(n, 6, 0.3, h, g)
        mf = restricted_hartree_fock(m)
        active, info = active_space(m, mf, window=1)
        assert len(info.frozen_occupied) == 2
        assert full_ci_ground_energy(active) == pytest.approx(full_ci_ground_energy(m), abs=1e-8)

    def test_degeneracy_warning(self):
        m = non_interacting([-1.0, -1.0, 1.0, 1.0], 4)
        mf = restricted_hartree_fock(m)
        with pytest.warns(UserWarning, match="degenerate"):
            active_space(m, mf, window=1)
