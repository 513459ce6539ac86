"""Active-space resource sweeps."""

import pytest

from vqemb.chem import restricted_hartree_fock
from vqemb.mapping import JORDAN_WIGNER, PARITY, MappingSpec
from vqemb.resources import estimate, format_table, to_csv


@pytest.fixture(scope="module")
def h10_mf(h10):
    return restricted_hartree_fock(h10[0])


class TestEstimate:
    def test_table_iv_width_progression(self, h10, h10_mf):
        est = estimate(h10[0], h10_mf, [1, 2, 3, 4], MappingSpec(JORDAN_WIGNER))
        assert [e.circuit_width for e in est] == [8, 12, 16, 20]

    def test_width_linear_in_window(self, h10, h10_mf):
        est = estimate(h10[0], h10_mf, [1, 2, 3, 4], MappingSpec(JORDAN_WIGNER))
        for k, e in zip((1, 2, 3, 4), est):
            assert e.circuit_width == est[0].circuit_width + 4 * (k - 1)

    def test_terms_strictly_increasing(self, h10, h10_mf):
        est = estimate(h10[0], h10_mf, [1, 2, 3, 4], MappingSpec(JORDAN_WIGNER))
        terms = [e.hamiltonian_terms for e in est]
        assert all(a < b for a, b in zip(terms, terms[1:]))

    def test_full_window_width_on_h2(self, h2, h2_mf):
        est = estimate(h2[0], h2_mf, [0], MappingSpec(JORDAN_WIGNER))
        assert est[0].circuit_width == 4  # 2 spatial orbitals
        # the count is a direct count of the mapped active-space Hamiltonian
        from vqemb.chem import active_space
        from vqemb.mapping import build_fermionic_hamiltonian, map_to_qubits

        acts, _ = active_space(h2[0], h2_mf, window=1)
        h = map_to_qubits(build_fermionic_hamiltonian(acts), MappingSpec(JORDAN_WIGNER))
        assert est[0].hamiltonian_terms == len(h)

    def test_parity_reduction_width(self, h10, h10_mf):
        spec = MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=10)
        est = estimate(h10[0], h10_mf, [1, 2], spec)
        assert [e.circuit_width for e in est] == [6, 10]

    def test_mapping_labels_tell_reduction_apart(self, h2, h2_mf):
        labels = [
            estimate(h2[0], h2_mf, [0], spec)[0].mapping_kind
            for spec in (
                MappingSpec(JORDAN_WIGNER),
                MappingSpec(PARITY),
                MappingSpec(PARITY, two_qubit_reduction=True, n_electrons=2),
            )
        ]
        assert labels == ["jordan_wigner", "parity", "parity_reduced"]

    def test_window_out_of_range(self, h2, h2_mf):
        with pytest.raises(ValueError):
            estimate(h2[0], h2_mf, [1], MappingSpec(JORDAN_WIGNER))


class TestFormatting:
    def test_table_and_csv_agree(self, h10, h10_mf):
        est = estimate(h10[0], h10_mf, [1, 2], MappingSpec(JORDAN_WIGNER))
        table = format_table(est)
        csv = to_csv(est)
        for e in est:
            assert str(e.circuit_width) in table
            assert f"{e.window},{e.circuit_width},{e.hamiltonian_terms}" in csv

    def test_csv_header(self, h10, h10_mf):
        est = estimate(h10[0], h10_mf, [1], MappingSpec(JORDAN_WIGNER))
        assert to_csv(est).splitlines()[0] == "window,circuit_width,hamiltonian_terms,mapping"
