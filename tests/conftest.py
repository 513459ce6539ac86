import json
from pathlib import Path

import numpy as np
import pytest

from vqemb.chem import MolecularIntegrals, parse_fcidump, restricted_hartree_fock

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    integrals = parse_fcidump((FIXTURES / f"{name}.fcidump").read_text())
    meta = json.loads((FIXTURES / f"{name}.json").read_text())
    return integrals, meta


@pytest.fixture(scope="session")
def h2():
    return load_fixture("h2")


@pytest.fixture(scope="session")
def h4():
    return load_fixture("h4")


@pytest.fixture(scope="session")
def h10():
    return load_fixture("h10")


@pytest.fixture(scope="session")
def h2_mf(h2):
    return restricted_hartree_fock(h2[0])


@pytest.fixture(scope="session")
def h4_mf(h4):
    return restricted_hartree_fock(h4[0])


@pytest.fixture(scope="session")
def h10_mf(h10):
    return restricted_hartree_fock(h10[0])


@pytest.fixture(scope="session")
def hubbard_ring():
    """Six-site half-filled Hubbard ring at U/t = 8: hopping -1 between ring neighbours."""
    n = 6
    h = np.zeros((n, n))
    for i in range(n):
        h[i, (i + 1) % n] = h[(i + 1) % n, i] = -1.0
    g = np.zeros((n,) * 4)
    for i in range(n):
        g[i, i, i, i] = 8.0
    return MolecularIntegrals(n, n, 0.0, h, g)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
