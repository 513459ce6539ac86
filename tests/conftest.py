import json
from pathlib import Path

import pytest

from vqemb.chem import parse_fcidump, restricted_hartree_fock

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
def fixtures_dir():
    return FIXTURES
