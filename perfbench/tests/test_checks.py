"""Each output check accepts a recorded good result and rejects corrupted ones.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/tests
The samples under samples/ were recorded from one round of each workload
(see README); the tests edit them in memory and never run the workloads.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import checks
import workloads

REPO = Path(__file__).resolve().parents[2]
SAMPLES = Path(__file__).resolve().parent / "samples"


def sample(name: str) -> dict:
    return json.loads((SAMPLES / f"{name}.json").read_text())


def sub(text: str, key: str, transform, count: int = 1) -> str:
    """Apply ``transform`` to the float after the first ``count`` ``key=``."""
    pattern = re.compile(rf"(\b{re.escape(key)}=)([-+0-9.eE]+)")
    return pattern.sub(lambda m: m.group(1) + repr(transform(float(m.group(2)))), text, count)


def check(name: str, record: dict):
    checks.check_workload(name, record, REPO)


# -- good samples pass --------------------------------------------------------------

@pytest.mark.parametrize("name", ["deparam_sampled", "dmet_resources"])
def test_recorded_outputs_pass(name):
    check(name, sample(name))


# -- chain5 deparameterisation -------------------------------------------------------------------

def corrupt_deparam(edit) -> dict:
    record = sample("deparam_sampled")
    record["outputs"]["chain5"] = edit(record["outputs"]["chain5"])
    return record


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: sub(t, "oracle_energy", lambda e: e + 1e-7), "oracle_energy"),
        (lambda t: sub(t, "energy", lambda e: -5.1), "below the ground energy"),
        (lambda t: sub(t, "energy", lambda e: e * 0.98), "relative error"),
        (lambda t: "\n".join(t.splitlines()[:8]) + "\n", "parameters frozen"),
    ],
    ids=["shifted-oracle", "below-ground", "error-too-large", "too-few-frozen"],
)
def test_deparam_rejects(edit, message):
    with pytest.raises(checks.CheckError, match=message):
        check("deparam_sampled", corrupt_deparam(edit))


# -- H10 DMET -------------------------------------------------------------------------

def corrupt_dmet(label: str, edit) -> dict:
    record = sample("dmet_resources")
    record["outputs"][label] = edit(record["outputs"][label])
    return record


def shift_fragment(text: str, index: int, key: str, delta: float) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"fragment {index} "):
            lines[i] = sub(line, key, lambda v: v + delta)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "label, edit, message",
    [
        ("5x2", lambda t: t.replace("converged=true", "converged=false"), "did not converge"),
        ("2+3+3+2", lambda t: sub(t, "electron_mismatch", lambda v: 2e-6), "mismatch"),
        ("5x2", lambda t: shift_fragment(t, 0, "energy", 1e-5), "mirror symmetry"),
        ("2+3+3+2", lambda t: shift_fragment(t, 3, "electrons", 1e-5), "mirror symmetry"),
        ("5x2", lambda t: sub(t, "total_energy", lambda e: -5.3), "not below RHF"),
        ("2+3+3+2", lambda t: sub(t, "total_energy", lambda e: e - 0.02), "disagree"),
    ],
    ids=["not-converged", "mismatch", "mirror-energy", "mirror-electrons", "above-rhf",
         "fragmentations-disagree"],
)
def test_dmet_rejects(label, edit, message):
    with pytest.raises(checks.CheckError, match=message):
        check("dmet_resources", corrupt_dmet(label, edit))


# -- H10 resources --------------------------------------------------------------------

def corrupt_resources(kind: str, window: int, column: int, delta: int) -> dict:
    record = sample("dmet_resources")
    lines = record["outputs"][kind].splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == str(window):
            cells[column] = str(int(cells[column]) + delta)
            lines[i] = ",".join(cells)
    record["outputs"][kind] = "\n".join(lines) + "\n"
    return record


@pytest.mark.parametrize(
    "kind, window, column, delta, message",
    [
        ("jordan_wigner", 2, 1, 2, "width"),
        ("parity_reduced", 4, 1, 2, "width"),
        ("parity", 3, 2, 1, "parity has"),
        ("parity_reduced", 1, 2, 100, "reduction grew"),
    ],
    ids=["jw-width", "reduced-width", "parity-count", "reduced-count"],
)
def test_resources_rejects(kind, window, column, delta, message):
    with pytest.raises(checks.CheckError, match=message):
        check("dmet_resources", corrupt_resources(kind, window, column, delta))


def test_resources_rejects_count_off_the_reference():
    record = corrupt_resources("jordan_wigner", 1, 2, -1)
    record["outputs"]["parity"] = record["outputs"]["jordan_wigner"].replace(
        "jordan_wigner", "parity")
    with pytest.raises(checks.CheckError, match="reference has"):
        check("dmet_resources", record)


# -- H2 sampled VQE -------------------------------------------------------------------

def test_sampled_rejects_stalled_parameters():
    record = sample("deparam_sampled")
    label = next(iter(workloads.SAMPLED_RUNS))
    text = record["outputs"][label]
    zeros = ",".join("0.0" for _ in checks.parse_parameters(text))
    record["outputs"][label] = re.sub(r"parameters=.*", f"parameters={zeros}", text)
    with pytest.raises(checks.CheckError, match="relative error"):
        check("deparam_sampled", record)


def test_sampled_rejects_wrong_hamiltonian():
    record = sample("deparam_sampled")
    lines = record["problem"]["hamiltonian"].splitlines()
    re_, im, word = lines[1].split()
    lines[1] = f"{float(re_) + 1e-3!r} {im} {word}"
    record["problem"]["hamiltonian"] = "\n".join(lines) + "\n"
    with pytest.raises(checks.CheckError, match="is not FCI"):
        check("deparam_sampled", record)


def test_sampled_rejects_energy_below_fci(monkeypatch):
    # Raise the reference 10 mHa above the true ground energy and widen the
    # oracle tolerance so only the variational-bound test can fail.
    record = sample("deparam_sampled")
    fci = checks.read_fixture_json(REPO, "h2")["fci_energy"]
    runs = [
        {"label": k, "result": record["outputs"][k], **record["problem"]}
        for k in workloads.SAMPLED_RUNS
    ]
    monkeypatch.setattr(checks, "ORACLE_TOL", 0.1)
    with pytest.raises(checks.CheckError, match="below FCI"):
        checks.check_sampled(runs, fci + 0.01)

