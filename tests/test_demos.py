"""Every demo script runs to completion from the repository root."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
# demo 01 rewrites this tracked figure; a deterministic run leaves it byte-identical
CONVERGENCE_SVG = ROOT / "demo_out" / "vqe_h2_convergence.svg"


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    before = CONVERGENCE_SVG.read_bytes()
    try:
        run = subprocess.run(
            [sys.executable, str(Path("demos") / demo)],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        after = CONVERGENCE_SVG.read_bytes()
    finally:
        CONVERGENCE_SVG.write_bytes(before)
    assert run.returncode == 0, run.stderr
    assert after == before
