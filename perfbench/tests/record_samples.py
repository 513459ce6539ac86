"""Record one round of every workload as the good samples the tests corrupt.

    python3 perfbench/tests/record_samples.py      # from the repository root

Runs each workload once through worker.py (about a minute in all) and writes
``samples/<workload>.json`` with the result-file texts (and, where the sampled VQE
runs are part of the workload, the exported Hamiltonian and circuit).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE.parent / "worker.py"


def main() -> int:
    env = dict(os.environ, PYTHONPATH="src")
    (HERE / "samples").mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            record_path = Path(tmp) / "record.json"
            subprocess.run(
                [sys.executable, str(WORKER), f"--workload={name}", "--seed=0", "--seconds=0",
                 f"--scratch={tmp}", f"--record={record_path}"],
                env=env, check=True,
            )
            record = json.loads(record_path.read_text())
        keep = {k: record[k] for k in ("outputs", "problem") if k in record}
        (HERE / "samples" / f"{name}.json").write_text(json.dumps(keep, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
