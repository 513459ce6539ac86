import sys
from pathlib import Path

# The benchmark modules live one directory up and are imported as top-level
# modules, as run.py and worker.py import them.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
