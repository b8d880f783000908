"""Make the benchmark helpers and the test oracles importable when pytest
collects this directory (``bench_common`` from here, ``tests.oracles`` from
the repository root, also under a plain ``pytest`` run)."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent) not in sys.path:
    sys.path.append(str(HERE.parent))
