"""Entry point of the end-to-end benchmark (see README.md next to this file).

    python3 benchmarks/e2e/run.py --workload query_mix --seed 0 --seconds 20 --trace 0

Before anything from ``repro`` is imported this file pins the
configuration: every ``REPRO_*`` variable is deleted (engines, caches and
transports are passed explicitly instead) and the interpreter is
restarted in place, by ``exec`` and so without a second process, when
``PYTHONHASHSEED`` is not ``0``, because set iteration order decides the
order rewritings are enumerated in.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"


def pin_environment() -> list:
    scrubbed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.environ["E2E_SCRUBBED"] = ",".join(scrubbed)
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable] + sys.argv)
    return scrubbed or [n for n in os.environ.pop("E2E_SCRUBBED", "").split(",") if n]


if __name__ == "__main__":
    scrubbed_names = pin_environment()
    if not (SOURCE / "repro").is_dir():
        sys.stderr.write(f"e2e benchmark: no program to measure under {SOURCE}\n")
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(SOURCE)]
    from e2e_cli import main

    sys.exit(main(sys.argv[1:], scrubbed_names))
