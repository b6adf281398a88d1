"""The benchmark's command: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1`` from the root of a checkout."""

import sys
from pathlib import Path

# Started as a script, the interpreter put this directory first on the
# path; the package and the program live one level up.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench._env import ensure_paths  # noqa: E402

ensure_paths()

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
