"""``python -m perfbench``: the same command as ``perfbench/run.py``."""

import sys

from perfbench._env import ensure_paths

ensure_paths()

from perfbench.cli import main  # noqa: E402

sys.exit(main())
