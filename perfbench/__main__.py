"""``python -m perfbench``: the same entry point as ``perfbench/run.py``."""

import sys

from perfbench.run import main

sys.exit(main())
