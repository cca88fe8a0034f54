"""Entry script of the benchmark (the ``command`` of ``BENCHMARK.json``).

Run as ``python3 perfbench/run.py ...`` from the repository root; it puts
the repository and its ``src`` on the import path, so nothing has to be
installed or exported first.  Outside a checkout that has ``src/`` the
import of the program under test fails and the script exits non-zero
without printing a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
