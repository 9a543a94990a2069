"""``python -m perfbench``: see ``perfbench/README.md``."""

import time

_STARTED = time.perf_counter()  # before numpy and repro are imported: set-up includes them

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The program under test is run from source, as the rest of the repo does
# with PYTHONPATH=src; the benchmark command may not name that directory.
_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], started=_STARTED))
