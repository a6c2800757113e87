"""Entry point named by ``BENCHMARK.json``: one workload, one seed, one line.

Prints the run's metrics as tables and, as the last line of standard output,
the JSON object the driver reads.  Runs from the root of a checkout with no
``PYTHONPATH``: the repository's ``src`` is put on the path here, so in a
directory without the program the import fails and the exit code is not 0.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.harness.cli import bench  # noqa: E402

if __name__ == "__main__":
    sys.exit(bench(sys.argv[1:]))
