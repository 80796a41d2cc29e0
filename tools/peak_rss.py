"""Run one risim CLI command in this process and print the peak memory of every process it used.

Run from the repository root, with the CLI's arguments after the script's name:

    python3 tools/peak_rss.py sweep-power --config configs/default.json \
        --mode fixed --grid 30 --trials 8 --out /tmp/out.csv

Every BLAS pool is pinned to one thread before numpy loads, as
``bench/run.py`` and the other tools pin them, so a sweep runs its blocks in
one worker process per usable CPU, as the benchmark's sweeps do. The command
runs through ``risim.cli.cli_main`` on this tree's ``src``. Three lines
follow its own output:

- ``caller_peak_rss_mb``: the peak resident set of this process
  (``RUSAGE_SELF``), the figure ``bench/run.py`` reports as ``peak_rss_mb``;
- ``worker_peak_rss_mb``: the largest peak of any worker process the command
  waited for (``RUSAGE_CHILDREN``), 0 when it ran in this process alone;
- ``wall_s``: the command's wall time.

``ru_maxrss`` counts KiB on Linux; a MB here is 1024 of them, as in
``bench/run.py``. The exit code is the command's.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for var in THREAD_VARS:  # before numpy loads; no effect once it has
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from risim.cli import cli_main

    start = time.perf_counter()
    code = cli_main(argv)
    wall = time.perf_counter() - start
    caller = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"caller_peak_rss_mb {caller:.1f}")
    print(f"worker_peak_rss_mb {worker:.1f}")
    print(f"wall_s {wall:.2f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
