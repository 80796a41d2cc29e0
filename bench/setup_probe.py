"""Set-up probe: import risim, load the config, build the channel statistics once.

Run in a fresh interpreter as ``python3 bench/setup_probe.py <repo root>``.
It prints ``time.monotonic()`` at the moment the first trial could start, so
the parent can subtract the time it launched the interpreter (both read the
same system-wide monotonic clock on Linux).
"""

import sys
import time
from pathlib import Path

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))

import risim  # noqa: E402

risim.build_statistics(risim.load_config(root / "configs" / "default.json"))
print(repr(time.monotonic()))
