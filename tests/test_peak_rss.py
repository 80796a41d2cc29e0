"""tools/peak_rss.py end to end, on a small sweep in a fresh interpreter."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from risim import default_config, save_config

_ROOT = Path(__file__).resolve().parents[1]


def test_peak_rss_smoke(tmp_path):
    base = default_config()
    cfg = replace(base, clusters=tuple(replace(c, ris_side=3) for c in base.clusters))
    save_config(cfg, tmp_path / "cfg.json")
    argv = ["sweep-power", "--config", str(tmp_path / "cfg.json"), "--mode", "fixed",
            "--grid", "30", "--trials", "4", "--out", str(tmp_path / "out.csv")]
    proc = subprocess.run([sys.executable, str(_ROOT / "tools" / "peak_rss.py"), *argv],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text(encoding="utf-8").startswith("sweep_value,")
    values = dict(line.split() for line in proc.stdout.splitlines())
    assert list(values) == ["caller_peak_rss_mb", "worker_peak_rss_mb", "wall_s"]
    caller, worker, wall = (float(v) for v in values.values())
    assert caller > 0.0 and wall > 0.0
    # one BLAS thread: the sweep's blocks run in a worker per usable CPU
    assert worker > 0.0 if len(os.sched_getaffinity(0)) > 1 else worker == 0.0
