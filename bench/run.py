"""risim benchmark: Monte Carlo sweeps through the public CLI, in one process.

Run from the repository root:

    python3 bench/run.py --workload fixed-power --seed 12345 --seconds 40 --trace 0

Load is a closed loop: one process runs one sweep at a time, each trial after
the previous one, with the BLAS thread count pinned to BLAS_THREADS. With
``--trace 0`` the script prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced sweeps and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
correctness check passed, and 2 when the repository layout is missing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import monotonic, perf_counter

import tracer as tracing

BLAS_THREADS = 1  # on 2 vCPUs, one thread made a 40-trial fixed sweep much steadier
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = ROOT / "configs" / "default.json"
OUT_DIR = ROOT / ".bench_run"
DEFAULT_SEED = 12345
SETUP_REPEATS = 9
REFERENCE_TRIALS = 1  # per grid point; the reference sweep doubles as the warm-up
REL_TOL = 1e-9  # fixed mode has no optimizer, so its CSV must not drift
TRACE_TOL = 0.01  # layer self times plus harness self time vs traced sweep wall

# The six default scenario cases, spelled out so a change of CLI defaults does
# not change the benchmark's inputs.
CASES = ("eif", "irr", "emi:-75", "emi:-65", "emi_irr:-75", "emi_irr:-65")


@dataclass(frozen=True)
class Workload:
    command: str
    mode: str
    grid: tuple[int, ...]
    trials: int  # per grid point
    why: str
    reference: str | None = None  # CSV of this sweep at DEFAULT_SEED and REFERENCE_TRIALS

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            self.command,
            "--config", str(CONFIG),
            "--mode", self.mode,
            "--grid", ",".join(str(v) for v in self.grid),
            "--scenarios", ",".join(CASES),
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--out", str(out),
        ]

    @property
    def trials_per_sweep(self) -> int:
        return len(self.grid) * self.trials

    @property
    def ops_per_sweep(self) -> int:
        return self.trials_per_sweep * len(CASES)


WORKLOADS = {
    "fixed-power": Workload(
        "sweep-power", "fixed", (10, 15, 20, 25, 30, 35, 40), 36,
        "evaluation path only (rcg and ao idle): cascades, EMI SINR and draws; "
        "an optimizer change must not move it",
        reference="reference/fixed-power-1trial.csv",
    ),
    "unaware-elements": Workload(
        "sweep-elements", "unaware", (25, 100, 225, 400), 55,
        "RCG loop on the cheap EIF objective, bound by interpreter overhead; "
        "statistics built at four sizes; the N x N complex matrices grow from "
        "10 KiB (N=25) to 2.5 MB (N=400) and cross the per-core L2",
    ),
    "aware-power": Workload(
        "sweep-power", "aware", (10, 40), 4,
        "EMI objective and gradient dominate; the headline aware-mode cost",
    ),
}


# -- environment ----------------------------------------------------------


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to BLAS_THREADS; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit() -> str:
    """HEAD from .git in the repository root, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": _git_commit(),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


# -- correctness ----------------------------------------------------------


def check_csv(text: str, wl: Workload) -> list[str]:
    """Problems with one sweep's CSV: shape, finiteness, outage range, trial counts."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != len(wl.grid) * len(CASES):
        problems.append(f"expected {len(wl.grid) * len(CASES)} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        try:
            value = float(row["sweep_value"])
            rate = float(row["mean_sum_rate_bps_hz"])
            outage = float(row["outage_user1"])
            done = int(row["trials"]) + int(row["skipped"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {i}: unreadable ({exc})")
            continue
        if not all(math.isfinite(v) for v in (value, rate, outage)):
            problems.append(f"row {i}: non-finite value")
        if not 0.0 <= outage <= 1.0:
            problems.append(f"row {i}: outage {outage} outside [0, 1]")
        if done != wl.trials:
            problems.append(f"row {i}: trials + skipped = {done}, attempted {wl.trials}")
        if row["mode"] != wl.mode or value not in wl.grid:
            problems.append(f"row {i}: unexpected mode or grid value")
    return problems


def compare_reference(text: str, ref_text: str) -> list[str]:
    """Rows must match the reference: labels exactly, numbers to REL_TOL relative."""
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if len(rows) != len(ref) or rows[:1] != ref[:1]:
        return [f"expected the reference's header and {len(ref)} lines"]
    numeric = {0, 3, 4}  # sweep_value, mean_sum_rate_bps_hz, outage_user1
    problems = []
    for i, (row, want) in enumerate(zip(rows[1:], ref[1:]), start=1):
        same = len(row) == len(want) and all(
            math.isclose(float(got), float(exp), rel_tol=REL_TOL) if j in numeric else got == exp
            for j, (got, exp) in enumerate(zip(row, want))
        )
        if not same:
            problems.append(f"line {i}: {row} differs from reference {want}")
    return problems


def sum_rate(text: str) -> float:
    rows = list(csv.DictReader(io.StringIO(text)))
    return statistics.fmean(float(r["mean_sum_rate_bps_hz"]) for r in rows)


def skipped(text: str) -> int:
    return sum(int(r["skipped"]) for r in csv.DictReader(io.StringIO(text)))


class DecreaseCounter(logging.Handler):
    """Counts the AO 'outer objective decreased' warnings instead of printing them."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("outer objective decreased"):
            self.count += 1
        else:
            sys.stderr.write(self.format(record) + "\n")


# -- measurement ----------------------------------------------------------


@dataclass
class Sweep:
    wall: float
    text: str | None  # the CSV, or None when the sweep aborted


@dataclass
class Tally:
    """Operations attempted and failed, and every problem found, across sweeps."""

    wl: Workload
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first: str | None = None

    def add(self, sweep: Sweep) -> None:
        self.attempted += self.wl.ops_per_sweep
        if sweep.text is None:
            self.failed += self.wl.ops_per_sweep
            self.problems.append("a sweep aborted")
            return
        self.failed += skipped(sweep.text)
        self.problems.extend(check_csv(sweep.text, self.wl))
        if self.first is None:
            self.first = sweep.text
        elif sweep.text != self.first:
            self.problems.append("repeated sweeps at one seed gave different CSVs")


def run_one(cli_main, wl: Workload, seed: int, out: Path, tracer=None) -> Sweep:
    """One sweep through cli_main, timed around the call."""
    argv = wl.argv(seed, out)
    out.unlink(missing_ok=True)
    t0 = perf_counter()
    try:
        code = tracer.span(tracing.SWEEP_SPAN, cli_main, argv) if tracer else cli_main(argv)
    except Exception:  # a sweep that raises counts as failed; keep measuring the rest
        traceback.print_exc()
        code = None
    wall = perf_counter() - t0
    return Sweep(wall, out.read_text(encoding="utf-8") if code == 0 and out.is_file() else None)


def closed_loop(step, seconds: float) -> list:
    """Repeat step() back to back; stop before a repeat would overrun seconds."""
    start = perf_counter()
    results = []
    while True:
        results.append(step())
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def measure_setup(repeats: int) -> float:
    """Median wall from launching a fresh interpreter to its first trial being ready."""
    times = []
    for _ in range(repeats):
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 wl: Workload | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return the result object; prints a readable report."""
    from risim.cli import cli_main

    wl = wl or WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{name}-{seed}.csv"
    counter = DecreaseCounter()
    ao_log = logging.getLogger("risim.ao")
    ao_log.addHandler(counter)
    ao_log.propagate = False
    tally = Tally(wl)
    try:
        # Warm-up, unmeasured: the first calls in a process pay one-off costs
        # (imports, BLAS start-up) that setup_s reports. Where the workload has
        # a reference CSV the warm-up is the reference sweep itself.
        if wl.reference:
            warm = run_one(cli_main, replace(wl, trials=REFERENCE_TRIALS), DEFAULT_SEED, out)
            ref_text = (BENCH / wl.reference).read_text(encoding="utf-8")
            tally.problems += ["reference: " + p for p in compare_reference(warm.text or "", ref_text)]
        else:
            single = ["single-trial", "--config", str(CONFIG), "--seed", str(seed), "--out", str(out)]
            if cli_main(single) != 0:
                tally.problems.append("warm-up single trial failed")

        if trace:
            metrics = _traced(cli_main, wl, seed, seconds, out, tally, counter)
        else:
            metrics = _untraced(cli_main, wl, seed, seconds, out, tally, setup_repeats)
    finally:
        ao_log.removeHandler(counter)
        ao_log.propagate = True

    for problem in tally.problems:
        print(f"check FAILED: {problem}")
    if not tally.problems:
        print("check ok: CSV rows finite, outage in [0, 1], trials + skipped = attempted, "
              "repeated sweeps identical" + (", reference matched" if wl.reference else ""))
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _untraced(cli_main, wl, seed, seconds, out, tally, setup_repeats) -> dict:
    sweeps = closed_loop(lambda: run_one(cli_main, wl, seed, out), seconds)
    for s in sweeps:
        tally.add(s)
    walls = [s.wall for s in sweeps]
    print(f"sweeps {len(sweeps)}, wall s per sweep: " + ", ".join(f"{w:.3f}" for w in walls))
    text = tally.first
    return {
        "trials_per_s": (statistics.median(wl.trials_per_sweep / w for w in walls), "trials/s"),
        "setup_s": (measure_setup(setup_repeats), "s"),
        "sum_rate_bps_hz": (sum_rate(text) if text else 0.0, "bit/s/Hz"),
        "completed_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(cli_main, wl, seed, seconds, out, tally, counter) -> dict:
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    decreased = 0

    def pair():
        nonlocal decreased
        sweep = run_one(cli_main, wl, seed, out)
        tally.add(sweep)
        plain.append(sweep.wall)
        before = counter.count
        with tracer:
            sweep = run_one(cli_main, wl, seed, out, tracer)
        decreased += counter.count - before
        tally.add(sweep)
        traced.append(sweep.wall)
        return sweep

    closed_loop(pair, seconds)
    tracer.write(OUT_DIR / f"{out.stem}-spans.csv")
    for name in tracer.absent:
        print(f"layer {name}: absent")
    root = tracer.root_wall()
    if abs(root - sum(traced)) > TRACE_TOL * sum(traced):
        tally.problems.append(f"root spans cover {root:.4f} s of {sum(traced):.4f} s traced wall")
    own = sum(tracing.self_times(tracer.spans))
    if abs(own - root) > TRACE_TOL * root:
        tally.problems.append(f"self times sum to {own:.4f} s, traced wall {root:.4f} s")
    print(f"pairs {len(traced)}, untraced/traced wall s: "
          + ", ".join(f"{p:.3f}/{t:.3f}" for p, t in zip(plain, traced)))
    metrics = tracer.metrics(len(traced) * wl.trials_per_sweep, decreased / len(traced))
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "risim" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"bench: no risim sources or {CONFIG.name} under {ROOT}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {' '.join(wl.argv(args.seed, Path('<out>'))[:-2])}")
    print(f"  why: {wl.why}")
    print(f"  caches: L2 {env['l2_cache_bytes']} B, L3 {env['l3_cache_bytes']} B")
    print(f"  load: closed loop, 1 process, sweeps back to back, {BLAS_THREADS} BLAS thread(s); "
          "no layer queues or waits (no I/O on the hot path)")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), wl=wl)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
