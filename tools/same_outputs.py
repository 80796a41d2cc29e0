"""Run a fixed list of risim CLI commands in two trees and check that their outputs agree.

Run from the repository root, with the parent commit checked out elsewhere
(a ``git clone`` or ``git archive`` of it):

    python3 tools/same_outputs.py --parent ../parent --change .

Each command runs once in each tree, as ``python3 -m risim.cli`` in a fresh
interpreter on that tree's ``src`` and ``configs/default.json``, with every
BLAS pool on one thread. It writes its output (``--out``) and its optimizer
trace (``--trace``) to a temporary directory. The commands are the sweep of
each ``bench/run.py`` workload (the argv of its ``WORKLOADS`` entry, read
from the change tree) at the seeds BENCH_SEEDS, then COMMANDS. For each
command the script prints ``identical``, or the first line where the output
or the trace differs. Each command also runs a second time in the change
tree, confined to one CPU (``os.sched_setaffinity`` in the child), so that
its sweep runs in one process instead of a worker process per usable CPU;
where that run's output or trace differs from the first, the first
differing line follows ``one CPU:``. When a sweep's CSV differs between
the trees, every differing row follows, keyed by sweep value and scenario,
with the relative change of ``mean_sum_rate_bps_hz`` and the change of the
outage fraction. When a trace differs, a summary follows: how many rows
differ and how many are on one side only (rows matched by sweep value,
scenario, mode, trial, stage and iteration), their stages, and the largest
relative change of each value column, which tells a change in the last
digits from a different optimizer path. It exits 1 on any difference or
failed command.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH_SEEDS = (12345, 1)
CONFIG = "{config}"  # replaced by each tree's configs/default.json
TRIALS = "4"  # per grid point of the sweeps in COMMANDS that pass --trials
SEED = "7"  # a seed other than the config's rng_seed, for the commands that pass --seed
COMMANDS = (
    ("sweep-emi", "--mode", "aware", "--trials", TRIALS),
    ("sweep-elements", "--mode", "aware", "--grid", "25,100", "--trials", TRIALS),
    ("sweep-power", "--mode", "aware", "--grid", "10,10,40", "--trials", TRIALS),
    # no IRR case: the neighbor terms are never built
    ("sweep-power", "--mode", "aware", "--grid", "10,40", "--scenarios", "eif,emi:-65", "--trials", TRIALS),
    # the unaware EMI sweep: the most distinct (neighbor, EMI levels) terms per draw
    ("sweep-emi", "--trials", TRIALS),
    *(("single-trial", "--mode", mode, "--trial", trial) for mode in ("unaware", "aware") for trial in ("0", "3")),
    # one point and no optimizer run
    ("single-trial", "--mode", "fixed", "--trial", "0"),
    # --seed sets the config's rng_seed for single-trial too
    ("single-trial", "--mode", "aware", "--trial", "1", "--seed", SEED),
    # no --trials: the trial count is the config's mc_trials
    ("sweep-power", "--mode", "fixed", "--grid", "30", "--seed", SEED),
    # the one fixed-mode path where the serving surface and the neighbor
    # differ in size: the neighbor's theta = 1 takes h2's
    ("sweep-elements", "--mode", "fixed", "--grid", "25,100", "--trials", TRIALS),
)


def _load_bench(tree: Path):
    """The tree's bench/run.py as a module, for its WORKLOADS and THREAD_VARS."""
    sys.path.insert(0, str(tree / "bench"))  # run.py imports its tracer from there
    spec = importlib.util.spec_from_file_location("bench_run", tree / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def commands(bench) -> list[list[str]]:
    """Every command's argv without --out and --trace, its config a CONFIG placeholder."""
    out = []
    for name in sorted(bench.WORKLOADS):
        for seed in BENCH_SEEDS:
            argv = bench.WORKLOADS[name].argv(seed, Path("unused"))
            argv[argv.index("--config") + 1] = CONFIG
            at = argv.index("--out")
            out.append(argv[:at] + argv[at + 2 :])
    return out + [[cmd, "--config", CONFIG, *rest] for cmd, *rest in COMMANDS]


def first_difference(parent: Path, change: Path, names=("parent", "change")) -> str | None:
    """None when the two files hold the same bytes, else where they first
    differ; names label the two sides."""
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return None
    rows_a, rows_b = a.decode().splitlines(), b.decode().splitlines()
    for i, (x, y) in enumerate(zip(rows_a, rows_b), start=1):
        if x != y:
            return f"line {i}: {names[0]} {x!r}, {names[1]} {y!r}"
    if len(rows_a) != len(rows_b):
        return f"{names[0]} has {len(rows_a)} lines, {names[1]} {len(rows_b)}"
    return "same lines, different line endings"


def differences(a: tuple[Path, Path], b: tuple[Path, Path], names=("parent", "change")) -> list[str]:
    """Where the (output, trace) files of two runs of one command first differ."""
    return [
        f"{what} {diff}"
        for what, x, y in zip(("output", "trace"), a, b)
        if (diff := first_difference(x, y, names)) is not None
    ]


SWEEP_KEY = ("sweep_value", "scenario")
TRACE_KEY = ("sweep_value", "scenario", "mode", "trial", "stage", "inner_iter")


def _keyed_rows(path: Path, key_fields, required=()) -> dict | None:
    """A CSV's rows by their key_fields values and a repeat count, the
    earlier rows with that key (a grid value given twice); None unless the
    header has every key field and every required one."""
    reader = csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))
    if not {*key_fields, *required} <= set(reader.fieldnames or ()):
        return None
    rows, seen = {}, Counter()
    for row in reader:
        key = tuple(row[name] for name in key_fields)
        rows[key + (seen[key],)] = row
        seen[key] += 1
    return rows


def _relative(a: str, b: str) -> str:
    a, b = float(a), float(b)
    return f"{(b - a) / abs(a):+.2e} relative" if a else f"{b - a:+.3g} absolute"


def row_differences(parent: Path, change: Path) -> list[str] | None:
    """One line per row that differs between two sweep CSVs, keyed by sweep
    value and scenario; None when either file is not a sweep CSV."""
    sides = (("parent", parent), ("change", change))
    rows = {side: _keyed_rows(path, SWEEP_KEY, ("mean_sum_rate_bps_hz",)) for side, path in sides}
    if None in rows.values():
        return None
    out = []
    for key in dict.fromkeys([*rows["parent"], *rows["change"]]):
        a, b = rows["parent"].get(key), rows["change"].get(key)
        label = f"{key[0]} {key[1]}" + (f" (repeat {key[2]})" if key[2] else "")
        if a is None or b is None:
            out.append(f"{label}: only in {'change' if a is None else 'parent'}")
            continue
        if a == b:
            continue
        parts = [
            f"mean_sum_rate_bps_hz {a['mean_sum_rate_bps_hz']} -> {b['mean_sum_rate_bps_hz']} "
            f"({_relative(a['mean_sum_rate_bps_hz'], b['mean_sum_rate_bps_hz'])})",
            f"outage_user1 {a['outage_user1']} -> {b['outage_user1']} "
            f"({float(b['outage_user1']) - float(a['outage_user1']):+.4g})",
        ]
        parts += [f"{name} {a[name]} -> {b[name]}" for name in a
                  if name not in ("mean_sum_rate_bps_hz", "outage_user1") and a[name] != b.get(name)]
        out.append(f"{label}: " + ", ".join(parts))
    return out


def _relative_change(a: str, b: str) -> float:
    x, y = float(a), float(b)
    return abs(y - x) / abs(x) if x else abs(y - x)


def trace_summary(parent: Path, change: Path) -> str | None:
    """How two optimizer traces differ: the rows that differ, matched by
    TRACE_KEY, the rows found on one side only, the stages of both, and the
    largest relative change (absolute where the parent's value is 0) of each
    value column; None when either file is not a trace or the rows are equal."""
    a, b = _keyed_rows(parent, TRACE_KEY), _keyed_rows(change, TRACE_KEY)
    if a is None or b is None or a == b:
        return None
    differ = [key for key in a if key in b and a[key] != b[key]]
    only = {"parent": [key for key in a if key not in b], "change": [key for key in b if key not in a]}
    largest = {}
    for key in differ:
        for name, value in a[key].items():
            if name not in TRACE_KEY and b[key][name] != value:
                largest[name] = max(largest.get(name, 0.0), _relative_change(value, b[key][name]))
    out = f"{len(differ)} of {len(a)} rows differ"
    out += "".join(f", {len(keys)} only in {side}" for side, keys in only.items() if keys)
    stages = Counter(key[4] for key in differ + only["parent"] + only["change"])
    out += ", in stages " + ", ".join(f"{stage} ({n})" for stage, n in sorted(stages.items()))
    if largest:
        out += "; largest relative change " + ", ".join(f"{name} {rel:.2e}" for name, rel in largest.items())
    return out


def one_cpu() -> set[int]:
    """The first CPU this process may run on, as a CPU set."""
    return {min(os.sched_getaffinity(0))}


def run(tree: Path, argv: list[str], work: Path, thread_vars, cpus=None) -> tuple[Path, Path]:
    """Run argv in tree, on the CPU set cpus when given; returns its (output,
    trace) files. Raises on a failed run."""
    work.mkdir()
    out, trace = work / "out", work / "trace.csv"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in thread_vars})
    argv = [str(tree / "configs" / "default.json") if a == CONFIG else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "risim.cli", *argv, "--out", str(out), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return out, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = _load_bench(trees["change"])
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, cmd in enumerate(commands(bench)):
            label = " ".join(a for a in cmd if a != CONFIG and a != "--config")
            try:
                files = {side: run(tree, cmd, Path(tmp) / f"{i}-{side}", bench.THREAD_VARS)
                         for side, tree in trees.items()}
                files["one CPU"] = run(trees["change"], cmd, Path(tmp) / f"{i}-one-cpu",
                                       bench.THREAD_VARS, cpus=one_cpu())
            except RuntimeError as exc:
                differ += 1
                print(f"{label}: FAILED {exc}", flush=True)
                continue
            found = differences(files["parent"], files["change"])
            found += [f"one CPU: {diff}" for diff in
                      differences(files["change"], files["one CPU"], ("change", "one CPU"))]
            differ += bool(found)
            print(f"{label}: {'; '.join(found) if found else 'identical'}", flush=True)
            for row in row_differences(files["parent"][0], files["change"][0]) or ():
                print(f"  {row}", flush=True)
            if (summary := trace_summary(files["parent"][1], files["change"][1])) is not None:
                print(f"  trace: {summary}", flush=True)
    print(f"{differ} of {i + 1} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
