"""Paired benchmark runs of a parent and a change tree, summarised per metric.

Run from the repository root, with both trees checked out as copies
elsewhere (a ``git worktree``, ``git clone`` or ``git archive`` of each):

    git worktree add ../parent HEAD~1
    git worktree add ../change HEAD
    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --workload unaware-elements --seeds 12345,21,22,23,24,25,26,27,28,29 \
        --out BENCH_12.json

Measure the change from a copy too, not from the working repository: a
change tree measured in place has read ``setup_s`` slower in 9 of 10 pairs
where a copy of the same files did not, for a cause not found. So
``--change`` has no default.

Each seed is one pair: ``bench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in each tree, the parent first on even pair indices and
the change first on odd ones. The last line of each run (the benchmark's JSON
result) and its ``env`` line are kept. For every end-to-end metric named in
the change tree's ``BENCHMARK.json`` the summary gives both sides' median and
quartiles, the pairs the change wins and loses (in the metric's ``better``
direction), the ratio and difference of the medians, whether that
difference exceeds the parent's quartile spread (``resolved``), whether a
gain may be claimed (``claim_met``: the change wins at least nine tenths of
the pairs, ties counting for neither, and its median is better by a
resolved difference), and whether the change's median is worse than the
parent's by no more than the metric's relative ``bound``
(``within_bound``). Several workloads go into one file by running the
script once per workload with the same ``--out``: each run replaces only
its workload's entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(result, env) from one bench/run.py output: its last line and its env line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, better: dict[str, str], bounds: dict[str, float] | None = None) -> dict[str, dict]:
    """Per-metric summary of pairs, a list of {"parent": result, "change": result}.

    better maps a metric name to "higher" or "lower". A pair is a win when
    the change's value is strictly better than the parent's, a loss when it
    is strictly worse. claim_met is the gain rule: wins in at least 9 of
    every 10 pairs, and a median better than the parent's by more than the
    parent's quartile spread (resolved). bounds, when given, maps a metric
    name to its bound from BENCHMARK.json: within_bound is true when the
    change's median is worse than the parent's by at most bound times the
    parent's median.
    """
    out = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        resolved = abs(cm - pm) > p3 - p1
        out[name] = {
            "pairs": len(pairs),
            "wins": wins,
            "losses": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "parent_median": pm,
            "parent_q1": p1,
            "parent_q3": p3,
            "change_median": cm,
            "change_q1": c1,
            "change_q3": c3,
            "median_ratio": cm / pm if pm else None,
            "median_diff": cm - pm,
            "parent_iqr": p3 - p1,
            "resolved": resolved,
            "claim_met": 10 * wins >= 9 * len(pairs) and resolved and sign * (cm - pm) > 0,
        }
        if bounds is not None:
            out[name]["within_bound"] = sign * (cm - pm) >= -bounds[name] * abs(pm)
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):  # 1: a correctness check failed; the result says which
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma list, one pair per seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    pairs, runs = [], []
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result, env = run_bench(trees[side], args.workload, seed, args.seconds)
            pair[side] = result
            runs.append({"side": side, "seed": seed, "result": result, "env": env})
            print(f"{args.workload} seed {seed} {side}: "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        pairs.append(pair)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc.setdefault("command", "python3 bench/run.py --workload W --seed S --seconds T --trace 0")
    doc.setdefault("workloads", {})[args.workload] = {
        "seeds": [int(s) for s in args.seeds.split(",")],
        "seconds": args.seconds,
        "correct": {side: all(p[side]["correct"] for p in pairs) for side in SIDES},
        "summary": summarize(pairs, better, bounds),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
