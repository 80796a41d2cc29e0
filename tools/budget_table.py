"""Print the shortfall tables that the optimizer budgets AO_RCG and AO_WARM_RCG are chosen from.

Run from the repository root; give a checkout of another commit as the
baseline to compare its optimizer with this tree's (a ``git clone`` or
``git archive`` of it):

    python3 tools/budget_table.py --baseline ../parent

Two tables, each as mean / max shortfall in nats of the weighted log-rate
utility against the best value any run reached, one column per tree and
budget (every --budgets-cold or --budgets-warm value, and the tree's own):

- cold: the interference-unaware (EIF) runs from theta = 1 at the default
  config's power, draws 0 to --draws - 1 of seed 12345, at each surface size
  of --elements. The reference is the best of every tree's --long-iteration
  run.
- warm: the aware runs of trials 0 to --trials - 1 at 10 and 40 dBm, for
  ``emi`` and ``emi_irr`` at -75 and -65 dBm, each started from its tree's
  unaware phases (its own AO_RCG run from theta = 1), as the harness starts
  them. The reference is the best of every tree's --long-iteration warm run
  and its --long-iteration run from theta = 1.

Every tree's runs see the same utilities: the neighbor cluster (which the
``emi_irr`` utility depends on) takes this tree's phases. A run of b
iterations is the first b iterations of the --long one, since a run with no
tolerance does not depend on its cap, so every budget, the tree's own
included, must be at most --long; a larger one is refused. The basin count is the number of warm
rows where a --long run from theta = 1 ends above every --long warm run by
more than BASIN_NATS. Then every run at its tree's budget that ends lower
than the baseline's run at the baseline's budget is listed.

Each tree's runs are made by this script in a fresh interpreter on that
tree's ``src`` (``--worker``), with every BLAS pool on one thread, so the
tables describe the optimizer of the tree that made them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "default.json"
SEED = 12345
POWERS_DBM = (10.0, 40.0)
CASES = (("emi", -75.0), ("emi", -65.0), ("emi_irr", -75.0), ("emi_irr", -65.0))
BASIN_NATS = 1e-6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


# -- the worker: runs on one tree's src --------------------------------------


def _at_budgets(result, budgets) -> list[float]:
    """The objective of result's run after each of budgets iterations (its
    last, for a run that stopped before)."""
    return [float(result.trace[min(b, result.trace.size - 1)]) for b in budgets]


def _config(risim, **cluster1):
    """The default config at seed SEED, with cluster1's fields set on cluster 1."""
    cfg = risim.load_config(CONFIG)
    cfg = replace(cfg, rng_seed=SEED, clusters=(replace(cfg.clusters[0], **cluster1), cfg.clusters[1]))
    return risim.validate_config(cfg)


def _draws(risim, cfg, stats, count):
    return [risim.draw_realization(cfg, stats, t) for t in range(count)]


def _eif_runs(risim, cfg, reals, cluster, budget):
    """optimize_eif_stack over reals for cluster 0 or 1 at cfg's powers, from theta = 1."""
    k = 1 if cluster == 0 else 2
    powers = risim.make_powers(cfg)
    p = powers.cluster1 if cluster == 0 else powers.cluster2
    links = [(getattr(r, f"g{k}"), getattr(r, f"h{k}")) for r in reals]
    weights = cfg.clusters[cluster].weights()
    return risim.optimize_eif_stack(links, [p] * len(reals), [weights] * len(reals), cfg.noise_power_w, budget)


def worker(spec: dict) -> dict:
    """Every run the tables need from the risim importable here.

    Returns this tree's budgets, the budgets each run is read at (its
    table's, plus the tree's own and spec["long"]) and the runs of each
    table row: a name, the objective at each budget and, for a warm run,
    the final objective of the run from theta = 1 on the same utility.
    With no spec["theta2"] it returns this tree's neighbor phases instead.
    """
    import numpy as np

    import risim
    from risim import ao

    long = spec["long"]
    own = {"cold": ao.AO_RCG, "warm": ao.AO_WARM_RCG}
    budgets = {t: sorted({*spec["budgets"][t], own[t], long}) for t in own}
    above = sorted({b for t in own for b in budgets[t] if b > long})
    if above:
        raise SystemExit(f"budgets {above} are above --long {long}: give --long {above[-1]} or more")
    out = {"budgets": budgets, "own": own, "rows": {"cold": {}, "warm": {}}}

    for n in spec["elements"]:
        cfg = _config(risim, ris_side=math.isqrt(n))
        reals = _draws(risim, cfg, risim.build_statistics(cfg), spec["draws"])
        out["rows"]["cold"][str(n)] = [
            {"name": f"draw {d}", "at": _at_budgets(r, budgets["cold"])}
            for d, r in enumerate(_eif_runs(risim, cfg, reals, 0, long))
        ]

    cfg = _config(risim)
    stats = risim.build_statistics(cfg)
    reals = _draws(risim, cfg, stats, spec["trials"])
    theta2 = spec.get("theta2")
    if theta2 is None:  # this tree's neighbor phases, for the other trees
        return {"theta2": [[[z.real, z.imag] for z in r.theta] for r in _eif_runs(risim, cfg, reals, 1, ao.AO_RCG)]}
    r1, r2 = stats.clusters[0].corr.matrix, stats.clusters[1].corr.matrix
    w1 = cfg.clusters[0].weights()
    for dbm in POWERS_DBM:
        cfg_p = _config(risim, tx_power_dbm=dbm)
        powers = risim.make_powers(cfg_p)
        unaware = _eif_runs(risim, cfg_p, reals, 0, ao.AO_RCG)
        runs = out["rows"]["warm"][f"{dbm:g} dBm"] = []
        for t, real in enumerate(reals):
            th2 = np.array([complex(*z) for z in theta2[t]])
            own_terms = risim.build_cascades(real.h1, real.g1, r1, emi_self_factor=cfg.emi_self_factor)
            base = risim.optimize_cluster2(real, own_terms, r2, th2)
            rows = []
            for kind, level in CASES:
                e = risim.dbm_to_watts(level)
                rows.append((replace(base, emi1_w=e, emi2_w=e), kind, powers, w1))
            starts = [unaware[t].theta] * len(rows) + [np.ones(base.num_elements, dtype=complex)] * len(rows)
            made = risim.rcg_lockstep(risim.UtilityStack.of(rows + rows, cfg.noise_power_w), np.array(starts), long)
            for (kind, level), warm, cold in zip(CASES, made[: len(rows)], made[len(rows):]):
                name = f"trial {t}, {kind} {level:g} dBm"
                runs.append({"name": name, "at": _at_budgets(warm, budgets["warm"]), "from_one": cold.objective})
    return out


# -- the driver ----------------------------------------------------------------


def run_worker(tree: Path, spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{v: "1" for v in THREAD_VARS})
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(spec, f)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker", f.name],
            cwd=tree, env=env, capture_output=True, text=True, check=False,
        )
    finally:
        os.unlink(f.name)
    if proc.returncode != 0:
        raise RuntimeError(f"worker on {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


TITLES = {
    "cold": ("N", "Cold EIF runs from theta = 1, draws 0-{last}"),
    "warm": ("power", "Warm aware runs of trials 0-{last}, emi and emi_irr at -75 and -65 dBm"),
}


def tables(runs: dict[str, dict], spec: dict) -> str:
    """The two shortfall tables, the basin count and the lower runs, as Markdown text.

    runs maps a side's name to its worker's output, the baseline first.
    """
    sides = list(runs)
    lines, basins, lower = [], [], []
    for table, (head, title) in TITLES.items():
        last = spec["draws" if table == "cold" else "trials"] - 1
        lines += ["", title.format(last=last) + "; shortfall mean / max in nats:"]
        # every requested budget and the side's own; --long only as one of them
        shown = {s: {*spec["budgets"][table], runs[s]["own"][table]} for s in sides}
        cols = [(s, b) for s in sides for b in runs[s]["budgets"][table] if b in shown[s]]
        lines.append(f"| {head} | " + " | ".join(f"{s} {b}" for s, b in cols) + " |")
        lines.append("| --- " * (len(cols) + 1) + "|")
        for label in runs[sides[0]]["rows"][table]:
            rows = {s: runs[s]["rows"][table][label] for s in sides}
            longest = [max(rows[s][i]["at"][-1] for s in sides) for i in range(len(rows[sides[0]]))]
            from_one = [max(rows[s][i].get("from_one", -math.inf) for s in sides) for i in range(len(longest))]
            best = [max(a, b) for a, b in zip(longest, from_one)]
            cells = []
            for s, b in cols:
                j = runs[s]["budgets"][table].index(b)
                short = [ref - run["at"][j] for ref, run in zip(best, rows[s])]
                cells.append(f"{sum(short) / len(short):.2e} / {max(short):.2e}")
            lines.append(f"| {label} | " + " | ".join(cells) + " |")
            if table == "warm":
                count = sum(b > a + BASIN_NATS for a, b in zip(longest, from_one))
                basins.append(f"{label} {count}/{len(best)}")
            if len(sides) == 2:
                base, this = sides
                jb = runs[base]["budgets"][table].index(runs[base]["own"][table])
                jt = runs[this]["budgets"][table].index(runs[this]["own"][table])
                for a, b in zip(rows[base], rows[this]):
                    if b["at"][jt] < a["at"][jb]:
                        lower.append(f"- {table} {label}, {a['name']}: {b['at'][jt] - a['at'][jb]:.2e}")
    lines += ["", f"Basins (a run from theta = 1 ends > {BASIN_NATS:g} nats above every warm run): " + ", ".join(basins)]
    if len(sides) == 2:
        base, this = sides
        own = {s: f"{runs[s]['own']['cold']} cold, {runs[s]['own']['warm']} warm" for s in sides}
        lines += ["", f"Runs of {this} at its budgets ({own[this]}) that end below {base}'s ({own[base]}): {len(lower)}"]
        lines += lower
    return "\n".join(lines[1:])


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--baseline", type=Path, help="checkout of the commit to compare with")
    parser.add_argument("--trials", type=int, default=20, help="warm table: trials per power")
    parser.add_argument("--draws", type=int, default=32, help="cold table: draws per surface size")
    parser.add_argument("--elements", type=_ints, default=[25, 100, 225, 400], help="cold table surface sizes")
    parser.add_argument("--long", type=int, default=2000, help="iterations of the reference runs")
    parser.add_argument("--budgets-cold", type=_ints, default=[100, 110, 150])
    parser.add_argument("--budgets-warm", type=_ints, default=[30, 35, 40, 50])
    args = parser.parse_args(argv)
    if args.worker:
        spec = json.loads(Path(args.worker).read_text(encoding="utf-8"))
        print(json.dumps(worker(spec)))
        return 0

    spec = {
        "trials": args.trials, "draws": args.draws, "elements": args.elements, "long": args.long,
        "budgets": {"cold": args.budgets_cold, "warm": args.budgets_warm},
    }
    spec["theta2"] = run_worker(ROOT, {**spec, "elements": []})["theta2"]
    runs = {}
    if args.baseline is not None:
        runs["baseline"] = run_worker(args.baseline.resolve(), spec)
    runs["this tree"] = run_worker(ROOT, spec)
    print(tables(runs, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
