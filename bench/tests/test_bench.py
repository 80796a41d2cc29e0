"""Tests of the benchmark itself: span arithmetic, tracer wiring, checks, smoke runs.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

run.pin_threads()  # before numpy loads: the reference CSV was recorded with one BLAS thread

import risim  # noqa: E402
import risim.ao  # noqa: E402
import risim.harness  # noqa: E402
import risim.rcg  # noqa: E402
import risim.sinr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_nested_tree():
    # sweep [0, 10] > a [1, 6] > b [2, 3], c [3.5, 5.5]; sweep > d [7, 9]
    spans = [
        ("sweep", 0.0, 10.0, -1, -1),
        ("a", 1.0, 6.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 3.5, 5.5, 1, 0),
        ("d", 7.0, 9.0, 0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_tracer_records_nested_spans_and_totals():
    t = tracing.Tracer(layers=())
    t.span("sweep", lambda: t.span("inner", lambda: None))
    (outer, o0, o1, op, _), (inner, i0, i1, ip, _) = t.spans
    assert (outer, op, inner, ip) == ("sweep", -1, "inner", 0)
    assert o0 <= i0 <= i1 <= o1
    calls, own = t.layer_totals()["sweep"]
    assert calls == 1 and own == pytest.approx((o1 - o0) - (i1 - i0))


def test_wraps_every_binding_and_restores():
    originals = (risim.harness.zf_precoder, risim.ao.zf_precoder, risim.rcg.euclid_grad)
    with tracing.Tracer() as t:
        assert risim.harness.zf_precoder is risim.ao.zf_precoder
        assert risim.ao.zf_precoder.__wrapped__ is originals[0]
        assert risim.rcg.euclid_grad.__wrapped__ is originals[2]
        assert risim.harness.alternate_optimize is risim.ao.alternate_optimize
        assert t.absent == []
    assert (risim.harness.zf_precoder, risim.ao.zf_precoder, risim.rcg.euclid_grad) == originals


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(risim.sinr, "scenario_sinr")
    t = tracing.Tracer()
    with t:
        assert hasattr(risim.ao.evaluate_pair, "__wrapped__")
    assert t.absent == [f"sinr.scenario_sinr.{k}" for k in tracing.KINDS]
    metrics = t.metrics(trials=1, decreased_count=0)
    assert metrics["sinr.scenario_sinr.emi.calls_per_trial"] == (0.0, "calls/trial")


def test_check_csv_flags_bad_rows():
    wl = replace(run.WORKLOADS["fixed-power"], grid=(10,), trials=2)
    good = [f"10,{c},fixed,1.5,0.5,2,0" for c in ("eif", "irr", "emi_-75", "emi_-65", "x", "y")]
    header = risim.CSV_HEADER
    assert run.check_csv("\n".join([header, *good]) + "\n", wl) == []
    bad = good[:3] + ["10,x,fixed,nan,0.5,2,0", "10,y,fixed,1.0,1.5,2,0", "10,z,fixed,1.0,0.5,1,0"]
    problems = run.check_csv("\n".join([header, *bad]) + "\n", wl)
    assert len(problems) == 3
    assert run.check_csv(header + "\n", wl) == ["expected 6 rows, got 0"]


def test_compare_reference_tolerance():
    ref = "h,s\n10,eif,fixed,2.000000000,0,4,0\n"
    assert run.compare_reference("h,s\n10,eif,fixed,2.0000000001,0,4,0\n", ref) == []
    assert run.compare_reference("h,s\n10,eif,fixed,2.00001,0,4,0\n", ref) != []
    assert run.compare_reference("h,s\n10,eif,fixed,2.0,0,3,1\n", ref) != []


def _tiny(name):
    """One trial per grid point; fixed-power keeps its grid so the reference check runs."""
    wl = run.WORKLOADS[name]
    grid = {"unaware-elements": (25,), "aware-power": (40,)}.get(name, wl.grid)
    return replace(wl, grid=grid, trials=1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_produces_every_named_metric(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed=7, seconds=0, trace=trace, wl=_tiny(name), setup_repeats=1)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == (1 if not trace else 2) * _tiny(name).ops_per_sweep
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[section]}


def test_counts_and_sum_rate_repeat_at_one_seed():
    wl = _tiny("unaware-elements")
    a, b = (run.run_workload("unaware-elements", 3, 0, True, wl=wl) for _ in range(2))
    counts = {k: v["value"] for k, v in a["metrics"].items() if k.endswith("calls_per_trial")}
    assert counts == {k: v["value"] for k, v in b["metrics"].items() if k.endswith("calls_per_trial")}
    rates = [run.run_workload("unaware-elements", 3, 0, False, wl=wl, setup_repeats=1) for _ in range(2)]
    assert rates[0]["metrics"]["sum_rate_bps_hz"] == rates[1]["metrics"]["sum_rate_bps_hz"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "fixed-power",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
