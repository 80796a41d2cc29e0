"""Comparison and command list of tools/same_outputs.py, on canned files."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("same_outputs", _ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

CSV = "sweep_value,scenario\n10,eif\n10,irr\n"


def _files(tmp_path, parent, change):
    a, b = tmp_path / "parent.csv", tmp_path / "change.csv"
    a.write_bytes(parent.encode())
    b.write_bytes(change.encode())
    return a, b


def test_identical_files_have_no_difference(tmp_path):
    assert same_outputs.first_difference(*_files(tmp_path, CSV, CSV)) is None


def test_first_differing_row_is_named(tmp_path):
    changed = CSV.replace("10,irr", "10,emi") + "40,eif\n"
    diff = same_outputs.first_difference(*_files(tmp_path, CSV, changed))
    assert diff == "line 3: parent '10,irr', change '10,emi'"


def test_extra_rows_and_line_endings_differ(tmp_path):
    assert same_outputs.first_difference(*_files(tmp_path, CSV, CSV + "40,eif\n")) == (
        "parent has 3 lines, change 4"
    )
    assert same_outputs.first_difference(*_files(tmp_path, CSV, CSV.replace("\n", "\r\n"))) == (
        "same lines, different line endings"
    )


def test_commands_cover_every_bench_workload_at_both_seeds():
    bench = same_outputs._load_bench(_ROOT)
    cmds = same_outputs.commands(bench)
    assert len(cmds) == len(bench.WORKLOADS) * len(same_outputs.BENCH_SEEDS) + len(same_outputs.COMMANDS)
    for cmd in cmds:
        assert "--out" not in cmd and "--trace" not in cmd
        assert cmd[cmd.index("--config") + 1] == same_outputs.CONFIG
    seeds = {cmd[cmd.index("--seed") + 1] for cmd in cmds if "--seed" in cmd}
    assert seeds == {str(seed) for seed in same_outputs.BENCH_SEEDS} | {same_outputs.SEED}


SWEEP = (
    "sweep_value,scenario,mode,mean_sum_rate_bps_hz,outage_user1,trials,skipped\n"
    "10,eif,aware,0.5,0.25,4,0\n"
    "10,emi@-65,aware,0.4,0.5,4,0\n"
    "10,eif,aware,0.5,0.25,4,0\n"
    "40,eif,aware,2,0,4,0\n"
)


def test_every_differing_sweep_row_is_listed(tmp_path):
    # a repeated grid value keeps its own rows; rows present on one side only are named
    changed = (
        "sweep_value,scenario,mode,mean_sum_rate_bps_hz,outage_user1,trials,skipped\n"
        "10,eif,aware,0.5,0.25,4,0\n"
        "10,emi@-65,aware,0.40002,0.25,4,0\n"
        "10,eif,aware,0.45,0.25,4,0\n"
        "40,eif,aware,2,0,4,1\n"
        "40,irr,aware,2,0,4,0\n"
    )
    assert same_outputs.row_differences(*_files(tmp_path, SWEEP, changed)) == [
        "10 emi@-65: mean_sum_rate_bps_hz 0.4 -> 0.40002 (+5.00e-05 relative), outage_user1 0.5 -> 0.25 (-0.25)",
        "10 eif (repeat 1): mean_sum_rate_bps_hz 0.5 -> 0.45 (-1.00e-01 relative), outage_user1 0.25 -> 0.25 (+0)",
        "40 eif: mean_sum_rate_bps_hz 2 -> 2 (+0.00e+00 relative), outage_user1 0 -> 0 (+0), skipped 0 -> 1",
        "40 irr: only in change",
    ]
    assert same_outputs.row_differences(*_files(tmp_path, SWEEP, SWEEP)) == []
    # a trace or a single-trial output is no sweep CSV
    assert same_outputs.row_differences(*_files(tmp_path, CSV, CSV)) is None


TRACE = (
    "sweep_value,scenario,mode,trial,stage,inner_iter,objective,grad_norm,step\n"
    "10,eif,aware,0,cluster1_unaware,0,1.5,0.2,0.01\n"
    "10,emi_irr@-65,aware,0,cluster1_aware_emi_irr,0,1.25,0.4,0.02\n"
    "10,emi_irr@-65,aware,0,cluster1_aware_emi_irr,1,1.5,0,0.02\n"
)


def test_a_differing_trace_is_summarized(tmp_path):
    # rows are matched by their key columns; the summary names the stages
    # and the largest relative change of each value column that moved
    changed = TRACE.replace("1.25,0.4,0.02", "1.2500000001,0.4,0.02").replace(
        "1,1.5,0,0.02", "1,1.5,3e-17,0.02")
    assert same_outputs.trace_summary(*_files(tmp_path, TRACE, changed)) == (
        "2 of 3 rows differ, in stages cluster1_aware_emi_irr (2); "
        "largest relative change objective 8.00e-11, grad_norm 3.00e-17"
    )
    # an extra iteration in one run shifts no other row
    longer = TRACE.replace("1,1.5,0,0.02\n", "1,1.5,0,0.02\n10,emi_irr@-65,aware,0,cluster1_aware_emi_irr,2,1.5,0,0\n")
    longer = longer.replace("cluster1_unaware,0,1.5", "cluster1_unaware,0,1.75")
    assert same_outputs.trace_summary(*_files(tmp_path, TRACE, longer)) == (
        "1 of 3 rows differ, 1 only in change, in stages cluster1_aware_emi_irr (1), "
        "cluster1_unaware (1); largest relative change objective 1.67e-01"
    )
    assert same_outputs.trace_summary(*_files(tmp_path, TRACE, TRACE)) is None
    # a sweep CSV is no trace
    assert same_outputs.trace_summary(*_files(tmp_path, SWEEP, SWEEP + "40,irr,aware,2,0,4,0\n")) is None


def test_differences_name_the_file_and_the_sides(tmp_path):
    a = _files(tmp_path, CSV, CSV)
    assert same_outputs.differences(a, a) == []
    (tmp_path / "b").mkdir()
    b = _files(tmp_path / "b", CSV, CSV.replace("10,irr", "10,emi"))
    assert same_outputs.differences((a[0], a[0]), b, ("change", "one CPU")) == [
        "trace line 3: change '10,irr', one CPU '10,emi'"
    ]


def test_a_sweep_confined_to_one_cpu_writes_the_same_bytes(tmp_path):
    # the run with a worker process per usable CPU and the run in one process
    # on one CPU give the same output and trace
    bench = same_outputs._load_bench(_ROOT)
    argv = ["sweep-power", "--config", same_outputs.CONFIG, "--mode", "unaware",
            "--grid", "10,40", "--scenarios", "eif,emi_irr:-65", "--trials", "3"]
    pooled = same_outputs.run(_ROOT, argv, tmp_path / "pooled", bench.THREAD_VARS)
    single = same_outputs.run(_ROOT, argv, tmp_path / "single", bench.THREAD_VARS,
                              cpus=same_outputs.one_cpu())
    assert same_outputs.differences(pooled, single) == []
    assert len(pooled[1].read_text().splitlines()) > 1
