"""Monte Carlo sweeps, aggregation, and CSV rendering."""

import inspect
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import risim.ao as ao
import risim.channels as channels
import risim.harness as harness
import risim.sinr as sinr
from risim import (
    CSV_HEADER,
    DEFAULT_CASES,
    EMI_SWEEP_CASES,
    TRACE_HEADER,
    ConfigError,
    MetricRecord,
    Mode,
    ScenarioCase,
    ScenarioKind,
    SweepSpec,
    ZfDegenerateError,
    build_statistics,
    dbm_to_watts,
    default_config,
    draw_realization,
    make_powers,
    parse_scenario_token,
    render_csv,
    render_trace,
    run_single_trial,
    run_sweep,
    save_config,
)
from risim.cli import EXIT_RUNTIME, cli_main


def _tiny_cfg(side=3, trials=4):
    base = default_config()
    return replace(
        base,
        mc_trials=trials,
        clusters=(
            replace(base.clusters[0], ris_side=side),
            replace(base.clusters[1], ris_side=side),
        ),
    )


def _unequal_levels(cfg):
    """cfg with config-wide EMI levels that differ between the clusters:
    -65 dBm at cluster 1 and -70 dBm at cluster 2, so e2 / e1 != 1."""
    one, two = cfg.clusters
    return replace(cfg, clusters=(replace(one, emi_power_dbm=-65.0), replace(two, emi_power_dbm=-70.0)))


@pytest.fixture
def in_process(monkeypatch):
    """Run every sweep's blocks in this process, where a patched counter sees each call."""
    monkeypatch.setattr(harness, "_worker_count", lambda: 1)


@pytest.mark.parametrize("user_weights", [None, (2.0, 0.5)], ids=["unweighted", "weighted"])
def test_record_statistics_are_those_of_its_trials(user_weights):
    # a record's mean, samples and outage come from one array of its trials'
    # rates: the weighted sums, their mean and the per-user fraction below
    # the threshold, bit for bit
    cfg = _tiny_cfg(trials=4)
    one, two = cfg.clusters
    cfg = replace(cfg, rate_threshold_bps_hz=1.0, clusters=(replace(one, user_weights=user_weights), two))
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI, -65.0))
    # at 40 and 50 dBm some trials of each point fall below 1 bit/s/Hz and some not
    spec = SweepSpec(variable="tx_power_dbm", grid=(40.0, 50.0), scenarios=cases, mode=Mode.FIXED)
    records = run_sweep(cfg, spec)
    weights = cfg.clusters[0].weights()
    for value, at in zip(spec.grid, (records[:2], records[2:]), strict=True):
        cfg_pt = replace(cfg, clusters=(replace(cfg.clusters[0], tx_power_dbm=value), two))
        trials = [run_single_trial(cfg_pt, cases, Mode.FIXED, trial=t) for t in range(cfg.mc_trials)]
        for c, record in enumerate(at):
            assert (record.trials, record.skipped) == (cfg.mc_trials, 0)
            rates = np.array([results[c][1].rates_bps_hz for results in trials])
            sums = rates @ weights
            assert record.sum_rate_samples == tuple(float(s) for s in sums)
            assert record.mean_sum_rate_bps_hz == float(sums.mean())
            assert record.outage == tuple(float(o) for o in (rates < 1.0).mean(axis=0))
    assert {o for r in records for o in r.outage} - {0.0, 1.0}


def test_make_powers_split_and_unit():
    cfg = default_config()
    split = make_powers(cfg)
    np.testing.assert_allclose(split.cluster1, [0.5, 0.5])  # 1 W over two users
    np.testing.assert_allclose(split.cluster2, [0.5, 0.5])
    # 1 W per user is a config power: 30 + 10 log10(users) dBm
    unit_dbm = 30.0 + 10.0 * np.log10(2)
    unit = make_powers(replace(cfg, clusters=tuple(replace(c, tx_power_dbm=unit_dbm) for c in cfg.clusters)))
    np.testing.assert_allclose(unit.cluster1, [1.0, 1.0])
    np.testing.assert_allclose(unit.cluster2, [1.0, 1.0])


def test_scenario_case_labels():
    assert ScenarioCase(ScenarioKind.EIF).label == "eif"
    assert ScenarioCase(ScenarioKind.EMI, -65.0).label == "emi_-65"
    assert ScenarioCase(ScenarioKind.EMI_IRR, -75.0).label == "emi_irr_-75"
    assert ScenarioCase(ScenarioKind.EMI).label == "emi"
    assert ScenarioCase(ScenarioKind.IRR).label == "irr"


def test_parse_scenario_token():
    case = parse_scenario_token("emi:-65")
    assert case.kind is ScenarioKind.EMI and case.emi_dbm == -65.0
    assert parse_scenario_token("eif") == ScenarioCase(ScenarioKind.EIF)
    assert parse_scenario_token(" irr ") == ScenarioCase(ScenarioKind.IRR)
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_scenario_token("bogus")
    with pytest.raises(ConfigError, match="does not take an EMI level"):
        parse_scenario_token("irr:-60")
    with pytest.raises(ConfigError, match="bad EMI level"):
        parse_scenario_token("emi:loud")


def test_run_sweep_record_layout():
    cfg = _tiny_cfg(trials=3)
    cases = (
        ScenarioCase(ScenarioKind.EIF),
        ScenarioCase(ScenarioKind.EMI, -65.0),
    )
    spec = SweepSpec(variable="tx_power_dbm", grid=(20.0, 30.0), scenarios=cases,
                     mode=Mode.FIXED)
    records = run_sweep(cfg, spec)
    assert len(records) == 4
    assert [(r.sweep_value, r.scenario) for r in records] == [
        (20.0, "eif"), (20.0, "emi_-65"), (30.0, "eif"), (30.0, "emi_-65"),
    ]
    for r in records:
        assert r.mode == "fixed"
        assert r.trials == 3
        assert r.skipped == 0
        assert len(r.outage) == 2


def test_run_sweep_deterministic_bytes():
    cfg = _tiny_cfg(trials=4)
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,), mode=Mode.FIXED)
    a = render_csv(run_sweep(cfg, spec))
    b = render_csv(run_sweep(cfg, spec))
    assert a.encode() == b.encode()
    assert a.splitlines()[0] == CSV_HEADER


def test_run_sweep_seed_changes_results():
    cfg = _tiny_cfg(trials=4)
    base = SweepSpec(variable="tx_power_dbm", grid=(30.0,), mode=Mode.FIXED)
    a = run_sweep(cfg, base)
    b = run_sweep(replace(cfg, rng_seed=777), base)
    assert a[0].mean_sum_rate_bps_hz != b[0].mean_sum_rate_bps_hz


def test_run_sweep_reads_trials_and_seed_from_the_config():
    # the config is the one owner of a sweep's trial count and seed
    cfg = replace(default_config(), mc_trials=3)
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,), scenarios=(ScenarioCase(ScenarioKind.EIF),))
    (record,) = run_sweep(cfg, spec)
    assert record.trials + record.skipped == 3
    (reseeded,) = run_sweep(replace(cfg, rng_seed=cfg.rng_seed + 1), spec)
    assert reseeded.trials + reseeded.skipped == 3
    assert reseeded.sum_rate_samples != record.sum_rate_samples


def test_run_sweep_samples_and_pairing():
    cfg = _tiny_cfg(trials=5)
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.IRR))
    spec = SweepSpec(variable="tx_power_dbm", grid=(20.0, 30.0), scenarios=cases,
                     mode=Mode.FIXED)
    records = run_sweep(cfg, spec)
    assert all(len(r.sum_rate_samples) == r.trials == 5 for r in records)
    eif, irr = records[2:]
    assert eif.mean_sum_rate_bps_hz == pytest.approx(np.mean(eif.sum_rate_samples))
    # scenarios share channel draws, and extra interference cannot help
    for a, b in zip(eif.sum_rate_samples, irr.sum_rate_samples):
        assert b <= a + 1e-12


def test_power_grid_sets_cluster1_and_the_config_sets_cluster2():
    # a power sweep's grid value is cluster 1's tx_power_dbm, and nothing else:
    # its rows are those of a config at that power, swept over its own surface
    cfg = _tiny_cfg(trials=3)
    one, two = cfg.clusters
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.IRR))
    power = SweepSpec(variable="tx_power_dbm", grid=(20.0,), scenarios=cases, mode=Mode.UNAWARE)
    own = SweepSpec(variable="ris_elements", grid=(9.0,), scenarios=cases, mode=Mode.UNAWARE)
    eif, irr = run_sweep(cfg, power)
    at_20 = run_sweep(replace(cfg, clusters=(replace(one, tx_power_dbm=20.0), two)), own)
    assert [replace(r, sweep_value=20.0) for r in at_20] == [eif, irr]
    # cluster 2's power is the config's: it moves the irr row only
    louder = replace(cfg, clusters=(one, replace(two, tx_power_dbm=two.tx_power_dbm + 10.0)))
    eif_louder, irr_louder = run_sweep(louder, power)
    assert eif_louder == eif
    assert irr_louder.sum_rate_samples != irr.sum_rate_samples


def test_run_sweep_eif_monotone_in_power():
    # ZF nulls the leakage, so the fixed-phase EIF rate grows with power
    cfg = _tiny_cfg(trials=3)
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 20.0, 30.0),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.FIXED)
    means = [r.mean_sum_rate_bps_hz for r in run_sweep(cfg, spec)]
    assert means[0] < means[1] < means[2]


def test_run_sweep_elements_variable():
    cfg = _tiny_cfg(trials=3)
    spec = SweepSpec(variable="ris_elements", grid=(4.0, 9.0),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.FIXED)
    records = run_sweep(cfg, spec)
    assert [r.sweep_value for r in records] == [4.0, 9.0]
    with pytest.raises(ConfigError, match="perfect squares"):
        run_sweep(cfg, replace(spec, grid=(8.0,)))


def test_run_sweep_emi_variable_attaches_levels():
    cfg = _tiny_cfg(trials=2)
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI))
    spec = SweepSpec(variable="emi_dbm", grid=(-70.0, -60.0), scenarios=cases,
                     mode=Mode.FIXED)
    records = run_sweep(cfg, spec)
    assert [r.scenario for r in records] == ["eif", "emi_-70", "eif", "emi_-60"]
    # the EIF case ignores the swept level entirely
    assert records[0].mean_sum_rate_bps_hz == pytest.approx(records[2].mean_sum_rate_bps_hz)
    assert records[1].mean_sum_rate_bps_hz > records[3].mean_sum_rate_bps_hz


def test_run_sweep_emi_case_without_level_errors():
    cfg = _tiny_cfg(trials=2)
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,),
                     scenarios=(ScenarioCase(ScenarioKind.EMI),),
                     mode=Mode.FIXED)
    with pytest.raises(ConfigError, match="needs an EMI level"):
        run_sweep(cfg, spec)
    # a config-wide level fills the gap
    with_level = replace(
        cfg,
        clusters=tuple(replace(c, emi_power_dbm=-65.0) for c in cfg.clusters),
    )
    records = run_sweep(with_level, spec)
    assert records[0].scenario == "emi"


@pytest.mark.parametrize("mode", list(Mode))
def test_missing_emi_level_fails_before_any_statistics(mode, monkeypatch):
    # the cases are planned before any statistics, worker or draw
    def no_statistics(*args, **kwargs):
        raise AssertionError("statistics built before the cases were planned")

    monkeypatch.setattr(harness, "build_statistics", no_statistics)
    cfg = _tiny_cfg(trials=2)
    assert all(c.emi_power_dbm is None for c in cfg.clusters)
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI))
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 30.0), scenarios=cases, mode=mode)
    with pytest.raises(ConfigError, match="needs an EMI level"):
        run_sweep(cfg, spec)
    with pytest.raises(ConfigError, match="needs an EMI level"):
        run_single_trial(cfg, cases, mode)


def test_run_sweep_validates_spec():
    cfg = _tiny_cfg(trials=1)
    good = SweepSpec(variable="tx_power_dbm", grid=(30.0,))
    for bad in (
        replace(good, variable="bandwidth"),
        replace(good, grid=()),
        replace(good, scenarios=()),
        replace(good, scenarios=(ScenarioCase(ScenarioKind.EIF),) * 2),
        replace(good, variable="emi_dbm", grid=(float("nan"),)),
        replace(good, scenarios=(ScenarioCase(ScenarioKind.EMI, float("inf")),)),
        replace(good, variable="ris_elements", grid=(-4.0,)),
        # a grid value is checked as written: True is not the count 1, "4" not 4
        replace(good, variable="ris_elements", grid=(True,)),
        replace(good, variable="ris_elements", grid=("4",)),
    ):
        with pytest.raises(ConfigError):
            run_sweep(cfg, bad)
    # a mode or scenario kind given through the API is named with the choices
    for bad, message in (
        (replace(good, mode="bogus"), "unknown mode 'bogus' \\(expected one of: fixed, unaware, aware\\)"),
        (replace(good, scenarios=(ScenarioCase("bogus"),)), "unknown scenario 'bogus' \\(expected one of: eif,"),
    ):
        with pytest.raises(ConfigError, match=message):
            run_sweep(cfg, bad)
    # the config's trials and seed are checked as written too
    for bad_cfg in (
        replace(cfg, mc_trials=0),
        replace(cfg, rng_seed=-1),
        replace(cfg, rng_seed=True),
        replace(cfg, rng_seed=7.0),
        replace(cfg, mc_trials=True),
        replace(cfg, mc_trials=2.5),
    ):
        with pytest.raises(ConfigError):
            run_sweep(bad_cfg, good)


def test_run_sweep_optimized_modes_beat_fixed():
    cfg = _tiny_cfg(trials=3)
    cases = (ScenarioCase(ScenarioKind.EMI, -60.0),)
    kw = dict(variable="tx_power_dbm", grid=(30.0,), scenarios=cases)
    fixed = run_sweep(cfg, SweepSpec(mode=Mode.FIXED, **kw))[0]
    unaware = run_sweep(cfg, SweepSpec(mode=Mode.UNAWARE, **kw))[0]
    aware = run_sweep(cfg, SweepSpec(mode=Mode.AWARE, **kw))[0]
    assert unaware.mean_sum_rate_bps_hz > fixed.mean_sum_rate_bps_hz
    assert aware.mean_sum_rate_bps_hz > fixed.mean_sum_rate_bps_hz


@pytest.mark.usefixtures("in_process")
def test_run_sweep_skip_accounting(monkeypatch):
    cfg = _tiny_cfg(trials=4)
    real_check = sinr.check_zf_gram
    fails = {"left": 1}

    def flaky(gram, *args, **kwargs):
        if fails["left"] > 0:
            fails["left"] -= 1
            raise ZfDegenerateError("forced degenerate draw")
        return real_check(gram, *args, **kwargs)

    monkeypatch.setattr(sinr, "check_zf_gram", flaky)
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.FIXED)
    rec = run_sweep(cfg, spec)[0]
    assert rec.skipped == 1
    assert rec.trials == 3


def test_run_sweep_all_skipped_raises(monkeypatch):
    cfg = _tiny_cfg(trials=2)

    def broken(gram, *args, **kwargs):
        raise ZfDegenerateError("forced degenerate draw")

    monkeypatch.setattr(sinr, "check_zf_gram", broken)
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.FIXED)
    with pytest.raises(RuntimeError, match="every trial was skipped"):
        run_sweep(cfg, spec)


def test_run_sweep_trace_rows():
    cfg = _tiny_cfg(trials=2)
    rows = []
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.UNAWARE)
    run_sweep(cfg, spec, trace=rows)
    assert rows
    assert all(len(row) == 9 for row in rows)
    stages = {row[4] for row in rows}
    assert "cluster1_unaware" in stages
    text = render_trace(rows)
    assert text.splitlines()[0] == TRACE_HEADER


_TRACED_STAGES = {
    Mode.FIXED: {},
    Mode.UNAWARE: {"eif": {"cluster1_unaware"}, "irr": {"cluster2"}},
    Mode.AWARE: {
        "eif": {"cluster1_unaware"},
        "irr": {"cluster2", "cluster1_aware_irr"},
        "emi_-75": {"cluster1_aware_emi"},
        "emi_-65": {"cluster1_aware_emi"},
        "emi_irr_-75": {"cluster1_aware_emi_irr"},
        "emi_irr_-65": {"cluster1_aware_emi_irr"},
    },
}


@pytest.mark.parametrize("mode", list(Mode))
def test_trace_rows_carry_label_mode_and_plan_stages(mode):
    # each run's rows appear once per grid point and trial, under the first
    # case in plan order that reads the run, with the sweep's mode
    cfg = _tiny_cfg(trials=2)
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 40.0), scenarios=DEFAULT_CASES, mode=mode)
    rows = []
    run_sweep(cfg, spec, trace=rows)
    assert {row[2] for row in rows} <= {mode.value}
    iterations = {}
    for value, label, _, trial, stage, it, *_ in rows:
        iterations.setdefault((value, label, stage, trial), []).append(it)
    stages = {}
    for value, label, stage, trial in iterations:
        stages.setdefault((value, label), set()).add(stage)
    expected = {(v, label): want for v in spec.grid for label, want in _TRACED_STAGES[mode].items()}
    assert stages == expected
    for its in iterations.values():
        assert its == list(range(len(its)))
    assert {key[3] for key in iterations} <= {0, 1}
    assert len(iterations) == 2 * sum(len(want) for want in expected.values())


def test_run_single_trial_deterministic(tmp_path):
    cfg = _tiny_cfg()
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI, -65.0))
    a = run_single_trial(cfg, cases, Mode.FIXED, trial=7, dump_dir=tmp_path)
    b = run_single_trial(cfg, cases, Mode.FIXED, trial=7)
    assert (tmp_path / "channels_trial00007.npz").exists()
    for (case_a, rep_a), (case_b, rep_b) in zip(a, b):
        assert case_a == case_b
        np.testing.assert_array_equal(rep_a.sinr, rep_b.sinr)
    c = run_single_trial(replace(cfg, rng_seed=999), cases, Mode.FIXED, trial=7)
    assert not np.array_equal(a[0][1].sinr, c[0][1].sinr)


def test_run_single_trial_rejects_bad_indices():
    cfg = _tiny_cfg()
    cases = (ScenarioCase(ScenarioKind.EIF),)
    for name, value in (("trial", -1), ("trial", 1.5)):
        with pytest.raises(ConfigError, match=name):
            run_single_trial(cfg, cases, Mode.FIXED, **{name: value})
    for value in (-1, True):
        with pytest.raises(ConfigError, match="rng_seed"):
            run_single_trial(replace(cfg, rng_seed=value), cases, Mode.FIXED)
    with pytest.raises(ConfigError, match="unknown mode 'bogus' \\(expected one of: fixed, unaware, aware\\)"):
        run_single_trial(cfg, cases, "bogus")
    with pytest.raises(ConfigError, match="unknown scenario 'bogus' \\(expected one of: eif,"):
        run_single_trial(cfg, (ScenarioCase("bogus"),), Mode.FIXED)


def test_render_csv_format():
    rec = MetricRecord(
        sweep_value=30.0,
        scenario="eif",
        mode="fixed",
        mean_sum_rate_bps_hz=1.0 / 3.0,
        outage=(0.25, 0.0),
        trials=8,
        skipped=1,
    )
    text = render_csv([rec])
    assert text == CSV_HEADER + "\n30,eif,fixed,0.3333333333,0.25,8,1\n"


def test_an_emi_level_on_a_kind_without_emi_is_a_config_error():
    # as parse_scenario_token rejects 'eif:-65', so do the sweep and the
    # single trial, instead of evaluating the case at zero EMI
    cfg = _tiny_cfg(trials=1)
    for case in (ScenarioCase(ScenarioKind.EIF, -65.0), ScenarioCase(ScenarioKind.IRR, -50.0)):
        message = f"scenario '{case.kind.value}' does not take an EMI level"
        spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,), scenarios=(case,))
        with pytest.raises(ConfigError, match=message):
            run_sweep(cfg, spec)
        with pytest.raises(ConfigError, match=message):
            run_single_trial(cfg, (case,), Mode.FIXED)


def test_run_sweep_rejects_repeated_scenarios():
    # a repeated case would pool its trials twice into one row
    cfg = _tiny_cfg(trials=1)
    emi = ScenarioCase(ScenarioKind.EMI, -65.0)
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,), scenarios=(emi, emi))
    with pytest.raises(ConfigError, match="'emi_-65' is given more than once"):
        run_sweep(cfg, spec)
    bare = ScenarioCase(ScenarioKind.EMI)
    emi_sweep = replace(spec, variable="emi_dbm", grid=(-70.0,), scenarios=(bare, bare))
    with pytest.raises(ConfigError, match="'emi' is given more than once"):
        run_sweep(cfg, emi_sweep)


def test_emi_sweep_rejects_a_scenario_emi_level(tmp_path, capsys):
    # an EMI sweep sets every EMI level from its grid, so a level given on a
    # case would be dropped without a word
    cfg = _tiny_cfg(trials=1)
    cases = (ScenarioCase(ScenarioKind.EMI), ScenarioCase(ScenarioKind.EMI_IRR, -65.0))
    spec = SweepSpec(variable="emi_dbm", grid=(-75.0, -70.0), scenarios=cases)
    with pytest.raises(ConfigError, match="'emi_irr:-65'"):
        run_sweep(cfg, spec)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    out = tmp_path / "out.csv"
    argv = ["sweep-emi", "--config", str(path), "--scenarios", "emi:-65,eif", "--grid=-75,-70", "--out", str(out)]
    assert cli_main(argv) == EXIT_RUNTIME
    assert not out.exists()
    assert "'emi:-65'" in capsys.readouterr().err
    # a case without an EMI level still sweeps, whatever its kind
    assert cli_main(argv[:4] + ["emi,eif"] + argv[5:]) == 0
    assert out.read_text().splitlines()[1].startswith("-75,emi_-75,")


_SWEEP_CASES = {
    "tx_power_dbm": ("tx_power_dbm", (10.0, 25.0, 40.0), DEFAULT_CASES),
    "emi_dbm": (
        "emi_dbm", (-75.0, -65.0, -60.0), (ScenarioCase(ScenarioKind.EIF),) + EMI_SWEEP_CASES
    ),
    "ris_elements": ("ris_elements", (4.0, 16.0, 9.0), DEFAULT_CASES),
    # a repeated value is its own grid point, with its own trace rows
    "tx_power_dbm_repeated": ("tx_power_dbm", (10.0, 10.0, 25.0), DEFAULT_CASES),
    "ris_elements_repeated": ("ris_elements", (4.0, 9.0, 4.0), DEFAULT_CASES),
    # config-wide EMI levels, unequal between the clusters (see _unequal_levels)
    "tx_power_dbm_unequal_levels": (
        "tx_power_dbm",
        (10.0, 25.0, 40.0),
        tuple(ScenarioCase(kind) for kind in ScenarioKind) + (ScenarioCase(ScenarioKind.EMI_IRR, -65.0),),
    ),
}


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("sweep", sorted(_SWEEP_CASES))
def test_multi_point_sweep_equals_single_point_sweeps(sweep, mode):
    # sharing a draw's work between grid points must not change a byte of the
    # CSV or of the trace
    cfg = _tiny_cfg(side=4, trials=2)
    if sweep.endswith("_unequal_levels"):
        cfg = _unequal_levels(cfg)
    variable, grid, cases = _SWEEP_CASES[sweep]
    spec = SweepSpec(variable=variable, grid=grid, scenarios=cases, mode=mode)
    rows = []
    csv = render_csv(run_sweep(cfg, spec, trace=rows)).splitlines()
    trace = render_trace(rows).splitlines()
    single_csv, single_trace = [], []
    for value in grid:
        one_rows = []
        single_csv += render_csv(run_sweep(cfg, replace(spec, grid=(value,)), trace=one_rows)).splitlines()[1:]
        single_trace += render_trace(one_rows).splitlines()[1:]
    assert csv[1:] == single_csv
    assert trace[1:] == single_trace
    traced = {(row[0], row[3]) for row in rows if row[4] == "cluster1_unaware"}
    assert traced == ({(v, t) for v in grid for t in range(2)} if mode is not Mode.FIXED else set())


def _count_calls(monkeypatch, module, name):
    """Record each call's arguments, by parameter name, as module.name runs."""
    calls = []
    real = getattr(module, name)
    signature = inspect.signature(real)

    def counted(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.usefixtures("in_process")
@pytest.mark.parametrize("mode", list(Mode))
def test_power_sweep_draws_and_runs_cluster2_once_per_trial(mode, monkeypatch):
    counts = {
        name: _count_calls(monkeypatch, harness, name)
        for name in (
            "build_statistics", "draw_realization", "build_cascades", "optimize_cluster2",
            "rcg_lockstep", "optimize_eif_stack",
        )
    }
    neighbor_builds = _count_calls(monkeypatch, ao, "build_cascades")
    trials = 3
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI_IRR, -65.0))
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 20.0, 30.0), scenarios=cases, mode=mode)
    run_sweep(_tiny_cfg(trials=trials), spec)
    assert len(counts["build_statistics"]) == 1
    assert len(counts["draw_realization"]) == trials
    # per draw: one build for cluster 1 alone here, and one with the neighbor
    # RIS in optimize_cluster2
    builds = counts["build_cascades"]
    assert len(builds) == trials
    assert all(kw.get("theta2") is None for kw in builds)
    assert len(neighbor_builds) == trials
    assert all(kw["theta2"] is not None for kw in neighbor_builds)
    # the runs from theta = 1 are two lockstep stacks: cluster 2, one row per
    # draw, and cluster 1's unaware runs, one row per (draw, power)
    stacks = [len(call["links"]) for call in counts["optimize_eif_stack"]]
    assert stacks == ([] if mode is Mode.FIXED else [trials, 3 * trials])
    # the neighbor terms are built once per draw in every mode: at theta = 1
    # in fixed mode, else at the phases of its stacked row
    cluster2 = counts["optimize_cluster2"]
    assert len(cluster2) == trials
    assert all((call["theta2"] is None) == (mode is Mode.FIXED) for call in cluster2)
    # besides those, only aware mode runs: one stack per draw, a warm EMI_IRR
    # row per point, each started from its point's unaware phases
    runs = counts["rcg_lockstep"]
    assert len(runs) == (trials if mode is Mode.AWARE else 0)
    for call in runs:
        problem = call["problem"]
        assert isinstance(problem, sinr.UtilityStack)
        assert len(problem.interference) == call["theta0"].shape[0] == 3
        assert all(kind is ScenarioKind.EMI_IRR for _, kind, _, _ in problem.interference)
        assert call["max_iters"] == ao.AO_WARM_RCG


@pytest.mark.usefixtures("in_process")
def test_aware_sweep_builds_one_operator_per_draw(monkeypatch):
    # per draw, one W21^H R2 W21 and one EMI_IRR operator A, which every row
    # holds, whatever its EMI level (e2 / e1 = 1 at each) or cluster-1 power
    reflected = _count_calls(monkeypatch, sinr, "reflected_emi_covariance")
    ops = _count_calls(monkeypatch, sinr, "emi_irr_operator")
    runs = _count_calls(monkeypatch, harness, "rcg_lockstep")
    trials = 3
    levels = (-75.0, -70.0, -65.0, -60.0)
    spec = SweepSpec(variable="emi_dbm", grid=levels, scenarios=EMI_SWEEP_CASES, mode=Mode.AWARE)
    run_sweep(_tiny_cfg(trials=trials), spec)
    assert len(reflected) == trials
    assert len(ops) == trials
    assert len(runs) == trials
    held = []
    for call in runs:
        rows = [row for row in call["problem"].interference if row[1] is ScenarioKind.EMI_IRR]
        assert sorted(terms.emi1_w for terms, *_ in rows) == sorted(dbm_to_watts(x) for x in levels)
        assert all(op is not None and op is rows[0][3] for *_, op in rows)
        held.append(rows[0][3])
    assert len({id(op) for op in held}) == trials


@pytest.mark.usefixtures("in_process")
def test_aware_sweep_with_unequal_config_levels(monkeypatch):
    # the config-wide emi_irr case has e2 / e1 != 1 and the per-case one
    # e2 / e1 = 1: per draw, two EMI_IRR operators, from one W21^H R2 W21
    reflected = _count_calls(monkeypatch, sinr, "reflected_emi_covariance")
    ops = _count_calls(monkeypatch, sinr, "emi_irr_operator")
    runs = _count_calls(monkeypatch, harness, "rcg_lockstep")
    trials = 3
    cases = (ScenarioCase(ScenarioKind.EMI_IRR), ScenarioCase(ScenarioKind.EMI_IRR, -65.0))
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 40.0), scenarios=cases, mode=Mode.AWARE)
    records = run_sweep(_unequal_levels(_tiny_cfg(trials=trials)), spec)
    assert [r.scenario for r in records] == ["emi_irr", "emi_irr_-65"] * 2
    assert len(reflected) == trials
    assert len(ops) == 2 * trials
    assert len(runs) == trials
    e1, e2 = dbm_to_watts(-65.0), dbm_to_watts(-70.0)
    for call in runs:
        rows = call["problem"].interference
        by_levels = {}
        for terms, kind, _, op in rows:
            assert kind is ScenarioKind.EMI_IRR
            by_levels.setdefault((terms.emi1_w, terms.emi2_w), set()).add(id(op))
        # one row per power and case; the rows at one case's levels share one operator
        assert len(rows) == 4
        assert sorted(by_levels) == sorted([(e1, e2), (e1, e1)])
        assert all(len(held) == 1 for held in by_levels.values())
        assert by_levels[e1, e2] != by_levels[e1, e1]


@pytest.mark.parametrize("mode", list(Mode))
def test_degenerate_cluster2_skips_only_the_irr_cases(mode, monkeypatch):
    # the neighbor's ZF fails on draw 0: the cases that need the neighbor
    # terms skip that draw at every grid point, and the others keep it
    def failing(fn):
        def wrapped(real, *args):
            if real.trial == 0:
                raise ZfDegenerateError("forced degenerate neighbor")
            return fn(real, *args)

        return wrapped

    monkeypatch.setattr(harness, "optimize_cluster2", failing(harness.optimize_cluster2))
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 30.0), scenarios=DEFAULT_CASES, mode=mode)
    for rec in run_sweep(_tiny_cfg(trials=3), spec):
        assert (rec.skipped, rec.trials) == ((1, 2) if "irr" in rec.scenario else (0, 3))


@pytest.mark.usefixtures("in_process")
@pytest.mark.parametrize("mode", list(Mode))
def test_degenerate_theta_skips_only_the_cases_that_read_it(mode, monkeypatch):
    # ZF fails at the first theta of draw 0: every case evaluated there skips
    # that draw at both grid points, and a case at other phases keeps it.
    # Fixed and unaware draws have one theta each, which every case reads; an
    # aware draw has four (eif reads the unaware one, emi at each level and
    # irr their own aware ones), and the first pair, eif, reads it first
    checks = []

    def failing(gram):
        checks.append(gram)
        if len(checks) == 1:
            raise ZfDegenerateError("forced degenerate theta")
        return real(gram)

    real = sinr.check_zf_gram
    monkeypatch.setattr(sinr, "check_zf_gram", failing)
    cases = tuple(parse_scenario_token(t) for t in ("eif", "emi", "irr"))
    spec = SweepSpec(variable="emi_dbm", grid=(-75.0, -65.0), scenarios=cases, mode=mode)
    records = run_sweep(_tiny_cfg(trials=3), spec)
    assert len(records) == 6
    for rec in records:
        skipped = mode is not Mode.AWARE or rec.scenario == "eif"
        assert (rec.skipped, rec.trials) == ((1, 2) if skipped else (0, 3))
    assert len(checks) == (12 if mode is Mode.AWARE else 3)


@pytest.mark.usefixtures("in_process")
def test_emi_sweep_runs_the_unaware_optimizer_once_per_trial(monkeypatch):
    runs = _count_calls(monkeypatch, harness, "rcg_lockstep")
    stacks = _count_calls(monkeypatch, harness, "optimize_eif_stack")
    cluster2 = _count_calls(monkeypatch, harness, "optimize_cluster2")
    spec = SweepSpec(variable="emi_dbm", grid=(-75.0, -70.0, -65.0), scenarios=EMI_SWEEP_CASES,
                     mode=Mode.UNAWARE)
    run_sweep(_tiny_cfg(trials=2), spec)
    # one row per trial in each stack (cluster 2, then cluster 1), none per EMI level
    assert [len(call["links"]) for call in stacks] == [2, 2]
    assert len(runs) == 0
    assert len(cluster2) == 2


@pytest.mark.usefixtures("in_process")
def test_each_theta_builds_its_parts_once(monkeypatch):
    # every case, power and EMI level evaluated at one theta is mixed from the
    # same parts: theta = 1 serves a whole fixed draw, an unaware theta one
    # (draw, power) and an aware theta its own case
    parts = _count_calls(monkeypatch, harness, "user_parts")
    neighbor = _count_calls(monkeypatch, harness, "neighbor_parts")
    cluster2 = _count_calls(monkeypatch, harness, "optimize_cluster2")
    stacks = _count_calls(monkeypatch, harness, "optimize_eif_stack")
    trials, grid = 2, (10.0, 25.0, 40.0)
    kw = dict(variable="tx_power_dbm", grid=grid, scenarios=DEFAULT_CASES)
    points = trials * len(grid)
    aware = sum(case.kind is not ScenarioKind.EIF for case in DEFAULT_CASES)
    irr = sum(case.kind.has_irr for case in DEFAULT_CASES)
    expected = {
        Mode.FIXED: (trials, trials),
        Mode.UNAWARE: (points, points),
        # the eif case reads the unaware theta; each aware theta serves one case
        Mode.AWARE: (points * (1 + aware), points * irr),
    }
    for mode, (builds, neighbor_builds) in expected.items():
        parts.clear()
        neighbor.clear()
        stacks.clear()
        run_sweep(_tiny_cfg(trials=trials), SweepSpec(mode=mode, **kw))
        assert (len(parts), len(neighbor)) == (builds, neighbor_builds)
        # the cluster-2 rows, then the unaware rows: one per draw and per (draw, power)
        rows = [len(call["links"]) for call in stacks]
        assert rows == ([] if mode is Mode.FIXED else [trials, points])
    # without an IRR case the neighbor cluster is never optimized or evaluated
    parts.clear()
    neighbor.clear()
    cluster2.clear()
    stacks.clear()
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI, -65.0))
    run_sweep(_tiny_cfg(trials=trials), SweepSpec(mode=Mode.UNAWARE, **{**kw, "scenarios": cases}))
    assert len(parts) == points
    assert neighbor == [] and cluster2 == []
    assert [len(call["links"]) for call in stacks] == [points]  # no cluster-2 rows


@pytest.mark.usefixtures("in_process")
def test_elements_sweep_draws_per_point(monkeypatch):
    stats = _count_calls(monkeypatch, harness, "build_statistics")
    draws = _count_calls(monkeypatch, harness, "draw_realization")
    spec = SweepSpec(variable="ris_elements", grid=(4.0, 9.0, 16.0),
                     scenarios=(ScenarioCase(ScenarioKind.IRR),), mode=Mode.FIXED)
    run_sweep(_tiny_cfg(trials=3), spec)
    assert len(stats) == 3
    assert len(draws) == 3 * 3


def test_aware_never_below_unaware_per_trial():
    # aware runs start from the unaware phases and only ascend the true utility
    cfg = _tiny_cfg(side=4, trials=3)
    cases = tuple(c for c in DEFAULT_CASES if c.kind is not ScenarioKind.EIF)
    kw = dict(variable="tx_power_dbm", grid=(10.0, 40.0), scenarios=cases)
    unaware = run_sweep(cfg, SweepSpec(mode=Mode.UNAWARE, **kw))
    aware = run_sweep(cfg, SweepSpec(mode=Mode.AWARE, **kw))
    for u, a in zip(unaware, aware):
        assert (u.sweep_value, u.scenario) == (a.sweep_value, a.scenario)
        for su, sa in zip(u.sum_rate_samples, a.sum_rate_samples):
            assert sa >= su - 1e-12 * abs(su)


@pytest.mark.usefixtures("in_process")
@pytest.mark.parametrize("mode", list(Mode))
def test_z21_is_drawn_only_for_neighbor_cases(mode, monkeypatch, tmp_path):
    # z21 is the last draw of a trial's stream and only the neighbor terms
    # read it: a sweep without an IRR case never draws it, and its rows are
    # those of the same cases in a sweep that does
    draws = _count_calls(monkeypatch, channels, "sample_inter_ris")
    cfg = _tiny_cfg(trials=3)
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI, -65.0))
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 40.0), scenarios=cases, mode=mode)
    rows = render_csv(run_sweep(cfg, spec)).splitlines()
    assert draws == []
    full = render_csv(run_sweep(cfg, replace(spec, scenarios=cases + (ScenarioCase(ScenarioKind.IRR),))))
    assert len(draws) == 3  # once per draw, shared by both grid points
    assert rows[1:] == [row for row in full.splitlines()[1:] if ",irr," not in row]
    # a dump reads z21, which is then the draw's own
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    argv = ["single-trial", "--config", str(path), "--trial", "2", "--scenarios", "eif",
            "--dump-channels", str(tmp_path), "--out", str(tmp_path / "out.txt")]
    assert cli_main(argv) == 0
    dumped = np.load(tmp_path / "channels_trial00002.npz")
    real = draw_realization(cfg, build_statistics(cfg), 2)
    for name in ("h1", "h2", "g1", "g2", "z21"):
        np.testing.assert_array_equal(dumped[name], getattr(real, name))


@pytest.mark.usefixtures("in_process")
def test_a_draw_releases_z21_once_its_neighbor_terms_are_built(monkeypatch):
    # the neighbor terms hold s and W21, so a sweep's draw stops holding
    # z21; a later read raises instead of drawing from the spent stream
    reals = []

    def kept(*args):
        reals.append(draw_realization(*args))
        return reals[-1]

    monkeypatch.setattr(harness, "draw_realization", kept)
    cfg = _tiny_cfg(trials=2)
    run_sweep(cfg, SweepSpec(variable="tx_power_dbm", grid=(30.0,), scenarios=(ScenarioCase(ScenarioKind.IRR),)))
    assert len(reals) == 2
    for real in reals:
        with pytest.raises(RuntimeError, match="released"):
            real.z21


@pytest.mark.parametrize("mode", [Mode.UNAWARE, Mode.AWARE])
def test_results_do_not_depend_on_the_block_size(mode, monkeypatch):
    # a stacked run equals the single run, so blocks of 2 draws and stacks of
    # 3 rows (the unaware stack of a block spans two) change no byte
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 30.0), scenarios=DEFAULT_CASES, mode=mode)
    outputs = []
    for rows in (None, 3):
        if rows is not None:
            monkeypatch.setattr(harness, "STACK_ROWS", 2)
            monkeypatch.setattr(ao, "STACK_ROWS", rows)
        trace = []
        outputs.append((render_csv(run_sweep(_tiny_cfg(trials=5), spec, trace=trace)), render_trace(trace)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", [Mode.UNAWARE, Mode.AWARE])
def test_single_trial_equals_its_trial_of_a_sweep(mode):
    # a single trial is a block of one draw on the sweep's path, so trial t
    # of a one-point sweep at the same seed has its sum rates and trace rows
    cfg = replace(_tiny_cfg(side=4, trials=3), rng_seed=5)
    trial = 2
    spec = SweepSpec(variable="tx_power_dbm", grid=(cfg.clusters[0].tx_power_dbm,),
                     scenarios=DEFAULT_CASES, mode=mode)
    rows, single_rows = [], []
    records = run_sweep(cfg, spec, trace=rows)
    results = run_single_trial(cfg, DEFAULT_CASES, mode, trial=trial, trace=single_rows)
    for (case, report), record in zip(results, records, strict=True):
        assert (record.scenario, record.trials) == (case.label, 3)
        assert report.sum_rate_bps_hz == record.sum_rate_samples[trial]
    assert single_rows
    assert single_rows == [("",) + row[1:] for row in rows if row[3] == trial]


def test_element_sweep_computes_each_surface_model_once(monkeypatch):
    # four cluster-1 sizes and cluster 2's surface (the size of one of them)
    # are four distinct surfaces: one model each, not one per group and cluster
    models = _count_calls(monkeypatch, channels, "spatial_correlation")
    built = _count_calls(monkeypatch, harness, "build_statistics")
    spec = SweepSpec(variable="ris_elements", grid=(4.0, 9.0, 16.0, 25.0),
                     scenarios=(ScenarioCase(ScenarioKind.IRR),), mode=Mode.FIXED)
    run_sweep(_tiny_cfg(side=3, trials=2), spec)
    assert len(models) == 4
    assert len(built) == 4
    assert built[0]["models"] is not None and all(call["models"] is built[0]["models"] for call in built)
    # a shared build equals a fresh one bit for bit
    for call in built:
        shared = build_statistics(call["cfg"], call["models"])
        fresh = build_statistics(call["cfg"])
        for a, b in zip(shared.clusters, fresh.clusters):
            np.testing.assert_array_equal(a.corr.matrix, b.corr.matrix)
            np.testing.assert_array_equal(a.corr.factor, b.corr.factor)
            assert a.bs_ris_gain == b.bs_ris_gain
            np.testing.assert_array_equal(a.ris_ue_gain, b.ris_ue_gain)
        assert shared.inter_ris_gain == fresh.inter_ris_gain


@pytest.mark.parametrize(
    ("trials", "workers", "sizes"),
    [(36, 2, [18, 18]), (55, 2, [28, 27]), (4, 2, [2, 2]), (500, 2, [32] * 4 + [31] * 12),
     (36, 1, [18, 18]), (3, 3, [1, 1, 1]), (1, 1, [1])],
)
def test_blocks_are_near_equal_and_fill_every_worker(trials, workers, sizes):
    blocks = harness._blocks(trials, workers)
    assert [len(b) for b in blocks] == sizes
    assert [t for b in blocks for t in b] == list(range(trials))
    assert len(blocks) % workers == 0 and max(sizes) <= ao.STACK_ROWS


_POOLED = {
    "fixed": ("tx_power_dbm", (10.0, 40.0), Mode.FIXED, 5, None),
    "unaware": ("tx_power_dbm", (10.0, 40.0), Mode.UNAWARE, 5, None),
    "aware": ("tx_power_dbm", (10.0, 40.0), Mode.AWARE, 3, None),
    "elements": ("ris_elements", (4.0, 9.0), Mode.UNAWARE, 5, None),
    # blocks of at most 2 draws: 4 blocks, two per worker
    "small_blocks": ("tx_power_dbm", (10.0, 25.0), Mode.UNAWARE, 7, 2),
}


@pytest.mark.parametrize("sweep", sorted(_POOLED))
def test_worker_processes_change_no_byte(sweep, monkeypatch):
    # two worker processes give the CSV, the trace rows and the per-trial sum
    # rates of one process; 5 and 3 trials do not split evenly in two
    variable, grid, mode, trials, rows = _POOLED[sweep]
    if rows is not None:
        monkeypatch.setattr(harness, "STACK_ROWS", rows)
    spec = SweepSpec(variable=variable, grid=grid, scenarios=DEFAULT_CASES, mode=mode)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_worker_count", lambda workers=workers: workers)
        trace = []
        records = run_sweep(_tiny_cfg(side=4, trials=trials), spec, trace=trace)
        outputs.append((render_csv(records), trace, [r.sum_rate_samples for r in records]))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] or mode is Mode.FIXED


def test_a_worker_error_leaves_the_sweep_and_no_process(monkeypatch):
    real = harness.draw_realization

    def failing(cfg, stats, trial):
        if trial == 3:
            raise ValueError(f"forced failure in trial {trial}")
        return real(cfg, stats, trial)

    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0,), scenarios=DEFAULT_CASES, mode=Mode.UNAWARE)
    run_sweep(_tiny_cfg(trials=4), spec)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(harness, "draw_realization", failing)  # inherited by the workers
    with pytest.raises(ValueError, match="forced failure in trial 3"):
        run_sweep(_tiny_cfg(trials=4), spec)
    assert multiprocessing.active_children() == []


def test_a_killed_worker_breaks_the_sweep_instead_of_hanging(monkeypatch):
    caller, real = os.getpid(), harness.draw_realization

    def dying(cfg, stats, trial):
        if trial == 3 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cfg, stats, trial)

    monkeypatch.setattr(harness, "_worker_count", lambda: 2)
    monkeypatch.setattr(harness, "draw_realization", dying)
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0,), scenarios=DEFAULT_CASES, mode=Mode.FIXED)
    with pytest.raises(BrokenProcessPool):
        run_sweep(_tiny_cfg(trials=4), spec)
    assert multiprocessing.active_children() == []


def test_a_threaded_process_runs_its_sweeps_in_itself():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert harness._worker_count() == 1
    finally:
        release.set()
        thread.join(timeout=10)


def test_a_single_threaded_process_uses_every_cpu_and_imports_no_multiprocessing():
    src = str(Path(harness.__file__).resolve().parents[1])
    code = (
        "import sys, os, risim, risim.harness as h; "
        "print('multiprocessing' in sys.modules, h._worker_count(), len(os.sched_getaffinity(0)))"
    )
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(threads, "1"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    imported, workers, cpus = out.stdout.split()
    assert imported == "False"
    assert workers == cpus
