"""Monte Carlo sweeps, aggregation, and CSV rendering."""

from dataclasses import replace

import numpy as np
import pytest

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
    aggregate,
    default_config,
    make_powers,
    parse_scenario_token,
    render_csv,
    render_trace,
    run_single_trial,
    run_sweep,
)


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


def test_aggregate_hand_example():
    rates = [[1.0, 2.0], [3.0, 4.0]]
    mean, std, outage = aggregate(rates, np.ones(2), threshold=1.5)
    assert mean == pytest.approx(5.0)
    assert std == pytest.approx(np.std([3.0, 7.0], ddof=1))
    np.testing.assert_allclose(outage, [0.5, 0.0])


def test_aggregate_single_trial_and_weights():
    mean, std, outage = aggregate([[2.0, 1.0]], np.array([2.0, 1.0]), threshold=0.5)
    assert mean == pytest.approx(5.0)
    assert std == 0.0
    np.testing.assert_allclose(outage, [0.0, 0.0])
    with pytest.raises(ValueError):
        aggregate(np.zeros((0, 2)), np.ones(2), 0.1)


def test_make_powers_split_and_unit():
    cfg = default_config()
    split = make_powers(cfg)
    np.testing.assert_allclose(split.cluster1, [0.5, 0.5])  # 1 W over two users
    np.testing.assert_allclose(split.cluster2, [0.5, 0.5])
    unit = make_powers(cfg, unit_power=True)
    np.testing.assert_allclose(unit.cluster1, [1.0, 1.0])


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
    cfg = _tiny_cfg()
    cases = (
        ScenarioCase(ScenarioKind.EIF),
        ScenarioCase(ScenarioKind.EMI, -65.0),
    )
    spec = SweepSpec(variable="tx_power_dbm", grid=(20.0, 30.0), scenarios=cases,
                     mode=Mode.FIXED, trials=3)
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
    cfg = _tiny_cfg()
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,), mode=Mode.FIXED, trials=4)
    a = render_csv(run_sweep(cfg, spec))
    b = render_csv(run_sweep(cfg, spec))
    assert a.encode() == b.encode()
    assert a.splitlines()[0] == CSV_HEADER


def test_run_sweep_seed_changes_results():
    cfg = _tiny_cfg()
    base = SweepSpec(variable="tx_power_dbm", grid=(30.0,), mode=Mode.FIXED, trials=4)
    a = run_sweep(cfg, base)
    b = run_sweep(cfg, replace(base, seed=777))
    assert a[0].mean_sum_rate_bps_hz != b[0].mean_sum_rate_bps_hz


def test_run_sweep_samples_and_pairing():
    cfg = _tiny_cfg()
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.IRR))
    spec = SweepSpec(variable="tx_power_dbm", grid=(20.0, 30.0), scenarios=cases,
                     mode=Mode.FIXED, trials=5)
    records = run_sweep(cfg, spec)
    assert all(len(r.sum_rate_samples) == r.trials == 5 for r in records)
    eif, irr = records[2:]
    assert eif.mean_sum_rate_bps_hz == pytest.approx(np.mean(eif.sum_rate_samples))
    # scenarios share channel draws, and extra interference cannot help
    for a, b in zip(eif.sum_rate_samples, irr.sum_rate_samples):
        assert b <= a + 1e-12


def test_run_sweep_eif_monotone_in_power():
    # ZF nulls the leakage, so the fixed-phase EIF rate grows with power
    cfg = _tiny_cfg()
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 20.0, 30.0),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.FIXED, trials=3)
    means = [r.mean_sum_rate_bps_hz for r in run_sweep(cfg, spec)]
    assert means[0] < means[1] < means[2]


def test_run_sweep_elements_variable():
    cfg = _tiny_cfg()
    spec = SweepSpec(variable="ris_elements", grid=(4.0, 9.0),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.FIXED, trials=3)
    records = run_sweep(cfg, spec)
    assert [r.sweep_value for r in records] == [4.0, 9.0]
    with pytest.raises(ConfigError, match="perfect squares"):
        run_sweep(cfg, replace(spec, grid=(8.0,)))


def test_run_sweep_emi_variable_attaches_levels():
    cfg = _tiny_cfg()
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI))
    spec = SweepSpec(variable="emi_dbm", grid=(-70.0, -60.0), scenarios=cases,
                     mode=Mode.FIXED, trials=2)
    records = run_sweep(cfg, spec)
    assert [r.scenario for r in records] == ["eif", "emi_-70", "eif", "emi_-60"]
    # the EIF case ignores the swept level entirely
    assert records[0].mean_sum_rate_bps_hz == pytest.approx(records[2].mean_sum_rate_bps_hz)
    assert records[1].mean_sum_rate_bps_hz > records[3].mean_sum_rate_bps_hz


def test_run_sweep_emi_case_without_level_errors():
    cfg = _tiny_cfg()
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,),
                     scenarios=(ScenarioCase(ScenarioKind.EMI),),
                     mode=Mode.FIXED, trials=2)
    with pytest.raises(ConfigError, match="needs an EMI level"):
        run_sweep(cfg, spec)
    # a config-wide level fills the gap
    with_level = replace(
        cfg,
        clusters=tuple(replace(c, emi_power_dbm=-65.0) for c in cfg.clusters),
    )
    records = run_sweep(with_level, spec)
    assert records[0].scenario == "emi"


def test_run_sweep_validates_spec():
    cfg = _tiny_cfg()
    good = SweepSpec(variable="tx_power_dbm", grid=(30.0,), trials=1)
    for bad in (
        replace(good, variable="bandwidth"),
        replace(good, grid=()),
        replace(good, scenarios=()),
        replace(good, trials=0),
        replace(good, seed=-1),
        replace(good, seed=True),
        replace(good, seed=7.0),
        replace(good, trials=True),
        replace(good, trials=2.5),
        replace(good, scenarios=(ScenarioCase(ScenarioKind.EIF),) * 2),
        replace(good, variable="emi_dbm", grid=(float("nan"),)),
        replace(good, scenarios=(ScenarioCase(ScenarioKind.EMI, float("inf")),)),
    ):
        with pytest.raises(ConfigError):
            run_sweep(cfg, bad)


def test_run_sweep_optimized_modes_beat_fixed():
    cfg = _tiny_cfg()
    cases = (ScenarioCase(ScenarioKind.EMI, -60.0),)
    kw = dict(variable="tx_power_dbm", grid=(30.0,), scenarios=cases, trials=3)
    fixed = run_sweep(cfg, SweepSpec(mode=Mode.FIXED, **kw))[0]
    unaware = run_sweep(cfg, SweepSpec(mode=Mode.UNAWARE, **kw))[0]
    aware = run_sweep(cfg, SweepSpec(mode=Mode.AWARE, **kw))[0]
    assert unaware.mean_sum_rate_bps_hz > fixed.mean_sum_rate_bps_hz
    assert aware.mean_sum_rate_bps_hz > fixed.mean_sum_rate_bps_hz


def test_run_sweep_skip_accounting(monkeypatch):
    cfg = _tiny_cfg()
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
                     mode=Mode.FIXED, trials=4)
    rec = run_sweep(cfg, spec)[0]
    assert rec.skipped == 1
    assert rec.trials == 3


def test_run_sweep_all_skipped_raises(monkeypatch):
    cfg = _tiny_cfg()

    def broken(gram, *args, **kwargs):
        raise ZfDegenerateError("forced degenerate draw")

    monkeypatch.setattr(sinr, "check_zf_gram", broken)
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.FIXED, trials=2)
    with pytest.raises(RuntimeError, match="every trial was skipped"):
        run_sweep(cfg, spec)


def test_run_sweep_trace_rows():
    cfg = _tiny_cfg()
    rows = []
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,),
                     scenarios=(ScenarioCase(ScenarioKind.EIF),),
                     mode=Mode.UNAWARE, trials=2)
    run_sweep(cfg, spec, trace=rows)
    assert rows
    assert all(len(row) == 9 for row in rows)
    stages = {row[4] for row in rows}
    assert "cluster1_unaware" in stages
    text = render_trace(rows)
    assert text.splitlines()[0] == TRACE_HEADER


def test_run_single_trial_deterministic(tmp_path):
    cfg = _tiny_cfg()
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI, -65.0))
    a = run_single_trial(cfg, cases, Mode.FIXED, trial=7, dump_dir=tmp_path)
    b = run_single_trial(cfg, cases, Mode.FIXED, trial=7)
    assert (tmp_path / "channels_trial00007.npz").exists()
    for (case_a, rep_a), (case_b, rep_b) in zip(a, b):
        assert case_a == case_b
        np.testing.assert_array_equal(rep_a.sinr, rep_b.sinr)
    c = run_single_trial(cfg, cases, Mode.FIXED, trial=7, seed=999)
    assert not np.array_equal(a[0][1].sinr, c[0][1].sinr)


def test_run_single_trial_rejects_bad_indices():
    cfg = _tiny_cfg()
    cases = (ScenarioCase(ScenarioKind.EIF),)
    for name, value in (("trial", -1), ("trial", 1.5), ("seed", -1), ("seed", True)):
        with pytest.raises(ConfigError, match=name):
            run_single_trial(cfg, cases, Mode.FIXED, **{name: value})


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


def test_run_sweep_rejects_repeated_scenarios():
    # a repeated case would pool its trials twice into one row
    cfg = _tiny_cfg()
    emi = ScenarioCase(ScenarioKind.EMI, -65.0)
    spec = SweepSpec(variable="tx_power_dbm", grid=(30.0,), scenarios=(emi, emi), trials=1)
    with pytest.raises(ConfigError, match="'emi_-65' is given more than once"):
        run_sweep(cfg, spec)
    # an EMI sweep sets every EMI level, so differing levels still collide
    bare = ScenarioCase(ScenarioKind.EMI)
    emi_sweep = replace(spec, variable="emi_dbm", grid=(-70.0,), scenarios=(bare, emi))
    with pytest.raises(ConfigError, match="'emi_-70' is given more than once"):
        run_sweep(cfg, emi_sweep)


_SWEEP_CASES = {
    "tx_power_dbm": ("tx_power_dbm", (10.0, 25.0, 40.0), DEFAULT_CASES),
    "emi_dbm": (
        "emi_dbm", (-75.0, -65.0, -60.0), (ScenarioCase(ScenarioKind.EIF),) + EMI_SWEEP_CASES
    ),
    "ris_elements": ("ris_elements", (4.0, 16.0, 9.0), DEFAULT_CASES),
    # a repeated value is its own grid point, with its own trace rows
    "tx_power_dbm_repeated": ("tx_power_dbm", (10.0, 10.0, 25.0), DEFAULT_CASES),
    "ris_elements_repeated": ("ris_elements", (4.0, 9.0, 4.0), DEFAULT_CASES),
}


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("sweep", sorted(_SWEEP_CASES))
def test_multi_point_sweep_equals_single_point_sweeps(sweep, mode):
    # sharing a draw's work between grid points must not change a byte of the
    # CSV or of the trace
    cfg = _tiny_cfg(side=4)
    variable, grid, cases = _SWEEP_CASES[sweep]
    spec = SweepSpec(variable=variable, grid=grid, scenarios=cases, mode=mode, trials=2)
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
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", list(Mode))
def test_power_sweep_draws_and_runs_cluster2_once_per_trial(mode, monkeypatch):
    counts = {
        name: _count_calls(monkeypatch, harness, name)
        for name in (
            "build_statistics", "draw_realization", "build_cascades", "optimize_cluster2",
            "alternate_optimize",
        )
    }
    trials = 3
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI_IRR, -65.0))
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 20.0, 30.0), scenarios=cases,
                     mode=mode, trials=trials)
    run_sweep(_tiny_cfg(), spec)
    assert len(counts["build_statistics"]) == 1
    assert len(counts["draw_realization"]) == trials
    # per draw: one build for cluster 1 alone and one with the neighbor RIS
    builds = counts["build_cascades"]
    assert len(builds) == 2 * trials
    assert sum(kw.get("theta2") is not None for kw in builds) == trials
    assert len(counts["optimize_cluster2"]) == (0 if mode is Mode.FIXED else trials)
    # per point and trial: the unaware run, and in aware mode one warm EMI_IRR run
    runs = counts["alternate_optimize"]
    warm = [kw for kw in runs if kw.get("theta0") is not None]
    assert len(runs) == 3 * trials * {Mode.FIXED: 0, Mode.UNAWARE: 1, Mode.AWARE: 2}[mode]
    assert len(warm) == (3 * trials if mode is Mode.AWARE else 0)


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

    for name in ("fixed_cluster2", "optimize_cluster2"):
        monkeypatch.setattr(harness, name, failing(getattr(harness, name)))
    spec = SweepSpec(variable="tx_power_dbm", grid=(10.0, 30.0), scenarios=DEFAULT_CASES,
                     mode=mode, trials=3)
    for rec in run_sweep(_tiny_cfg(), spec):
        assert (rec.skipped, rec.trials) == ((1, 2) if "irr" in rec.scenario else (0, 3))


def test_emi_sweep_runs_the_unaware_optimizer_once_per_trial(monkeypatch):
    runs = _count_calls(monkeypatch, harness, "alternate_optimize")
    cluster2 = _count_calls(monkeypatch, harness, "optimize_cluster2")
    spec = SweepSpec(variable="emi_dbm", grid=(-75.0, -70.0, -65.0), scenarios=EMI_SWEEP_CASES,
                     mode=Mode.UNAWARE, trials=2)
    run_sweep(_tiny_cfg(), spec)
    assert len(runs) == 2
    assert len(cluster2) == 2


def test_each_theta_builds_its_parts_once(monkeypatch):
    # every case, power and EMI level evaluated at one theta is mixed from the
    # same parts: theta = 1 serves a whole fixed draw, an unaware theta one
    # (draw, power) and an aware theta its own case
    parts = _count_calls(monkeypatch, harness, "user_parts")
    neighbor = _count_calls(monkeypatch, harness, "neighbor_parts")
    cluster2 = _count_calls(monkeypatch, harness, "optimize_cluster2")
    trials, grid = 2, (10.0, 25.0, 40.0)
    kw = dict(variable="tx_power_dbm", grid=grid, scenarios=DEFAULT_CASES, trials=trials)
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
        run_sweep(_tiny_cfg(), SweepSpec(mode=mode, **kw))
        assert (len(parts), len(neighbor)) == (builds, neighbor_builds)
    # without an IRR case the neighbor cluster is never optimized or evaluated
    parts.clear()
    neighbor.clear()
    cluster2.clear()
    cases = (ScenarioCase(ScenarioKind.EIF), ScenarioCase(ScenarioKind.EMI, -65.0))
    run_sweep(_tiny_cfg(), SweepSpec(mode=Mode.UNAWARE, **{**kw, "scenarios": cases}))
    assert len(parts) == points
    assert neighbor == [] and cluster2 == []


def test_elements_sweep_draws_per_point(monkeypatch):
    stats = _count_calls(monkeypatch, harness, "build_statistics")
    draws = _count_calls(monkeypatch, harness, "draw_realization")
    spec = SweepSpec(variable="ris_elements", grid=(4.0, 9.0, 16.0),
                     scenarios=(ScenarioCase(ScenarioKind.IRR),), mode=Mode.FIXED, trials=3)
    run_sweep(_tiny_cfg(), spec)
    assert len(stats) == 3
    assert len(draws) == 3 * 3


def test_aware_never_below_unaware_per_trial():
    # aware runs start from the unaware phases and only ascend the true utility
    cfg = _tiny_cfg(side=4)
    cases = tuple(c for c in DEFAULT_CASES if c.kind is not ScenarioKind.EIF)
    kw = dict(variable="tx_power_dbm", grid=(10.0, 40.0), scenarios=cases, trials=3)
    unaware = run_sweep(cfg, SweepSpec(mode=Mode.UNAWARE, **kw))
    aware = run_sweep(cfg, SweepSpec(mode=Mode.AWARE, **kw))
    for u, a in zip(unaware, aware):
        assert (u.sweep_value, u.scenario) == (a.sweep_value, a.scenario)
        for su, sa in zip(u.sum_rate_samples, a.sum_rate_samples):
            assert sa >= su - 1e-12 * abs(su)
