"""Joint ZF precoding and phase optimization on single realizations."""

from dataclasses import fields, replace

import numpy as np
import pytest

import risim.precoding as precoding
from risim import (
    PowerAllocation,
    RcgResult,
    ScenarioKind,
    UtilityStack,
    ZfDegenerateError,
    alternate_optimize,
    build_cascades,
    build_statistics,
    dbm_to_watts,
    default_config,
    draw_realization,
    effective_channel,
    evaluate_pair,
    make_powers,
    optimize_cluster2,
    optimize_eif_stack,
    rcg_lockstep,
    weighted_log_utility,
    zf_precoder,
)
from risim.ao import AO_RCG, AO_WARM_RCG
from risim.sinr import emi_irr_operator, reflected_emi_covariance


def _small_cfg(side=5):
    base = default_config()
    return replace(
        base,
        clusters=(
            replace(base.clusters[0], ris_side=side),
            replace(base.clusters[1], ris_side=side),
        ),
    )


def _cluster2_run(real, powers2, cfg):
    """The neighbor cluster's interference-unaware run on its own links, as a sweep makes it."""
    weights2 = cfg.clusters[1].weights()
    return optimize_eif_stack([(real.g2, real.h2)], [powers2], [weights2], cfg.noise_power_w)[0]


def _case(trial=0, side=5, emi_dbm=None, with_cluster2=False, optimize_c2=False):
    """One draw's cascade terms, and the (powers, noise, weights) that go with them."""
    cfg = _small_cfg(side)
    stats = build_statistics(cfg)
    real = draw_realization(cfg, stats, trial)
    powers = make_powers(cfg)
    emi_w = 0.0 if emi_dbm is None else dbm_to_watts(emi_dbm)
    terms = _own_terms(real, stats)
    if with_cluster2:
        theta2 = _cluster2_run(real, powers.cluster2, cfg).theta if optimize_c2 else None
        terms = optimize_cluster2(real, terms, stats.clusters[1].corr.matrix, theta2)
    terms = replace(terms, emi1_w=emi_w, emi2_w=emi_w)
    return terms, (powers, cfg.noise_power_w, cfg.clusters[0].weights())


def _ones(terms):
    return np.ones(terms.num_elements, dtype=complex)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_ao_beats_fixed_phases_per_realization(kind):
    # RCG starts from the fixed phases and only ascends the scenario's
    # utility, so the result can never fall below the baseline
    for trial in range(3):
        terms, ctx = _case(trial=trial, emi_dbm=-65.0, with_cluster2=True)
        res = alternate_optimize(terms, kind, *ctx)
        fixed = evaluate_pair(terms, _ones(terms), kind, *ctx)
        tuned = evaluate_pair(terms, res.theta, kind, *ctx)
        assert tuned.sum_rate_bps_hz >= fixed.sum_rate_bps_hz - 1e-9


def test_ao_low_power_runs_past_first_iteration():
    # at -20 dBm (50 dB below the default) the utility is about 3e-5 nats, so
    # the first step changes it by less than an absolute tolerance of 1e-4;
    # a run stops early only on a step that leaves it unchanged
    for trial in range(3):
        terms, (powers, noise, weights) = _case(trial=trial)
        quiet = PowerAllocation(powers.cluster1 * 1e-5)
        res = alternate_optimize(terms, ScenarioKind.EIF, quiet, noise, weights)
        assert res.trace[1] - res.trace[0] <= 1e-4
        assert res.iterations >= 2


def test_ao_objective_is_best_of_trace():
    # RCG only ascends, so the returned objective is the best of its trace,
    # and it is the utility of the returned phases with ZF at those phases
    terms, ctx = _case(trial=1, emi_dbm=-60.0, with_cluster2=True)
    weights = ctx[2]
    kind = ScenarioKind.EMI_IRR
    res = alternate_optimize(terms, kind, *ctx)
    assert res.objective == res.trace.max() == res.trace[-1]
    util = weighted_log_utility(terms, res.theta, kind, *ctx)
    assert res.objective == pytest.approx(util, rel=1e-12)
    rates = evaluate_pair(terms, res.theta, kind, *ctx).sinr
    assert res.objective == pytest.approx(float(weights @ np.log1p(rates)), rel=1e-12)
    np.testing.assert_allclose(np.abs(res.theta), 1.0, atol=1e-12)


def test_ao_terminates_within_outer_cap():
    # the optimizer has no tolerance stop, so its cost does not follow the
    # draw: a run takes its full budget unless a step leaves the utility
    # exactly unchanged (which counts as converged)
    for trial in range(3):
        terms, ctx = _case(trial=trial)
        res = alternate_optimize(terms, ScenarioKind.EIF, *ctx)
        trace = res.trace
        assert res.iterations <= AO_RCG
        assert res.iterations == AO_RCG or (res.converged and trace[-1] == trace[-2])


def test_ao_respects_outer_cap():
    terms, ctx = _case(trial=3)
    res = alternate_optimize(terms, ScenarioKind.EIF, *ctx, max_iters=5)
    assert res.iterations == 5
    assert not res.converged


def test_unaware_ao_ignores_interference_levels():
    # the unaware optimizer targets the interference-free objective, so its
    # phases cannot depend on the EMI level set on the terms
    quiet, ctx = _case(trial=4, emi_dbm=-75.0, with_cluster2=True)
    loud = replace(quiet, emi1_w=dbm_to_watts(-60.0), emi2_w=dbm_to_watts(-60.0))
    res_quiet = alternate_optimize(quiet, ScenarioKind.EIF, *ctx)
    res_loud = alternate_optimize(loud, ScenarioKind.EIF, *ctx)
    np.testing.assert_allclose(res_quiet.theta, res_loud.theta, rtol=1e-12)


def test_aware_ao_helps_under_strong_emi_on_average():
    # the payoff of an EMI-aware objective needs enough elements for the EMI quadratic to
    # matter; around a hundred it wins on almost every draw
    aware_rates, unaware_rates = [], []
    for trial in range(8):
        terms, ctx = _case(trial=trial, side=10, emi_dbm=-60.0)
        aw = alternate_optimize(terms, ScenarioKind.EMI, *ctx)
        un = alternate_optimize(terms, ScenarioKind.EIF, *ctx)
        aware_rates.append(evaluate_pair(terms, aw.theta, ScenarioKind.EMI, *ctx).sum_rate_bps_hz)
        unaware_rates.append(evaluate_pair(terms, un.theta, ScenarioKind.EMI, *ctx).sum_rate_bps_hz)
    assert np.mean(aware_rates) >= np.mean(unaware_rates)


def test_evaluate_pair_at_unit_phases_deterministic():
    terms, ctx = _case(trial=5, emi_dbm=-65.0, with_cluster2=True)
    a = evaluate_pair(terms, _ones(terms), ScenarioKind.EMI_IRR, *ctx)
    b = evaluate_pair(terms, _ones(terms), ScenarioKind.EMI_IRR, *ctx)
    np.testing.assert_array_equal(a.sinr, b.sinr)
    assert a.sum_rate_bps_hz == b.sum_rate_bps_hz


def _draw(trial, side=5, side1=None):
    """A draw, with cluster 1's surface side side1 when given."""
    cfg = _small_cfg(side)
    if side1 is not None:
        cfg = replace(cfg, clusters=(replace(cfg.clusters[0], ris_side=side1), cfg.clusters[1]))
    stats = build_statistics(cfg)
    return cfg, stats, draw_realization(cfg, stats, trial)


def _own_terms(real, stats):
    """Cluster 1's own cascade terms for the draw, as the harness builds them."""
    return build_cascades(real.h1, real.g1, stats.clusters[0].corr.matrix)


def test_fixed_cluster2_zero_phases():
    # at theta2 = 1 the neighbor reflects as the identity: W21 = Z21, and
    # S = Z21^H H2 U2 with U2 ZF at theta2 = 1, its columns unit-norm
    _, stats, real = _draw(0)
    terms = optimize_cluster2(real, _own_terms(real, stats), stats.clusters[1].corr.matrix)
    np.testing.assert_array_equal(terms.w21, real.z21)
    u2 = zf_precoder(effective_channel(real.g2, np.ones(real.h2.shape[0], dtype=complex), real.h2))
    np.testing.assert_allclose(np.linalg.norm(u2, axis=0), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(terms.s, np.conj(real.z21).T @ (real.h2 @ u2))


def test_optimize_cluster2_independent_of_cluster1():
    cfg, stats, real = _draw(6)
    r2 = stats.clusters[1].corr.matrix
    powers2 = make_powers(cfg).cluster2
    res = _cluster2_run(real, powers2, cfg)
    assert isinstance(res, RcgResult)
    terms = optimize_cluster2(real, _own_terms(real, stats), r2, res.theta)
    np.testing.assert_array_equal(terms.w21, res.theta[:, None] * real.z21)
    rng = np.random.default_rng(0)
    tampered = replace(
        real,
        h1=rng.standard_normal(real.h1.shape) + 1j * rng.standard_normal(real.h1.shape),
    )
    run = _cluster2_run(tampered, powers2, cfg)
    np.testing.assert_array_equal(run.theta, res.theta)
    terms2 = optimize_cluster2(tampered, _own_terms(tampered, stats), r2, run.theta)
    np.testing.assert_array_equal(terms.s, terms2.s)
    np.testing.assert_array_equal(terms.w21, terms2.w21)


@pytest.mark.parametrize("stacked", [False, True])
def test_optimize_cluster2_equals_the_terms_it_replaces(stacked):
    # the neighbor at theta2 = 1 (fixed mode) or at a stacked cold run's
    # phases: build_cascades fed ZF at theta2, bit for bit. The surfaces
    # differ in size (16 and 25 elements), so theta2 = 1 takes h2's
    cfg, stats, real = _draw(3, side1=4)
    r1, r2 = stats.clusters[0].corr.matrix, stats.clusters[1].corr.matrix
    if stacked:
        theta2 = _cluster2_run(real, make_powers(cfg).cluster2, cfg).theta
    else:
        theta2 = np.ones(real.h2.shape[0], dtype=complex)
    u2 = zf_precoder(effective_channel(real.g2, theta2, real.h2))
    want = build_cascades(real.h1, real.g1, r1, theta2=theta2, u2=u2, h2=real.h2, z21=real.z21, r2=r2)
    got = optimize_cluster2(real, _own_terms(real, stats), r2, theta2 if stacked else None)
    assert got.num_elements == 16 and got.w21.shape == (25, 16)
    for field in fields(want):
        np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name), err_msg=field.name)


def test_optimize_cluster2_raises_on_a_degenerate_neighbor_zf(monkeypatch):
    cfg, stats, real = _draw(2)
    r2 = stats.clusters[1].corr.matrix
    theta2 = _cluster2_run(real, make_powers(cfg).cluster2, cfg).theta

    def failing(gram):
        raise ZfDegenerateError("forced degenerate neighbor")

    monkeypatch.setattr(precoding, "check_zf_gram", failing)
    for phases in (None, theta2):
        with pytest.raises(ZfDegenerateError, match="forced degenerate neighbor"):
            optimize_cluster2(real, _own_terms(real, stats), r2, phases)


@pytest.mark.parametrize("kind", [ScenarioKind.IRR, ScenarioKind.EMI, ScenarioKind.EMI_IRR])
def test_warm_run_starts_at_unaware_utility_and_never_ends_below(kind):
    # an aware run from the unaware phases is scored there first, and Armijo
    # accepts only increases, so it cannot end below the unaware utility
    for trial in range(3):
        terms, ctx = _case(trial=trial, side=6, emi_dbm=-65.0, with_cluster2=True, optimize_c2=True)
        unaware = alternate_optimize(terms, ScenarioKind.EIF, *ctx)
        start = weighted_log_utility(terms, unaware.theta, kind, *ctx)
        warm = alternate_optimize(terms, kind, *ctx, theta0=unaware.theta, max_iters=AO_WARM_RCG)
        assert warm.trace[0] == pytest.approx(start, rel=1e-12)
        assert warm.objective >= warm.trace[0]
        assert warm.iterations <= AO_WARM_RCG < AO_RCG


def test_shared_reflected_emi_gives_the_same_covariance_bits():
    # one W21^H R2 W21 per trial serves both EMI levels and every cluster-1
    # power, and so does one operator A: a stack whose rows share them runs
    # each row as alone
    base, (powers0, noise, weights) = _case(
        trial=2, emi_dbm=-75.0, with_cluster2=True, optimize_c2=True
    )
    reflected = reflected_emi_covariance(base)
    op = emi_irr_operator(base, reflected)
    rows = []
    for emi_dbm in (-75.0, -65.0):
        for p1 in (0.01, 10.0):
            level = dbm_to_watts(emi_dbm)
            powers = PowerAllocation(np.full(2, p1), powers0.cluster2)
            terms = replace(base, emi1_w=level, emi2_w=level)
            np.testing.assert_array_equal(emi_irr_operator(terms, reflected), emi_irr_operator(terms))
            np.testing.assert_array_equal(emi_irr_operator(terms), op)
            rows.append((terms, ScenarioKind.EMI_IRR, powers, weights))
    problem = UtilityStack.of(rows, noise)
    assert all(row[3] is problem.interference[0][3] for row in problem.interference)
    np.testing.assert_array_equal(problem.interference[0][3], op)
    theta0 = np.ones((len(rows), base.num_elements), dtype=complex)
    stacked = rcg_lockstep(problem, theta0, AO_WARM_RCG)
    for fast, (terms, kind, powers, w) in zip(stacked, rows, strict=True):
        alone = alternate_optimize(terms, kind, powers, noise, w, max_iters=AO_WARM_RCG)
        np.testing.assert_array_equal(fast.trace, alone.trace)
