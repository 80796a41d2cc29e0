"""Joint ZF precoding and phase optimization on single realizations."""

from dataclasses import replace

import numpy as np
import pytest

from risim import (
    PowerAllocation,
    RcgOptions,
    RcgResult,
    ScenarioKind,
    TrialCase,
    alternate_optimize,
    build_statistics,
    build_trial_terms,
    dbm_to_watts,
    default_config,
    draw_realization,
    evaluate_pair,
    fixed_cluster2,
    optimize_cluster2,
    weighted_log_utility,
)
from risim.ao import AO_RCG, AO_WARM_RCG
from risim.sinr import emi_irr_covariance, reflected_emi_covariance


def _small_cfg(side=5):
    base = default_config()
    return replace(
        base,
        clusters=(
            replace(base.clusters[0], ris_side=side),
            replace(base.clusters[1], ris_side=side),
        ),
    )


def _case(trial=0, side=5, emi_dbm=None, with_cluster2=False, optimize_c2=False):
    cfg = _small_cfg(side)
    stats = build_statistics(cfg)
    real = draw_realization(cfg, stats, trial)
    emi_w = 0.0 if emi_dbm is None else dbm_to_watts(emi_dbm)
    from risim.harness import make_powers

    cluster2 = None
    if with_cluster2:
        if optimize_c2:
            cluster2, _ = optimize_cluster2(
                real, stats, make_powers(cfg).cluster2, cfg.noise_power_w,
                cfg.clusters[1].weights(),
            )
        else:
            cluster2 = fixed_cluster2(real)
    return TrialCase(
        real=real,
        stats=stats,
        powers=make_powers(cfg),
        noise_power_w=cfg.noise_power_w,
        weights1=cfg.clusters[0].weights(),
        emi1_w=emi_w,
        emi2_w=emi_w,
        cluster2=cluster2,
    )


def test_build_trial_terms_neighbor_handling():
    case = _case(with_cluster2=True)
    terms = build_trial_terms(case, include_neighbor=True)
    assert terms.s is not None and terms.w21 is not None and terms.r2 is not None
    bare = build_trial_terms(case, include_neighbor=False)
    assert bare.s is None and bare.w21 is None and bare.r2 is None
    no_c2 = replace(case, cluster2=None)
    with pytest.raises(ValueError, match="cluster-2 state"):
        build_trial_terms(no_c2, include_neighbor=True)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_ao_beats_fixed_phases_per_realization(kind):
    # RCG starts from the fixed phases and only ascends the scenario's
    # utility, so the result can never fall below the baseline
    for trial in range(3):
        case = _case(trial=trial, emi_dbm=-65.0, with_cluster2=True)
        res = alternate_optimize(case, kind)
        fixed = evaluate_pair(case, kind, np.ones(case.real.h1.shape[0], dtype=complex))
        tuned = evaluate_pair(case, kind, res.theta)
        assert tuned.sum_rate_bps_hz >= fixed.sum_rate_bps_hz - 1e-9


def test_ao_huge_epsilon_stops_after_one_iteration():
    # the optimizer is a single RCG run, so its tolerance is the only stop
    # besides the iteration cap
    case = _case()
    res = alternate_optimize(case, ScenarioKind.EIF, RcgOptions(epsilon=1e9))
    assert res.iterations == 1
    assert res.converged


def test_ao_low_power_runs_past_first_iteration():
    # at -20 dBm (50 dB below the default) the utility is about 3e-5 nats, so
    # the first step changes it by less than an absolute tolerance of 1e-4;
    # the relative stop keeps iterating
    for trial in range(3):
        case = _case(trial=trial)
        case = replace(case, powers=PowerAllocation(case.powers.cluster1 * 1e-5))
        res = alternate_optimize(case, ScenarioKind.EIF)
        assert res.trace[1] - res.trace[0] <= 1e-4
        assert res.iterations >= 2


def test_ao_objective_is_best_of_trace():
    # RCG only ascends, so the returned objective is the best of its trace,
    # and it is the utility of the returned phases with ZF at those phases
    case = _case(trial=1, emi_dbm=-60.0, with_cluster2=True)
    kind = ScenarioKind.EMI_IRR
    res = alternate_optimize(case, kind)
    assert res.objective == res.trace.max() == res.trace[-1]
    terms = build_trial_terms(case, include_neighbor=True)
    util = weighted_log_utility(
        terms, res.theta, kind, case.powers, case.noise_power_w, case.weights1
    )
    assert res.objective == pytest.approx(util, rel=1e-12)
    rates = evaluate_pair(case, kind, res.theta).sinr
    assert res.objective == pytest.approx(float(case.weights1 @ np.log1p(rates)), rel=1e-12)
    np.testing.assert_allclose(np.abs(res.theta), 1.0, atol=1e-12)


def test_ao_terminates_within_outer_cap():
    # the default AO has no tolerance stop, so its cost does not follow the
    # draw: a run takes its full budget unless a step leaves the utility
    # exactly unchanged (which counts as converged)
    for trial in range(3):
        res = alternate_optimize(_case(trial=trial), ScenarioKind.EIF)
        trace = res.trace
        assert res.iterations <= AO_RCG.max_iters
        assert res.iterations == AO_RCG.max_iters or (res.converged and trace[-1] == trace[-2])


def test_ao_respects_outer_cap():
    case = _case(trial=3)
    res = alternate_optimize(case, ScenarioKind.EIF, RcgOptions(epsilon=0.0, max_iters=5))
    assert res.iterations == 5
    assert not res.converged


def test_unaware_ao_ignores_interference_levels():
    # the unaware optimizer targets the interference-free objective, so its
    # phases cannot depend on the EMI level attached to the case
    quiet = _case(trial=4, emi_dbm=-75.0, with_cluster2=True)
    loud = replace(quiet, emi1_w=dbm_to_watts(-60.0), emi2_w=dbm_to_watts(-60.0))
    res_quiet = alternate_optimize(quiet, ScenarioKind.EIF)
    res_loud = alternate_optimize(loud, ScenarioKind.EIF)
    np.testing.assert_allclose(res_quiet.theta, res_loud.theta, rtol=1e-12)


def test_aware_ao_helps_under_strong_emi_on_average():
    # the payoff of an EMI-aware objective needs enough elements for the EMI quadratic to
    # matter; around a hundred it wins on almost every draw
    aware_rates, unaware_rates = [], []
    for trial in range(8):
        case = _case(trial=trial, side=10, emi_dbm=-60.0)
        aw = alternate_optimize(case, ScenarioKind.EMI)
        un = alternate_optimize(case, ScenarioKind.EIF)
        aware_rates.append(evaluate_pair(case, ScenarioKind.EMI, aw.theta).sum_rate_bps_hz)
        unaware_rates.append(evaluate_pair(case, ScenarioKind.EMI, un.theta).sum_rate_bps_hz)
    assert np.mean(aware_rates) >= np.mean(unaware_rates)


def test_evaluate_pair_at_unit_phases_deterministic():
    case = _case(trial=5, emi_dbm=-65.0, with_cluster2=True)
    ones = np.ones(case.real.h1.shape[0], dtype=complex)
    a = evaluate_pair(case, ScenarioKind.EMI_IRR, ones)
    b = evaluate_pair(case, ScenarioKind.EMI_IRR, ones)
    np.testing.assert_array_equal(a.sinr, b.sinr)
    assert a.sum_rate_bps_hz == b.sum_rate_bps_hz


def test_fixed_cluster2_zero_phases():
    case = _case(with_cluster2=True)
    state = fixed_cluster2(case.real)
    np.testing.assert_array_equal(state.theta, np.ones(case.real.h2.shape[0]))
    np.testing.assert_allclose(np.linalg.norm(state.u, axis=0), 1.0, rtol=1e-12)


def test_optimize_cluster2_independent_of_cluster1():
    cfg = _small_cfg()
    stats = build_statistics(cfg)
    real = draw_realization(cfg, stats, 6)
    from risim.harness import make_powers

    powers2 = make_powers(cfg).cluster2
    args = (stats, powers2, cfg.noise_power_w, cfg.clusters[1].weights())
    state, res = optimize_cluster2(real, *args)
    assert isinstance(res, RcgResult)
    rng = np.random.default_rng(0)
    tampered = replace(
        real,
        h1=rng.standard_normal(real.h1.shape) + 1j * rng.standard_normal(real.h1.shape),
    )
    state2, _ = optimize_cluster2(tampered, *args)
    np.testing.assert_array_equal(state.theta, state2.theta)
    np.testing.assert_array_equal(state.u, state2.u)


@pytest.mark.parametrize("kind", [ScenarioKind.IRR, ScenarioKind.EMI, ScenarioKind.EMI_IRR])
def test_warm_run_starts_at_unaware_utility_and_never_ends_below(kind):
    # an aware run from the unaware phases is scored there first, and Armijo
    # accepts only increases, so it cannot end below the unaware utility
    for trial in range(3):
        case = _case(trial=trial, side=6, emi_dbm=-65.0, with_cluster2=True, optimize_c2=True)
        unaware = alternate_optimize(case, ScenarioKind.EIF)
        start = weighted_log_utility(
            build_trial_terms(case, include_neighbor=kind.has_irr), unaware.theta, kind,
            case.powers, case.noise_power_w, case.weights1,
        )
        warm = alternate_optimize(case, kind, AO_WARM_RCG, theta0=unaware.theta)
        assert warm.trace[0] == pytest.approx(start, rel=1e-12)
        assert warm.objective >= warm.trace[0]
        assert warm.iterations <= AO_WARM_RCG.max_iters < AO_RCG.max_iters


def test_shared_reflected_emi_gives_the_same_covariance_bits():
    # one W21^H R2 W21 per trial serves both EMI levels and every cluster-1 power
    base = _case(trial=2, emi_dbm=-75.0, with_cluster2=True, optimize_c2=True)
    shared = reflected_emi_covariance(build_trial_terms(base, include_neighbor=True))
    for emi_dbm in (-75.0, -65.0):
        for p1 in (0.01, 10.0):
            level = dbm_to_watts(emi_dbm)
            powers = PowerAllocation(np.full(2, p1), base.powers.cluster2)
            case = replace(base, emi1_w=level, emi2_w=level, powers=powers)
            terms = build_trial_terms(case, include_neighbor=True)
            np.testing.assert_array_equal(
                emi_irr_covariance(terms, powers, shared), emi_irr_covariance(terms, powers)
            )
            with_shared = alternate_optimize(
                replace(case, reflected_emi=shared), ScenarioKind.EMI_IRR, AO_WARM_RCG
            )
            alone = alternate_optimize(case, ScenarioKind.EMI_IRR, AO_WARM_RCG)
            np.testing.assert_array_equal(with_shared.trace, alone.trace)
