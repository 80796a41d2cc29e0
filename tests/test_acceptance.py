"""Acceptance suite: end-to-end checks at pinned scales and tolerances.

Each test prints one PASS/FAIL line (run pytest with -s to see them on
success). The heavyweight checks (A5-A7) pin the Monte Carlo seed through the
shipped default config, so their margins are reproducible run to run.
"""

import time
from dataclasses import replace

import numpy as np

import risim
from reference_rcg import phase_point, utility_pair
from risim import (
    PowerAllocation,
    ScenarioKind,
    SweepSpec,
    alternate_optimize,
    build_cascades,
    build_statistics,
    dbm_to_watts,
    default_config,
    draw_realization,
    effective_channel,
    euclid_grad,
    evaluate_pair,
    optimize_phases,
    ris_element_positions,
    run_sweep,
    sample_correlated_rayleigh,
    scenario_sinr,
    spatial_correlation,
    weighted_log_utility,
    zf_precoder,
)
from risim.ao import AO_WARM_RCG
from risim.cli import EXIT_OK, cli_main
from risim.harness import DEFAULT_CASES, Mode
from risim.sinr import CascadeTerms

NOISE = 1e-3


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _cn(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _unit_diag_psd(rng, n):
    a = _cn(rng, n, n + 2)
    m = a @ a.conj().T + 1e-3 * np.eye(n)
    d = np.sqrt(np.real(np.diag(m)))
    return m / np.outer(d, d)


def _instance(rng, num_elements, num_users=2, emi1_w=0.5, emi2_w=0.2):
    """Random two-user instance with a neighbor RIS, all scenarios evaluable."""
    h1 = _cn(rng, num_elements, 2)
    g1 = _cn(rng, num_users, num_elements)
    r1 = _unit_diag_psd(rng, num_elements)
    ne = 6
    raw = dict(
        theta2=np.exp(1j * rng.uniform(0, 2 * np.pi, ne)),
        u2=_cn(rng, 2, num_users),
        h2=_cn(rng, ne, 2),
        z21=_cn(rng, ne, num_elements),
        r2=_unit_diag_psd(rng, ne),
    )
    terms = build_cascades(h1, g1, r1, emi_self_factor=4.0, **raw)
    terms = replace(terms, emi1_w=emi1_w, emi2_w=emi2_w)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, num_elements))
    powers = PowerAllocation(rng.uniform(0.5, 2, num_users), rng.uniform(0.5, 2, num_users))
    return terms, theta, powers, (h1, g1, r1), raw


def _scaled_cfg(side1, trials=None):
    base = default_config()
    cfg = replace(
        base, clusters=(replace(base.clusters[0], ris_side=side1), base.clusters[1])
    )
    if trials is not None:
        cfg = replace(cfg, mc_trials=trials)
    return cfg


# A1 --------------------------------------------------------------------------

def test_a1_gradients_match_finite_differences():
    """Central differences over the entrywise phase reproduce each gradient."""
    start = time.perf_counter()
    h = 1e-6
    worst = 0.0
    rng = np.random.default_rng(2026)
    kinds = (ScenarioKind.EIF, ScenarioKind.EMI, ScenarioKind.EMI_IRR, ScenarioKind.IRR)
    for kind in kinds:
        for i in range(50):
            num_elements = 4 if i % 2 == 0 else 16
            terms, theta, powers, _, _ = _instance(rng, num_elements)
            objective, _ = utility_pair(terms, kind, powers, NOISE)
            egrad = euclid_grad(terms, theta, kind, powers, NOISE)
            analytic = np.real(np.conj(egrad) * 1j * theta)
            psi = np.angle(theta)
            numeric = np.zeros_like(analytic)
            for l in range(num_elements):
                up, dn = psi.copy(), psi.copy()
                up[l] += h
                dn[l] -= h
                numeric[l] = (objective(np.exp(1j * up)) - objective(np.exp(1j * dn))) / (2 * h)
            rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-30)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict(
        "A1 gradient finite differences",
        worst <= 1e-5 and elapsed < 30.0,
        f"max rel err {worst:.2e} (tol 1e-05), {elapsed:.1f}s (budget 30s)",
    )


# A2 --------------------------------------------------------------------------

def test_a2_rcg_matches_exhaustive_phase_grid():
    """Two elements, one user: RCG reaches the 1-degree exhaustive optimum."""
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    angles = np.deg2rad(np.arange(360))
    rot = np.exp(-1j * angles)
    worst_shortfall = -np.inf
    for _ in range(20):
        h1 = _cn(rng, 2, 2)
        g1 = _cn(rng, 1, 2)
        terms = build_cascades(h1, g1, np.eye(2))
        powers = PowerAllocation(np.ones(1))
        # ZF with one user is matched filtering, so the SINR is
        # ||h_eff(theta)||^2 / noise with h_eff = sum_l conj(theta_l) conj(g_l) h1[l];
        # evaluated over the full 360 x 360 grid of per-element phases
        rows = np.conj(g1[0])[:, None] * h1
        h_eff = rot[:, None, None] * rows[0] + rot[None, :, None] * rows[1]
        grid_best = float(np.log1p((np.abs(h_eff) ** 2).sum(axis=2).max() / NOISE))
        res = optimize_phases(
            terms, ScenarioKind.EIF, powers, NOISE,
            max_iters=300,
        )
        worst_shortfall = max(worst_shortfall, grid_best - res.objective)
    elapsed = time.perf_counter() - start
    _verdict(
        "A2 exhaustive grid equivalence",
        worst_shortfall <= 1e-3 and elapsed < 60.0,
        f"worst shortfall {worst_shortfall:.2e} (tol 1e-03), {elapsed:.1f}s (budget 60s)",
    )


# A3 --------------------------------------------------------------------------

def test_a3_reduction_identities():
    """Silencing each impairment reproduces the interference-free SINR exactly."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        terms, theta, powers, _, _ = _instance(rng, 6)
        base = dict(theta=theta, powers=powers, noise_power_w=NOISE)
        eif = scenario_sinr(terms, kind=ScenarioKind.EIF, **base).sinr

        def rel_gap(kind, **overrides):
            fields = dict(
                h1=terms.h1, g1=terms.g1, r1=terms.r1, emi1_w=terms.emi1_w,
                emi2_w=terms.emi2_w, emi_self_factor=terms.emi_self_factor,
                s=terms.s, w21=terms.w21, r2=terms.r2,
            )
            fields.update(overrides)
            quiet = CascadeTerms(**fields)
            got = scenario_sinr(quiet, theta, kind, powers, NOISE).sinr
            return float(np.max(np.abs(got - eif) / np.abs(eif)))

        worst = max(worst, rel_gap(ScenarioKind.EMI, emi1_w=0.0))
        worst = max(
            worst,
            rel_gap(ScenarioKind.IRR, s=np.zeros_like(terms.s),
                    w21=np.zeros_like(terms.w21)),
        )
        worst = max(
            worst,
            rel_gap(ScenarioKind.EMI_IRR, emi1_w=0.0, emi2_w=0.0,
                    s=np.zeros_like(terms.s), w21=np.zeros_like(terms.w21)),
        )
    _verdict(
        "A3 reduction identities",
        worst <= 1e-12,
        f"max rel deviation {worst:.2e} (tol 1e-12), 100 instances",
    )


# A4 --------------------------------------------------------------------------

def test_a4_cascades_match_direct_matrix_evaluation():
    """Closed-form ZF SINR and compact quadratic forms equal raw matrix evaluation."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        terms, theta, powers, (h1, g1, r1), raw = _instance(rng, 6)
        # the dense oracle zero-forces at theta and sums the leakage it leaves
        u1 = zf_precoder(effective_channel(g1, theta, h1))
        phase1 = np.diag(np.conj(theta))
        phase2 = np.diag(np.conj(raw["theta2"]))
        p1 = np.asarray(powers.cluster1)
        p2 = np.asarray(powers.cluster2)
        for kind in ScenarioKind:
            point = phase_point(terms, theta, kind, powers, NOISE)
            sig, den = point.sig, point.den
            dsig = np.zeros(2)
            dden = np.full(2, NOISE)
            for k in range(2):
                row = np.conj(g1[k]) @ phase1 @ h1
                amps = row @ u1
                dsig[k] = p1[k] * abs(amps[k]) ** 2
                dden[k] += sum(p1[i] * abs(amps[i]) ** 2 for i in range(2) if i != k)
                if kind.has_irr:
                    for j in range(2):
                        leak = (
                            np.conj(g1[k]) @ phase1 @ np.conj(raw["z21"]).T
                            @ phase2 @ raw["h2"] @ raw["u2"][:, j]
                        )
                        dden[k] += p2[j] * abs(leak) ** 2
                v = g1[k] * theta
                if kind is ScenarioKind.EMI:
                    dden[k] += terms.emi1_w * np.real(np.conj(v) @ r1 @ v)
                elif kind is ScenarioKind.EMI_IRR:
                    dden[k] += 4.0 * terms.emi1_w * np.real(np.conj(v) @ r1 @ v)
                    w2 = raw["theta2"][:, None] * raw["z21"]
                    q = np.conj(w2).T @ raw["r2"] @ w2
                    dden[k] += terms.emi2_w * np.real(np.conj(v) @ q @ v)
            worst = max(worst, float(np.max(np.abs(sig - dsig) / np.abs(dsig))))
            worst = max(worst, float(np.max(np.abs(den - dden) / np.abs(dden))))
    _verdict(
        "A4 cascade vs direct algebra",
        worst <= 1e-10,
        f"max rel deviation {worst:.2e} (tol 1e-10), 100 instances",
    )


# A5 --------------------------------------------------------------------------

def test_a5_scenario_ordering_at_desk_scale():
    """Fixed phases, 500 trials, 100 elements: impairments order the mean rates."""
    start = time.perf_counter()
    cfg = _scaled_cfg(side1=10, trials=500)
    spec = SweepSpec(
        variable="tx_power_dbm", grid=(30.0,), scenarios=DEFAULT_CASES,
        mode=Mode.FIXED,
    )
    records = {r.scenario: r for r in run_sweep(cfg, spec)}
    mean = {k: r.mean_sum_rate_bps_hz for k, r in records.items()}
    se = {
        k: np.std(r.sum_rate_samples, ddof=1) / np.sqrt(r.trials) for k, r in records.items()
    }
    ordered = (
        mean["eif"] >= mean["irr"]
        >= mean["emi_-75"] >= mean["emi_-65"]
    )
    combined_below = (
        mean["emi_irr_-75"] <= mean["emi_-75"]
        and mean["emi_irr_-65"] <= mean["emi_-65"]
    )
    gap = mean["eif"] - mean["emi_-65"]
    two_se = 2.0 * float(np.hypot(se["eif"], se["emi_-65"]))
    elapsed = time.perf_counter() - start
    _verdict(
        "A5 scenario ordering",
        ordered and combined_below and gap >= two_se and elapsed < 120.0,
        (
            f"eif {mean['eif']:.4f} >= irr {mean['irr']:.4f} >= "
            f"emi(-75) {mean['emi_-75']:.4f} >= emi(-65) {mean['emi_-65']:.4f}, "
            f"combined below singles: {combined_below}, "
            f"eif-emi(-65) gap {gap:.4f} vs 2SE {two_se:.4f}, "
            f"{elapsed:.1f}s (budget 120s)"
        ),
    )


# A6 --------------------------------------------------------------------------

def test_a6_optimization_gain_at_least_double():
    """225 elements, 200 trials: optimized phases at least double every mean rate."""
    start = time.perf_counter()
    cfg = _scaled_cfg(side1=15, trials=200)
    kw = dict(variable="tx_power_dbm", grid=(30.0,), scenarios=DEFAULT_CASES)
    fixed = {r.scenario: r.mean_sum_rate_bps_hz
             for r in run_sweep(cfg, SweepSpec(mode=Mode.FIXED, **kw))}
    tuned = {r.scenario: r.mean_sum_rate_bps_hz
             for r in run_sweep(cfg, SweepSpec(mode=Mode.UNAWARE, **kw))}
    ratios = {k: tuned[k] / fixed[k] for k in fixed}
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
    _verdict(
        "A6 optimization gain",
        min(ratios.values()) >= 2.0 and elapsed < 300.0,
        f"{detail} (floor 2x), {elapsed:.1f}s (budget 300s)",
    )


# A7 --------------------------------------------------------------------------

def test_a7_interference_awareness_pays_off():
    """Aware beats unaware under EMI, increasingly so as the EMI level rises."""
    cfg = risim.validate_config(_scaled_cfg(side1=15))
    stats = build_statistics(cfg)
    powers = PowerAllocation(np.ones(2), np.ones(2))  # 1 W per user
    noise = cfg.noise_power_w
    w1 = cfg.clusters[0].weights()
    levels = (-75.0, -70.0, -65.0, -60.0)
    trials = 200
    diffs = {lv: [] for lv in levels}
    ctx = (powers, noise, w1)
    for t in range(trials):
        real = draw_realization(cfg, stats, t)
        base = build_cascades(real.h1, real.g1, stats.clusters[0].corr.matrix)
        unaware = alternate_optimize(base, ScenarioKind.EIF, *ctx)
        for lv in levels:
            e = dbm_to_watts(lv)
            terms = replace(base, emi1_w=e, emi2_w=e)
            plain = evaluate_pair(terms, unaware.theta, ScenarioKind.EMI, *ctx).sum_rate_bps_hz
            # started from the unaware phases with the warm budget, as the harness does
            aware = alternate_optimize(
                terms, ScenarioKind.EMI, *ctx, theta0=unaware.theta, max_iters=AO_WARM_RCG
            )
            tuned = evaluate_pair(terms, aware.theta, ScenarioKind.EMI, *ctx).sum_rate_bps_hz
            diffs[lv].append(tuned - plain)
    gaps = {lv: float(np.mean(diffs[lv])) for lv in levels}
    d60 = np.asarray(diffs[-60.0])
    gap60 = float(d60.mean())
    se60 = float(d60.std(ddof=1) / np.sqrt(d60.size))
    confident = gap60 >= 0.0 and gap60 - 2.0 * se60 >= 0.0
    seq = [gaps[lv] for lv in levels]
    monotone = all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
    _verdict(
        "A7 interference-aware gain",
        confident and monotone,
        (
            f"gap at -60 dBm {gap60:.4f} (2SE {2 * se60:.4f}), "
            f"gaps over {levels}: {[f'{g:.4f}' for g in seq]}, monotone: {monotone}"
        ),
    )


# A8 --------------------------------------------------------------------------

def test_a8_manifold_invariants():
    """Unit modulus holds at every iteration, each run's objective is its
    utility at the phases it returns, and traces never decrease."""
    rng = np.random.default_rng(8)
    worst_dev = 0.0
    mismatched = 0
    worst_dip = 0.0
    kinds = list(ScenarioKind)
    for i in range(100):
        num_elements = int(rng.integers(4, 13))
        terms, theta0, powers, _, _ = _instance(rng, num_elements)
        kind = kinds[i % 4]
        res = optimize_phases(
            terms, kind, powers, NOISE, theta0=theta0,
            max_iters=40,
        )
        worst_dev = max(worst_dev, res.max_unit_deviation)
        mismatched += weighted_log_utility(terms, res.theta, kind, powers, NOISE) != res.objective
        if res.trace.size > 1:
            worst_dip = max(worst_dip, float(np.max(-np.diff(res.trace))))
    _verdict(
        "A8 manifold invariants",
        worst_dev <= 1e-12 and mismatched == 0 and worst_dip <= 0.0,
        (
            f"max |theta|-1 {worst_dev:.2e} (tol 1e-12), "
            f"runs whose objective is not the utility at their theta {mismatched} of 100, "
            f"largest trace dip {worst_dip:.2e}"
        ),
    )


# A9 --------------------------------------------------------------------------

def test_a9_sweep_power_byte_identical(tmp_path):
    """Two seeded sweep-power runs produce byte-identical CSV files."""
    base = default_config()
    cfg = replace(
        base,
        clusters=(replace(base.clusters[0], ris_side=4), replace(base.clusters[1], ris_side=4)),
    )
    cfg_path = tmp_path / "cfg.json"
    risim.save_config(cfg, cfg_path)
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    args = [
        "sweep-power", "--config", str(cfg_path), "--grid", "10,30",
        "--trials", "5", "--seed", "2024",
    ]
    assert cli_main(args + ["--out", str(out1)]) == EXIT_OK
    assert cli_main(args + ["--out", str(out2)]) == EXIT_OK
    same = out1.read_bytes() == out2.read_bytes()
    _verdict(
        "A9 determinism",
        same,
        f"{out1.stat().st_size} bytes, identical: {same}",
    )


# A10 -------------------------------------------------------------------------

def test_a10_correlation_model_and_sampler():
    """R is a true correlation matrix and the sampler reproduces it at 1e5 draws."""
    cfg = default_config()
    pos = ris_element_positions(4, cfg.clusters[0].element_area_m2)
    corr = spatial_correlation(pos, cfg.wavelength_m)
    r = corr.matrix
    hermitian = bool(np.allclose(r, r.conj().T, atol=1e-14))
    unit_diag = bool(np.allclose(np.diag(r), 1.0, atol=1e-14))
    clipped = corr.factor @ corr.factor.conj().T
    psd = float(np.linalg.eigvalsh(clipped).min()) >= -1e-12
    draws = sample_correlated_rayleigh(corr, 1.0, 100_000, np.random.default_rng(10))
    emp = draws @ draws.conj().T / draws.shape[1]
    max_abs_err = float(np.abs(emp - r).max())
    target_scale = float(np.abs(r).max())
    ok = hermitian and unit_diag and psd and max_abs_err <= 0.05 * target_scale
    _verdict(
        "A10 correlation model",
        ok,
        (
            f"hermitian {hermitian}, unit diag {unit_diag}, PSD {psd}, "
            f"sampler max abs err {max_abs_err:.4f} (tol {0.05 * target_scale:.4f})"
        ),
    )
