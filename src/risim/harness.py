"""Monte Carlo sweep harness: grids, per-trial caching, aggregation, CSV output."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from time import perf_counter

import numpy as np

from .ao import (
    AO_WARM_RCG,
    Cluster2State,
    alternate_optimize,
    evaluate_pair,
    fixed_cluster2,
    optimize_cluster2,
)
from .channels import build_statistics, draw_realization, dump_realization, trial_rng
from .precoding import ZfDegenerateError
from .rcg import RcgResult
from .scenario import ConfigError, SystemConfig, dbm_to_watts, validate_config
from .sinr import PowerAllocation, ScenarioKind, SinrReport, build_cascades, reflected_emi_covariance

CSV_HEADER = "sweep_value,scenario,mode,mean_sum_rate_bps_hz,outage_user1,trials,skipped"
TRACE_HEADER = "sweep_value,scenario,mode,trial,stage,inner_iter,objective,grad_norm,step"

SWEEP_VARIABLES = ("tx_power_dbm", "ris_elements", "emi_dbm")


class Mode(str, Enum):
    FIXED = "fixed"  # zero phases, ZF at those phases
    UNAWARE = "unaware"  # optimize ignoring all interference
    AWARE = "aware"  # optimize the true scenario objective


@dataclass(frozen=True)
class ScenarioCase:
    """One evaluation scenario, with its EMI level where applicable."""

    kind: ScenarioKind
    emi_dbm: float | None = None

    @property
    def label(self) -> str:
        kind = ScenarioKind(self.kind)
        if kind.has_emi and self.emi_dbm is not None:
            return f"{kind.value}_{self.emi_dbm:g}"
        return kind.value


DEFAULT_CASES = (
    ScenarioCase(ScenarioKind.EIF),
    ScenarioCase(ScenarioKind.IRR),
    ScenarioCase(ScenarioKind.EMI, -75.0),
    ScenarioCase(ScenarioKind.EMI, -65.0),
    ScenarioCase(ScenarioKind.EMI_IRR, -75.0),
    ScenarioCase(ScenarioKind.EMI_IRR, -65.0),
)
EMI_SWEEP_CASES = (
    ScenarioCase(ScenarioKind.EMI),
    ScenarioCase(ScenarioKind.EMI_IRR),
)


def parse_scenario_token(token: str) -> ScenarioCase:
    """Parse a CLI scenario token, name[:emi_dbm], e.g. 'eif' or 'emi:-65'."""
    name, sep, level = token.strip().partition(":")
    try:
        kind = ScenarioKind(name)
    except ValueError as exc:
        known = ", ".join(k.value for k in ScenarioKind)
        raise ConfigError(f"unknown scenario '{name}' (expected one of: {known})") from exc
    if not sep:
        return ScenarioCase(kind)
    if not kind.has_emi:
        raise ConfigError(f"scenario '{name}' does not take an EMI level")
    try:
        return ScenarioCase(kind, float(level))
    except ValueError as exc:
        raise ConfigError(f"bad EMI level in scenario token '{token}'") from exc


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a variable and grid, scenario cases, and a precoding mode."""

    variable: str
    grid: tuple[float, ...]
    scenarios: tuple[ScenarioCase, ...] = DEFAULT_CASES
    mode: Mode = Mode.FIXED
    trials: int = 500
    seed: int | None = None  # None uses the config seed
    unit_power: bool = False  # 1 W per user instead of splitting the BS budget
    keep_samples: bool = False  # retain per-trial sum rates on each record


@dataclass(frozen=True)
class MetricRecord:
    sweep_value: float
    scenario: str
    mode: str
    mean_sum_rate_bps_hz: float
    outage: tuple[float, ...]  # per user, fraction of trials below the threshold
    trials: int  # valid trials aggregated
    skipped: int
    std_sum_rate_bps_hz: float = 0.0
    wall_time_s: float = 0.0
    sum_rate_samples: tuple[float, ...] | None = None


def aggregate(trial_rates, weights, threshold: float):
    """Reduce per-trial per-user rates to (mean_sum, std_sum, outage-per-user)."""
    arr = np.atleast_2d(np.asarray(trial_rates, dtype=float))
    if arr.size == 0:
        raise ValueError("no valid trials to aggregate")
    w = np.asarray(weights, dtype=float)
    sums = arr @ w
    mean = float(sums.mean())
    std = float(sums.std(ddof=1)) if sums.size > 1 else 0.0
    outage = (arr < threshold).mean(axis=0)
    return mean, std, outage


def make_powers(cfg: SystemConfig, unit_power: bool = False) -> PowerAllocation:
    """Equal power split per cluster, or 1 W per user when unit_power is set."""
    k1 = cfg.clusters[0].num_users
    k2 = cfg.clusters[1].num_users
    if unit_power:
        return PowerAllocation(np.ones(k1), np.ones(k2))
    return PowerAllocation(
        np.full(k1, cfg.clusters[0].tx_power_w / k1),
        np.full(k2, cfg.clusters[1].tx_power_w / k2),
    )


def _case_levels(case: ScenarioCase, cfg: SystemConfig) -> tuple[float, float]:
    kind = ScenarioKind(case.kind)
    if not kind.has_emi:
        return 0.0, 0.0
    if case.emi_dbm is not None:
        level = dbm_to_watts(case.emi_dbm)
        return level, level
    if cfg.clusters[0].emi_power_dbm is None:
        raise ConfigError(
            f"scenario '{kind.value}' needs an EMI level: give one on the scenario "
            "or set emi_power_dbm in the config"
        )
    return cfg.clusters[0].emi_power_w, cfg.clusters[1].emi_power_w


class TrialEvaluator:
    """Evaluates scenario cases on one draw at one grid point, reusing optimizer output.

    Each result is cached per trial under a key that names what it depends on
    besides the draw: nothing for the neighbor cluster's state, the cascade
    terms with and without the neighbor RIS, and W21^H R2 W21 (no sweep
    changes cluster 2, and the terms hold no powers; each case sets its EMI
    levels on them), cluster-1 powers for the interference-unaware phases,
    and those plus the scenario and EMI levels for an aware run. Evaluators
    of grid points that share a draw share the cache (start_trial's shared),
    so a power sweep builds the cascades and optimizes cluster 2 once per
    trial and an EMI sweep also runs the unaware optimizer once per trial.
    Each evaluator still writes the trace rows of every run it uses, once per
    trial, as if it had made the run itself. Aware runs start from the
    unaware phases of the same trial and powers (see AO_WARM_RCG).
    """

    def __init__(self, cfg, stats, powers, trace=None, sweep_value=""):
        self.cfg = cfg
        self.stats = stats
        self.powers = powers
        self.noise = cfg.noise_power_w
        self.w1 = cfg.clusters[0].weights()
        self.w2 = cfg.clusters[1].weights()
        self.factor = cfg.emi_self_factor
        self.r1 = stats.clusters[0].corr.matrix
        self.r2 = stats.clusters[1].corr.matrix
        self.trace = trace
        self.sweep_value = sweep_value
        self.real = None
        self._cache = {}
        self._traced = set()
        self._p1 = tuple(powers.cluster1)

    def start_trial(self, real, shared=None):
        """Evaluate on real from now on; shared is the trial's cache, if other points use it."""
        self.real = real
        self._cache = {} if shared is None else shared
        self._traced = set()

    def _once(self, key, fn):
        if key not in self._cache:
            try:
                self._cache[key] = ("ok", fn())
            except ZfDegenerateError as exc:
                self._cache[key] = ("err", exc)
        status, value = self._cache[key]
        if status == "err":
            raise value
        return value

    def _trace(self, key, case, mode, stage, res: RcgResult):
        """Write res's rows once per trial, under the first case that uses it."""
        if self.trace is None or key in self._traced:
            return
        self._traced.add(key)
        objectives = res.trace[1:]
        for i in range(res.iterations):
            obj = objectives[i] if i < objectives.size else res.trace[-1]
            self.trace.append(
                (
                    self.sweep_value,
                    case.label,
                    mode.value,
                    self.real.trial,
                    stage,
                    i,
                    obj,
                    res.grad_norms[i],
                    res.steps[i],
                )
            )

    def _cluster2(self, case, mode) -> Cluster2State:
        if mode is Mode.FIXED:
            return self._once("c2_fixed", lambda: fixed_cluster2(self.real))
        state, result = self._once(
            "c2_opt",
            lambda: optimize_cluster2(self.real, self.stats, self.powers.cluster2, self.noise, self.w2),
        )
        self._trace("c2_opt", case, mode, "cluster2", result)
        return state

    def _terms(self, case, mode, neighbor: bool):
        """The draw's cascade terms, with the neighbor RIS when neighbor is set."""
        real = self.real
        extra = {}
        if neighbor:
            c2 = self._cluster2(case, mode)
            extra = dict(theta2=c2.theta, u2=c2.u, h2=real.h2, z21=real.z21, r2=self.r2)
        return self._once(
            ("terms", neighbor),
            lambda: build_cascades(real.h1, real.g1, self.r1, emi_self_factor=self.factor, **extra),
        )

    def _unaware(self, case, mode) -> RcgResult:
        key = ("ao_unaware", self._p1)
        own = self._terms(case, mode, neighbor=False)
        result = self._once(
            key, lambda: alternate_optimize(own, ScenarioKind.EIF, self.powers, self.noise, self.w1)
        )
        self._trace(key, case, mode, "cluster1_unaware", result)
        return result

    def _aware(self, case, mode, terms) -> RcgResult:
        kind = ScenarioKind(case.kind)
        theta0 = self._unaware(case, mode).theta
        if kind is ScenarioKind.EMI_IRR:
            # every aware EMI_IRR run of the draw builds its C from the same W21^H R2 W21
            reflected = self._once("reflected", lambda: reflected_emi_covariance(terms))
            terms = replace(terms, reflected=reflected)
        key = ("ao_aware", kind.value, terms.emi1_w, terms.emi2_w, self._p1)
        result = self._once(
            key,
            lambda: alternate_optimize(
                terms, kind, self.powers, self.noise, self.w1, theta0=theta0, opts=AO_WARM_RCG
            ),
        )
        self._trace(key, case, mode, f"cluster1_aware_{kind.value}", result)
        return result

    def evaluate(self, case: ScenarioCase, mode: Mode) -> SinrReport:
        kind = ScenarioKind(case.kind)
        mode = Mode(mode)
        emi1_w, emi2_w = _case_levels(case, self.cfg)
        terms = replace(self._terms(case, mode, kind.has_irr), emi1_w=emi1_w, emi2_w=emi2_w)
        if mode is Mode.FIXED:
            theta = np.ones(terms.num_elements, dtype=complex)
        elif mode is Mode.UNAWARE or kind is ScenarioKind.EIF:
            theta = self._unaware(case, mode).theta
        else:
            theta = self._aware(case, mode, terms).theta
        return evaluate_pair(terms, theta, kind, self.powers, self.noise, self.w1)


def _config_at(cfg: SystemConfig, variable: str, value: float) -> SystemConfig:
    cluster1 = cfg.clusters[0]
    if variable == "tx_power_dbm":
        cluster1 = replace(cluster1, tx_power_dbm=float(value))
    elif variable == "ris_elements":
        count = int(value)
        side = math.isqrt(count)
        if count != value or side * side != count or count < 1:
            raise ConfigError(f"ris_elements grid values must be perfect squares, got {value}")
        cluster1 = replace(cluster1, ris_side=side)
    elif variable != "emi_dbm":
        raise ConfigError(f"unknown sweep variable '{variable}'")
    return validate_config(replace(cfg, clusters=(cluster1, cfg.clusters[1])))


def _case_at(variable: str, case: ScenarioCase, value: float) -> ScenarioCase:
    if variable == "emi_dbm" and ScenarioKind(case.kind).has_emi:
        return replace(case, emi_dbm=float(value))
    return case


def _check_levels(cases) -> None:
    for case in cases:
        if case.emi_dbm is not None and not math.isfinite(case.emi_dbm):
            raise ConfigError(f"scenario '{case.label}' needs a finite EMI level")


def _validate_spec(spec: SweepSpec) -> None:
    if spec.variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable '{spec.variable}'")
    if len(spec.grid) == 0:
        raise ConfigError("sweep grid must not be empty")
    if len(spec.scenarios) == 0:
        raise ConfigError("at least one scenario case is required")
    if spec.trials < 1:
        raise ConfigError("trials must be >= 1")
    if spec.seed is not None and (not isinstance(spec.seed, int) or spec.seed < 0):
        raise ConfigError("seed must be a non-negative integer")
    Mode(spec.mode)
    if not all(math.isfinite(v) for v in spec.grid):
        raise ConfigError("sweep grid values must be finite")
    _check_levels(spec.scenarios)
    seen = set()
    for case in spec.scenarios:
        # an EMI sweep sets every EMI level, so 'emi' and 'emi:-65' collide there
        label = _case_at(spec.variable, case, spec.grid[0]).label
        if label in seen:
            raise ConfigError(f"scenario '{label}' is given more than once")
        seen.add(label)


def run_sweep(cfg: SystemConfig, spec: SweepSpec, trace=None) -> list[MetricRecord]:
    """Run the sweep and return one record per (grid value, scenario case).

    All scenario cases at a grid point share each trial's channel draw, so
    scenario comparisons are paired. Grid points with the same geometry (every
    point of a power or EMI sweep; only equal points of an element sweep) share
    the statistics and the draws too: trials loop outside the points, so each
    trial draws once and shares its cached optimizer runs between the points
    (see TrialEvaluator). Records and trace rows come out in grid order, the
    same as from one single-point sweep per grid value. Results are
    deterministic given the config, the spec, and the seed.
    """
    cfg = validate_config(cfg)
    _validate_spec(spec)
    mode = Mode(spec.mode)
    seed = cfg.rng_seed if spec.seed is None else spec.seed

    configs = [_config_at(cfg, spec.variable, value) for value in spec.grid]
    cases = [[_case_at(spec.variable, case, value) for case in spec.scenarios] for value in spec.grid]
    rates = [{case: [] for case in pt} for pt in cases]
    skips = [{case: 0 for case in pt} for pt in cases]
    times = [{case: 0.0 for case in pt} for pt in cases]
    rows = [[] if trace is not None else None for _ in spec.grid]

    groups: dict[int, list[int]] = {}
    for i, cfg_pt in enumerate(configs):
        # the statistics and the draw see the grid value only through cluster 1's size
        groups.setdefault(cfg_pt.clusters[0].ris_side, []).append(i)
    for points in groups.values():
        cfg_geo = configs[points[0]]
        stats = build_statistics(cfg_geo)
        evaluators = {
            i: TrialEvaluator(
                configs[i],
                stats,
                make_powers(configs[i], spec.unit_power),
                trace=rows[i],
                sweep_value=spec.grid[i],
            )
            for i in points
        }
        for trial in range(spec.trials):
            real = draw_realization(cfg_geo, stats, trial, rng=trial_rng(seed, trial))
            shared = {}
            for i in points:
                evaluators[i].start_trial(real, shared)
                for case in cases[i]:
                    t0 = perf_counter()
                    try:
                        report = evaluators[i].evaluate(case, mode)
                    except ZfDegenerateError:
                        skips[i][case] += 1
                    else:
                        rates[i][case].append(report.rates_bps_hz)
                    finally:
                        times[i][case] += perf_counter() - t0

    records: list[MetricRecord] = []
    for i, value in enumerate(spec.grid):
        if trace is not None:
            trace.extend(rows[i])
        weights1 = configs[i].clusters[0].weights()
        for case in cases[i]:
            if not rates[i][case]:
                raise RuntimeError(
                    f"every trial was skipped for scenario '{case.label}' at "
                    f"{spec.variable}={value}"
                )
            arr = np.array(rates[i][case])
            mean, std, outage = aggregate(arr, weights1, configs[i].rate_threshold_bps_hz)
            samples = tuple(float(s) for s in arr @ weights1) if spec.keep_samples else None
            records.append(
                MetricRecord(
                    sweep_value=float(value),
                    scenario=case.label,
                    mode=mode.value,
                    mean_sum_rate_bps_hz=mean,
                    outage=tuple(float(o) for o in outage),
                    trials=len(rates[i][case]),
                    skipped=skips[i][case],
                    std_sum_rate_bps_hz=std,
                    wall_time_s=times[i][case],
                    sum_rate_samples=samples,
                )
            )
    return records


def run_single_trial(
    cfg: SystemConfig,
    cases,
    mode: Mode,
    trial: int = 0,
    seed: int | None = None,
    unit_power: bool = False,
    trace=None,
    dump_dir=None,
) -> list[tuple[ScenarioCase, SinrReport]]:
    """Evaluate the given scenario cases on a single channel draw."""
    cfg = validate_config(cfg)
    _check_levels(cases)
    stats = build_statistics(cfg)
    powers = make_powers(cfg, unit_power)
    use_seed = cfg.rng_seed if seed is None else seed
    real = draw_realization(cfg, stats, trial, rng=trial_rng(use_seed, trial))
    if dump_dir is not None:
        dump_realization(real, dump_dir)
    evaluator = TrialEvaluator(cfg, stats, powers, trace=trace, sweep_value="")
    evaluator.start_trial(real)
    return [(case, evaluator.evaluate(case, mode)) for case in cases]


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def render_csv(records) -> str:
    """Render metric records to the canonical CSV text (byte-deterministic)."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    _fmt(r.sweep_value),
                    r.scenario,
                    r.mode,
                    _fmt(r.mean_sum_rate_bps_hz),
                    _fmt(r.outage[0]),
                    str(r.trials),
                    str(r.skipped),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(records, path) -> None:
    Path(path).write_text(render_csv(records), encoding="utf-8")


def render_trace(rows) -> str:
    lines = [TRACE_HEADER]
    for row in rows:
        sweep_value, scenario, mode, trial, stage, inner_i, obj, gnorm, step = row
        lines.append(
            ",".join(
                [
                    _fmt(sweep_value) if sweep_value != "" else "",
                    scenario,
                    mode,
                    str(trial),
                    stage,
                    str(inner_i),
                    _fmt(obj),
                    _fmt(gnorm),
                    _fmt(step),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_trace(rows, path) -> None:
    Path(path).write_text(render_trace(rows), encoding="utf-8")
