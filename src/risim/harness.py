"""Monte Carlo sweep harness: grids, sweep plans, lockstep runs, aggregation, CSV output."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter

import numpy as np

from .ao import AO_WARM_RCG, STACK_ROWS, optimize_cluster2, optimize_eif_stack
from .channels import build_statistics, draw_realization, dump_realization
from .precoding import ZfDegenerateError
from .rcg import rcg_lockstep
from .scenario import (
    ConfigError,
    SystemConfig,
    _check_dbm,
    _check_number,
    dbm_to_watts,
    validate_config,
)
from .sinr import (
    PowerAllocation,
    ScenarioKind,
    SinrReport,
    UtilityStack,
    build_cascades,
    neighbor_parts,
    outage_indicator,
    parts_sinr,
    user_parts,
)

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


def _member(enum, value, what: str):
    """enum(value), or a ConfigError naming what, value and the choices."""
    try:
        return enum(value)
    except ValueError as exc:
        known = ", ".join(member.value for member in enum)
        raise ConfigError(f"unknown {what} '{value}' (expected one of: {known})") from exc


def parse_scenario_token(token: str) -> ScenarioCase:
    """Parse a CLI scenario token, name[:emi_dbm], e.g. 'eif' or 'emi:-65'."""
    name, sep, level = token.strip().partition(":")
    kind = _member(ScenarioKind, name, "scenario")
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
    """One sweep: a variable and grid, scenario cases, and a precoding mode.
    A grid value sets cluster 1 only: cluster 2 stays at its config power."""

    variable: str
    grid: tuple[float, ...]
    scenarios: tuple[ScenarioCase, ...] = DEFAULT_CASES
    mode: Mode = Mode.FIXED


@dataclass(frozen=True)
class MetricRecord:
    sweep_value: float
    scenario: str
    mode: str
    mean_sum_rate_bps_hz: float
    outage: tuple[float, ...]  # per user, fraction of trials below the threshold
    trials: int  # valid trials aggregated
    skipped: int
    sum_rate_samples: tuple[float, ...] = ()  # each valid trial's weighted sum rate


def make_powers(cfg: SystemConfig) -> PowerAllocation:
    """Each cluster's transmit power, split equally over its users."""
    k1 = cfg.clusters[0].num_users
    k2 = cfg.clusters[1].num_users
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


def _config_at(cfg: SystemConfig, variable: str, value: float) -> SystemConfig:
    cluster1 = cfg.clusters[0]
    if variable == "tx_power_dbm":
        cluster1 = replace(cluster1, tx_power_dbm=float(value))
    elif variable == "ris_elements":
        count = int(value)
        if count != value or count < 1 or math.isqrt(count) ** 2 != count:
            raise ConfigError(f"ris_elements grid values must be perfect squares, got {value}")
        cluster1 = replace(cluster1, ris_side=math.isqrt(count))
    return validate_config(replace(cfg, clusters=(cluster1, cfg.clusters[1])))


def _case_at(variable: str, case: ScenarioCase, value: float) -> ScenarioCase:
    if variable == "emi_dbm" and ScenarioKind(case.kind).has_emi:
        return replace(case, emi_dbm=float(value))
    return case


def _check_cases(cases) -> None:
    """A non-empty list of cases of known kinds, with valid EMI levels and
    distinct labels."""
    if len(cases) == 0:
        raise ConfigError("at least one scenario case is required")
    seen = set()
    for case in cases:
        _member(ScenarioKind, case.kind, "scenario")
        if case.emi_dbm is not None:
            _check_dbm(f"scenario '{case.label}' EMI level", case.emi_dbm)
        if case.label in seen:
            raise ConfigError(f"scenario '{case.label}' is given more than once")
        seen.add(case.label)


def _validate_spec(spec: SweepSpec) -> None:
    if spec.variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable '{spec.variable}'")
    if len(spec.grid) == 0:
        raise ConfigError("sweep grid must not be empty")
    for value in spec.grid:
        _check_number(f"{spec.variable} grid value", value)
        if spec.variable != "ris_elements":  # a power level in dBm
            _check_dbm(f"{spec.variable} grid value", value)
    _check_cases(spec.scenarios)
    if spec.variable == "emi_dbm":  # the grid sets every EMI level (_case_at)
        for case in spec.scenarios:
            if ScenarioKind(case.kind).has_emi and case.emi_dbm is not None:
                token = f"{ScenarioKind(case.kind).value}:{case.emi_dbm:g}"
                raise ConfigError(f"scenario '{token}': an emi_dbm sweep takes every EMI level from its grid")


def _plan(cfg: SystemConfig, points, mode: Mode) -> list[tuple]:
    """The (grid point, case) pairs of points, in order, and what each reads.

    points holds each grid point's (grid index, sweep value, powers, cases).
    A pair's entry is (i, head, powers, case, kind, terms key, run keys),
    with i and powers those of its point and head = (sweep value, case
    label, mode value), its trace rows' first fields. The run keys are, in
    order: cluster 2's run at its powers for an IRR kind, cluster 1's
    unaware run at its power, and in aware mode, for a kind other than EIF,
    its aware run. A key's first item is the run's trace stage. The last
    run's phases are the pair's; in fixed mode there is no run and they are
    theta = 1, ("fixed",). The terms key is (neighbor, emi1_w, emi2_w), with
    neighbor False for a kind without IRR, else the neighbor's phase key:
    ("fixed",) in fixed mode, else cluster 2's run key. Only the plan reads
    the mode. Nothing here depends on the draw, so a group is planned once,
    before any draw: a case with no EMI level raises its ConfigError here.
    """
    plan = []
    for i, value, powers, cases in points:
        p1 = tuple(powers.cluster1)
        neighbor = ("fixed",) if mode is Mode.FIXED else ("cluster2", tuple(powers.cluster2))
        for case in cases:
            kind = ScenarioKind(case.kind)
            emi1_w, emi2_w = _case_levels(case, cfg)
            keys = []
            if mode is not Mode.FIXED:
                if kind.has_irr:
                    keys.append(neighbor)
                keys.append(("cluster1_unaware", p1))
            if mode is Mode.AWARE and kind is not ScenarioKind.EIF:
                keys.append((f"cluster1_aware_{kind.value}", emi1_w, emi2_w, p1))
            term_key = (neighbor if kind.has_irr else False, emi1_w, emi2_w)
            head = (value, case.label, mode.value)
            plan.append((i, head, powers, case, kind, term_key, keys))
    return plan


def _lockstep_runs(cfg: SystemConfig, reals, plan) -> list[dict]:
    """The runs from theta = 1 of each draw in reals that the keys of plan
    name, under those keys (see _plan), at the powers they hold: cluster
    2's, then cluster 1's unaware run per cluster-1 power, each stage as one
    lockstep stack across the draws (ao.optimize_eif_stack).
    """
    runs = [{} for _ in reals]
    named = dict.fromkeys(key for *_, keys in plan for key in keys)
    stages = (("cluster2", 1, attrgetter("g2", "h2")), ("cluster1_unaware", 0, attrgetter("g1", "h1")))
    for stage, c, links_of in stages:
        rows = [(j, key) for j in range(len(reals)) for key in named if key[0] == stage]
        if rows:
            links = [links_of(reals[j]) for j, _ in rows]
            weights = [cfg.clusters[c].weights()] * len(rows)
            made = optimize_eif_stack(links, [key[1] for _, key in rows], weights, cfg.noise_power_w)
            for (j, key), result in zip(rows, made):
                runs[j][key] = result
    return runs


def _evaluate_block(cfg: SystemConfig, stats, reals, plan, traces):
    """Evaluate each draw of reals at every (grid point, case) pair of plan.

    Yields one list per draw, in plan order (see _plan): the pair's
    SinrReport, or the ZfDegenerateError that skips it. The trace rows of
    the point with grid index i go to traces[i], unless traces is None. The
    plan's runs from theta = 1 are made first, stacked across the draws
    (see _lockstep_runs). Each draw is then one pass:

    1. The draw's cascade terms: cluster 1's own, and per neighbor key of
       plan, with the neighbor RIS at those phases (optimize_cluster2). The
       terms hold no cluster-1 powers and no EMI levels, so each is built
       once per draw. A degenerate neighbor ZF is kept in place of the
       neighbor terms.
    2. The terms at each distinct terms key of plan: the draw's own or
       neighbor terms at the key's EMI levels, or the error in their place.
       The pairs that share a key share one terms object.
    3. One lockstep stack of the plan's runs not made yet (the aware runs),
       in plan order: a pair's last run, its kind's utility on its terms
       (a row of sinr.UtilityStack), from the phases of the run before it,
       with the AO_WARM_RCG budget. The rows share the draw's terms, so the
       stack builds one EMI_IRR operator per ratio e2 / e1 of EMI levels,
       one for every per-case level, from one W21^H R2 W21 per draw (see
       UtilityStack.of): neither depends on cluster 1's power.
    4. The pairs in order. A pair whose terms are an error is skipped.
       Each other pair's point gets the trace rows of every run the pair
       reads, once, as if it had made the run itself, and the pair is mixed
       from the per-user parts at its phases (see sinr.UserParts). The
       parts (and the neighbor parts, built only when an IRR case reads
       them) are built once per (phase key, neighbor key) and serve every
       case, power and EMI level evaluated there: a degenerate ZF at those
       phases skips every pair that reads them.

    A stacked run equals the single run bit for bit, so no result depends
    on the block. reals is emptied as the draws are evaluated, so that each
    draw (and its z21) is freed once done.
    """
    runs = _lockstep_runs(cfg, reals, plan)
    term_keys = dict.fromkeys(term_key for *_, term_key, _ in plan)
    neighbors = dict.fromkeys(neighbor for neighbor, _, _ in term_keys if neighbor)
    r1, r2 = stats.clusters[0].corr.matrix, stats.clusters[1].corr.matrix
    noise = cfg.noise_power_w
    w1 = cfg.clusters[0].weights()
    while reals:
        real, ready = reals.pop(0), runs.pop(0)
        base = {False: build_cascades(real.h1, real.g1, r1, emi_self_factor=cfg.emi_self_factor)}
        for key in neighbors:
            theta2 = None if key == ("fixed",) else ready[key].theta
            base[key] = _or_error(optimize_cluster2, real, base[False], r2, theta2)
        terms_at = {key: _or_error(replace, base[key[0]], emi1_w=key[1], emi2_w=key[2]) for key in term_keys}

        warm = {}  # each run the plan names that is not made yet: its row and start
        for _, _, powers, _, kind, term_key, keys in plan:
            terms = terms_at[term_key]
            if keys and keys[-1] not in ready and not isinstance(terms, ZfDegenerateError):
                warm.setdefault(keys[-1], ((terms, kind, powers, w1), ready[keys[-2]].theta))
        if warm:
            rows, theta0 = zip(*warm.values())
            problem = UtilityStack.of(rows, noise)
            ready.update(zip(warm, rcg_lockstep(problem, np.array(theta0), AO_WARM_RCG)))

        traced, parts, reports = set(), {}, []
        for i, head, powers, case, kind, term_key, keys in plan:
            terms = terms_at[term_key]
            if isinstance(terms, ZfDegenerateError):
                reports.append(terms)
                continue
            for key in keys:
                if traces is None or (i, key) in traced:
                    continue
                traced.add((i, key))
                res = ready[key]
                for it in range(res.iterations):
                    obj = res.trace[min(it + 1, res.trace.size - 1)]  # a stalled iteration adds none
                    traces[i].append(head + (real.trial, key[0], it, obj, res.grad_norms[it], res.steps[it]))
            key = keys[-1] if keys else ("fixed",)
            theta = ready[key].theta if keys else np.ones(terms.num_elements, dtype=complex)
            neighbor = term_key[0]
            if (key, False) not in parts:
                parts[key, False] = _or_error(user_parts, terms, theta)
            if neighbor and (key, neighbor) not in parts:
                parts[key, neighbor] = _or_error(neighbor_parts, parts[key, False], terms, theta)
            reports.append(_or_error(parts_sinr, parts[key, neighbor], terms, kind, powers, noise, w1))
        yield reports


def _or_error(build, given, *args, **kwargs):
    """build(given, *args, **kwargs), or the ZfDegenerateError that skips
    it: given, when given is one, else the one build raises."""
    if isinstance(given, ZfDegenerateError):
        return given
    try:
        return build(given, *args, **kwargs)
    except ZfDegenerateError as exc:
        return exc


def _threads() -> int:
    """The threads of this process, as the kernel lists them."""
    return len(os.listdir("/proc/self/task"))


def _worker_count() -> int:
    """Worker processes for a sweep's blocks: one per usable CPU when this
    process runs a single thread, else 1.

    Forking a multi-threaded process is unsafe, and a multi-threaded BLAS
    (OpenBLAS's default) already keeps the CPUs busy, so such a process runs
    its sweeps in itself. Without /proc the count is 1.
    """
    try:
        if _threads() == 1:
            return len(os.sched_getaffinity(0))
    except (OSError, AttributeError):
        pass
    return 1


def _blocks(trials: int, workers: int) -> list[range]:
    """Split range(trials) into W * ceil(ceil(T / STACK_ROWS) / W) near-equal
    blocks (at most T), so that each block has at most STACK_ROWS draws and
    each of the W workers gets as many blocks."""
    full = -(-trials // STACK_ROWS)
    count = min(trials, workers * -(-full // workers))
    size, extra = divmod(trials, count)
    edges = [b * size + min(b, extra) for b in range(count + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


@dataclass(frozen=True)
class _SweepJob:
    """What a sweep's blocks share, and the work of one block.

    groups holds per geometry group its config, its statistics and the plan
    of its grid points (_plan). A task (g, block) draws the trials of block
    for group g, at the config's seed, and evaluates them (_evaluate_block).
    It returns, per draw, each (point, case) pair's rates_bps_hz or the
    ZfDegenerateError that skips it, in plan order, and the trace rows each
    point of the group gained, by grid index. Its trace lists are its own,
    so a task changes nothing it was given and runs the same in a worker
    process as in the caller.
    """

    groups: tuple
    traced: bool

    def __call__(self, task):
        g, block = task
        cfg, stats, plan = self.groups[g]
        traces = {i: [] for i, *_ in plan} if self.traced else None
        reals = [draw_realization(cfg, stats, t) for t in block]
        outcomes = [
            [r if isinstance(r, ZfDegenerateError) else r.rates_bps_hz for r in reports]
            for reports in _evaluate_block(cfg, stats, reals, plan, traces)
        ]
        return outcomes, traces or {}


_job: _SweepJob | None = None  # set in a worker process only: the sweep it serves


def _adopt(job: _SweepJob) -> None:
    global _job
    _job = job


def _serve(task):
    return _job(task)


def _map_tasks(job: _SweepJob, tasks: list, workers: int) -> list:
    """job(task) for each task, in order: in this process, or in workers
    forked with job in memory, so that nothing of it is pickled.

    The workers are joined on every exit. A worker's exception is raised
    here with its type and message, and a worker that dies (say, killed by
    the OOM killer) raises BrokenProcessPool instead of leaving the sweep
    waiting.
    """
    if workers == 1:
        return list(map(job, tasks))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    threads = _threads()
    try:
        # the executor forks every worker before it starts its own threads
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt, (job,)) as pool:
            return list(pool.map(_serve, tasks))
    finally:
        # the executor's threads are joined, but the kernel lists a thread
        # until it has exited; wait for that, so the next sweep counts its own
        deadline = time.monotonic() + 1.0
        while _threads() > threads and time.monotonic() < deadline:
            time.sleep(1e-4)


def run_sweep(cfg: SystemConfig, spec: SweepSpec, trace=None) -> list[MetricRecord]:
    """Run the sweep and return one record per (grid value, scenario case).

    All scenario cases at a grid point share each trial's channel draw, so
    scenario comparisons are paired. Grid points with the same geometry (every
    point of a power or EMI sweep; only equal points of an element sweep) share
    the statistics and the draws too: trials loop outside the points, so each
    trial draws once, and each draw's optimizer runs, cascade terms and
    per-user parts serve all its points. The groups' statistics share one
    correlation model per surface. Each group's trials go in near-equal
    blocks of at most STACK_ROWS draws (_blocks): a block first draws its
    links, then makes every run from theta = 1 (cluster 2's, and cluster 1's
    unaware run per power) in lockstep stacks across its draws, and then
    evaluates draw by draw, an aware sweep after one stack of the draw's
    aware runs (see _evaluate_block). The blocks run in one worker process
    per usable CPU when this process is single-threaded (_worker_count), else
    here, and their results are folded back in trial order. A stacked run
    equals the single run bit for bit, and every trial has its own random
    stream, so no result depends on the blocks or on where they ran. Records
    and trace rows come out in grid order, the same as from one single-point
    sweep per grid value. Records carry the weighted sum rate of each trial
    they did not skip, in trial order: sample k is trial k, so that runs can
    be compared per draw, only when the record skipped no trial. The config
    sets the trials per grid point (mc_trials) and the seed (rng_seed).
    Results are deterministic given the config, the spec and the BLAS
    thread count.
    """
    cfg = validate_config(cfg)
    _validate_spec(spec)
    mode = _member(Mode, spec.mode, "mode")

    cases = [[_case_at(spec.variable, case, value) for case in spec.scenarios] for value in spec.grid]
    rates = [{case: [] for case in pt} for pt in cases]
    skips = [{case: 0 for case in pt} for pt in cases]
    traces = [[] for _ in spec.grid]

    by_side: dict[int, tuple] = {}
    for i, value in enumerate(spec.grid):
        cfg_pt = _config_at(cfg, spec.variable, value)
        # the statistics and the draw see the grid value only through cluster 1's size
        _, points = by_side.setdefault(cfg_pt.clusters[0].ris_side, (cfg_pt, []))
        points.append((i, value, make_powers(cfg_pt), cases[i]))
    plans = [(cfg_g, _plan(cfg_g, points, mode)) for cfg_g, points in by_side.values()]  # before the statistics
    models = {}  # one correlation model per surface, across the groups
    groups = tuple((cfg_g, build_statistics(cfg_g, models), plan) for cfg_g, plan in plans)
    workers = min(_worker_count(), cfg.mc_trials)
    tasks = [(g, block) for g in range(len(groups)) for block in _blocks(cfg.mc_trials, workers)]
    job = _SweepJob(groups, trace is not None)
    for (g, _), (outcomes, gained) in zip(tasks, _map_tasks(job, tasks, workers)):
        for outcome in outcomes:
            for (i, _, _, case, *_), rates_or_skip in zip(groups[g][2], outcome):
                if isinstance(rates_or_skip, ZfDegenerateError):
                    skips[i][case] += 1
                else:
                    rates[i][case].append(rates_or_skip)
        for i, rows in gained.items():
            traces[i] += rows

    records: list[MetricRecord] = []
    weights1 = cfg.clusters[0].weights()  # no sweep changes the weights or the threshold
    for i, value in enumerate(spec.grid):
        if trace is not None:
            trace.extend(traces[i])
        for case in cases[i]:
            if not rates[i][case]:
                raise RuntimeError(
                    f"every trial was skipped for scenario '{case.label}' at "
                    f"{spec.variable}={value}"
                )
            arr = np.array(rates[i][case])
            sums = arr @ weights1
            outage = outage_indicator(arr, cfg.rate_threshold_bps_hz).mean(axis=0)
            records.append(
                MetricRecord(
                    sweep_value=float(value),
                    scenario=case.label,
                    mode=mode.value,
                    mean_sum_rate_bps_hz=float(sums.mean()),
                    outage=tuple(float(o) for o in outage),
                    trials=len(sums),
                    skipped=skips[i][case],
                    sum_rate_samples=tuple(float(s) for s in sums),
                )
            )
    return records


def run_single_trial(
    cfg: SystemConfig,
    cases,
    mode: Mode,
    trial: int = 0,
    trace=None,
    dump_dir=None,
) -> list[tuple[ScenarioCase, SinrReport]]:
    """Evaluate the given scenario cases on a single channel draw.

    The draw is a block of one (see _evaluate_block), so its results and
    trace rows are those of the same trial of a sweep on the same config.
    A case whose ZF is degenerate raises ZfDegenerateError.
    """
    cfg = validate_config(cfg)
    mode = _member(Mode, mode, "mode")
    _check_number("trial", trial, integer=True, minimum=0)
    _check_cases(cases)
    points = [(0, "", make_powers(cfg), cases)]
    plan = _plan(cfg, points, mode)  # before the statistics: a missing EMI level fails here
    stats = build_statistics(cfg)
    real = draw_realization(cfg, stats, trial)
    if dump_dir is not None:
        dump_realization(real, dump_dir)
    (reports,) = _evaluate_block(cfg, stats, [real], plan, None if trace is None else {0: trace})
    for report in reports:
        if isinstance(report, ZfDegenerateError):
            raise report
    return list(zip(cases, reports))


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


def render_trace(rows) -> str:
    lines = [TRACE_HEADER]
    for sweep_value, scenario, mode, trial, stage, inner_i, *numbers in rows:
        value = _fmt(sweep_value) if sweep_value != "" else ""
        fields = [value, scenario, mode, str(trial), stage, str(inner_i)]
        lines.append(",".join(fields + [_fmt(x) for x in numbers]))  # objective, grad norm, step
    return "\n".join(lines) + "\n"
