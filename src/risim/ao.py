"""Alternating optimization of precoders and RIS phases for one realization."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .channels import ChannelRealization, ChannelStatistics
from .precoding import PrecoderSet, effective_channel, zf_precoder
from .rcg import RcgOptions, RcgResult, optimize_phases
from .sinr import (
    CascadeTerms,
    PowerAllocation,
    ScenarioKind,
    SinrReport,
    build_cascades,
    scenario_sinr,
)

logger = logging.getLogger(__name__)

OUTER_DECREASE_SLACK = 1e-8


@dataclass(frozen=True)
class Cluster2State:
    """Neighbor-cluster phases and precoders, frozen while cluster 1 optimizes."""

    theta: np.ndarray
    u: np.ndarray  # (T2, K2) unit-norm columns


@dataclass(frozen=True)
class TrialCase:
    """Everything fixed while cluster-1 phases and precoders are chosen."""

    real: ChannelRealization
    stats: ChannelStatistics
    powers: PowerAllocation
    noise_power_w: float
    weights1: np.ndarray
    emi1_w: float = 0.0
    emi2_w: float = 0.0
    emi_self_factor: float = 4.0
    cluster2: Cluster2State | None = None


def build_trial_terms(
    case: TrialCase,
    u1: np.ndarray,
    include_neighbor: bool,
    emi1_w: float | None = None,
    emi2_w: float | None = None,
) -> CascadeTerms:
    """Cascade terms for the case's realization under the given precoder."""
    real = case.real
    stats = case.stats
    kwargs = {}
    if include_neighbor:
        if case.cluster2 is None:
            raise ValueError("cluster-2 state is required for IRR scenarios")
        kwargs = dict(
            theta2=case.cluster2.theta,
            u2=case.cluster2.u,
            h2=real.h2,
            z21=real.z21,
            r2=stats.clusters[1].corr.matrix,
        )
    return build_cascades(
        real.h1,
        real.g1,
        u1,
        stats.clusters[0].corr.matrix,
        emi1_w=case.emi1_w if emi1_w is None else emi1_w,
        emi_self_factor=case.emi_self_factor,
        emi2_w=case.emi2_w if emi2_w is None else emi2_w,
        **kwargs,
    )


@dataclass(frozen=True)
class AoOptions:
    scenario: ScenarioKind = ScenarioKind.EIF  # objective targeted when aware
    awareness: str = "aware"  # "unaware" optimizes the interference-free objective
    eta: float = 1e-3  # stop when the outer objective change falls to this
    max_outer_iters: int = 10
    rcg: RcgOptions = RcgOptions(max_iters=20)

    def __post_init__(self):
        if self.awareness not in ("aware", "unaware"):
            raise ValueError("awareness must be 'aware' or 'unaware'")


@dataclass
class AoResult:
    theta: np.ndarray
    precoder: PrecoderSet
    objective: float  # optimizer's own utility (weighted natural-log rates)
    outer_trace: np.ndarray
    outer_iterations: int
    converged: bool
    decreased: bool  # outer objective dipped beyond the allowed slack
    inner: tuple[RcgResult, ...]


def alternate_optimize(case: TrialCase, opts: AoOptions = AoOptions()) -> AoResult:
    """Alternate zero-forcing precoding and conjugate-gradient phase updates.

    Each outer iteration recomputes the ZF precoder at the current phases and
    then optimizes the phases for that precoder. The outer loop stops when the
    optimizer's own objective moves by at most eta between iterations. The
    returned pair is the best (theta, precoder) seen, which protects the
    caller from a final ZF re-solve that lowered the objective.
    """
    kind = ScenarioKind(opts.scenario)
    kind_opt = kind if opts.awareness == "aware" else ScenarioKind.EIF
    include_neighbor = kind_opt.has_irr

    theta = np.ones(case.real.h1.shape[0], dtype=complex)
    prev_obj = -np.inf
    best_obj = -np.inf
    best: tuple[np.ndarray, PrecoderSet] | None = None
    outer_trace: list[float] = []
    inner: list[RcgResult] = []
    converged = False
    decreased = False

    for _ in range(opts.max_outer_iters):
        h_eff = effective_channel(case.real.g1, theta, case.real.h1)
        prec = zf_precoder(h_eff)
        terms = build_trial_terms(case, prec.u, include_neighbor=include_neighbor)
        res = optimize_phases(
            terms,
            kind_opt,
            case.powers,
            case.noise_power_w,
            case.weights1,
            theta0=theta,
            opts=opts.rcg,
        )
        theta = res.theta
        obj = res.objective
        inner.append(res)
        if outer_trace and obj < outer_trace[-1] - OUTER_DECREASE_SLACK:
            decreased = True
            logger.warning(
                "outer objective decreased from %.9g to %.9g on trial %d",
                outer_trace[-1],
                obj,
                case.real.trial,
            )
        outer_trace.append(obj)
        if obj > best_obj:
            best_obj = obj
            best = (theta, prec)
        if abs(obj - prev_obj) <= opts.eta:
            converged = True
            break
        prev_obj = obj

    assert best is not None
    return AoResult(
        theta=best[0],
        precoder=best[1],
        objective=best_obj,
        outer_trace=np.array(outer_trace),
        outer_iterations=len(outer_trace),
        converged=converged,
        decreased=decreased,
        inner=tuple(inner),
    )


def evaluate_pair(
    case: TrialCase, kind: ScenarioKind, theta1: np.ndarray, u1: np.ndarray
) -> SinrReport:
    """True-scenario SINR report for a given phase/precoder pair."""
    kind = ScenarioKind(kind)
    terms = build_trial_terms(case, u1, include_neighbor=kind.has_irr)
    return scenario_sinr(terms, theta1, kind, case.powers, case.noise_power_w, case.weights1)


def evaluate_fixed(case: TrialCase, kind: ScenarioKind) -> SinrReport:
    """Zero-phase baseline: identity reflection plus ZF at those phases."""
    theta = np.ones(case.real.h1.shape[0], dtype=complex)
    prec = zf_precoder(effective_channel(case.real.g1, theta, case.real.h1))
    return evaluate_pair(case, kind, theta, prec.u)


def _mirror_realization(real: ChannelRealization) -> ChannelRealization:
    return ChannelRealization(
        trial=real.trial, h1=real.h2, h2=real.h1, g1=real.g2, g2=real.g1, z21=real.z21
    )


def _mirror_statistics(stats: ChannelStatistics) -> ChannelStatistics:
    return replace(stats, clusters=(stats.clusters[1], stats.clusters[0]))


def fixed_cluster2(real: ChannelRealization) -> Cluster2State:
    """Zero-phase neighbor: identity reflection and ZF precoding."""
    theta2 = np.ones(real.h2.shape[0], dtype=complex)
    prec = zf_precoder(effective_channel(real.g2, theta2, real.h2))
    return Cluster2State(theta=theta2, u=prec.u)


def optimize_cluster2(
    real: ChannelRealization,
    stats: ChannelStatistics,
    powers2: np.ndarray,
    noise_power_w: float,
    weights2: np.ndarray,
    opts: AoOptions | None = None,
) -> tuple[Cluster2State, AoResult]:
    """Interference-unaware AO for the neighbor cluster on its own links.

    The neighbor BS and RIS optimize as if alone, so the result is independent
    of every cluster-1 quantity and of the EMI levels.
    """
    if opts is None:
        opts = AoOptions(scenario=ScenarioKind.EIF, awareness="unaware")
    mirrored = TrialCase(
        real=_mirror_realization(real),
        stats=_mirror_statistics(stats),
        powers=PowerAllocation(cluster1=np.asarray(powers2, dtype=float)),
        noise_power_w=noise_power_w,
        weights1=np.asarray(weights2, dtype=float),
    )
    res = alternate_optimize(mirrored, replace(opts, scenario=ScenarioKind.EIF, awareness="unaware"))
    return Cluster2State(theta=res.theta, u=res.precoder.u), res
