"""Joint ZF precoding and RIS phase optimization for one realization."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import ChannelRealization, ChannelStatistics
from .precoding import effective_channel, zf_precoder
from .rcg import RcgOptions, RcgResult, optimize_phases
from .sinr import (
    CascadeTerms,
    PowerAllocation,
    ScenarioKind,
    SinrReport,
    build_cascades,
    emi_irr_covariance,
    neighbor_parts,
    parts_sinr,
    user_parts,
)


@dataclass(frozen=True)
class Cluster2State:
    """Neighbor-cluster phases and precoders, frozen while cluster 1 optimizes."""

    theta: np.ndarray
    u: np.ndarray  # (T2, K2) unit-norm columns


# A fixed budget: with a stop on the objective's change, a run's length
# follows its draw and a sweep's cost varies with the seed
AO_RCG = RcgOptions(epsilon=0.0, max_iters=200)
# The budget of an aware run started from the trial's unaware phases. Over
# trials 0-19 at 10 and 40 dBm (emi and emi_irr at -75 and -65 dBm), it falls
# short of a 2000-iteration reference by less than an AO_RCG run from
# theta = 1, in the mean and in the worst case, at both powers; fewer
# iterations do not (see the README's budget paragraph)
AO_WARM_RCG = RcgOptions(epsilon=0.0, max_iters=100)


def alternate_optimize(
    terms: CascadeTerms,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
    weights=None,
    theta0: np.ndarray | None = None,
    opts: RcgOptions = AO_RCG,
) -> RcgResult:
    """Jointly optimize cluster-1 phases and ZF precoding for kind's utility.

    The paper alternates a ZF precoder update with an RCG phase update. With
    unit-norm ZF columns the intra-cluster leakage vanishes, so every
    scenario's SINR is the closed-form function of theta in phase_point:
    the alternation is block ascent on that one function. One RCG run from
    theta0 (default theta = 1) maximizes it directly, so there is no outer
    loop; the name is kept from the alternating scheme. The precoder is ZF at the returned theta (see evaluate_pair). An
    interference-unaware optimizer passes ScenarioKind.EIF; IRR kinds need
    terms built with the neighbor RIS.
    """
    kind = ScenarioKind(kind)
    if kind is ScenarioKind.EMI_IRR:
        # the run applies this C hundreds of times: one N^3 build makes each
        # application one product instead of four (see interference)
        terms = replace(terms, cov=emi_irr_covariance(terms, powers))
    return optimize_phases(terms, kind, powers, noise_power_w, weights, theta0=theta0, opts=opts)


def evaluate_pair(
    terms: CascadeTerms,
    theta1: np.ndarray,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
    weights=None,
) -> SinrReport:
    """True-scenario SINR report for the phases theta1 with ZF precoding at theta1.

    Raises ZfDegenerateError when ZF is ill conditioned at theta1. Mixed from
    the per-user parts at theta1, which a caller evaluating several cases,
    powers or EMI levels at one theta builds once (see TrialEvaluator).
    """
    kind = ScenarioKind(kind)
    parts = user_parts(terms, theta1)
    if kind.has_irr:
        parts = neighbor_parts(parts, terms, theta1)
    return parts_sinr(parts, terms, kind, powers, noise_power_w, weights)


def _cluster2_state(real: ChannelRealization, theta2: np.ndarray) -> Cluster2State:
    """Neighbor phases theta2 with ZF precoding at theta2."""
    return Cluster2State(theta=theta2, u=zf_precoder(effective_channel(real.g2, theta2, real.h2)))


def fixed_cluster2(real: ChannelRealization) -> Cluster2State:
    """Zero-phase neighbor: identity reflection and ZF precoding."""
    return _cluster2_state(real, np.ones(real.h2.shape[0], dtype=complex))


def optimize_cluster2(
    real: ChannelRealization,
    stats: ChannelStatistics,
    powers2: np.ndarray,
    noise_power_w: float,
    weights2: np.ndarray,
) -> tuple[Cluster2State, RcgResult]:
    """Interference-unaware AO for the neighbor cluster on its own links.

    The neighbor BS and RIS optimize as if alone, so the result is independent
    of every cluster-1 quantity and of the EMI levels.
    """
    terms = build_cascades(real.h2, real.g2, stats.clusters[1].corr.matrix)
    powers = PowerAllocation(cluster1=np.asarray(powers2, dtype=float))
    res = alternate_optimize(
        terms, ScenarioKind.EIF, powers, noise_power_w, np.asarray(weights2, dtype=float)
    )
    return _cluster2_state(real, res.theta), res
