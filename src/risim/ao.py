"""Joint ZF precoding and RIS phase optimization for one realization, and its neighbor terms."""

from __future__ import annotations

import numpy as np

from .channels import ChannelRealization
from .precoding import effective_channel, zf_precoder
from .rcg import RcgResult, optimize_phases, rcg_lockstep
from .sinr import CascadeTerms, PowerAllocation, ScenarioKind, UtilityStack, build_cascades
from .sinr import scenario_sinr as evaluate_pair  # the report of an optimized theta, ZF at it


# A fixed budget: with a stop on the objective's change, a run's length
# follows its draw and a sweep's cost varies with the seed. The rule: the
# smallest budget whose mean and worst shortfall on the cold table of
# tools/budget_table.py (32 draws at N = 25, 100, 225 and 400) are at most
# those of the 200 conjugate-gradient iterations it replaced, at every N.
# 110 was that budget for the L-BFGS loop with projected pairs. The
# angle-coordinate loop meets the rule at 100 (worst shortfall 8.9e-3 nats,
# at N = 100, against 4.6e-2) but not at 90 (mean 4.6e-5 at N = 400,
# against 2.2e-5)
AO_RCG = 110
# The budget of an aware run started from the trial's unaware phases: the
# smallest on the warm table of tools/budget_table.py (trials 0-19 at 10 and
# 40 dBm, emi and emi_irr at -75 and -65 dBm) whose mean and worst shortfall
# are at most those of the 100 conjugate-gradient iterations it replaced, at
# both powers; 35 is not (the mean at 40 dBm). See the README's budget
# paragraph
AO_WARM_RCG = 40
# Rows per lockstep stack (see optimize_eif_stack), and draws per sweep block.
# On the unaware sweep over N = 25, 100, 225 and 400 (55 trials each; 2 vCPUs,
# 1 BLAS thread), a process making two such sweeps took 6.5, 5.7, 5.3 and
# 5.4 s per sweep at 16, 24, 32 and 48 rows, with a peak RSS of 59.9, 61.6,
# 61.0 and 62.3 MB (medians of 10 seeds; 7.6 s and 61.0 MB at 16 rows when
# each objective call formed a (B, K, N) temporary for H(theta)). bench/run.py
# on that workload read a peak RSS 1.6-4.5% above that 16-row build at 32 rows
# and 3.9-14% above it at 48 (3 seeds): a block holds its draws and runs while
# it evaluates, and the heap fragments around them. 32 is the largest size
# within half the benchmark's 10% bound.
STACK_ROWS = 32


def alternate_optimize(
    terms: CascadeTerms,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
    weights=None,
    theta0: np.ndarray | None = None,
    max_iters: int = AO_RCG,
) -> RcgResult:
    """Jointly optimize cluster-1 phases and ZF precoding for kind's utility.

    The paper alternates a ZF precoder update with an RCG phase update. With
    unit-norm ZF columns the intra-cluster leakage vanishes, so every
    scenario's SINR is a closed-form function of theta (see UserParts), and
    the alternation is block ascent on kind's utility of it, the utility of a
    one-row UtilityStack. One L-BFGS run on that stack from theta0 (default
    theta = 1) maximizes it directly, so there is no outer loop: this is
    optimize_phases, by default at the AO_RCG budget, and the name is kept from the
    alternating scheme. The precoder is ZF at the returned theta, where
    evaluate_pair reports kind's rates. An interference-unaware optimizer
    passes ScenarioKind.EIF; IRR kinds need terms built with the neighbor RIS.
    """
    return optimize_phases(terms, kind, powers, noise_power_w, weights, theta0=theta0, max_iters=max_iters)


def optimize_eif_stack(links, powers, weights, noise_power_w: float, max_iters: int = AO_RCG) -> list[RcgResult]:
    """alternate_optimize for kind EIF from theta = 1, for many clusters at once.

    Row b is the cluster with links[b] = (g, h), powers[b] and weights[b];
    every row needs the same shapes. The rows run in lockstep stacks of at
    most STACK_ROWS (see rcg.rcg_lockstep), and row b's result equals
    alternate_optimize(build_cascades(h, g, r), EIF, PowerAllocation(powers[b]),
    noise_power_w, weights[b], max_iters=max_iters) bit for bit, whatever its
    stack-mates.
    """
    results = []
    for start in range(0, len(links), STACK_ROWS):
        rows = slice(start, start + STACK_ROWS)
        problem = UtilityStack(
            np.stack([g for g, _ in links[rows]]),
            np.stack([h for _, h in links[rows]]),
            np.array(powers[rows], dtype=float),
            np.array(weights[rows], dtype=float),
            noise_power_w,
        )
        theta0 = np.ones((len(links[rows]), links[start][0].shape[1]), dtype=complex)
        results += rcg_lockstep(problem, theta0, max_iters)
    return results


def optimize_cluster2(
    real: ChannelRealization, terms: CascadeTerms, r2: np.ndarray, theta2: np.ndarray | None = None
) -> CascadeTerms:
    """terms, cluster 1's own terms for the draw real, with the neighbor RIS added.

    The neighbor, with correlation matrix r2, sits at theta2 with ZF
    precoding there: at theta = 1 when theta2 is None (fixed mode), else at
    the phases of its interference-unaware run on its own links (a row of
    optimize_eif_stack), which is independent of every cluster-1 quantity
    and of the EMI levels. Like terms, the result is at zero EMI (set a
    scenario's levels with replace). Raises ZfDegenerateError when the
    neighbor's ZF is ill-conditioned.
    """
    if theta2 is None:
        theta2 = np.ones(real.h2.shape[0], dtype=complex)
    u2 = zf_precoder(effective_channel(real.g2, theta2, real.h2))
    return build_cascades(
        terms.h1, terms.g1, terms.r1, emi_self_factor=terms.emi_self_factor,
        theta2=theta2, u2=u2, h2=real.h2, z21=real.z21, r2=r2,
    )
