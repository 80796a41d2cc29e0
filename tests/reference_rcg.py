"""The scalar RCG loop, kept as the reference that rcg.rcg_lockstep's rows must equal.

This is the single-run optimizer that risim ran before every run became a
row of rcg.rcg_lockstep, moved here unchanged: one Riemannian conjugate
gradient run with a Polak-Ribiere direction, a backtracking Armijo search
and the normalizing retraction. It shares the line-search constants,
RcgOptions, RcgResult and project_tangent with risim.rcg, so a lockstep row
and this loop describe the same algorithm, and the tests compare them bit
for bit. utility_pair is the 2-D objective and gradient it runs on, the
reference for a row of sinr.UtilityStack.
"""

from __future__ import annotations

import math

import numpy as np

from risim.rcg import (
    ARMIJO_CONTRACTION,
    ARMIJO_SLOPE,
    ARMIJO_STEP,
    MAX_BACKTRACKS,
    RcgOptions,
    RcgResult,
    euclid_grad,
    project_tangent,
)
from risim.sinr import weighted_log_utility


def utility_pair(terms, kind, powers, noise_power_w, weights=None):
    """kind's utility and its Euclidean gradient as callables over one (N,) theta.

    Both evaluate afresh at every call (weighted_log_utility and euclid_grad):
    nothing is cached between calls.
    """

    def objective(theta):
        return weighted_log_utility(terms, theta, kind, powers, noise_power_w, weights)

    def gradient(theta):
        return euclid_grad(terms, theta, kind, powers, noise_power_w, weights)

    return objective, gradient


def polak_ribiere(rgrad_now: np.ndarray, rgrad_prev: np.ndarray) -> float:
    """Conjugacy coefficient Re<g_now, g_now - g_prev> / ||g_prev||^2.

    Returns the raw value; callers clamp at zero for the restart rule. A zero
    previous gradient yields 0.
    """
    denom = np.vdot(rgrad_prev, rgrad_prev).real
    if denom == 0.0:
        return 0.0
    return float(np.vdot(rgrad_now, rgrad_now - rgrad_prev).real / denom)


def retract(theta: np.ndarray, step: float, direction: np.ndarray) -> np.ndarray:
    """Move along the direction and renormalize each entry to unit modulus.

    If any entry of theta + step * d lands at (numerical) zero, the step is
    halved until every entry has positive magnitude; with |theta_l| = 1 this
    always terminates.
    """
    moved = theta + step * direction
    mags = np.abs(moved)
    while mags.min() < 1e-12:
        step *= 0.5
        moved = theta + step * direction
        mags = np.abs(moved)
    return moved / mags


def armijo_search(theta, direction, objective, f0, slope, guess=None):
    """Backtracking search for a step with sufficient objective increase.

    slope must be the positive tangent inner product Re<rgrad, d>. The first
    candidate is guess, but never moves the most-moving element by more than
    ARMIJO_STEP along d; without a guess it is that largest move, so the
    search does not depend on the scale of the objective (the gradient of a
    -20 dBm utility is 1e5 times smaller than at 30 dBm). Returns
    (step, theta_new, f_new); step 0.0 signals stagnation (no acceptable step
    within MAX_BACKTRACKS candidates) and leaves theta unchanged.
    """
    if slope <= 0.0:
        raise ValueError("armijo_search requires an ascent direction (slope > 0)")
    step = ARMIJO_STEP / np.abs(direction).max()
    if guess is not None:
        step = min(step, guess)
    for _ in range(MAX_BACKTRACKS):
        cand = retract(theta, step, direction)
        f_new = objective(cand)
        if f_new >= f0 + ARMIJO_SLOPE * step * slope:
            return step, cand, f_new
        step *= ARMIJO_CONTRACTION
    return 0.0, theta, f0


def rcg_optimize(objective, gradient, theta0: np.ndarray, opts: RcgOptions = RcgOptions()) -> RcgResult:
    """Maximize a smooth objective over unit-modulus phase vectors.

    objective(theta) -> float and gradient(theta) -> complex ndarray (the
    Euclidean gradient). Directions restart to the projected gradient whenever
    the conjugate combination stops being an ascent direction. A non-finite
    objective (at the start point or a line-search candidate) or gradient
    raises ValueError naming the iteration; iteration 0 is the start point.
    """
    theta = np.asarray(theta0, dtype=complex)
    mags = np.abs(theta)
    if np.any(mags == 0.0):
        raise ValueError("theta0 entries must be nonzero")
    theta = theta / mags

    iteration = 0

    def checked(theta):
        f = float(objective(theta))
        if not math.isfinite(f):
            raise ValueError(f"non-finite objective {f} at RCG iteration {iteration}")
        return f

    f_curr = checked(theta)
    trace = [f_curr]
    grad_norms: list[float] = []
    steps: list[float] = []
    d_prev = None
    g_prev = None
    converged = False
    stagnated = False
    max_dev = float(np.abs(np.abs(theta) - 1.0).max()) if theta.size else 0.0
    max_tan = 0.0

    for iteration in range(1, opts.max_iters + 1):
        egrad = gradient(theta)
        if not np.isfinite(egrad).all():
            raise ValueError(f"non-finite gradient at RCG iteration {iteration}")
        rg = project_tangent(egrad, theta)
        if d_prev is None:
            d = rg
        else:
            tau1 = max(polak_ribiere(rg, g_prev), 0.0)
            d = rg + tau1 * project_tangent(d_prev, theta)
            if np.vdot(rg, d).real <= 0.0:
                d = rg  # restart: conjugate direction lost ascent
        slope = float(np.vdot(rg, d).real)
        grad_norms.append(float(np.linalg.norm(rg)))
        if d.size:
            max_tan = max(max_tan, float(np.abs((d * np.conj(theta)).real).max()))
        if slope <= 0.0:  # stationary point
            steps.append(0.0)
            stagnated = True
            converged = True
            break
        # First trial step: the one that would repeat the last iteration's gain
        # on a quadratic model (Nocedal & Wright, Numerical Optimization, 2006,
        # eq. 3.60), so most iterations cost one objective call
        guess = 2.0 * (trace[-1] - trace[-2]) / slope if len(trace) > 1 else None
        step, theta_new, f_new = armijo_search(theta, d, checked, f_curr, slope, guess)
        steps.append(step)
        if step == 0.0:
            stagnated = True
            break
        delta = abs(f_new - f_curr)
        theta = theta_new
        f_curr = f_new
        trace.append(f_curr)
        d_prev = d
        g_prev = rg
        max_dev = max(max_dev, float(np.abs(np.abs(theta) - 1.0).max()))
        if delta <= opts.epsilon * abs(f_curr):
            converged = True
            break

    return RcgResult(
        theta=theta,
        objective=f_curr,
        trace=np.array(trace),
        grad_norms=np.array(grad_norms),
        steps=np.array(steps),
        iterations=len(steps),
        converged=converged,
        stagnated=stagnated,
        max_unit_deviation=max_dev,
        max_tangency_residual=max_tan,
    )
