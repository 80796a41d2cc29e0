"""The scalar optimizer loop, kept as the reference that rcg.rcg_lockstep's rows must equal.

One Riemannian limited-memory BFGS run on one (N,) phase vector, in the
angles phi of theta = exp(j phi), written as plain Python over a list of at
most LBFGS_MEMORY real (s, y, rho) pairs: the angle gradient, the two-loop
direction, a backtracking Armijo search and the angle retraction. It shares
the line-search constants, the memory and RcgResult with
risim.rcg, so a lockstep row and this loop describe the same algorithm, and
the tests compare them bit for bit. project_tangent is the ambient
tangent-space projection that the angle gradient and retraction are checked
against.

The 2-D evaluation of one cluster at one (N,) theta is kept here too, as the
reference for a row of sinr.UtilityStack and for the per-user parts:
phase_point (a PhasePoint: H(theta), G^-1, signal and interference),
weighted_log_utility, euclid_grad and scenario_sinr. risim's functions of
those names are one-row UtilityStack calls and the parts mix. utility_pair
is the 2-D objective and gradient the scalar loop runs on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from risim.precoding import check_zf_gram, effective_channel
from risim.rcg import (
    ARMIJO_CONTRACTION,
    ARMIJO_SLOPE,
    ARMIJO_STEP,
    LBFGS_MEMORY,
    MAX_BACKTRACKS,
    RcgResult,
)
from risim.sinr import (
    CascadeTerms,
    PowerAllocation,
    ScenarioKind,
    SinrReport,
    _report,
    cascade_channel,
    cascade_tensor,
    interference,
    zf_gradient,
)


@dataclass(frozen=True)
class PhasePoint:
    """What the utility and its gradient share at one theta.

    Cluster 1 is zero-forced at theta with unit-norm columns, so intra-cluster
    leakage vanishes and user k receives amplitude 1 / sqrt([G^-1]_kk) with
    G = H(theta) H(theta)^H: sig_k = p_k / [G^-1]_kk. den and mv are
    interference's.
    """

    h_eff: np.ndarray  # (K1, T1) effective channel H(theta)
    g_inv: np.ndarray  # (K1, K1) G^-1
    sig: np.ndarray  # (K1,) received signal power
    den: np.ndarray  # (K1,) interference-plus-noise power
    mv: np.ndarray | None  # (K1, L1^2) M_k theta; None for EIF


def phase_point(
    terms: CascadeTerms,
    theta: np.ndarray,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
) -> PhasePoint:
    """Evaluate the ZF and interference terms of kind's utility at theta,
    with H(theta) from a one-row stack as in UtilityStack.objective."""
    u = cascade_tensor(terms.g1, terms.h1)
    h_eff = cascade_channel(u[None], theta[None], terms.num_users)[0]
    g_inv = np.linalg.inv(h_eff @ np.conj(h_eff).T)
    sig = np.asarray(powers.cluster1, dtype=float) / np.diagonal(g_inv).real
    den, mv = interference(terms, theta, kind, powers, noise_power_w)
    return PhasePoint(h_eff=h_eff, g_inv=g_inv, sig=sig, den=den, mv=mv)


def scenario_sinr(terms, theta, kind, powers, noise_power_w, weights=None) -> SinrReport:
    """Per-user SINR, rates and weighted sum rate for one scenario.

    Raises ZfDegenerateError when ZF is ill conditioned at theta, as
    evaluate_pair does.
    """
    kind = ScenarioKind(kind)
    h_eff = effective_channel(terms.g1, theta, terms.h1)
    check_zf_gram(h_eff @ np.conj(h_eff).T)
    point = phase_point(terms, theta, kind, powers, noise_power_w)
    return _report(kind, point.sig, point.den, weights)


def weighted_log_utility(terms, theta, kind, powers, noise_power_w, weights=None) -> float:
    """Optimizer objective: sum of weighted natural-log rates."""
    point = phase_point(terms, theta, kind, powers, noise_power_w)
    vals = np.log1p(point.sig / point.den)
    if weights is None:
        return float(vals.sum())
    return float(np.asarray(weights, dtype=float) @ vals)


def euclid_grad(
    terms: CascadeTerms,
    theta: np.ndarray,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
    weights=None,
) -> np.ndarray:
    """Euclidean gradient of the weighted log-rate utility, as 2 * df/dtheta*.

    The utility is sum_k w_k ln(1 + p_k / (c_k den_k)) with c_k = [A]_kk,
    A = G^-1 and G = H(theta) H(theta)^H (see PhasePoint). H depends on
    conj(theta) only, through the cascade tensor U (see sinr.zf_gradient for
    dc_k/dtheta*, here on a one-row stack as in UtilityStack.gradient), and
    dden_k/dtheta* = M_k theta (see interference). Every quotient reuses
    the exact terms of the SINR evaluation at theta (phase_point), so the
    gradient and the objective always describe the same function.
    """
    kind = ScenarioKind(kind)
    point = phase_point(terms, theta, kind, powers, noise_power_w)
    g_inv, sig, den, mv = point.g_inv, point.sig, point.den, point.mv
    c = np.diagonal(g_inv).real

    w = np.ones(terms.num_users) if weights is None else np.asarray(weights, dtype=float)
    share = w * sig / (sig + den)  # w_k gamma_k / (1 + gamma_k)
    u = cascade_tensor(terms.g1, terms.h1)
    grad = zf_gradient(u[None], point.h_eff[None], g_inv[None], (share / c)[None])[0]
    if mv is not None:
        grad = grad + (share / den) @ mv
    return -2.0 * grad


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


def real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two real vectors."""
    return float(a @ b)


def project_tangent(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Project x onto the tangent space of the circle manifold at theta."""
    return x - (x * np.conj(theta)).real * theta


def angle_gradient(theta: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """g = Im(conj(theta) egrad): df/dphi for theta = exp(j phi), from the
    Euclidean gradient egrad. j theta g is project_tangent(egrad, theta)."""
    return theta.real * egrad.imag - theta.imag * egrad.real


def two_loop(grad: np.ndarray, pairs, gamma: float) -> np.ndarray:
    """H grad for the L-BFGS matrix H of pairs, a sequence of real (s, y, rho)
    oldest first, from the initial matrix gamma I (Nocedal and Wright,
    Numerical Optimization, 2006, alg. 7.4)."""
    q, alphas = grad, []
    for s, y, rho in reversed(pairs):
        alpha = rho * real_dot(s, q)
        q = q - alpha * y
        alphas.append(alpha)
    r = gamma * q
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r = r + (alpha - rho * real_dot(y, r)) * s
    return r


def retract(theta: np.ndarray, step: float, direction: np.ndarray) -> np.ndarray:
    """Turn theta by the angles a = step * direction.

    theta (1 + j a) / sqrt(1 + a^2) is the normalizing retraction of the
    tangent vector j theta a; before the division every entry has modulus
    sqrt(1 + a^2) >= 1, so none can land on zero.
    """
    a = step * direction
    c = 1.0 / np.sqrt(1.0 + a * a)
    return theta * (c + 1j * (a * c))


def armijo_search(theta, direction, objective, f0, slope, guess=None):
    """Backtracking search for a step with sufficient objective increase.

    direction is a real angle vector and slope must be the positive g.d.
    The first candidate is guess, but never moves the most-moving angle by
    more than ARMIJO_STEP along d; without a guess it is that largest move,
    so the search does not depend on the scale of the objective (the
    gradient of a -20 dBm utility is 1e5 times smaller than at 30 dBm).
    Returns (step, theta_new, f_new); step 0.0 signals stagnation (no
    acceptable step within MAX_BACKTRACKS candidates) and leaves theta
    unchanged.
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


def rcg_optimize(objective, gradient, theta0: np.ndarray, max_iters: int) -> RcgResult:
    """Maximize a smooth objective over unit-modulus phase vectors.

    objective(theta) -> float and gradient(theta) -> complex ndarray (the
    Euclidean gradient). The run works in the angles phi of theta =
    exp(j phi): its gradient is g = angle_gradient(theta, egrad), and its
    direction is the two-loop product of g with the last LBFGS_MEMORY real
    pairs s = c step d, y = c g_old - g, where c = 1 / sqrt(1 + (step d)^2)
    is the factor by which the last step's tangent vectors project onto the
    tangent space at the new point; a pair keeps its angle coordinates
    after that. A pair with s.y <= 0 gets weight 0, and the initial scaling
    is the newest weighted pair's s.y / y.y. A direction that is not an
    ascent direction restarts at g and zeroes every pair's weight. The first
    Armijo candidate is the unit step once a weighted pair exists. A
    non-finite objective (at the start point or a line-search candidate) or
    gradient raises ValueError naming the iteration; iteration 0 is the
    start point. The run stops after max_iters iterations, at a flat slope,
    when no step is accepted, or when an accepted step leaves the objective
    unchanged.
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
    pairs = deque(maxlen=LBFGS_MEMORY)
    gamma = 1.0
    g = d = step = None
    converged = False
    stagnated = False
    max_dev = float(np.abs(np.abs(theta) - 1.0).max()) if theta.size else 0.0

    for iteration in range(1, max_iters + 1):
        egrad = gradient(theta)
        if not np.isfinite(egrad).all():
            raise ValueError(f"non-finite gradient at RCG iteration {iteration}")
        g_new = angle_gradient(theta, egrad)
        if g is not None:
            a = step * d
            c = 1.0 / np.sqrt(1.0 + a * a)  # as in retract
            s = (step * d) * c
            y = c * g - g_new
            sy = real_dot(s, y)
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
                gamma = sy / real_dot(y, y)
            else:
                pairs.append((s, y, 0.0))
        g = g_new
        primed = any(rho != 0.0 for _, _, rho in pairs)
        d = two_loop(g, pairs, gamma if primed else 1.0)
        slope = real_dot(g, d)
        if slope <= 0.0:  # restart: the quasi-Newton direction lost ascent
            d = g
            slope = real_dot(g, g)
            pairs = deque(((s, y, 0.0) for s, y, _ in pairs), maxlen=LBFGS_MEMORY)
            primed = False
        grad_norms.append(float(np.linalg.norm(g)))
        if slope <= 0.0:  # stationary point
            steps.append(0.0)
            stagnated = True
            converged = True
            break
        step, theta_new, f_new = armijo_search(theta, d, checked, f_curr, slope, 1.0 if primed else None)
        steps.append(step)
        if step == 0.0:
            stagnated = True
            break
        unchanged = f_new == f_curr
        theta = theta_new
        f_curr = f_new
        trace.append(f_curr)
        max_dev = max(max_dev, float(np.abs(np.abs(theta) - 1.0).max()))
        if unchanged:
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
    )
