"""Riemannian conjugate gradient phase optimization on the unit-modulus manifold."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import _check_number
from .sinr import (
    CascadeTerms,
    PowerAllocation,
    ScenarioKind,
    UtilityStack,
    cascade_tensor,
    phase_point,
    zf_gradient,
)


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


def project_tangent(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Project x onto the tangent space of the circle manifold at theta.

    Applied to a Euclidean gradient this gives the Riemannian gradient; applied
    to the previous direction it is the vector transport to theta.
    """
    return x - (x * np.conj(theta)).real * theta


@dataclass(frozen=True)
class RcgOptions:
    epsilon: float = 1e-9  # stop when |objective change| <= epsilon * |objective|
    max_iters: int = 200

    def __post_init__(self):
        _check_number("RcgOptions.epsilon", self.epsilon, minimum=0.0)
        _check_number("RcgOptions.max_iters", self.max_iters, integer=True, minimum=0)


ARMIJO_STEP = 1.0  # largest per-element tangent move of the first trial step
ARMIJO_CONTRACTION = 0.5
ARMIJO_SLOPE = 1e-4  # sufficient-increase coefficient
MAX_BACKTRACKS = 50


@dataclass
class RcgResult:
    theta: np.ndarray
    objective: float
    trace: np.ndarray  # objective values, trace[0] at the initial point
    grad_norms: np.ndarray
    steps: np.ndarray
    iterations: int
    converged: bool  # tolerance met (as opposed to hitting the cap or stagnating)
    stagnated: bool
    max_unit_deviation: float
    max_tangency_residual: float


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot(a[r], b[r]).real for every row r, bit for bit."""
    return (np.conj(a)[:, None, :] @ b[:, :, None])[:, 0, 0].real


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x[r]) for every row r, bit for bit: the same two real dots."""
    re, im = x.real, x.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None])[:, 0, 0] + (im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _retract_rows(theta: np.ndarray, step: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Move each row along its direction by its step and renormalize every
    entry to unit modulus.

    A row in which some entry of theta + step * d lands at (numerical) zero
    halves its own step until every entry has positive magnitude; with
    |theta_l| = 1 this always terminates, and the other rows keep their step.
    """
    moved = theta + step[:, None] * direction
    mags = np.abs(moved)
    low = mags.min(axis=1) < 1e-12
    while low.any():
        step = np.where(low, 0.5 * step, step)
        moved[low] = theta[low] + step[low, None] * direction[low]
        mags[low] = np.abs(moved[low])
        low = mags.min(axis=1) < 1e-12
    return moved / mags


def rcg_lockstep(problem, theta0: np.ndarray, opts: RcgOptions = RcgOptions()) -> list[RcgResult]:
    """Maximize B smooth objectives over unit-modulus phase vectors, in lockstep.

    Row b is one Riemannian conjugate-gradient run (Absil, Mahony and
    Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 8)
    from theta0[b], theta0 (B, N). Its direction is the projected gradient
    plus the Polak-Ribiere multiple (clamped at zero) of the transported
    last direction, and restarts at the projected gradient whenever that
    stops being an ascent direction. A backtracking Armijo search starts
    from the step that would repeat the last iteration's gain on a quadratic
    model (Nocedal and Wright, Numerical Optimization, 2006, eq. 3.60), so
    most iterations cost one objective call, capped so that no element moves
    by more than ARMIJO_STEP; the search does not depend on the scale of the
    objective. A row stops when no step within MAX_BACKTRACKS candidates is
    accepted (stagnated), at a stationary point (stagnated and converged),
    when its objective changes by at most epsilon times its value
    (converged), or at max_iters.

    problem holds the B objectives (see sinr.UtilityStack):
    problem.objective(theta, rows) returns the values of rows (an index
    array; None is every row) at theta, one row of theta per row;
    problem.gradient(theta) the Euclidean gradients of every row at theta,
    where each row's last objective call was made; problem.take(keep) the
    problem of rows keep, which is how rows that stop leave the stack. Every
    step is written per row, so row b's RcgResult does not depend on its
    stack-mates or its place, bit for bit. A non-finite objective (at the
    start point, iteration 0, or a line-search candidate) or gradient in any
    row raises ValueError naming the iteration.
    """
    theta = np.array(theta0, dtype=complex)
    mags = np.abs(theta)
    if np.any(mags == 0.0):
        raise ValueError("theta0 entries must be nonzero")
    theta = theta / mags
    num_rows = theta.shape[0]
    iteration = 0

    def checked(theta, rows=None):
        f = problem.objective(theta, rows)
        bad = ~np.isfinite(f)
        if bad.any():
            raise ValueError(f"non-finite objective {float(f[bad][0])} at RCG iteration {iteration}")
        return f

    f = checked(theta)
    trace = np.zeros((num_rows, opts.max_iters + 1))
    trace[:, 0] = f
    grad_norms = np.zeros((num_rows, opts.max_iters))
    steps = np.zeros((num_rows, opts.max_iters))
    lengths = np.ones(num_rows, dtype=int)  # of each row's trace
    iterations = np.zeros(num_rows, dtype=int)
    converged = np.zeros(num_rows, dtype=bool)
    stagnated = np.zeros(num_rows, dtype=bool)
    final_theta = np.empty_like(theta)
    final_f = np.empty(num_rows)
    max_dev = np.abs(np.abs(theta) - 1.0).max(axis=1)
    max_tan = np.zeros(num_rows)
    out_dev, out_tan = np.empty(num_rows), np.empty(num_rows)
    ids = np.arange(num_rows)  # the stack rows still running

    d_prev = g_prev = f_prev = None
    for iteration in range(1, opts.max_iters + 1):
        egrad = problem.gradient(theta)
        if not np.isfinite(egrad).all():
            raise ValueError(f"non-finite gradient at RCG iteration {iteration}")
        rg = project_tangent(egrad, theta)
        if d_prev is None:
            d = rg
            slope = _row_dots(rg, d)
        else:
            prev = _row_dots(g_prev, g_prev)
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = np.where(prev == 0.0, 0.0, _row_dots(rg, rg - g_prev) / prev)
            tau = np.where(0.0 > tau, 0.0, tau)  # max(tau, 0.0)
            d = rg + tau[:, None] * project_tangent(d_prev, theta)
            slope = _row_dots(rg, d)
            restart = slope <= 0.0  # the conjugate direction lost ascent
            if restart.any():
                d[restart] = rg[restart]
                slope[restart] = _row_dots(rg[restart], rg[restart])
        grad_norms[ids, iteration - 1] = _row_norms(rg)
        tan = np.abs((d * np.conj(theta)).real).max(axis=1)
        max_tan = np.where(tan > max_tan, tan, max_tan)
        iterations[ids] = iteration

        # Armijo backtracking, each row from its own first step
        flat = slope <= 0.0  # stationary rows
        with np.errstate(divide="ignore", invalid="ignore"):
            trial = ARMIJO_STEP / np.abs(d).max(axis=1)
            if f_prev is not None:
                guess = 2.0 * (f - f_prev) / slope
                trial = np.where(guess < trial, guess, trial)  # min(trial, guess)
        step = np.zeros(ids.size)  # 0.0 where no step is accepted
        f_new = f.copy()
        searching = np.flatnonzero(~flat)
        for _ in range(MAX_BACKTRACKS):
            if searching.size == 0:
                break
            cand = _retract_rows(theta[searching], trial[searching], d[searching])
            f_cand = checked(cand, None if searching.size == ids.size else searching)
            ok = f_cand >= f[searching] + ARMIJO_SLOPE * trial[searching] * slope[searching]
            done = searching[ok]
            step[done] = trial[done]
            moving = step[done] != 0.0
            theta[done[moving]] = cand[ok][moving]
            f_new[done] = f_cand[ok]
            searching = searching[~ok]
            trial[searching] *= ARMIJO_CONTRACTION
        steps[ids, iteration - 1] = step

        moved = step != 0.0
        delta = np.abs(f_new - f)
        f_prev, f = f, np.where(moved, f_new, f)
        trace[ids[moved], iteration] = f[moved]
        lengths[ids[moved]] += 1
        dev = np.abs(np.abs(theta) - 1.0).max(axis=1)
        max_dev = np.where(moved & (dev > max_dev), dev, max_dev)
        tol = moved & (delta <= opts.epsilon * np.abs(f))
        stagnated[ids] = ~moved
        converged[ids] = flat | tol
        stop = ~moved | tol
        if stop.any():
            gone = ids[stop]
            final_theta[gone], final_f[gone] = theta[stop], f[stop]
            out_dev[gone], out_tan[gone] = max_dev[stop], max_tan[stop]
            keep = ~stop
            ids, theta, f, f_prev = ids[keep], theta[keep], f[keep], f_prev[keep]
            d, rg, max_dev, max_tan = d[keep], rg[keep], max_dev[keep], max_tan[keep]
            if ids.size == 0:
                break
            problem = problem.take(keep)
        d_prev, g_prev = d, rg
    final_theta[ids], final_f[ids] = theta, f  # the rows that ran to the cap
    out_dev[ids], out_tan[ids] = max_dev, max_tan

    return [
        RcgResult(
            theta=final_theta[b].copy(),
            objective=float(final_f[b]),
            trace=trace[b, : lengths[b]].copy(),
            grad_norms=grad_norms[b, : iterations[b]].copy(),
            steps=steps[b, : iterations[b]].copy(),
            iterations=int(iterations[b]),
            converged=bool(converged[b]),
            stagnated=bool(stagnated[b]),
            max_unit_deviation=float(out_dev[b]),
            max_tangency_residual=float(out_tan[b]),
        )
        for b in range(num_rows)
    ]


def optimize_phases(
    terms: CascadeTerms,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
    weights=None,
    theta0: np.ndarray | None = None,
    opts: RcgOptions = RcgOptions(),
) -> RcgResult:
    """Maximize kind's utility over unit-modulus phases from theta0 (default
    theta = 1): a one-row UtilityStack under rcg_lockstep."""
    if theta0 is None:
        theta0 = np.ones(terms.num_elements, dtype=complex)
    w = np.ones(terms.num_users) if weights is None else weights
    problem = UtilityStack.of([(terms, kind, powers, w)], noise_power_w)
    return rcg_lockstep(problem, np.asarray(theta0)[None], opts)[0]
