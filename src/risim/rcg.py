"""Riemannian quasi-Newton (L-BFGS) phase optimization on the unit-modulus manifold."""

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


ARMIJO_STEP = 1.0  # largest per-element tangent move of a first trial step
ARMIJO_CONTRACTION = 0.5
ARMIJO_SLOPE = 1e-4  # sufficient-increase coefficient
MAX_BACKTRACKS = 50
# (s, y) pairs each run keeps for its quasi-Newton direction. Each pair costs
# the two-loop recursion six array operations over the stack's rows per
# iteration: at 32 rows of N = 400, five pairs take ~0.5 ms, some four EIF
# objective calls
LBFGS_MEMORY = 5


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
    """Re<a[r], b[r]> for every row r, as a[r].view(float) @ b[r].view(float), bit for bit."""
    af, bf = a.view(float), b.view(float)
    return (af[:, None, :] @ bf[:, :, None])[:, 0, 0]


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


def _two_loop(g, pair_s, pair_y, rho, slots, gamma) -> np.ndarray:
    """H g for every row g[r]: the L-BFGS two-loop recursion (Nocedal and
    Wright, Numerical Optimization, 2006, alg. 7.4) over the pairs
    (pair_s[j], pair_y[j]) with weights rho[j], for j in slots (newest
    first), from the initial matrix gamma[r] I, in the real inner product
    Re<a, b>. A pair with weight 0 leaves the product as it is.

    It runs on the float views of the complex rows, as (B, 2N, 1) columns,
    so that each dot product is one batched @, and updates them in place.
    """
    s_f, y_f = pair_s.view(float), pair_y.view(float)  # (m, B, 2N)
    s_rows, y_rows = s_f[:, :, None, :], y_f[:, :, None, :]
    s_cols, y_cols = s_f[..., None], y_f[..., None]
    w = rho[:, :, None, None]
    r = g.view(float)[..., None].copy()
    term = np.empty_like(r)
    alphas = []
    for j in slots:
        alpha = w[j] * (s_rows[j] @ r)
        r -= np.multiply(alpha, y_cols[j], out=term)
        alphas.append(alpha)
    r *= gamma[:, None, None]
    for j, alpha in zip(slots[::-1], alphas[::-1]):
        r += np.multiply(alpha - w[j] * (y_rows[j] @ r), s_cols[j], out=term)
    return r[..., 0].view(complex)


def rcg_lockstep(problem, theta0: np.ndarray, opts: RcgOptions = RcgOptions()) -> list[RcgResult]:
    """Maximize B smooth objectives over unit-modulus phase vectors, in lockstep.

    Row b is one Riemannian limited-memory BFGS run (Absil, Mahony and
    Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 8;
    Huang, Gallivan and Absil, SIAM J. Optim. 25(3), 2015) from theta0[b],
    theta0 (B, N). Its direction is the two-loop recursion (Nocedal and
    Wright, Numerical Optimization, 2006, alg. 7.4) applied to the projected
    gradient g, over the last LBFGS_MEMORY pairs s = P(step d), y = P(g_old)
    - g of the row, projected onto the tangent space at the point where
    they are formed (P, see project_tangent) and not transported further.
    A pair with s.y <= 0 gets no weight, the initial scaling s.y / y.y is
    the newest weighted pair's, and the result is projected onto the
    tangent space. A direction that is not an ascent direction restarts the
    row at g and clears its pairs. A backtracking Armijo search tries the
    unit quasi-Newton step first, capped so that no element moves by more
    than ARMIJO_STEP; a row without a weighted pair starts at that cap, so
    the search does not depend on the scale of the objective. A row stops
    when no step within MAX_BACKTRACKS candidates is accepted (stagnated),
    at a stationary point (stagnated and converged), when its objective
    changes by at most epsilon times its value (converged), or at max_iters.

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

    # the ring of (s, y) pairs: pair i of every running row is in slot i % m
    m = LBFGS_MEMORY
    pair_s = np.zeros((m,) + theta.shape, dtype=complex)
    pair_y = np.zeros_like(pair_s)
    rho = np.zeros((m, num_rows))  # 1 / s.y, or 0 for a pair without weight
    gamma = np.ones(num_rows)  # s.y / y.y of each row's newest weighted pair
    stored = 0
    rg = d = step = None
    for iteration in range(1, opts.max_iters + 1):
        egrad = problem.gradient(theta)
        if not np.isfinite(egrad).all():
            raise ValueError(f"non-finite gradient at RCG iteration {iteration}")
        rg_new = project_tangent(egrad, theta)
        if rg is not None:  # the pair of the last step, projected to theta
            s, y = project_tangent(np.stack((step[:, None] * d, rg)), theta)
            y -= rg_new
            sy, yy = _row_dots(s, y), _row_dots(y, y)
            weighted = sy > 0.0
            slot = stored % m
            pair_s[slot], pair_y[slot] = s, y
            with np.errstate(divide="ignore", invalid="ignore"):
                rho[slot] = np.where(weighted, 1.0 / sy, 0.0)
                gamma = np.where(weighted, sy / yy, gamma)
            stored += 1
        rg = rg_new
        slots = [(stored - 1 - i) % m for i in range(min(stored, m))]  # newest first
        primed = (rho != 0.0).any(axis=0)  # rows with a weighted pair
        r = _two_loop(rg, pair_s, pair_y, rho, slots, np.where(primed, gamma, 1.0))
        d = project_tangent(r, theta)
        slope = _row_dots(rg, d)
        restart = slope <= 0.0  # the quasi-Newton direction lost ascent
        if restart.any():
            d[restart] = rg[restart]
            slope[restart] = _row_dots(rg[restart], rg[restart])
            rho[:, restart] = 0.0
            primed[restart] = False
        grad_norms[ids, iteration - 1] = _row_norms(rg)
        tan = np.abs((d * np.conj(theta)).real).max(axis=1)
        max_tan = np.where(tan > max_tan, tan, max_tan)
        iterations[ids] = iteration

        # Armijo backtracking, each row from its own first step
        flat = slope <= 0.0  # stationary rows
        with np.errstate(divide="ignore", invalid="ignore"):
            trial = ARMIJO_STEP / np.abs(d).max(axis=1)
        trial = np.where(primed & (1.0 < trial), 1.0, trial)  # min(trial, 1.0) with pairs
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
        f = np.where(moved, f_new, f)
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
            ids, theta, f, step = ids[keep], theta[keep], f[keep], step[keep]
            d, rg, max_dev, max_tan = d[keep], rg[keep], max_dev[keep], max_tan[keep]
            pair_s, pair_y, rho, gamma = pair_s[:, keep], pair_y[:, keep], rho[:, keep], gamma[keep]
            if ids.size == 0:
                break
            problem = problem.take(keep)
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
