"""Riemannian quasi-Newton (L-BFGS) phase optimization on the unit-modulus manifold."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import _check_number
from .sinr import CascadeTerms, PowerAllocation, ScenarioKind, UtilityStack


def euclid_grad(
    terms: CascadeTerms,
    theta: np.ndarray,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
    weights=None,
) -> np.ndarray:
    """Euclidean gradient of the weighted log-rate utility, as 2 * df/dtheta*:
    the gradient of a one-row UtilityStack after its objective call at theta,
    so the gradient and the objective describe the same function."""
    stack = UtilityStack.of([(terms, kind, powers, weights)], noise_power_w)
    stack.objective(theta[None])
    return stack.gradient(theta[None])[0]


ARMIJO_STEP = 1.0  # largest per-element phase move, in radians, of a first trial step
ARMIJO_CONTRACTION = 0.5
ARMIJO_SLOPE = 1e-4  # sufficient-increase coefficient
MAX_BACKTRACKS = 50
# (s, y) pairs each run keeps for its quasi-Newton direction. Each pair costs
# the two-loop recursion six real array operations over the stack's rows per
# iteration: at 32 rows of N = 400, five pairs take ~0.3 ms, some two EIF
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
    converged: bool  # a flat slope, or an accepted step that left the objective unchanged
    stagnated: bool
    max_unit_deviation: float  # largest ||theta_n| - 1| over the start and accepted points


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[r] @ b[r] for every row r of two real (B, N) arrays, bit for bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _angle_gradient(theta: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """g = Im(conj(theta) egrad) = df/dphi for theta = exp(j phi), as a contiguous
    real array: j theta g is egrad projected onto the tangent space at theta."""
    return theta.real * egrad.imag - theta.imag * egrad.real


def _retract(theta: np.ndarray, step: np.ndarray, direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn each row r of theta by the angles a = step[r] * direction[r].

    theta (1 + j a) / sqrt(1 + a^2) is the normalizing retraction of the
    tangent vector j theta a. Before the division its modulus is
    sqrt(1 + a^2) >= 1, so no entry can land on zero. Returns the new point
    and c = 1 / sqrt(1 + a^2) = Re(theta_new conj(theta)): a tangent vector
    j theta x projects onto the tangent space at theta_new as c x.
    """
    a = step[:, None] * direction
    c = a * a  # in place: at 32 rows of N = 400 this saved ~40 us per iteration over temporaries
    c += 1.0
    c = np.divide(1.0, np.sqrt(c, out=c), out=c)
    turn = np.empty(theta.shape, dtype=complex)
    turn.real = c
    np.multiply(a, c, out=turn.imag)
    return theta * turn, c


def _two_loop(g, pair_s, pair_y, rho, slots, gamma) -> np.ndarray:
    """H g for every row g[r]: the L-BFGS two-loop recursion (Nocedal and
    Wright, Numerical Optimization, 2006, alg. 7.4) over the real pairs
    (pair_s[j], pair_y[j]) with weights rho[j], for j in slots (newest
    first), from the initial matrix gamma[r] I. A pair with weight 0 leaves
    the product as it is. Each dot product is one batched @ over the rows.
    """
    r = g.copy()
    term = np.empty_like(r)
    alphas = []
    for j in slots:
        alpha = rho[j] * _row_dots(pair_s[j], r)
        r -= np.multiply(alpha[:, None], pair_y[j], out=term)
        alphas.append(alpha)
    r *= gamma[:, None]
    for j, alpha in zip(slots[::-1], alphas[::-1]):
        r += np.multiply((alpha - rho[j] * _row_dots(pair_y[j], r))[:, None], pair_s[j], out=term)
    return r


def rcg_lockstep(problem, theta0: np.ndarray, max_iters: int) -> list[RcgResult]:
    """Maximize B smooth objectives over unit-modulus phase vectors, in lockstep.

    Row b is one Riemannian limited-memory BFGS run (Absil, Mahony and
    Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 3-4
    and 8; Huang, Gallivan and Absil, SIAM J. Optim. 25(3), 2015) from
    theta0[b], theta0 (B, N). (S^1)^N is flat in the angles phi of
    theta = exp(j phi) (Boumal, An Introduction to Optimization on Smooth
    Manifolds, 2023), so the gradient g = Im(conj(theta) egrad), the
    direction and the pairs are real N-vectors with the plain dot product,
    and nothing is projected. The direction is the two-loop recursion
    (Nocedal and Wright, Numerical Optimization, 2006, alg. 7.4) applied to
    g over the last LBFGS_MEMORY pairs of the row. theta stays the complex
    state: a step of angles a = t d moves it to theta (1 + j a) /
    sqrt(1 + a^2) (see _retract), and the newest pair is carried there as
    the tangent projection carries it, s = c a and y = c g_old - g with
    c = 1 / sqrt(1 + a^2); older pairs keep their angle coordinates. A pair
    with s.y <= 0 gets no weight, and the initial scaling s.y / y.y is the
    newest weighted pair's. A direction that is not an ascent direction
    restarts the row at g and clears its pairs. A backtracking Armijo search
    tries the unit quasi-Newton step first, capped so that no angle moves by
    more than ARMIJO_STEP; a row without a weighted pair starts at that cap,
    so the search does not depend on the scale of the objective. A row stops
    after max_iters iterations (neither flag), at a flat slope (stagnated and
    converged), when no step within MAX_BACKTRACKS candidates is accepted
    (stagnated), or when an accepted step leaves its objective unchanged in
    floating point (converged).

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
    _check_number("max_iters", max_iters, integer=True, minimum=0)
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
    trace = np.zeros((num_rows, max_iters + 1))
    trace[:, 0] = f
    grad_norms = np.zeros((num_rows, max_iters))
    steps = np.zeros((num_rows, max_iters))
    lengths = np.ones(num_rows, dtype=int)  # of each row's trace
    iterations = np.zeros(num_rows, dtype=int)
    converged = np.zeros(num_rows, dtype=bool)
    stagnated = np.zeros(num_rows, dtype=bool)
    final_theta = np.empty_like(theta)
    final_f = np.empty(num_rows)
    max_dev = np.abs(np.abs(theta) - 1.0).max(axis=1)
    out_dev = np.empty(num_rows)
    ids = np.arange(num_rows)  # the stack rows still running

    # the ring of (s, y) pairs: pair i of every running row is in slot i % m
    m = LBFGS_MEMORY
    pair_s = np.zeros((m,) + theta.shape)
    pair_y = np.zeros_like(pair_s)
    rho = np.zeros((m, num_rows))  # 1 / s.y, or 0 for a pair without weight
    gamma = np.ones(num_rows)  # s.y / y.y of each row's newest weighted pair
    stored = 0
    g = d = step = c = None
    for iteration in range(1, max_iters + 1):
        egrad = problem.gradient(theta)
        if not np.isfinite(egrad).all():
            raise ValueError(f"non-finite gradient at RCG iteration {iteration}")
        g_new = _angle_gradient(theta, egrad)
        if g is not None:  # the pair of the last step, transported to theta
            slot = stored % m
            s, y = pair_s[slot], pair_y[slot]
            np.multiply(step[:, None], d, out=s)
            s *= c
            np.multiply(c, g, out=y)
            y -= g_new
            sy, yy = _row_dots(s, y), _row_dots(y, y)
            weighted = sy > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                rho[slot] = np.where(weighted, 1.0 / sy, 0.0)
                gamma = np.where(weighted, sy / yy, gamma)
            stored += 1
        g = g_new
        slots = [(stored - 1 - i) % m for i in range(min(stored, m))]  # newest first
        primed = (rho != 0.0).any(axis=0)  # rows with a weighted pair
        d = _two_loop(g, pair_s, pair_y, rho, slots, np.where(primed, gamma, 1.0))
        slope = _row_dots(g, d)
        gg = _row_dots(g, g)
        restart = slope <= 0.0  # the quasi-Newton direction lost ascent
        if restart.any():
            d[restart] = g[restart]
            slope[restart] = gg[restart]
            rho[:, restart] = 0.0
            primed[restart] = False
        grad_norms[ids, iteration - 1] = np.sqrt(gg)
        iterations[ids] = iteration

        # Armijo backtracking, each row from its own first step
        flat = slope <= 0.0  # stationary rows
        with np.errstate(divide="ignore", invalid="ignore"):
            trial = ARMIJO_STEP / np.abs(d).max(axis=1)
        trial = np.where(primed & (1.0 < trial), 1.0, trial)  # min(trial, 1.0) with pairs
        step = np.zeros(ids.size)  # 0.0 where no step is accepted
        c = np.empty_like(d)  # the retraction's c of each row's accepted step
        f_new = f.copy()
        searching = np.flatnonzero(~flat)
        for _ in range(MAX_BACKTRACKS):
            if searching.size == 0:
                break
            every = searching.size == ids.size
            at = slice(None) if every else searching  # a view, not a copy, when every row searches
            cand, c_cand = _retract(theta[at], trial[at], d[at])
            f_cand = checked(cand, None if every else searching)
            ok = f_cand >= f[searching] + ARMIJO_SLOPE * trial[searching] * slope[searching]
            done = searching[ok]
            step[done] = trial[done]
            if every and ok.all() and (trial != 0.0).all():  # every row takes its first step
                theta, c = cand, c_cand
            else:
                moving = ok & (trial[searching] != 0.0)
                theta[searching[moving]] = cand[moving]
                c[searching[moving]] = c_cand[moving]
            f_new[done] = f_cand[ok]
            searching = searching[~ok]
            trial[searching] *= ARMIJO_CONTRACTION
        steps[ids, iteration - 1] = step

        moved = step != 0.0
        unchanged = moved & (f_new == f)  # an accepted step that left the objective as it was
        f = np.where(moved, f_new, f)
        trace[ids[moved], iteration] = f[moved]
        lengths[ids[moved]] += 1
        dev = np.abs(np.abs(theta) - 1.0).max(axis=1)
        max_dev = np.where(moved & (dev > max_dev), dev, max_dev)
        stagnated[ids] = ~moved
        converged[ids] = flat | unchanged
        stop = ~moved | unchanged
        if stop.any():
            gone = ids[stop]
            final_theta[gone], final_f[gone] = theta[stop], f[stop]
            out_dev[gone] = max_dev[stop]
            keep = ~stop
            ids, theta, f, step, c = ids[keep], theta[keep], f[keep], step[keep], c[keep]
            d, g, max_dev = d[keep], g[keep], max_dev[keep]
            pair_s, pair_y, rho, gamma = pair_s[:, keep], pair_y[:, keep], rho[:, keep], gamma[keep]
            if ids.size == 0:
                break
            problem = problem.take(keep)
    final_theta[ids], final_f[ids] = theta, f  # the rows that ran to the cap
    out_dev[ids] = max_dev

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
    *,
    max_iters: int,
) -> RcgResult:
    """Maximize kind's utility over unit-modulus phases from theta0 (default
    theta = 1) for max_iters iterations: a one-row UtilityStack under
    rcg_lockstep."""
    if theta0 is None:
        theta0 = np.ones(terms.num_elements, dtype=complex)
    problem = UtilityStack.of([(terms, kind, powers, weights)], noise_power_w)
    return rcg_lockstep(problem, np.asarray(theta0)[None], max_iters)[0]
