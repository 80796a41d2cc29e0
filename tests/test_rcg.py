"""Gradients, manifold operations, line search, and the RCG loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rcg as reference
from reference_rcg import armijo_search, project_tangent, retract, two_loop, utility_pair
from risim import rcg, sinr
from risim import (
    ConfigError,
    PowerAllocation,
    ScenarioKind,
    UtilityStack,
    build_cascades,
    euclid_grad,
    optimize_phases,
    weighted_log_utility,
)
from risim.rcg import rcg_lockstep

NOISE = 1e-3


def _cn(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _unit_diag_psd(rng, n):
    a = _cn(rng, n, n + 2)
    m = a @ a.conj().T + 1e-3 * np.eye(n)
    d = np.sqrt(np.real(np.diag(m)))
    return m / np.outer(d, d)


def _instance(rng, num_elements=4, num_users=2):
    h1 = _cn(rng, num_elements, 2)
    g1 = _cn(rng, num_users, num_elements)
    r1 = _unit_diag_psd(rng, num_elements)
    ne = 5
    terms = build_cascades(
        h1, g1, r1,
        emi_self_factor=4.0,
        theta2=np.exp(1j * rng.uniform(0, 2 * np.pi, ne)),
        u2=_cn(rng, 2, num_users),
        h2=_cn(rng, ne, 2),
        z21=_cn(rng, ne, num_elements),
        r2=_unit_diag_psd(rng, ne),
    )
    terms = replace(terms, emi1_w=0.4, emi2_w=0.2)
    powers = PowerAllocation(rng.uniform(0.5, 2, num_users), rng.uniform(0.5, 2, num_users))
    return terms, powers


def _fd_phase_grad(objective, theta, h=1e-6):
    """Central differences of the objective over the entrywise phase."""
    psi = np.angle(theta)
    out = np.zeros(theta.size)
    for l in range(theta.size):
        up = psi.copy()
        up[l] += h
        dn = psi.copy()
        dn[l] -= h
        out[l] = (objective(np.exp(1j * up)) - objective(np.exp(1j * dn))) / (2 * h)
    return out


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(31)
    for _ in range(10):
        terms, powers = _instance(rng)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, terms.num_elements))
        objective, _ = utility_pair(terms, kind, powers, NOISE)
        egrad = euclid_grad(terms, theta, kind, powers, NOISE)
        # d f / d psi_l for theta_l = exp(j psi_l) is Re(conj(egrad_l) j theta_l)
        analytic = np.real(np.conj(egrad) * 1j * theta)
        numeric = _fd_phase_grad(objective, theta)
        scale = max(np.abs(numeric).max(), 1e-12)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6 * scale, rtol=1e-5)


def test_gradient_respects_weights():
    rng = np.random.default_rng(33)
    terms, powers = _instance(rng)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, terms.num_elements))
    w = np.array([2.0, 0.25])
    objective, _ = utility_pair(terms, ScenarioKind.EMI, powers, NOISE, weights=w)
    egrad = euclid_grad(terms, theta, ScenarioKind.EMI, powers, NOISE, weights=w)
    analytic = np.real(np.conj(egrad) * 1j * theta)
    numeric = _fd_phase_grad(objective, theta)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6 * np.abs(numeric).max())


def test_tangent_projection_is_tangent_and_idempotent():
    rng = np.random.default_rng(35)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    egrad = _cn(rng, 8)
    rg = project_tangent(egrad, theta)
    np.testing.assert_allclose((rg * np.conj(theta)).real, 0.0, atol=1e-14)
    np.testing.assert_allclose(project_tangent(rg, theta), rg, atol=1e-14)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_angle_gradient_matches_finite_differences(kind):
    # the loop's gradient is df/dphi_n for theta = exp(j phi), on every row
    rng = np.random.default_rng(32)
    rows = _utility_rows(rng, [kind] * 3, num_elements=5)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (len(rows), 5)))
    egrad = np.array([euclid_grad(t, theta[b], k, p, NOISE, w) for b, (t, k, p, w) in enumerate(rows)])
    g = rcg._angle_gradient(theta, egrad)
    for b, (terms, k, powers, w) in enumerate(rows):
        objective, _ = utility_pair(terms, k, powers, NOISE, w)
        numeric = _fd_phase_grad(objective, theta[b])
        scale = max(np.abs(numeric).max(), 1e-12)
        np.testing.assert_allclose(g[b], numeric, atol=1e-6 * scale, rtol=1e-5)
        np.testing.assert_array_equal(g[b], reference.angle_gradient(theta[b], egrad[b]))


def test_angle_gradient_is_the_projected_gradient():
    rng = np.random.default_rng(34)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 8)))
    egrad = _cn(rng, 3, 8)
    g = rcg._angle_gradient(theta, egrad)
    assert g.dtype == float and g.flags.c_contiguous
    for b in range(3):
        np.testing.assert_allclose(1j * theta[b] * g[b], project_tangent(egrad[b], theta[b]), rtol=0, atol=1e-14)


def test_angle_step_is_the_normalizing_retraction():
    # theta (1 + j a) / sqrt(1 + a^2) is (theta + t j theta d) / |theta + t j theta d|,
    # and c is Re(theta_new conj(theta)), the factor by which the tangent vector
    # j theta x projects onto the tangent space at theta_new
    rng = np.random.default_rng(36)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 7)))
    d = rng.standard_normal((4, 7))
    step = np.array([1e-3, 0.3, 1.0, 20.0])
    new, c = rcg._retract(theta, step, d)
    x = rng.standard_normal(7)
    for b in range(4):
        moved = theta[b] + step[b] * 1j * theta[b] * d[b]
        np.testing.assert_allclose(new[b], moved / np.abs(moved), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(new[b], retract(theta[b], step[b], d[b]))
        np.testing.assert_allclose(c[b], (new[b] * np.conj(theta[b])).real, rtol=0, atol=1e-14)
        transported = project_tangent(1j * theta[b] * x, new[b])
        np.testing.assert_allclose(1j * new[b] * (c[b] * x), transported, rtol=0, atol=1e-14)


def test_newest_pair_is_transported_by_projection(monkeypatch):
    # s = c t d and y = c g_old - g are the angle coordinates at the new point
    # of the tangent projections of the last step and the last gradient,
    # j theta_old t d and j theta_old g_old
    rng = np.random.default_rng(40)
    (terms, kind, powers, w), = _utility_rows(rng, [ScenarioKind.EMI], num_elements=6)
    points, calls = [], []
    gradient, two_loop_rows = UtilityStack.gradient, rcg._two_loop

    def spy_gradient(self, theta):
        points.append(theta[0].copy())
        return gradient(self, theta)

    def spy(g, pair_s, pair_y, rho, slots, gamma):
        d = two_loop_rows(g, pair_s, pair_y, rho, slots, gamma)
        used = d[0] if g[0] @ d[0] > 0.0 else g[0]  # a restart moves along g
        newest = slots[0] if slots else 0  # no pair yet at the first call
        calls.append((g[0].copy(), pair_s[newest, 0].copy(), pair_y[newest, 0].copy(), used.copy()))
        return d

    monkeypatch.setattr(UtilityStack, "gradient", spy_gradient)
    monkeypatch.setattr(rcg, "_two_loop", spy)
    res = optimize_phases(terms, kind, powers, NOISE, w, max_iters=8)
    assert res.iterations == 8 and not res.stagnated
    for k in range(1, len(calls)):
        old, new = points[k - 1], points[k]
        g_old, _, _, d_old = calls[k - 1]
        g, s, y, _ = calls[k]
        t = res.steps[k - 1]
        want_s = project_tangent(1j * old * (t * d_old), new)
        want_y = project_tangent(1j * old * g_old, new) - 1j * new * g
        np.testing.assert_allclose(1j * new * s, want_s, rtol=0, atol=1e-13 * np.abs(want_s).max())
        np.testing.assert_allclose(1j * new * y, want_y, rtol=0, atol=1e-13 * np.abs(g_old).max())


class _Turning:
    """Rows whose objective rises by one at every call and whose angle
    gradient is the fixed w[r]: every line search takes its first step, so
    each row turns its phases by up to ARMIJO_STEP radians per iteration for
    as long as it runs."""

    def __init__(self, w):
        self.w, self.calls = w, 0

    def objective(self, theta, rows=None):
        self.calls += 1
        return np.full(theta.shape[0], float(self.calls))

    def gradient(self, theta):
        return 1j * theta * self.w

    def take(self, keep):
        raise AssertionError("every row runs to the cap")


def test_multiplicative_update_keeps_unit_modulus():
    # each accepted step multiplies theta by (1 + j a) / sqrt(1 + a^2) without
    # renormalizing it, so over 2000 steps of up to one radian |theta| must
    # not drift, and the phase must advance by arctan(a) per step
    rng = np.random.default_rng(38)
    w = rng.standard_normal((2, 9))
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 9)))
    iters = 2000
    results = rcg_lockstep(_Turning(w), theta0, iters)
    for b, res in enumerate(results):
        assert res.iterations == iters and np.all(res.steps > 0.0)
        assert res.max_unit_deviation <= 1e-12
        np.testing.assert_allclose(np.abs(res.theta), 1.0, rtol=0, atol=1e-12)
        turned = np.arctan(res.steps[:, None] * w[b]).sum(axis=0)
        np.testing.assert_allclose(res.theta, theta0[b] * np.exp(1j * turned), rtol=0, atol=1e-9)


def _bfgs_inverse(pairs, gamma, n):
    """The BFGS inverse-Hessian approximation of pairs (oldest first) on real
    n-vectors, built by the explicit update from gamma I."""
    h = gamma * np.eye(n)
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        left = np.eye(n) - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
    return h


def test_two_loop_direction_matches_explicit_bfgs_inverse():
    # Euclidean case: the batched two-loop recursion over a ring of pairs is
    # the product of the explicit BFGS matrix built from the same pairs with
    # each row's gradient; a pair of weight 0 is a pair the row does not have
    rng = np.random.default_rng(37)
    rows, n, m = 4, 6, rcg.LBFGS_MEMORY
    grad = rng.standard_normal((rows, n))
    pair_s, pair_y = rng.standard_normal((m, rows, n)), rng.standard_normal((m, rows, n))
    # y = A s + noise for an SPD A keeps s.y > 0, as curvature pairs have
    a = rng.standard_normal((n, n))
    a = a @ a.T + np.eye(n)
    for j in range(m):
        for r in range(rows):
            pair_y[j, r] = a @ pair_s[j, r] + 0.01 * pair_y[j, r]
    rho = 1.0 / (pair_s * pair_y).sum(axis=2)
    assert (rho > 0.0).all()
    rho[1, 2] = rho[3, 2] = 0.0  # row 2 has no weight for those pairs
    gamma = rng.uniform(0.5, 2.0, rows)
    newest = 2  # the ring holds pairs in slots 3, 4, 0, 1, 2, oldest first
    slots = [(newest - i) % m for i in range(m)]
    got = rcg._two_loop(grad, pair_s, pair_y, rho, slots, gamma)
    for r in range(rows):
        kept = [(pair_s[j, r], pair_y[j, r]) for j in slots[::-1] if rho[j, r] != 0.0]
        assert len(kept) == (3 if r == 2 else m)
        want = _bfgs_inverse(kept, gamma[r], n) @ grad[r]
        np.testing.assert_allclose(got[r], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # the scalar reference is the same recursion, bit for bit
        ref = two_loop(grad[r], [(pair_s[j, r], pair_y[j, r], rho[j, r]) for j in slots[::-1]], gamma[r])
        np.testing.assert_array_equal(got[r], ref)


def test_retract_oracles():
    out = retract(np.array([1.0 + 0j]), 1.0, np.array([1.0]))
    np.testing.assert_allclose(out, [np.exp(1j * np.pi / 4)], rtol=1e-12)
    # unit modulus regardless of step size
    rng = np.random.default_rng(39)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    d = rng.standard_normal(5)
    for step in (1e-3, 1.0, 20.0):
        np.testing.assert_allclose(np.abs(retract(theta, step, d)), 1.0, atol=1e-14)


def test_armijo_hand_case(monkeypatch):
    # f(theta) = Im(theta_0) after retraction from theta = 1 along the angle d = 1:
    # f(s) = s / sqrt(1 + s^2). With c = 0.9 and slope 1, steps 1 and 0.5
    # fail the sufficient-increase test and 0.25 is the first accepted step.
    monkeypatch.setattr(reference, "ARMIJO_STEP", 1.0)
    monkeypatch.setattr(reference, "ARMIJO_CONTRACTION", 0.5)
    monkeypatch.setattr(reference, "ARMIJO_SLOPE", 0.9)
    theta = np.array([1.0 + 0j])
    direction = np.array([1.0])

    def objective(x):
        return float(np.imag(x[0]))

    step, new, f_new = armijo_search(theta, direction, objective, 0.0, 1.0)
    assert step == pytest.approx(0.25)
    assert f_new == pytest.approx(0.25 / np.sqrt(1.0625))
    np.testing.assert_allclose(np.abs(new), 1.0)


def test_armijo_accepts_full_step_with_small_slope_coefficient(monkeypatch):
    monkeypatch.setattr(reference, "ARMIJO_SLOPE", 1e-4)
    theta = np.array([1.0 + 0j])

    def objective(x):
        return float(np.imag(x[0]))

    step, _, _ = armijo_search(theta, np.array([1.0]), objective, 0.0, 1.0)
    assert step == pytest.approx(1.0)


def test_armijo_exhaustion_returns_zero_step(monkeypatch):
    monkeypatch.setattr(reference, "MAX_BACKTRACKS", 8)
    theta = np.array([1.0 + 0j])

    def objective(x):
        return -1.0  # any move looks worse than f0 = 0

    step, same, f = armijo_search(theta, np.array([1.0]), objective, 0.0, 1.0)
    assert step == 0.0
    assert f == 0.0
    np.testing.assert_array_equal(same, theta)


def test_armijo_starts_from_guess_and_caps_it(monkeypatch):
    # f(s) = s / sqrt(1 + s^2) along the angle d = 1 from theta = 1: a guess below the
    # largest move (1.0 here) is the first candidate, a larger one is capped
    monkeypatch.setattr(reference, "ARMIJO_SLOPE", 1e-4)
    theta = np.array([1.0 + 0j])

    def objective(x):
        return float(np.imag(x[0]))

    step, _, _ = armijo_search(theta, np.array([1.0]), objective, 0.0, 1.0, guess=0.3)
    assert step == pytest.approx(0.3)
    step, _, _ = armijo_search(theta, np.array([1.0]), objective, 0.0, 1.0, guess=5.0)
    assert step == pytest.approx(1.0)


def test_armijo_rejects_nonpositive_slope():
    with pytest.raises(ValueError, match="ascent"):
        armijo_search(np.ones(1, complex), np.ones(1), lambda x: 0.0, 0.0, 0.0)


def test_rcg_single_user_reaches_aligned_optimum():
    # K = T = 1: the objective is maximized by co-phasing every cascade
    # entry, where the amplitude becomes sum_l |c_l|
    rng = np.random.default_rng(41)
    for _ in range(5):
        h1 = _cn(rng, 6, 1)
        g1 = _cn(rng, 1, 6)
        terms = build_cascades(h1, g1, np.eye(6))
        powers = PowerAllocation(np.ones(1))
        res = optimize_phases(terms, ScenarioKind.EIF, powers, NOISE, max_iters=500)
        c = np.conj(g1[0]) * h1[:, 0]
        best = np.log1p(np.abs(c).sum() ** 2 / NOISE)
        assert best - 1e-3 <= res.objective <= best + 1e-12
        assert res.converged


def test_rcg_trace_monotone_and_on_manifold():
    rng = np.random.default_rng(43)
    for _ in range(10):
        terms, powers = _instance(rng, num_elements=6)
        res = optimize_phases(terms, ScenarioKind.EMI_IRR, powers, NOISE, max_iters=200)
        assert np.all(np.diff(res.trace) >= 0.0)
        assert res.max_unit_deviation <= 1e-12
        assert weighted_log_utility(terms, res.theta, ScenarioKind.EMI_IRR, powers, NOISE) == res.objective
        np.testing.assert_allclose(np.abs(res.theta), 1.0, atol=1e-12)
        assert res.iterations == len(res.steps)
        assert res.trace[-1] == pytest.approx(res.objective)


def _counted(monkeypatch, name, poison_from=None, value=np.nan):
    """Count the calls of UtilityStack.<name>; from call poison_from on, every
    value it returns is value. Returns the list the calls are appended to."""
    calls = []
    method = getattr(UtilityStack, name)

    def wrapped(self, *args):
        calls.append(1)
        out = method(self, *args)
        return out if poison_from is None or len(calls) < poison_from else np.full_like(out, value)

    monkeypatch.setattr(UtilityStack, name, wrapped)
    return calls


def test_rcg_line_search_mostly_accepts_its_first_step(monkeypatch):
    # the first trial step is the unit quasi-Newton step, so an iteration
    # evaluates the objective less than twice on average (a fixed first step
    # of one radian took about ten evaluations on these instances)
    rng = np.random.default_rng(44)
    calls = _counted(monkeypatch, "objective")
    for kind in ScenarioKind:
        terms, powers = _instance(rng, num_elements=16)
        calls.clear()
        res = optimize_phases(terms, kind, powers, NOISE, max_iters=60)
        assert len(calls) - 1 <= 2 * res.iterations


def test_rcg_normalizes_and_validates_theta0():
    rng = np.random.default_rng(45)
    terms, powers = _instance(rng)
    theta0 = 3.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, terms.num_elements))
    res = optimize_phases(terms, ScenarioKind.EIF, powers, NOISE, theta0=theta0, max_iters=200)
    unit = theta0 / np.abs(theta0)
    assert res.trace[0] == pytest.approx(weighted_log_utility(terms, unit, ScenarioKind.EIF, powers, NOISE))
    with pytest.raises(ValueError, match="nonzero"):
        optimize_phases(terms, ScenarioKind.EIF, powers, NOISE, theta0=np.array([1.0, 0.0, 1.0, 1.0]), max_iters=200)


def test_rcg_raises_on_non_finite_values(monkeypatch):
    # a NaN must end the run with an error naming its iteration, not a silent
    # stall of the line search or a NaN objective
    rng = np.random.default_rng(46)
    terms, powers = _instance(rng)

    def run():
        return optimize_phases(terms, ScenarioKind.EIF, powers, NOISE, max_iters=200)

    _counted(monkeypatch, "objective", poison_from=1)
    with pytest.raises(ValueError, match="objective nan at RCG iteration 0"):
        run()
    monkeypatch.undo()
    calls = _counted(monkeypatch, "objective", poison_from=2)
    with pytest.raises(ValueError, match="objective nan at RCG iteration 1"):
        run()
    assert len(calls) == 2  # the first candidate raises; nothing is backtracked
    monkeypatch.undo()
    _counted(monkeypatch, "gradient", poison_from=3, value=np.inf)
    with pytest.raises(ValueError, match="gradient at RCG iteration 3"):
        run()


@pytest.mark.parametrize("value", [-1, 2.5, True], ids=lambda value: f"max_iters-{value}")
def test_rcg_options_reject_bad_fields(value):
    # a negative or fractional cap used to fail deep in the loop
    rng = np.random.default_rng(48)
    terms, powers = _instance(rng)
    with pytest.raises(ConfigError, match="max_iters"):
        optimize_phases(terms, ScenarioKind.EIF, powers, NOISE, max_iters=value)


def test_rcg_respects_iteration_cap():
    rng = np.random.default_rng(47)
    terms, powers = _instance(rng, num_elements=8)
    res = optimize_phases(terms, ScenarioKind.EIF, powers, NOISE, max_iters=3)
    assert res.iterations <= 3


def test_optimize_phases_default_start_is_all_ones():
    rng = np.random.default_rng(51)
    terms, powers = _instance(rng)
    objective, _ = utility_pair(terms, ScenarioKind.EIF, powers, NOISE)
    res = optimize_phases(terms, ScenarioKind.EIF, powers, NOISE, max_iters=200)
    assert res.trace[0] == pytest.approx(objective(np.ones(terms.num_elements, complex)))
    assert res.objective >= res.trace[0]


def _utility_rows(rng, kinds, num_elements=6, num_users=2):
    """A row (terms, kind, powers, weights) of each kind, each on its own
    channels."""
    rows = []
    for kind in kinds:
        terms, powers = _instance(rng, num_elements=num_elements, num_users=num_users)
        rows.append((terms, kind, powers, rng.uniform(0.5, 2.0, num_users)))
    return rows


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_shared_evaluation_gradient_equals_standalone_bitwise(kind):
    # each row's gradient reuses the terms of its last objective call, also
    # when some rows were evaluated again on their own; values and gradients
    # equal the reference's weighted_log_utility and euclid_grad at each row's
    # theta, bit for bit, whatever the row's stack-mates
    rng = np.random.default_rng(55)
    kinds = list(ScenarioKind)
    rows = _utility_rows(rng, [kind] + [kinds[i] for i in rng.integers(0, 4, 4)])
    stack = UtilityStack.of(rows, NOISE)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (len(rows), 6)))
    stack.objective(theta)
    again = np.array([0, 2, 3])
    theta[again] = np.exp(1j * rng.uniform(0, 2 * np.pi, (again.size, 6)))
    values = stack.objective(theta[again], again)
    grad = stack.gradient(theta.copy())
    for b, (terms, k, powers, w) in enumerate(rows):
        np.testing.assert_array_equal(grad[b], reference.euclid_grad(terms, theta[b], k, powers, NOISE, w))
    for i, b in enumerate(again):
        terms, k, powers, w = rows[b]
        assert values[i] == reference.weighted_log_utility(terms, theta[b], k, powers, NOISE, w)
    keep = np.array([True, False, True, True, False])
    np.testing.assert_array_equal(stack.take(keep).gradient(theta[keep]), grad[keep])


@pytest.mark.parametrize("num_users", [1, 2])
def test_emi_irr_rows_sharing_an_operator_equal_their_own_stacks_bitwise(num_users):
    # the EMI_IRR rows of a draw at two EMI levels and two powers share one
    # operator product; each row's value and gradient must still be its
    # one-row stack's and the reference's, bit for bit, in full and partial
    # calls and after take, also with one user, where each row keeps its
    # own product
    rng = np.random.default_rng(59)
    base, powers = _instance(rng, num_elements=7, num_users=num_users)
    variants = [
        (replace(base, emi1_w=e, emi2_w=e), replace(powers, cluster1=p1 * powers.cluster1))
        for e in (0.05, 0.4) for p1 in (0.2, 3.0)
    ]
    variants.append((replace(base, emi1_w=0.3, emi2_w=0.1), powers))  # its own operator
    for count in range(1, 6):
        rows = [(terms, ScenarioKind.EMI_IRR, p, rng.uniform(0.5, 2.0, num_users))
                for terms, p in variants[:count]]
        stack = UtilityStack.of(rows, NOISE)
        assert len({id(row[3]) for row in stack.interference}) == (1 if count < 5 else 2)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, (count, 7)))
        stack.objective(theta)
        again = np.arange(count)[::2]
        theta[again] = np.exp(1j * rng.uniform(0, 2 * np.pi, (again.size, 7)))
        values = stack.objective(theta[again], again)
        grad = stack.gradient(theta.copy())
        for b, (terms, k, p, w) in enumerate(rows):
            alone = UtilityStack.of([rows[b]], NOISE)
            value = alone.objective(theta[b:b + 1])[0]
            assert value == reference.weighted_log_utility(terms, theta[b], k, p, NOISE, w)
            want = reference.euclid_grad(terms, theta[b], k, p, NOISE, w)
            np.testing.assert_array_equal(alone.gradient(theta[b:b + 1])[0], want)
            np.testing.assert_array_equal(grad[b], want)
            if b in again:
                assert values[list(again).index(b)] == value
        keep = np.arange(count) % 3 != 1
        sub = stack.take(keep)
        np.testing.assert_array_equal(sub.objective(theta[keep]), stack.objective(theta)[keep])
        np.testing.assert_array_equal(sub.gradient(theta[keep]), grad[keep])


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_rcg_iteration_evaluates_interference_once(kind, monkeypatch):
    # interference runs once per non-EIF row an objective call evaluates, and
    # an EMI_IRR operator is applied in one product per objective call to
    # all the rows that share it; the gradient does neither, as it reuses
    # those calls' terms
    calls, products = [], []
    interference, times_transpose = sinr.interference, sinr._times_transpose

    def counted_interference(*args):
        calls.append(args[2])
        return interference(*args)

    def counted_times_transpose(v, m):
        products.append(id(m))
        return times_transpose(v, m)

    monkeypatch.setattr(sinr, "interference", counted_interference)
    monkeypatch.setattr(sinr, "_times_transpose", counted_times_transpose)
    per_objective, per_gradient = [], []
    objective, gradient = UtilityStack.objective, UtilityStack.gradient

    def counted_objective(self, theta, rows=None):
        before, made = len(calls), len(products)
        out = objective(self, theta, rows)
        at = range(len(self.mv)) if rows is None else rows
        evaluated = [self.interference[r] for r in at] if self.interference is not None else []
        aware = sum(row is not None for row in evaluated)
        ops = {id(row[3]) for row in evaluated if row is not None and row[3] is not None}
        applied = [p for p in products[made:] if p in ops]
        per_objective.append((len(calls) - before, aware, len(applied), len(ops)))
        assert len(set(applied)) == len(applied)  # one product per operator
        return out

    def counted_gradient(self, theta):
        before, made = len(calls), len(products)
        out = gradient(self, theta)
        per_gradient.append((len(calls) - before, len(products) - made))
        return out

    monkeypatch.setattr(UtilityStack, "objective", counted_objective)
    monkeypatch.setattr(UtilityStack, "gradient", counted_gradient)
    rng = np.random.default_rng(57)
    (terms, _, powers, _), *mates = _utility_rows(rng, [kind, *ScenarioKind], num_elements=8)
    res = optimize_phases(terms, kind, powers, NOISE, max_iters=12)
    assert res.iterations == 12 and not res.stagnated
    assert per_gradient == [(0, 0)] * 12
    assert len(per_objective) >= 13  # the start point and 12 accepted candidates
    assert len(calls) == (0 if kind is ScenarioKind.EIF else len(per_objective))
    assert all(made == aware for made, aware, _, _ in per_objective)
    grouped = kind is ScenarioKind.EMI_IRR
    assert all(applied == ops == grouped for _, _, applied, ops in per_objective)
    # in a mixed stack each row pays for its own interference only, and the
    # EMI_IRR rows of one draw at two EMI levels and two powers share one product
    for log in (per_objective, per_gradient, calls):
        log.clear()
    first = next(row for row in mates if row[1] is ScenarioKind.EMI_IRR)
    for e, p1 in ((0.1, 3.0), (0.4, 0.1), (0.1, 0.1)):
        shared = replace(first[0], emi1_w=e, emi2_w=e / 2)
        mates.append((shared, ScenarioKind.EMI_IRR, replace(first[2], cluster1=np.full(2, p1)), first[3]))
    theta0 = np.ones((len(mates), 8), dtype=complex)
    rcg_lockstep(UtilityStack.of(mates, NOISE), theta0, 12)
    assert per_gradient and not any(any(log) for log in per_gradient)
    assert all(made == aware for made, aware, _, _ in per_objective)
    assert len(calls) == sum(aware for _, aware, _, _ in per_objective) > 0
    assert all(applied == ops for _, _, applied, ops in per_objective)
    assert max(ops for *_, ops in per_objective) == 1  # e2 / e1 = 1/2 on every EMI_IRR row
    assert sum(applied for _, _, applied, _ in per_objective) < calls.count(ScenarioKind.EMI_IRR)


_RESULT_FIELDS = (
    "theta", "objective", "trace", "grad_norms", "steps", "iterations", "converged",
    "stagnated", "max_unit_deviation",
)


def _assert_same_result(got, want):
    for name in _RESULT_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


@st.composite
def _stacks(draw):
    """B clusters of one shape, powers 1e-3 to 1e3 W, random starts and a budget."""
    rows = draw(st.integers(1, 6))
    antennas = draw(st.integers(1, 4))
    users = draw(st.integers(1, antennas))
    elements = draw(st.integers(users, 12))  # fewer elements than users make G singular
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = _cn(rng, rows, users, elements)
    h = _cn(rng, rows, elements, antennas)
    powers = 10.0 ** rng.uniform(-3, 3, (rows, 1)) * rng.uniform(0.5, 2.0, (rows, users))
    weights = rng.uniform(0.2, 3.0, (rows, users))
    theta0 = rng.uniform(0.5, 2.0, (rows, elements)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (rows, elements)))
    return g, h, powers, weights, theta0, draw(st.integers(0, 60))


def _single_runs(g, h, powers, weights, theta0, max_iters):
    """Each row of an interference-free UtilityStack as a run of the reference scalar loop."""
    return [
        reference.rcg_optimize(
            *utility_pair(
                build_cascades(h[b], g[b], np.eye(g.shape[2])), ScenarioKind.EIF,
                PowerAllocation(powers[b]), NOISE, weights[b],
            ),
            theta0[b],
            max_iters,
        )
        for b in range(g.shape[0])
    ]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_stacks())
def test_lockstep_rows_equal_single_runs_bitwise(stack):
    # rows stop at different iterations (an unchanged objective, a flat slope,
    # an exhausted line search, the cap), and each still reproduces its own run
    g, h, powers, weights, theta0, max_iters = stack
    results = rcg_lockstep(UtilityStack(g, h, powers, weights, NOISE), theta0, max_iters)
    for got, want in zip(results, _single_runs(g, h, powers, weights, theta0, max_iters), strict=True):
        _assert_same_result(got, want)
    # a row's result does not depend on its stack-mates or its place in the stack
    flip = slice(None, None, -1)
    flipped = rcg_lockstep(UtilityStack(g[flip], h[flip], powers[flip], weights[flip], NOISE), theta0[flip], max_iters)
    for got, want in zip(flipped[::-1], results, strict=True):
        _assert_same_result(got, want)
    alone = rcg_lockstep(UtilityStack(g[:1], h[:1], powers[:1], weights[:1], NOISE), theta0[:1], max_iters)
    _assert_same_result(alone[0], results[0])


def test_lockstep_rows_stop_at_different_iterations():
    # the property test's stops are real: rows leave the stack one by one, and
    # the rows that stay keep matching their single runs
    rng = np.random.default_rng(61)
    rows, users, elements = 6, 2, 8
    g, h = _cn(rng, rows, users, elements), _cn(rng, rows, elements, 2)
    powers = 10.0 ** rng.uniform(-3, 3, (rows, 1)) * np.ones((rows, users))
    weights = rng.uniform(0.5, 2.0, (rows, users))
    theta0 = np.ones((rows, elements), dtype=complex)
    max_iters = 200
    results = rcg_lockstep(UtilityStack(g, h, powers, weights, NOISE), theta0, max_iters)
    assert len({r.iterations for r in results}) > 1
    for got, want in zip(results, _single_runs(g, h, powers, weights, theta0, max_iters), strict=True):
        _assert_same_result(got, want)


class _Poisoned(UtilityStack):
    """An UtilityStack whose row 1 turns non-finite: its objective from call
    objective_at on, or its gradient at call gradient_at."""

    def __init__(self, *args, objective_at=None, gradient_at=None):
        super().__init__(*args)
        self.calls = {"objective": 0, "gradient": 0}
        self.at = {"objective": objective_at, "gradient": gradient_at}

    def _poison(self, name, values, rows=None):
        self.calls[name] += 1
        if self.at[name] is not None and self.calls[name] >= self.at[name]:
            where = np.arange(len(self.powers)) if rows is None else rows
            values[where == 1] = np.nan
        return values

    def objective(self, theta, rows=None):
        return self._poison("objective", super().objective(theta, rows), rows)

    def gradient(self, theta):
        return self._poison("gradient", super().gradient(theta))

    def take(self, keep):
        raise AssertionError("no row stops before the poisoned call")


def test_lockstep_raises_on_non_finite_values_in_one_row():
    rng = np.random.default_rng(62)
    rows, users, elements = 3, 2, 6
    args = (
        _cn(rng, rows, users, elements), _cn(rng, rows, elements, 2),
        np.ones((rows, users)), np.ones((rows, users)), NOISE,
    )
    theta0 = np.ones((rows, elements), dtype=complex)
    max_iters = 20
    with pytest.raises(ValueError, match="objective nan at RCG iteration 0"):
        rcg_lockstep(_Poisoned(*args, objective_at=1), theta0, max_iters)
    with pytest.raises(ValueError, match="objective nan at RCG iteration 1"):
        rcg_lockstep(_Poisoned(*args, objective_at=2), theta0, max_iters)
    with pytest.raises(ValueError, match="non-finite gradient at RCG iteration 3"):
        rcg_lockstep(_Poisoned(*args, gradient_at=3), theta0, max_iters)
    # a NaN channel in one row is caught at the start point, as in a single run
    g = args[0].copy()
    g[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="objective nan at RCG iteration 0"):
        rcg_lockstep(UtilityStack(g, *args[1:]), theta0, max_iters)
    zero = theta0.copy()
    zero[1, 3] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        rcg_lockstep(UtilityStack(*args), zero, max_iters)


class _LinearRows:
    """Row r maximizes Re<a_r, theta>, and is handed sign_r * a_r as its
    Euclidean gradient: a sign of -1 points every line search downhill."""

    def __init__(self, a, sign):
        self.a, self.sign = a, sign

    def objective(self, theta, rows=None):
        at = slice(None) if rows is None else rows
        return (np.conj(self.a[at])[:, None, :] @ theta[:, :, None])[:, 0, 0].real

    def gradient(self, theta):
        return self.sign[:, None] * self.a

    def take(self, keep):
        return _LinearRows(self.a[keep], self.sign[keep])


def test_lockstep_exhausted_line_search_stops_only_its_row():
    # a row whose every Armijo candidate fails stagnates without converging,
    # as in a single run, and its stack-mates go on to the cap
    rng = np.random.default_rng(63)
    a = _cn(rng, 3, 5)
    sign = np.array([1.0, -1.0, 1.0])
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 5)))
    max_iters = 15
    results = rcg_lockstep(_LinearRows(a, sign), theta0, max_iters)
    for r, got in enumerate(results):
        want = reference.rcg_optimize(
            lambda theta, r=r: np.vdot(a[r], theta).real,
            lambda theta, r=r: sign[r] * a[r],
            theta0[r],
            max_iters,
        )
        _assert_same_result(got, want)
    assert (results[1].stagnated, results[1].converged, results[1].iterations) == (True, False, 1)
    assert results[1].steps.tolist() == [0.0]
    assert results[0].iterations == results[2].iterations == 15


class _ScaledLinearRows(_LinearRows):
    """_LinearRows whose row r is handed scale[r, k] * a_r as its Euclidean
    gradient at the k-th gradient call: the direction is right, the
    curvature pairs are not."""

    def __init__(self, a, scale):
        super().__init__(a, np.ones(len(a)))
        self.scale, self.calls = scale, 0

    def gradient(self, theta):
        self.calls += 1
        return self.scale[:, self.calls - 1, None] * self.a

    def take(self, keep):
        raise AssertionError("every row runs to the cap")


def test_unweighted_pairs_and_restarts_change_only_their_row(monkeypatch):
    # row 1's gradient grows eightfold at every other call, so from its
    # third pair on every other pair has s.y <= 0 and no weight; row 2's direction is turned
    # downhill once, so it restarts and clears its pairs. Row 0 keeps the
    # weights and the result it has alone
    rng = np.random.default_rng(65)
    iters = 10
    a = _cn(rng, 3, 5)
    theta0 = np.exp(1j * (np.angle(a) + rng.uniform(-0.5, 0.5, (3, 5))))  # where the objective is concave
    scale = np.ones((3, iters))
    scale[1, 1::2] = 8.0
    two_loop_rows = rcg._two_loop

    def run(rows, flip_row=None):
        seen = []

        def spy(g, pair_s, pair_y, rho, slots, gamma):
            seen.append(rho.copy())
            r = two_loop_rows(g, pair_s, pair_y, rho, slots, gamma)
            if len(seen) == 6 and flip_row is not None:
                r[flip_row] = -r[flip_row]
            return r

        monkeypatch.setattr(rcg, "_two_loop", spy)
        results = rcg_lockstep(_ScaledLinearRows(a[rows], scale[rows]), theta0[rows], iters)
        assert all(res.iterations == iters for res in results)
        return results, seen

    results, seen = run([0, 1, 2], flip_row=2)
    alone, alone_seen = run([0])
    _assert_same_result(results[0], alone[0])
    for k, (rho, rho_alone) in enumerate(zip(seen, alone_seen, strict=True)):
        np.testing.assert_array_equal(rho[:, 0], rho_alone[:, 0])
        assert (rho[:, 0] > 0.0).sum() == min(k, rcg.LBFGS_MEMORY)  # every pair of row 0 has weight
    m = rcg.LBFGS_MEMORY
    newest = [(k - 1) % m for k in range(len(seen))]  # the slot call k's pair went to
    assert not any(seen[k][newest[k], 1] for k in range(3, len(seen), 2))  # after each eightfold jump
    assert all(seen[k][newest[k], 1] for k in range(2, len(seen), 2))
    # the restart at call 6 left row 2 only the pair stored after it
    assert seen[5][:, 2].all() and np.flatnonzero(seen[6][:, 2]).tolist() == [newest[6]]
    _assert_same_result(results[1], run([1])[0][0])


@st.composite
def _utility_stacks(draw):
    """Rows of all four utilities, each on its own channels, over one element
    and user count, with random starts and a budget. An EMI_IRR row may take
    the terms and powers of the first EMI_IRR row instead, and so share its
    operator and its product in the stack."""
    elements = draw(st.integers(2, 10))
    users = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, first = [], None
    for kind in draw(st.lists(st.sampled_from(list(ScenarioKind)), min_size=1, max_size=5)):
        (terms, _, powers, weights), = _utility_rows(rng, [kind], num_elements=elements, num_users=users)
        if kind is ScenarioKind.EMI_IRR:
            if first is None:
                first = terms, powers
            elif draw(st.booleans()):
                terms, powers = first
        rows.append((terms, kind, powers, weights))
    shape = (len(rows), elements)
    theta0 = rng.uniform(0.5, 2.0, shape) * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    return rows, theta0, draw(st.integers(0, 60))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_utility_stacks())
def test_utility_stack_rows_equal_the_reference_bitwise(stack):
    # the aware runs of a draw are stacked like this: each row is its own
    # scalar run, whatever its kind, its channels, its stack-mates or its place
    rows, theta0, max_iters = stack
    results = rcg_lockstep(UtilityStack.of(rows, NOISE), theta0, max_iters)
    for b, got in enumerate(results):
        pair = utility_pair(*rows[b][:3], NOISE, rows[b][3])
        _assert_same_result(got, reference.rcg_optimize(*pair, theta0[b], max_iters))
    flipped = rcg_lockstep(UtilityStack.of(rows[::-1], NOISE), theta0[::-1], max_iters)
    for got, want in zip(flipped[::-1], results, strict=True):
        _assert_same_result(got, want)
    alone = rcg_lockstep(UtilityStack.of(rows[-1:], NOISE), theta0[-1:], max_iters)
    _assert_same_result(alone[0], results[-1])
