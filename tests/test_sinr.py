"""Cascade algebra, scenario SINRs, and reduction identities."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risim import (
    CascadeTerms,
    PowerAllocation,
    ScenarioKind,
    build_cascades,
    euclid_grad,
    outage_indicator,
    phase_objective,
    ris_element_positions,
    scenario_sinr,
    effective_channel,
    spatial_correlation,
    weighted_log_utility,
    zf_precoder,
)
from risim.sinr import (
    emi_irr_covariance,
    interference,
    neighbor_parts,
    parts_sinr,
    phase_point,
    user_parts,
)

NOISE = 1e-3


def _cn(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _unit_diag_psd(rng, n):
    """Random Hermitian PSD matrix with ones on the diagonal."""
    a = _cn(rng, n, n + 2)
    m = a @ a.conj().T + 1e-3 * np.eye(n)
    d = np.sqrt(np.real(np.diag(m)))
    return m / np.outer(d, d)


def _instance(rng, num_elements=6, num_users=2, num_antennas=2, neighbor=True,
              emi1_w=0.7, emi2_w=0.3, factor=4.0):
    h1 = _cn(rng, num_elements, num_antennas)
    g1 = _cn(rng, num_users, num_elements)
    r1 = _unit_diag_psd(rng, num_elements)
    kwargs = dict(emi1_w=emi1_w, emi_self_factor=factor)
    if neighbor:
        ne = 5  # neighbor RIS element count
        kwargs.update(
            theta2=np.exp(1j * rng.uniform(0, 2 * np.pi, ne)),
            u2=_cn(rng, num_antennas, num_users),
            h2=_cn(rng, ne, num_antennas),
            z21=_cn(rng, ne, num_elements),
            r2=_unit_diag_psd(rng, ne),
            emi2_w=emi2_w,
        )
    terms = build_cascades(h1, g1, r1, **kwargs)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, num_elements))
    powers = PowerAllocation(
        cluster1=rng.uniform(0.5, 2.0, num_users),
        cluster2=rng.uniform(0.5, 2.0, num_users),
    )
    return terms, theta, powers, kwargs


def _direct_den(terms, theta, kind, powers, kwargs, h1, g1, r1):
    """Evaluate signal and interference from the raw matrices, no cascades.

    Cluster 1 is zero-forced at theta, and the intra-cluster leakage of that
    precoder is summed like any other interference.
    """
    u1 = zf_precoder(effective_channel(g1, theta, h1))
    phase1 = np.diag(np.conj(theta))
    num_users = g1.shape[0]
    p1 = np.asarray(powers.cluster1, float)
    sig = np.zeros(num_users)
    den = np.full(num_users, NOISE)
    for k in range(num_users):
        row = np.conj(g1[k]) @ phase1 @ h1  # effective channel row of user k
        amps = row @ u1
        sig[k] = p1[k] * abs(amps[k]) ** 2
        den[k] += sum(p1[i] * abs(amps[i]) ** 2 for i in range(num_users) if i != k)
        if kind.has_irr:
            phase2 = np.diag(np.conj(kwargs["theta2"]))
            p2 = np.asarray(powers.cluster2, float)
            for j in range(p2.size):
                leak = (
                    np.conj(g1[k])
                    @ phase1
                    @ np.conj(kwargs["z21"]).T
                    @ phase2
                    @ kwargs["h2"]
                    @ kwargs["u2"][:, j]
                )
                den[k] += p2[j] * abs(leak) ** 2
        if kind is ScenarioKind.EMI:
            v = g1[k] * theta
            den[k] += terms.emi1_w * np.real(np.conj(v) @ r1 @ v)
        elif kind is ScenarioKind.EMI_IRR:
            v = g1[k] * theta
            den[k] += terms.emi_self_factor * terms.emi1_w * np.real(np.conj(v) @ r1 @ v)
            w2 = kwargs["theta2"][:, None] * kwargs["z21"]
            q = np.conj(w2).T @ kwargs["r2"] @ w2
            den[k] += terms.emi2_w * np.real(np.conj(v) @ q @ v)
    return sig, den


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_cascades_match_direct_evaluation(kind):
    rng = np.random.default_rng(42)
    for _ in range(100):
        h1 = _cn(rng, 6, 2)
        g1 = _cn(rng, 2, 6)
        r1 = _unit_diag_psd(rng, 6)
        ne = 5
        kwargs = dict(
            theta2=np.exp(1j * rng.uniform(0, 2 * np.pi, ne)),
            u2=_cn(rng, 2, 2),
            h2=_cn(rng, ne, 2),
            z21=_cn(rng, ne, 6),
            r2=_unit_diag_psd(rng, ne),
            emi2_w=0.3,
        )
        terms = build_cascades(h1, g1, r1, emi1_w=0.7, emi_self_factor=4.0, **kwargs)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        powers = PowerAllocation(rng.uniform(0.5, 2, 2), rng.uniform(0.5, 2, 2))
        point = phase_point(terms, theta, kind, powers, NOISE)
        sig, den = point.sig, point.den
        dsig, dden = _direct_den(terms, theta, kind, powers, kwargs, h1, g1, r1)
        np.testing.assert_allclose(sig, dsig, rtol=1e-10)
        np.testing.assert_allclose(den, dden, rtol=1e-10)


def test_reduction_identities():
    rng = np.random.default_rng(7)
    for _ in range(100):
        terms, theta, powers, _ = _instance(rng)
        base = dict(theta=theta, powers=powers, noise_power_w=NOISE)
        eif = scenario_sinr(terms, kind=ScenarioKind.EIF, **base)

        no_emi = CascadeTerms(
            h1=terms.h1, g1=terms.g1, r1=terms.r1, emi1_w=0.0, emi2_w=0.0,
            emi_self_factor=terms.emi_self_factor, s=terms.s, w21=terms.w21, r2=terms.r2,
        )
        np.testing.assert_allclose(
            scenario_sinr(no_emi, kind=ScenarioKind.EMI, **base).sinr, eif.sinr, rtol=1e-12
        )

        no_irr = CascadeTerms(
            h1=terms.h1, g1=terms.g1, r1=terms.r1, emi1_w=terms.emi1_w, emi2_w=0.0,
            emi_self_factor=terms.emi_self_factor,
            s=np.zeros_like(terms.s), w21=np.zeros_like(terms.w21), r2=terms.r2,
        )
        np.testing.assert_allclose(
            scenario_sinr(no_irr, kind=ScenarioKind.IRR, **base).sinr, eif.sinr, rtol=1e-12
        )

        neither = CascadeTerms(
            h1=terms.h1, g1=terms.g1, r1=terms.r1, emi1_w=0.0, emi2_w=0.0,
            emi_self_factor=terms.emi_self_factor,
            s=np.zeros_like(terms.s), w21=np.zeros_like(terms.w21), r2=terms.r2,
        )
        np.testing.assert_allclose(
            scenario_sinr(neither, kind=ScenarioKind.EMI_IRR, **base).sinr, eif.sinr, rtol=1e-12
        )


def test_interference_only_hurts():
    rng = np.random.default_rng(21)
    for _ in range(20):
        terms, theta, powers, _ = _instance(rng)
        base = dict(theta=theta, powers=powers, noise_power_w=NOISE)
        sinr = {kind: scenario_sinr(terms, kind=kind, **base).sinr for kind in ScenarioKind}
        eif = sinr[ScenarioKind.EIF]
        assert np.all(sinr[ScenarioKind.EMI] <= eif + 1e-15)
        assert np.all(sinr[ScenarioKind.IRR] <= eif + 1e-15)
        assert np.all(sinr[ScenarioKind.EMI_IRR] <= eif + 1e-15)
        # the combined scenario never beats either single impairment
        assert np.all(sinr[ScenarioKind.EMI_IRR] <= sinr[ScenarioKind.IRR] + 1e-15)


def test_self_factor_scales_emi_in_combined_scenario():
    # with no re-reflected EMI and a zero neighbor cascade, the EMI share of
    # the combined denominator is the serving-RIS EMI scaled by the self factor
    for factor in (4.0, 1.0):
        terms, theta, powers, _ = _instance(np.random.default_rng(3), factor=factor, emi2_w=0.0)
        terms = replace(terms, s=np.zeros_like(terms.s))
        den = {
            kind: phase_point(terms, theta, kind, powers, NOISE).den
            for kind in ScenarioKind
        }
        emi = den[ScenarioKind.EMI] - den[ScenarioKind.EIF]
        combined = den[ScenarioKind.EMI_IRR] - den[ScenarioKind.EIF]
        assert np.all(emi > 0.0)
        np.testing.assert_allclose(combined, factor * emi, rtol=1e-12)


def test_scalar_oracle_single_user_single_element():
    # one element, one user, one antenna: everything is scalar and closed-form
    h1 = np.array([[2.0 + 0j]])
    g1 = np.array([[0.5 + 0j]])
    r1 = np.eye(1)
    terms = build_cascades(h1, g1, r1, emi1_w=0.25)
    theta = np.array([1.0 + 0j])
    powers = PowerAllocation(np.array([1.0]))
    eif = scenario_sinr(terms, theta, ScenarioKind.EIF, powers, noise_power_w=1.0)
    # ZF with one user and one antenna: |conj(g) h|^2 = 1, noise 1 -> SINR 1, rate 1 bit
    assert eif.sinr[0] == pytest.approx(1.0)
    assert eif.rates_bps_hz[0] == pytest.approx(1.0)
    assert eif.sum_rate_bps_hz == pytest.approx(1.0)
    emi = scenario_sinr(terms, theta, ScenarioKind.EMI, powers, noise_power_w=1.0)
    # EMI adds 0.25 * |g|^2 = 0.0625 to the denominator
    assert emi.sinr[0] == pytest.approx(1.0 / 1.0625)


def test_phase_rotation_changes_nothing_with_one_element():
    # with L = 1 the common phase cancels in signal and interference; one
    # element gives a rank-one effective channel, so ZF serves one user
    rng = np.random.default_rng(11)
    h1 = _cn(rng, 1, 2)
    g1 = _cn(rng, 1, 1)
    terms = build_cascades(h1, g1, np.eye(1), emi1_w=0.1)
    powers = PowerAllocation(np.ones(1))
    base = scenario_sinr(terms, np.array([1.0 + 0j]), ScenarioKind.EMI, powers, NOISE).sinr
    for ang in (0.3, 1.2, -2.0):
        theta = np.array([np.exp(1j * ang)])
        rot = scenario_sinr(terms, theta, ScenarioKind.EMI, powers, NOISE).sinr
        np.testing.assert_allclose(rot, base, rtol=1e-12)


def test_irr_requires_neighbor_terms():
    rng = np.random.default_rng(5)
    terms, theta, powers, _ = _instance(rng, neighbor=False)
    with pytest.raises(ValueError, match="neighbor"):
        scenario_sinr(terms, theta, ScenarioKind.IRR, powers, NOISE)
    with pytest.raises(ValueError, match="neighbor"):
        scenario_sinr(terms, theta, ScenarioKind.EMI_IRR, powers, NOISE)
    # EIF and EMI still work without neighbor data
    scenario_sinr(terms, theta, ScenarioKind.EIF, powers, NOISE)
    scenario_sinr(terms, theta, ScenarioKind.EMI, powers, NOISE)


def test_irr_requires_cluster2_powers():
    rng = np.random.default_rng(6)
    terms, theta, _, _ = _instance(rng)
    powers = PowerAllocation(cluster1=np.ones(2), cluster2=None)
    with pytest.raises(ValueError, match="cluster-2"):
        scenario_sinr(terms, theta, ScenarioKind.IRR, powers, NOISE)


def test_build_cascades_validates_shapes():
    rng = np.random.default_rng(9)
    h1 = _cn(rng, 4, 2)
    g1 = _cn(rng, 2, 4)
    with pytest.raises(ValueError, match="element count"):
        build_cascades(h1, _cn(rng, 2, 5), np.eye(4))
    with pytest.raises(ValueError, match="more users than antennas"):
        build_cascades(_cn(rng, 4, 1), g1, np.eye(4))
    with pytest.raises(ValueError, match="r1"):
        build_cascades(h1, g1, np.eye(5))
    with pytest.raises(ValueError, match="together"):
        build_cascades(h1, g1, np.eye(4), theta2=np.ones(3))


def test_scenario_sinr_dispatch():
    rng = np.random.default_rng(13)
    terms, theta, powers, _ = _instance(rng)
    for kind in ScenarioKind:
        via_dispatch = scenario_sinr(terms, theta, kind, powers, NOISE)
        assert via_dispatch.scenario is kind
        direct = scenario_sinr(terms, theta, kind.value, powers, NOISE)
        np.testing.assert_array_equal(via_dispatch.sinr, direct.sinr)


def test_report_fields_consistent():
    rng = np.random.default_rng(17)
    terms, theta, powers, _ = _instance(rng)
    weights = np.array([2.0, 0.5])
    rep = scenario_sinr(terms, theta, ScenarioKind.EMI, powers, NOISE, weights=weights)
    np.testing.assert_allclose(rep.rates_bps_hz, np.log2(1 + rep.sinr))
    assert rep.sum_rate_bps_hz == pytest.approx(float(weights @ rep.rates_bps_hz))


def test_outage_indicator_strict():
    rates = np.array([0.05, 0.1, 0.2])
    np.testing.assert_array_equal(outage_indicator(rates, 0.1), [1, 0, 0])


def test_weighted_log_utility_matches_report():
    rng = np.random.default_rng(19)
    terms, theta, powers, _ = _instance(rng)
    for kind in ScenarioKind:
        util = weighted_log_utility(terms, theta, kind, powers, NOISE)
        rep = scenario_sinr(terms, theta, kind, powers, NOISE)
        assert util == pytest.approx(float(np.log1p(rep.sinr).sum()), rel=1e-12)
    w = np.array([3.0, 1.0])
    util_w = weighted_log_utility(terms, theta, ScenarioKind.EIF, powers, NOISE, weights=w)
    rep = scenario_sinr(terms, theta, ScenarioKind.EIF, powers, NOISE)
    assert util_w == pytest.approx(float(w @ np.log1p(rep.sinr)), rel=1e-12)


def test_emi_irr_gradient_requires_neighbor():
    rng = np.random.default_rng(23)
    terms, theta, powers, _ = _instance(rng, neighbor=False)
    with pytest.raises(ValueError, match="neighbor"):
        euclid_grad(terms, theta, ScenarioKind.EMI_IRR, powers, NOISE)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_emi_algebra_on_rank_deficient_sinc_correlation(kind):
    # production correlations are real sinc matrices over lambda/4 grids; from
    # 8 x 8 elements on they are numerically rank deficient
    rng = np.random.default_rng(29)
    wavelength = 1.0
    area = (wavelength / 4.0) ** 2
    r1 = spatial_correlation(ris_element_positions(10, area), wavelength).matrix
    r2 = spatial_correlation(ris_element_positions(8, area), wavelength).matrix
    for r in (r1, r2):
        assert np.isrealobj(r) and np.linalg.matrix_rank(r, tol=1e-10) < r.shape[0]
    n1, n2 = r1.shape[0], r2.shape[0]
    for _ in range(3):
        h1, g1 = _cn(rng, n1, 2), _cn(rng, 2, n1)
        kwargs = dict(
            theta2=np.exp(1j * rng.uniform(0, 2 * np.pi, n2)),
            u2=_cn(rng, 2, 2),
            h2=_cn(rng, n2, 2),
            z21=_cn(rng, n2, n1),
            r2=r2,
            emi2_w=0.3,
        )
        terms = build_cascades(h1, g1, r1, emi1_w=0.7, emi_self_factor=4.0, **kwargs)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, n1))
        powers = PowerAllocation(rng.uniform(0.5, 2, 2), rng.uniform(0.5, 2, 2))
        point = phase_point(terms, theta, kind, powers, NOISE)
        sig, den = point.sig, point.den
        dsig, dden = _direct_den(terms, theta, kind, powers, kwargs, h1, g1, r1)
        np.testing.assert_allclose(sig, dsig, rtol=1e-10)
        np.testing.assert_allclose(den, dden, rtol=1e-10)

        objective, _ = phase_objective(terms, kind, powers, NOISE)
        egrad = euclid_grad(terms, theta, kind, powers, NOISE)
        analytic = np.real(np.conj(egrad) * 1j * theta)
        h = 1e-6
        numeric = np.array([
            (objective(theta * np.exp(1j * h * unit)) - objective(theta * np.exp(-1j * h * unit)))
            / (2 * h)
            for unit in np.eye(n1)
        ])
        np.testing.assert_allclose(
            analytic, numeric, atol=1e-6 * np.abs(numeric).max(), rtol=1e-5
        )


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_common_phase_leaves_utility_unchanged_and_rotates_gradient(kind):
    # theta and exp(j phi) theta give the same effective Gram matrix and the
    # same quadratic forms, so the utility cannot tell them apart and its
    # gradient turns with theta
    rng = np.random.default_rng(53)
    for _ in range(10):
        terms, theta, powers, _ = _instance(rng)
        util = weighted_log_utility(terms, theta, kind, powers, NOISE)
        egrad = euclid_grad(terms, theta, kind, powers, NOISE)
        for phi in (0.4, 2.5, -1.7):
            rot = np.exp(1j * phi)
            assert weighted_log_utility(terms, rot * theta, kind, powers, NOISE) == pytest.approx(
                util, rel=1e-12
            )
            np.testing.assert_allclose(
                euclid_grad(terms, rot * theta, kind, powers, NOISE), rot * egrad,
                rtol=1e-12, atol=1e-12 * np.abs(egrad).max(),
            )


@st.composite
def _unequal_clusters(draw):
    """Cluster sizes with K1 <= T1, K2 <= T2 and N1 >= K1; the axes may differ."""
    t1, t2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k1, k2 = draw(st.integers(1, t1)), draw(st.integers(1, t2))
    n1, n2 = draw(st.integers(k1, 9)), draw(st.integers(1, 7))
    return t1, t2, k1, k2, n1, n2, draw(st.integers(0, 2**32 - 1))


def _sized_instance(sizes):
    """A random instance with the cluster sizes of _unequal_clusters and its rng."""
    t1, t2, k1, k2, n1, n2, seed = sizes
    rng = np.random.default_rng(seed)
    h1, g1, r1 = _cn(rng, n1, t1), _cn(rng, k1, n1), _unit_diag_psd(rng, n1)
    kwargs = dict(
        theta2=np.exp(1j * rng.uniform(0, 2 * np.pi, n2)),
        u2=_cn(rng, t2, k2),
        h2=_cn(rng, n2, t2),
        z21=_cn(rng, n2, n1),
        r2=_unit_diag_psd(rng, n2),
        emi2_w=0.3,
    )
    terms = build_cascades(h1, g1, r1, emi1_w=0.7, emi_self_factor=4.0, **kwargs)
    powers = PowerAllocation(rng.uniform(0.5, 2, k1), rng.uniform(0.5, 2, k2))
    return terms, powers, kwargs, rng


def _random_theta(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, n))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_unequal_clusters())
def test_unequal_cluster_sizes_match_direct_evaluation(sizes):
    # K1, K2, N1 and N2 all differ in general, so a mix-up between the user
    # axes of the two clusters (or the element axes of the two surfaces)
    # cannot cancel out the way it could with K1 = K2
    terms, powers, kwargs, rng = _sized_instance(sizes)
    h1, g1, r1 = terms.h1, terms.g1, terms.r1
    n1 = terms.num_elements
    theta = _random_theta(rng, n1)
    for kind in ScenarioKind:
        point = phase_point(terms, theta, kind, powers, NOISE)
        sig, den = point.sig, point.den
        dsig, dden = _direct_den(terms, theta, kind, powers, kwargs, h1, g1, r1)
        np.testing.assert_allclose(sig, dsig, rtol=1e-10)
        np.testing.assert_allclose(den, dden, rtol=1e-10)

        objective, _ = phase_objective(terms, kind, powers, NOISE)
        egrad = euclid_grad(terms, theta, kind, powers, NOISE)
        analytic = np.real(np.conj(egrad) * 1j * theta)
        h = 1e-6
        numeric = np.array([
            (objective(theta * np.exp(1j * h * unit)) - objective(theta * np.exp(-1j * h * unit)))
            / (2 * h)
            for unit in np.eye(n1)
        ])
        # the floor covers the roundoff of the differences (about 1e-10 |f|)
        # where the gradient vanishes, as it does with one element
        floor = 1e-8 * abs(objective(theta))
        np.testing.assert_allclose(
            analytic, numeric, atol=1e-6 * np.abs(numeric).max() + floor, rtol=1e-5
        )


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_unequal_clusters())
def test_dense_covariance_matches_factored_interference(sizes):
    # an optimizer applies the prebuilt EMI_IRR covariance as one product;
    # everything else applies it through its factors, and both must agree
    terms, powers, _, rng = _sized_instance(sizes)
    dense = replace(terms, cov=emi_irr_covariance(terms, powers))
    scale = np.abs(dense.cov).max()
    np.testing.assert_allclose(dense.cov, np.conj(dense.cov).T, rtol=0, atol=1e-14 * scale)
    for _ in range(3):
        theta = _random_theta(rng, terms.num_elements)
        den, mv = interference(terms, theta, ScenarioKind.EMI_IRR, powers, NOISE)
        dense_den, dense_mv = interference(dense, theta, ScenarioKind.EMI_IRR, powers, NOISE)
        np.testing.assert_allclose(dense_den, den, rtol=1e-12)
        np.testing.assert_allclose(dense_mv, mv, rtol=0, atol=1e-12 * np.abs(mv).max())
        for kind in (ScenarioKind.EMI, ScenarioKind.IRR):  # C belongs to EMI_IRR only
            for got, want in zip(interference(dense, theta, kind, powers, NOISE),
                                 interference(terms, theta, kind, powers, NOISE)):
                np.testing.assert_array_equal(got, want)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_unequal_clusters())
def test_interference_never_lowers_den_below_noise(sizes):
    terms, powers, _, rng = _sized_instance(sizes)
    dense = replace(terms, cov=emi_irr_covariance(terms, powers))
    for _ in range(3):
        theta = _random_theta(rng, terms.num_elements)
        for kind in ScenarioKind:
            for t in (terms, dense):
                den, _ = interference(t, theta, kind, powers, NOISE)
                assert np.all(den >= NOISE)
                assert np.all(phase_point(t, theta, kind, powers, NOISE).den >= NOISE)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_unequal_clusters())
def test_zero_emi_and_silent_neighbor_reduce_to_eif(sizes):
    # EMI -> 0 turns EMI into EIF and EMI_IRR into IRR; IRR -> 0 (cluster 2
    # silent) turns IRR into EIF; with both, every scenario is EIF
    terms, powers, _, rng = _sized_instance(sizes)
    theta = _random_theta(rng, terms.num_elements)
    no_emi = replace(terms, emi1_w=0.0, emi2_w=0.0)
    silent = PowerAllocation(powers.cluster1, np.zeros_like(powers.cluster2))

    def sinr(t, kind, p):
        return scenario_sinr(t, theta, kind, p, NOISE).sinr

    eif = sinr(terms, ScenarioKind.EIF, powers)
    np.testing.assert_allclose(sinr(no_emi, ScenarioKind.EMI, powers), eif, rtol=1e-12)
    np.testing.assert_allclose(
        sinr(no_emi, ScenarioKind.EMI_IRR, powers), sinr(terms, ScenarioKind.IRR, powers),
        rtol=1e-12,
    )
    np.testing.assert_allclose(sinr(terms, ScenarioKind.IRR, silent), eif, rtol=1e-12)
    for kind in ScenarioKind:
        np.testing.assert_allclose(sinr(no_emi, kind, silent), eif, rtol=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    _unequal_clusters(),
    st.sampled_from([1.0, 2.5, 4.0]),
    st.floats(-4.0, 1.0),
    st.floats(-4.0, 1.0),
    st.floats(-3.0, 3.0),
)
def test_parts_mix_matches_phase_point(sizes, factor, log_e1, log_e2, log_p):
    # every case, power and EMI level at one theta is mixed from the same
    # per-user parts; the mix must be the reference phase_point evaluation
    terms, powers, _, rng = _sized_instance(sizes)
    terms = replace(terms, emi1_w=10.0**log_e1, emi2_w=10.0**log_e2, emi_self_factor=factor)
    scale = 10.0**log_p
    powers = PowerAllocation(scale * powers.cluster1, scale * powers.cluster2)
    theta = _random_theta(rng, terms.num_elements)
    parts = neighbor_parts(user_parts(terms, theta), terms, theta)
    for kind in ScenarioKind:
        point = phase_point(terms, theta, kind, powers, NOISE)
        sig = powers.cluster1 / parts.c
        np.testing.assert_allclose(sig, point.sig, rtol=1e-12)
        # at an equal sig, an equal SINR is an equal den
        report = parts_sinr(parts, terms, kind, powers, NOISE)
        np.testing.assert_allclose(sig / report.sinr, point.den, rtol=1e-12)
        reference = scenario_sinr(terms, theta, kind, powers, NOISE)
        np.testing.assert_allclose(report.rates_bps_hz, reference.rates_bps_hz, rtol=1e-12)
