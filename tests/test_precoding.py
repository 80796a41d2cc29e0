"""Effective channel rows and zero-forcing precoding."""

import numpy as np
import pytest

from risim import (
    PowerAllocation,
    ZfDegenerateError,
    build_cascades,
    effective_channel,
    zf_precoder,
)
from risim.precoding import COND_LIMIT, check_zf_gram
from risim.sinr import ScenarioKind, phase_point


def _cn(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_effective_channel_row_formula():
    rng = np.random.default_rng(0)
    g = _cn(rng, 3, 5)
    h = _cn(rng, 5, 4)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    h_eff = effective_channel(g, theta, h)
    assert h_eff.shape == (3, 4)
    for k in range(3):
        row = np.conj(theta) * np.conj(g[k]) @ h
        np.testing.assert_allclose(h_eff[k], row, rtol=1e-12)


def test_effective_channel_consistent_with_cascades():
    # the closed-form signal p_k / [G^-1]_kk must equal p_k |(H_eff u)_kk|^2
    # for the ZF precoder u: the precoder and the SINR must see the same map
    rng = np.random.default_rng(1)
    h = _cn(rng, 6, 2)
    g = _cn(rng, 2, 6)
    powers = np.array([0.7, 1.9])
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    terms = build_cascades(h, g, np.eye(6))
    sig = phase_point(terms, theta, ScenarioKind.EIF, PowerAllocation(powers), 1e-3).sig
    h_eff = effective_channel(g, theta, h)
    amps = np.diagonal(h_eff @ zf_precoder(h_eff))
    np.testing.assert_allclose(sig, powers * np.abs(amps) ** 2, rtol=1e-12)


def test_zf_nulls_intra_cluster_interference():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = _cn(rng, 8, 3)
        g = _cn(rng, 3, 8)
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        h_eff = effective_channel(g, theta, h)
        prod = h_eff @ zf_precoder(h_eff)
        off = prod - np.diag(np.diag(prod))
        assert np.abs(off).max() < 1e-9 * max(1.0, np.abs(np.diag(prod)).max())


def test_zf_columns_unit_norm():
    rng = np.random.default_rng(3)
    h_eff = _cn(rng, 2, 4)
    u = zf_precoder(h_eff)
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, rtol=1e-12)


def test_zf_single_user_is_matched_filter():
    rng = np.random.default_rng(4)
    h_eff = _cn(rng, 1, 3)
    u = zf_precoder(h_eff)
    expected = np.conj(h_eff[0]) / np.linalg.norm(h_eff[0])
    np.testing.assert_allclose(u[:, 0], expected, rtol=1e-12)


def test_zf_interference_term_vanishes_in_sinr():
    rng = np.random.default_rng(5)
    h = _cn(rng, 6, 2)
    g = _cn(rng, 2, 6)
    theta = np.ones(6, dtype=complex)
    h_eff = effective_channel(g, theta, h)
    prod = h_eff @ zf_precoder(h_eff)
    terms = build_cascades(h, g, np.eye(6))
    noise = 1e-6
    point = phase_point(terms, theta, ScenarioKind.EIF, PowerAllocation(np.ones(2)), noise)
    sig, den = point.sig, point.den
    # the leakage the closed form leaves out is roundoff, far below the noise,
    # so the interference-free denominator is the noise floor
    leak = (np.abs(prod) ** 2).sum(axis=1) - np.abs(np.diagonal(prod)) ** 2
    assert np.all(leak <= 1e-12 * noise)
    np.testing.assert_allclose(den, noise, rtol=1e-15)
    assert np.all(sig > 0)


def test_zf_rejects_more_users_than_antennas():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="more users than antennas"):
        zf_precoder(_cn(rng, 3, 2))


def test_zf_degenerate_raises():
    row = np.array([1.0 + 0.5j, -0.3 + 0.2j, 0.8 - 1.0j])
    h_eff = np.stack([row, row])  # identical users: Gram is singular
    with pytest.raises(ZfDegenerateError, match="degenerate"):
        zf_precoder(h_eff)
    nearly = np.stack([row, row + 1e-14 * np.array([1, 0, 0])])
    with pytest.raises(ZfDegenerateError):
        zf_precoder(nearly)


def test_zf_condition_limit_configurable():
    rng = np.random.default_rng(7)
    h_eff = _cn(rng, 2, 3)
    with pytest.raises(ZfDegenerateError):
        zf_precoder(h_eff, cond_limit=1.0 - 1e-9)
    zf_precoder(h_eff, cond_limit=1e12)


def _gram_with_condition(rng, k, cond, scale):
    """A random Hermitian K x K Gram matrix with eigenvalues from scale down to scale / cond."""
    q, _ = np.linalg.qr(_cn(rng, k, k))
    return (q * (scale * np.geomspace(1.0, 1.0 / cond, k))) @ np.conj(q).T


def _rejects(gram):
    try:
        check_zf_gram(gram)
    except ZfDegenerateError:
        return True
    return False


def test_gram_check_agrees_with_svd_condition_number():
    # the eigvalsh rule accepts and rejects exactly what np.linalg.cond (an
    # SVD) accepts and rejects, on random, nearly parallel and boundary Grams
    rng = np.random.default_rng(8)
    grams = []
    for k in (1, 2, 3, 4):
        for _ in range(25):
            h = _cn(rng, k, k + int(rng.integers(0, 3)))
            grams.append(h @ np.conj(h).T)
        for eps in np.geomspace(1e-3, 1e-9, 13):  # a second user nearly parallel to the first
            if k > 1:
                h = _cn(rng, k, k)
                h[1] = h[0] + eps * _cn(rng, k)
                grams.append(h @ np.conj(h).T)
    for k in (2, 3):
        for scale in (1e-20, 1.0, 1e15):
            below = _gram_with_condition(rng, k, COND_LIMIT * (1 - 1e-3), scale)
            above = _gram_with_condition(rng, k, COND_LIMIT * (1 + 1e-3), scale)
            assert not _rejects(below) and _rejects(above)
            grams += [below, above]
    rejected = 0
    for gram in grams:
        assert _rejects(gram) == (np.linalg.cond(gram) > COND_LIMIT)
        rejected += _rejects(gram)
    assert 10 < rejected < len(grams) - 10  # both outcomes are exercised


@pytest.mark.filterwarnings("error")  # and silently: no division by a zero eigenvalue
def test_gram_check_rejects_non_finite_and_singular_grams():
    good = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    check_zf_gram(good)
    for bad in (
        np.array([[np.nan, 0.0], [0.0, 1.0]]),  # eigvalsh would return [0, 0] here
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        good * np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.diag([2.0, 1.0, 3.0]) + np.diag([np.nan], -2),  # eigvalsh would not converge
        np.zeros((2, 2)),
        np.diag([1.0, 0.0]),  # an exactly zero eigenvalue
    ):
        with pytest.raises(ZfDegenerateError, match="degenerate"):
            check_zf_gram(bad)
