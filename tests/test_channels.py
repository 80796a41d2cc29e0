"""Path loss oracles, spatial correlation, and channel sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from risim import (
    ChannelRealization,
    build_statistics,
    default_config,
    draw_realization,
    dump_realization,
    path_loss_db,
    path_loss_linear,
    ris_element_positions,
    sample_correlated_rayleigh,
    sample_inter_ris,
    spatial_correlation,
    trial_rng,
)

# Hand-computed from 31.84 + 21.50 log10(d) + 19.00 log10(f_GHz)
PL_1M_3GHZ = 40.905303839673586
PL_10M_3GHZ = 62.405303839673586


def test_path_loss_oracles():
    assert path_loss_db(1.0, 3.0) == pytest.approx(PL_1M_3GHZ, abs=1e-9)
    assert path_loss_db(10.0, 3.0) == pytest.approx(PL_10M_3GHZ, abs=1e-9)
    assert path_loss_db(1.0, 1.0) == pytest.approx(31.84)
    assert path_loss_linear(1.0, 3.0) == pytest.approx(8.118384493748651e-05, rel=1e-9)


def test_path_loss_distance_doubling():
    # each distance doubling multiplies the linear gain by 2^-2.15
    ratio = path_loss_linear(2.0, 3.0) / path_loss_linear(1.0, 3.0)
    assert ratio == pytest.approx(2.0 ** -2.15, rel=1e-12)
    assert ratio == pytest.approx(0.225313, rel=1e-4)


def test_path_loss_monotonic():
    distances = [0.5, 1.0, 2.0, 5.0, 10.0, 25.0]
    losses = [path_loss_db(d, 3.0) for d in distances]
    assert all(a < b for a, b in zip(losses, losses[1:]))
    assert path_loss_db(5.0, 6.0) > path_loss_db(5.0, 3.0)


def test_path_loss_rejects_bad_args():
    with pytest.raises(ValueError):
        path_loss_db(0.0, 3.0)
    with pytest.raises(ValueError):
        path_loss_db(1.0, -1.0)


def test_correlation_quarter_wavelength_neighbors():
    lam = 0.1
    pos = ris_element_positions(2, (lam / 4.0) ** 2)
    corr = spatial_correlation(pos, lam)
    r = corr.matrix
    np.testing.assert_allclose(np.diag(r), 1.0)
    # neighbors at lambda/4: sinc(1/2) = 2/pi
    assert r[0, 1] == pytest.approx(2.0 / math.pi)
    assert r[0, 2] == pytest.approx(2.0 / math.pi)
    # diagonal pair at lambda/4 * sqrt(2)
    assert r[0, 3] == pytest.approx(np.sinc(math.sqrt(2) / 2.0))


def test_correlation_half_wavelength_line_is_identity():
    # a linear array at lambda/2 spacing decorrelates exactly: sinc(n) = 0
    lam = 0.2
    pos = np.column_stack([np.arange(6) * lam / 2.0, np.zeros(6), np.zeros(6)])
    corr = spatial_correlation(pos, lam)
    np.testing.assert_allclose(corr.matrix, np.eye(6), atol=1e-15)


def test_correlation_matrix_properties():
    cfg = default_config()
    pos = ris_element_positions(6, cfg.clusters[0].element_area_m2)
    corr = spatial_correlation(pos, cfg.wavelength_m)
    r = corr.matrix
    np.testing.assert_allclose(r, r.T, atol=1e-14)
    np.testing.assert_allclose(np.diag(r), 1.0, atol=1e-14)
    eigvals = np.linalg.eigvalsh(r)
    assert eigvals.min() > -1e-10
    # factor reconstructs R up to the clipped eigenvalues
    np.testing.assert_allclose(corr.factor @ corr.factor.conj().T, r, atol=1e-8)


def test_correlation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        spatial_correlation(np.zeros((4, 2)), 0.1)
    with pytest.raises(ValueError):
        spatial_correlation(np.zeros((4, 3)), 0.0)


def test_sampler_mean_and_variance():
    lam = 0.1
    pos = ris_element_positions(3, (lam / 4.0) ** 2)
    corr = spatial_correlation(pos, lam)
    scale = 2.5
    rng = np.random.default_rng(7)
    draws = sample_correlated_rayleigh(corr, scale, 20000, rng)
    assert draws.shape == (9, 20000)
    assert abs(draws.mean()) < 0.02
    var = np.mean(np.abs(draws) ** 2, axis=1)
    np.testing.assert_allclose(var, scale, rtol=0.05)


def test_sampler_covariance_tracks_target():
    lam = 0.1
    pos = ris_element_positions(3, (lam / 4.0) ** 2)
    corr = spatial_correlation(pos, lam)
    rng = np.random.default_rng(11)
    draws = sample_correlated_rayleigh(corr, 1.0, 30000, rng)
    emp = draws @ draws.conj().T / draws.shape[1]
    assert np.abs(emp - corr.matrix).max() < 0.05


def test_sampler_zero_scale_and_negative_scale():
    lam = 0.1
    pos = ris_element_positions(2, (lam / 4.0) ** 2)
    corr = spatial_correlation(pos, lam)
    rng = np.random.default_rng(0)
    draws = sample_correlated_rayleigh(corr, 0.0, 4, rng)
    np.testing.assert_allclose(draws, 0.0)
    with pytest.raises(ValueError):
        sample_correlated_rayleigh(corr, -1.0, 4, rng)
    with pytest.raises(ValueError):
        sample_inter_ris(2, 2, -1.0, rng)


def test_sample_inter_ris_shape_and_variance():
    rng = np.random.default_rng(3)
    z = sample_inter_ris(3, 4, 0.5, rng)
    assert z.shape == (9, 16)
    big = sample_inter_ris(10, 10, 0.5, np.random.default_rng(4))
    assert np.mean(np.abs(big) ** 2) == pytest.approx(0.5, rel=0.05)


def test_build_statistics_gains():
    cfg = default_config()
    stats = build_statistics(cfg)
    area = cfg.clusters[0].element_area_m2
    assert stats.clusters[0].bs_ris_gain == pytest.approx(
        area * path_loss_linear(3.0, 3.0), rel=1e-12
    )
    d_ue0 = math.sqrt(0.8**2 + 0.9**2 + 2.5**2)
    assert stats.clusters[0].ris_ue_gain[0] == pytest.approx(
        area * path_loss_linear(d_ue0, 3.0), rel=1e-12
    )
    assert stats.inter_ris_gain == pytest.approx(
        area * path_loss_linear(10.0, 3.0), rel=1e-12
    )
    # mirrored layout: both clusters share identical statistics
    np.testing.assert_allclose(
        stats.clusters[0].ris_ue_gain, stats.clusters[1].ris_ue_gain
    )


def _small_cfg(side1=3, side2=4):
    base = default_config()
    return replace(
        base,
        clusters=(
            replace(base.clusters[0], ris_side=side1),
            replace(base.clusters[1], ris_side=side2),
        ),
    )


def test_equal_surfaces_share_one_correlation_model():
    # the default clusters have equal surfaces, so their statistics hold one
    # model; unequal sides each get the model spatial_correlation builds
    cfg = default_config()
    stats = build_statistics(cfg)
    assert stats.clusters[0].corr is stats.clusters[1].corr
    cfg = _small_cfg(3, 4)
    stats = build_statistics(cfg)
    for cluster, cs in zip(cfg.clusters, stats.clusters, strict=True):
        positions = ris_element_positions(cluster.ris_side, cluster.element_area_m2)
        want = spatial_correlation(positions, cfg.wavelength_m)
        np.testing.assert_array_equal(cs.corr.matrix, want.matrix)
        np.testing.assert_array_equal(cs.corr.factor, want.factor)


@pytest.mark.parametrize("side", [5, 20])
def test_complex_factor_draws_equal_the_real_factor_product(side):
    # the factor is stored complex with real entries; a draw equals the
    # product with the real factor bit for bit
    corr = spatial_correlation(ris_element_positions(side, 1.0 / 16), 1.0)
    assert corr.factor.dtype == complex and np.all(corr.factor.imag == 0.0)
    real_factor = corr.factor.real.copy()
    for cols in (1, 2):
        got = sample_correlated_rayleigh(corr, 0.3, cols, np.random.default_rng(side))
        rng = np.random.default_rng(side)  # the same CN(0, 1) samples as the draw
        w = np.sqrt(0.5) * (rng.standard_normal((side**2, cols)) + 1j * rng.standard_normal((side**2, cols)))
        np.testing.assert_array_equal(got, np.sqrt(0.3) * (real_factor @ w))


def test_draw_realization_shapes():
    cfg = _small_cfg()
    stats = build_statistics(cfg)
    real = draw_realization(cfg, stats, trial=0)
    assert real.h1.shape == (9, 2)
    assert real.g1.shape == (2, 9)
    assert real.h2.shape == (16, 2)
    assert real.g2.shape == (2, 16)
    # z21 rows follow the neighbor RIS, columns the serving RIS
    assert real.z21.shape == (16, 9)


def test_draw_realization_large_side_shape():
    base = default_config()
    cfg = replace(base, clusters=(replace(base.clusters[0], ris_side=15), base.clusters[1]))
    stats = build_statistics(cfg)
    real = draw_realization(cfg, stats, trial=2)
    assert real.h1.shape == (225, 2)
    assert real.z21.shape == (400, 225)


def test_draw_realization_deterministic():
    cfg = _small_cfg()
    stats = build_statistics(cfg)
    a = draw_realization(cfg, stats, trial=3)
    b = draw_realization(cfg, stats, trial=3)
    for name in ("h1", "h2", "g1", "g2", "z21"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = draw_realization(cfg, stats, trial=4)
    assert not np.array_equal(a.h1, c.h1)


def test_a_draw_comes_from_its_trial_stream_alone():
    # trial_rng(cfg.rng_seed, trial) in the documented order: h1, g1's users,
    # h2, g2's users, then z21
    cfg = _small_cfg()
    stats = build_statistics(cfg)
    real = draw_realization(cfg, stats, trial=7)
    rng = trial_rng(cfg.rng_seed, 7)
    for n, (cluster, cs) in enumerate(zip(cfg.clusters, stats.clusters), start=1):
        h = sample_correlated_rayleigh(cs.corr, cs.bs_ris_gain, cluster.num_antennas, rng)
        g = [sample_correlated_rayleigh(cs.corr, gain, 1, rng)[:, 0] for gain in cs.ris_ue_gain]
        np.testing.assert_array_equal(getattr(real, f"h{n}"), h)
        np.testing.assert_array_equal(getattr(real, f"g{n}"), np.stack(g))
    sides = (cfg.clusters[1].ris_side, cfg.clusters[0].ris_side)
    np.testing.assert_array_equal(real.z21, sample_inter_ris(*sides, stats.inter_ris_gain, rng))


def test_trial_rng_streams_are_independent_of_call_order():
    # trial k's stream depends only on (seed, k), not on other trials
    r5 = trial_rng(99, 5).standard_normal(8)
    _ = trial_rng(99, 2).standard_normal(100)
    np.testing.assert_array_equal(trial_rng(99, 5).standard_normal(8), r5)
    assert not np.array_equal(trial_rng(98, 5).standard_normal(8), r5)


def test_dump_realization_round_trip(tmp_path):
    cfg = _small_cfg()
    stats = build_statistics(cfg)
    real = draw_realization(cfg, stats, trial=12)
    path = dump_realization(real, tmp_path)
    assert path.name == "channels_trial00012.npz"
    data = np.load(path)
    assert int(data["trial"]) == 12
    for name in ("h1", "h2", "g1", "g2", "z21"):
        np.testing.assert_array_equal(data[name], getattr(real, name))


def test_realization_dataclass_fields():
    z = np.zeros((4, 4))
    real = ChannelRealization(
        trial=0,
        h1=np.zeros((4, 2)),
        h2=np.zeros((4, 2)),
        g1=np.zeros((1, 4)),
        g2=np.zeros((1, 4)),
        draw_z21=lambda: z,
    )
    assert real.trial == 0
    assert real.z21 is z
