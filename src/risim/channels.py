"""Path loss, spatial correlation, and random channel generation."""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import SystemConfig, distance_3d, ris_element_positions, validate_config

# Indoor factory line-of-sight path loss coefficients
_PL_OFFSET_DB = 31.84
_PL_DIST_SLOPE = 21.50
_PL_FREQ_SLOPE = 19.00

EIG_CLIP = 1e-10  # eigenvalues below this are treated as exact zeros
EIG_NEG_TOL = -1e-8  # anything more negative means the matrix is not a correlation


def path_loss_db(distance_m: float, carrier_ghz: float) -> float:
    """Line-of-sight indoor factory path loss in dB."""
    if distance_m <= 0.0:
        raise ValueError("distance must be positive")
    if carrier_ghz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    return (
        _PL_OFFSET_DB
        + _PL_DIST_SLOPE * np.log10(distance_m)
        + _PL_FREQ_SLOPE * np.log10(carrier_ghz)
    )


def path_loss_linear(distance_m: float, carrier_ghz: float) -> float:
    """Linear power attenuation 10^(-PL/10)."""
    return 10.0 ** (-path_loss_db(distance_m, carrier_ghz) / 10.0)


@dataclass(frozen=True)
class CorrelationModel:
    """Spatial correlation matrix R and a complex factor F with F @ F^H == R.

    F is stored complex (real entries), so a draw F @ w with complex w
    does not cast F to complex on every call; the product is the same.
    """

    matrix: np.ndarray
    factor: np.ndarray


def spatial_correlation(positions: np.ndarray, wavelength_m: float) -> CorrelationModel:
    """Isotropic-scattering correlation across element positions.

    R[l, m] = sinc(2 * ||d_l - d_m|| / wavelength) with the normalized sinc.
    The factor is computed from the eigendecomposition, clipping eigenvalues
    below EIG_CLIP to zero; half-wavelength grids make R rank deficient, so a
    Cholesky factor would not exist.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    matrix = np.sinc(2.0 * dist / wavelength_m)
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if eigvals.min() < EIG_NEG_TOL:
        raise ValueError(f"correlation matrix has eigenvalue {eigvals.min():.3e} < {EIG_NEG_TOL}")
    eigvals = np.where(eigvals < EIG_CLIP, 0.0, eigvals)
    factor = (eigvecs * np.sqrt(eigvals)[None, :]).astype(complex)
    return CorrelationModel(matrix=matrix, factor=factor)


def _cn_samples(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) samples: each component N(0, 1/2)."""
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_correlated_rayleigh(
    corr: CorrelationModel, scale: float, num_cols: int, rng: np.random.Generator
) -> np.ndarray:
    """(N, num_cols) draw with independent columns, each CN(0, scale * R)."""
    if scale < 0.0:
        raise ValueError("scale must be >= 0")
    n = corr.factor.shape[0]
    w = _cn_samples(rng, (n, num_cols))
    return np.sqrt(scale) * (corr.factor @ w)


def sample_inter_ris(
    side_rows: int, side_cols: int, scale: float, rng: np.random.Generator
) -> np.ndarray:
    """(side_rows^2, side_cols^2) matrix of i.i.d. CN(0, scale) entries."""
    if scale < 0.0:
        raise ValueError("scale must be >= 0")
    shape = (side_rows * side_rows, side_cols * side_cols)
    return np.sqrt(scale) * _cn_samples(rng, shape)


@dataclass(frozen=True)
class ClusterStatistics:
    """Per-cluster second-order channel statistics, fixed by the geometry."""

    corr: CorrelationModel
    bs_ris_gain: float  # element area times BS->RIS path gain
    ris_ue_gain: np.ndarray  # (K,) element area times RIS->UE_k path gain


@dataclass(frozen=True)
class ChannelStatistics:
    clusters: tuple[ClusterStatistics, ClusterStatistics]
    inter_ris_gain: float  # sqrt(A1 * A2) times RIS1->RIS2 path gain


def build_statistics(cfg: SystemConfig, models: dict | None = None) -> ChannelStatistics:
    """Correlation models and link gains; compute once per config. Clusters
    whose surfaces have the same side and element area share one model.

    models maps (ris_side, element_area) to the CorrelationModel of that
    surface; give the same dict to several builds (the geometry groups of a
    sweep) and each surface's model is computed once across them.
    """
    cfg = validate_config(cfg)
    fc = cfg.carrier_frequency_ghz
    per_cluster = []
    models = {} if models is None else models
    for cluster in cfg.clusters:
        area = cluster.element_area_m2
        surface = (cluster.ris_side, area)
        if surface not in models:
            positions = ris_element_positions(cluster.ris_side, area)
            models[surface] = spatial_correlation(positions, cfg.wavelength_m)
        corr = models[surface]
        ris = cluster.ris_position
        bs_gain = area * path_loss_linear(distance_3d(cluster.bs_position, ris), fc)
        ue_gain = area * np.array(
            [path_loss_linear(distance_3d(ris, ue), fc) for ue in cluster.ue_positions]
        )
        per_cluster.append(
            ClusterStatistics(corr=corr, bs_ris_gain=bs_gain, ris_ue_gain=ue_gain)
        )
    c1, c2 = cfg.clusters
    ris_ris = distance_3d(c1.ris_position, c2.ris_position)
    inter = np.sqrt(c1.element_area_m2 * c2.element_area_m2) * path_loss_linear(ris_ris, fc)
    return ChannelStatistics(clusters=tuple(per_cluster), inter_ris_gain=inter)


@dataclass(eq=False)
class ChannelRealization:
    """One Monte Carlo draw of every small-scale channel in the system.

    h_n is the BS_n -> RIS_n channel (L_n^2, T_n); g_n stacks the RIS_n -> UE
    rows (K_n, L_n^2); z21 is the RIS_1 -> RIS_2 link with shape (L_2^2, L_1^2),
    rows indexed by RIS-2 elements. z21 is what draw_z21 returns (the same
    array on every call) when first read: draw_realization draws it last
    from the trial's stream, so deferring it changes no number, and a draw
    whose cases never read it never pays for it.
    """

    trial: int
    h1: np.ndarray
    h2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    draw_z21: Callable[[], np.ndarray]

    @property
    def z21(self) -> np.ndarray:
        return self.draw_z21()


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible per-trial stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def draw_realization(cfg: SystemConfig, stats: ChannelStatistics, trial: int) -> ChannelRealization:
    """Draw all channels for one trial from its own stream, trial_rng(cfg.rng_seed, trial).

    Deterministic given (cfg.rng_seed, trial). The draw order is fixed: h1,
    g1 users in index order, h2, g2 users, z21; the realization keeps the
    stream after the links and draws z21 when it is first read.
    """
    rng = trial_rng(cfg.rng_seed, trial)
    channels = {}
    for n, (cluster, cs) in enumerate(zip(cfg.clusters, stats.clusters), start=1):
        h = sample_correlated_rayleigh(cs.corr, cs.bs_ris_gain, cluster.num_antennas, rng)
        g = np.stack(
            [
                sample_correlated_rayleigh(cs.corr, cs.ris_ue_gain[k], 1, rng)[:, 0]
                for k in range(cluster.num_users)
            ]
        )
        channels[f"h{n}"] = h
        channels[f"g{n}"] = g
    sides = (cfg.clusters[1].ris_side, cfg.clusters[0].ris_side)
    draw_z21 = functools.cache(lambda: sample_inter_ris(*sides, stats.inter_ris_gain, rng))
    return ChannelRealization(trial, draw_z21=draw_z21, **channels)


def dump_realization(real: ChannelRealization, directory) -> Path:
    """Write one realization to <dir>/channels_trial<k>.npz and return the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"channels_trial{real.trial:05d}.npz"
    np.savez(
        path,
        trial=np.array(real.trial),
        h1=real.h1,
        h2=real.h2,
        g1=real.g1,
        g2=real.g2,
        z21=real.z21,
    )
    return path
