"""Scenario configuration and geometry for the two-cluster RIS-aided downlink."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


class ConfigError(ValueError):
    """A scenario configuration violates a structural constraint."""


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((float(dbm) - 30.0) / 10.0)


def distance_3d(p, q) -> float:
    """Euclidean distance between two (x, y, z) points in meters."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != (3,) or b.shape != (3,):
        raise ValueError("points must be length-3 (x, y, z)")
    return float(np.linalg.norm(a - b))


def ris_element_positions(num_side: int, element_area_m2: float) -> np.ndarray:
    """Element centers of an L x L surface in its local plane, shape (L^2, 3).

    Elements are indexed row by row from the top-left corner, spaced by the
    element edge length sqrt(A), and the grid is centered on the origin with
    z = 0 everywhere.
    """
    if num_side < 1:
        raise ValueError("num_side must be >= 1")
    if element_area_m2 <= 0.0:
        raise ValueError("element_area_m2 must be positive")
    edge = math.sqrt(element_area_m2)
    idx = np.arange(num_side * num_side)
    cols = idx % num_side
    rows = idx // num_side
    x = (cols - (num_side - 1) / 2.0) * edge
    y = ((num_side - 1) / 2.0 - rows) * edge
    return np.column_stack([x, y, np.zeros_like(x)])


@dataclass(frozen=True)
class ClusterConfig:
    """One BS / RIS / user group. Positions are (x, y, z) in meters."""

    bs_position: tuple[float, float, float]
    ris_position: tuple[float, float, float]
    ue_positions: tuple[tuple[float, float, float], ...]
    num_antennas: int = 2  # BS antennas T
    ris_side: int = 20  # the RIS is an L x L element grid
    tx_power_dbm: float = 30.0
    element_area_m2: float | None = None  # None -> (wavelength / 4)^2
    emi_power_dbm: float | None = None  # aggregate EMI power A*sigma^2; None disables
    user_weights: tuple[float, ...] | None = None  # None -> all ones

    @property
    def num_users(self) -> int:
        return len(self.ue_positions)

    @property
    def num_elements(self) -> int:
        return self.ris_side * self.ris_side

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def emi_power_w(self) -> float:
        return 0.0 if self.emi_power_dbm is None else dbm_to_watts(self.emi_power_dbm)

    def weights(self) -> np.ndarray:
        if self.user_weights is None:
            return np.ones(self.num_users)
        return np.asarray(self.user_weights, dtype=float)


@dataclass(frozen=True)
class SystemConfig:
    """Full two-cluster scenario description."""

    clusters: tuple[ClusterConfig, ClusterConfig]
    carrier_frequency_ghz: float = 3.0
    bandwidth_hz: float = 1e6
    noise_psd_dbm_hz: float = -174.0
    rate_threshold_bps_hz: float = 0.1
    mc_trials: int = 500
    rng_seed: int = 12345
    emi_self_factor: float = 4.0  # weight of the serving-RIS EMI term when both RIS see EMI

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / (self.carrier_frequency_ghz * 1e9)

    @property
    def noise_power_dbm(self) -> float:
        return self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)

    @property
    def noise_power_w(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)

    @property
    def default_element_area_m2(self) -> float:
        return (self.wavelength_m / 4.0) ** 2


def _check_number(name: str, value, integer: bool = False, minimum=None) -> None:
    """Reject anything but a finite real number (an int when integer is set); bools too.

    With minimum set, values below it are rejected as well.
    """
    if integer:
        ok = isinstance(value, numbers.Integral)  # no isfinite: it overflows on huge ints
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a finite number'}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


def _check_dbm(name: str, value) -> None:
    """_check_number for a power level in dBm, which must also be finite in watts."""
    _check_number(name, value)
    try:
        dbm_to_watts(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite in watts, got {value:g} dBm") from None


def _check_list(name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list")
    return tuple(value)


def _check_position(name: str, pos) -> tuple[float, float, float]:
    if not isinstance(pos, (list, tuple)) or len(pos) != 3:
        raise ConfigError(f"{name} must be an (x, y, z) triple")
    for v in pos:
        _check_number(name, v)
    return tuple(float(v) for v in pos)


def _validate_cluster(cfg: SystemConfig, cluster: ClusterConfig, n: int) -> ClusterConfig:
    tag = f"cluster {n}"
    for name in ("num_antennas", "ris_side"):
        _check_number(f"{tag}: {name}", getattr(cluster, name), integer=True, minimum=1)
    for name in ("tx_power_dbm", "element_area_m2", "emi_power_dbm"):
        value = getattr(cluster, name)
        if value is not None:
            check = _check_number if name == "element_area_m2" else _check_dbm
            check(f"{tag}: {name}", value)

    bs = _check_position(f"{tag} bs_position", cluster.bs_position)
    ris = _check_position(f"{tag} ris_position", cluster.ris_position)
    ues = tuple(
        _check_position(f"{tag} ue_positions[{k}]", p)
        for k, p in enumerate(_check_list(f"{tag} ue_positions", cluster.ue_positions))
    )
    if not ues:
        raise ConfigError(f"{tag}: at least one user required")
    if len(ues) > cluster.num_antennas:
        raise ConfigError(
            f"ZF infeasible: {tag} serves {len(ues)} users "
            f"with {cluster.num_antennas} antennas"
        )
    if distance_3d(bs, ris) <= 0.0:
        raise ConfigError(f"{tag}: BS and RIS must not coincide")
    for k, ue in enumerate(ues):
        if distance_3d(ris, ue) <= 0.0:
            raise ConfigError(f"{tag}: RIS and UE {k} must not coincide")

    area = cluster.element_area_m2
    if area is None:
        area = cfg.default_element_area_m2
    if area <= 0.0:
        raise ConfigError(f"{tag}: element_area_m2 must be positive")

    weights = cluster.user_weights
    if weights is None:
        weights = (1.0,) * len(ues)
    else:
        weights = _check_list(f"{tag}: user_weights", weights)
        if len(weights) != len(ues):
            raise ConfigError(f"{tag}: user_weights length must equal the user count")
        for k, w in enumerate(weights):
            _check_number(f"{tag}: user_weights[{k}]", w)
            if w <= 0.0:
                raise ConfigError(f"{tag}: user_weights must be positive")
        weights = tuple(float(w) for w in weights)

    return replace(
        cluster,
        bs_position=bs,
        ris_position=ris,
        ue_positions=ues,
        element_area_m2=float(area),
        user_weights=weights,
    )


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every field and resolve defaulted ones; the one place a config is checked.

    Positions and weights come back as tuples of floats. Idempotent: validating
    an already validated config returns an equal one.
    """
    if len(cfg.clusters) != 2:
        raise ConfigError("exactly two clusters are required")
    for name in ("carrier_frequency_ghz", "bandwidth_hz", "noise_psd_dbm_hz", "emi_self_factor"):
        _check_number(name, getattr(cfg, name))
    _check_number("rate_threshold_bps_hz", cfg.rate_threshold_bps_hz, minimum=0)
    _check_number("mc_trials", cfg.mc_trials, integer=True, minimum=1)
    _check_number("rng_seed", cfg.rng_seed, integer=True, minimum=0)
    if cfg.carrier_frequency_ghz <= 0.0:
        raise ConfigError("carrier_frequency_ghz must be positive")
    if cfg.bandwidth_hz <= 0.0:
        raise ConfigError("bandwidth_hz must be positive")
    if cfg.emi_self_factor not in (1.0, 4.0):
        raise ConfigError("emi_self_factor must be 1.0 or 4.0")

    clusters = tuple(
        _validate_cluster(cfg, cluster, n) for n, cluster in enumerate(cfg.clusters, start=1)
    )
    ris_gap = distance_3d(clusters[0].ris_position, clusters[1].ris_position)
    if ris_gap <= 0.0:
        raise ConfigError("the two RIS positions must not coincide")
    return replace(cfg, clusters=clusters)


def config_to_dict(cfg: SystemConfig) -> dict:
    return asdict(cfg)


def _from_fields(cls, raw: dict, tag: str):
    """cls(**raw), with unknown or missing keys as ConfigErrors; no value is checked."""
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"{tag} has unknown keys: {sorted(unknown)}")
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"{tag}: {exc}") from exc


def config_from_dict(data: dict) -> SystemConfig:
    """Build a validated SystemConfig from plain dict data (parsed JSON).

    Keys map onto the dataclass fields as they are; validate_config checks
    and normalises every value.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        raw_clusters = data["clusters"]
    except KeyError as exc:
        raise ConfigError("config is missing the 'clusters' list") from exc
    if not isinstance(raw_clusters, (list, tuple)):
        raise ConfigError("'clusters' must be a list")
    clusters = []
    for n, raw in enumerate(raw_clusters, start=1):
        if not isinstance(raw, dict):
            raise ConfigError(f"cluster {n} must be an object")
        clusters.append(_from_fields(ClusterConfig, raw, f"cluster {n}"))
    return validate_config(_from_fields(SystemConfig, {**data, "clusters": clusters}, "config"))


def load_config(path) -> SystemConfig:
    """Load and validate a scenario config from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: SystemConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def default_config() -> SystemConfig:
    """Built-in indoor factory scenario.

    Two clusters on a shared hall floor: each BS sits 3 m from its RIS, users
    are roughly 2.7 m slant range from their serving RIS, and the two RIS are
    10 m apart. Heights: BS and RIS 4 m, users 1.5 m.
    """
    cluster1 = ClusterConfig(
        bs_position=(0.0, 0.0, 4.0),
        ris_position=(3.0, 0.0, 4.0),
        ue_positions=((3.8, 0.9, 1.5), (2.2, -1.0, 1.5)),
    )
    cluster2 = ClusterConfig(
        bs_position=(16.0, 0.0, 4.0),
        ris_position=(13.0, 0.0, 4.0),
        ue_positions=((12.2, 0.9, 1.5), (13.8, -1.0, 1.5)),
    )
    return validate_config(SystemConfig(clusters=(cluster1, cluster2)))
