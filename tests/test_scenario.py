"""Configuration validation, unit conversions, and geometry."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from risim import (
    ClusterConfig,
    ConfigError,
    SystemConfig,
    build_statistics,
    config_from_dict,
    config_to_dict,
    dbm_to_watts,
    default_config,
    distance_3d,
    load_config,
    path_loss_linear,
    ris_element_positions,
    save_config,
    validate_config,
)


def test_dbm_watts_round_trip():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(-75.0) == pytest.approx(3.1622776601683794e-11)


def test_distance_3d():
    assert distance_3d((0, 0, 0), (3, 4, 0)) == pytest.approx(5.0)
    # BS-to-UE style slant range used by the default layout
    assert distance_3d((0, 0, 4), (10, 0, 1.5)) == pytest.approx(10.307764064044152)
    with pytest.raises(ValueError):
        distance_3d((0, 0), (1, 1, 1))


def test_wavelength_and_noise_power():
    cfg = default_config()
    assert cfg.wavelength_m == pytest.approx(0.0999308193, rel=1e-9)
    # -174 dBm/Hz over 1 MHz -> -114 dBm -> 3.981e-15 W
    assert cfg.noise_power_dbm == pytest.approx(-114.0)
    assert cfg.noise_power_w == pytest.approx(3.9810717055349695e-15)


def test_default_element_area_is_quarter_wavelength_square():
    cfg = default_config()
    lam = cfg.wavelength_m
    assert cfg.default_element_area_m2 == pytest.approx((lam / 4.0) ** 2)
    assert cfg.clusters[0].element_area_m2 == pytest.approx(6.241355407894568e-4)


def test_element_grid_two_by_two():
    # 2x2 grid with A = 6.25e-4 m^2: edge 0.025 m, centers at +/-0.0125
    pos = ris_element_positions(2, 6.25e-4)
    expected = np.array(
        [
            [-0.0125, 0.0125, 0.0],
            [0.0125, 0.0125, 0.0],
            [-0.0125, -0.0125, 0.0],
            [0.0125, -0.0125, 0.0],
        ]
    )
    np.testing.assert_allclose(pos, expected, atol=1e-15)


def test_element_grid_centered_and_spaced():
    for side in (1, 3, 8):
        pos = ris_element_positions(side, 1e-3)
        assert pos.shape == (side * side, 3)
        np.testing.assert_allclose(pos.mean(axis=0), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(pos[:, 2], 0.0)
        if side > 1:
            edge = math.sqrt(1e-3)
            # adjacent elements in the first row are one edge apart in x
            assert pos[1, 0] - pos[0, 0] == pytest.approx(edge)
            # first and second row are one edge apart in y
            assert pos[0, 1] - pos[side, 1] == pytest.approx(edge)


def test_element_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        ris_element_positions(0, 1e-3)
    with pytest.raises(ValueError):
        ris_element_positions(4, 0.0)


def test_cluster_properties():
    c = default_config().clusters[0]
    assert c.num_users == 2
    assert c.num_elements == 400
    assert c.tx_power_w == pytest.approx(1.0)
    assert c.emi_power_w == 0.0
    np.testing.assert_allclose(c.weights(), np.ones(2))
    emi = replace(c, emi_power_dbm=-65.0)
    assert emi.emi_power_w == pytest.approx(dbm_to_watts(-65.0))


def test_validate_config_idempotent():
    cfg = default_config()
    assert validate_config(cfg) == cfg


def test_validate_resolves_defaults():
    base = default_config()
    raw = replace(
        base,
        clusters=(
            replace(base.clusters[0], element_area_m2=None, user_weights=None),
            base.clusters[1],
        ),
    )
    resolved = validate_config(raw)
    assert resolved.clusters[0].element_area_m2 == pytest.approx(
        base.default_element_area_m2
    )
    assert resolved.clusters[0].user_weights == (1.0, 1.0)


def test_validate_rejects_zf_infeasible():
    base = default_config()
    bad = replace(
        base,
        clusters=(replace(base.clusters[0], num_antennas=1), base.clusters[1]),
    )
    with pytest.raises(ConfigError, match="ZF infeasible"):
        validate_config(bad)


def test_validate_rejects_structural_errors():
    base = default_config()
    cases = [
        replace(base, carrier_frequency_ghz=0.0),
        replace(base, bandwidth_hz=-1.0),
        replace(base, rate_threshold_bps_hz=-0.1),
        replace(base, mc_trials=0),
        replace(base, rng_seed=-1),
        replace(base, emi_self_factor=2.0),
        replace(base, clusters=(base.clusters[0],)),
    ]
    for bad in cases:
        with pytest.raises(ConfigError):
            validate_config(bad)


def test_validate_rejects_coincident_nodes():
    base = default_config()
    c0 = base.clusters[0]
    with pytest.raises(ConfigError, match="BS and RIS"):
        validate_config(
            replace(base, clusters=(replace(c0, bs_position=c0.ris_position), base.clusters[1]))
        )
    with pytest.raises(ConfigError, match="RIS and UE"):
        validate_config(
            replace(
                base,
                clusters=(replace(c0, ue_positions=(c0.ris_position, c0.ue_positions[1])), base.clusters[1]),
            )
        )
    with pytest.raises(ConfigError, match="two RIS positions"):
        validate_config(
            replace(
                base,
                clusters=(c0, replace(base.clusters[1], ris_position=c0.ris_position)),
            )
        )


def test_validate_rejects_bad_weights():
    base = default_config()
    c0 = base.clusters[0]
    for weights in ((1.0,), (1.0, -2.0), (1.0, float("nan"))):
        bad = replace(base, clusters=(replace(c0, user_weights=weights), base.clusters[1]))
        with pytest.raises(ConfigError):
            validate_config(bad)


def test_build_statistics_default_layout():
    cfg = default_config()
    stats = build_statistics(cfg)
    area = cfg.clusters[0].element_area_m2
    fc = cfg.carrier_frequency_ghz
    # each BS sits 3 m from its RIS, and the two RIS are 10 m apart
    for cs in stats.clusters:
        assert cs.bs_ris_gain == pytest.approx(area * path_loss_linear(3.0, fc))
        assert cs.corr.matrix.shape == (400, 400)
    assert stats.inter_ris_gain == pytest.approx(area * path_loss_linear(10.0, fc))
    # both clusters mirror each other: same RIS-user slant ranges
    gains = [cs.ris_ue_gain for cs in stats.clusters]
    np.testing.assert_allclose(gains[0], gains[1], rtol=1e-12)
    slant = math.sqrt(0.8**2 + 0.9**2 + 2.5**2)
    assert gains[0][0] == pytest.approx(area * path_loss_linear(slant, fc))


def test_config_dict_round_trip():
    cfg = default_config()
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert again == cfg


def test_config_from_dict_rejects_unknown_keys():
    data = config_to_dict(default_config())
    data["unknown_key"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    data["clusters"][0]["bogus"] = 2
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "cluster, field, value",
    [
        (None, "noise_psd_dbm_hz", float("nan")),
        (None, "noise_psd_dbm_hz", -float("inf")),
        (None, "bandwidth_hz", float("inf")),
        (None, "rate_threshold_bps_hz", float("nan")),
        (None, "rate_threshold_bps_hz", float("inf")),
        (None, "carrier_frequency_ghz", float("inf")),
        (0, "element_area_m2", float("nan")),
        (1, "element_area_m2", float("inf")),
        (0, "num_antennas", 2.5),
        (1, "ris_side", 3.5),
        (0, "num_antennas", "2"),
        (0, "tx_power_dbm", "30"),
        (0, "bs_position", 5),
        (0, "ue_positions", 5),
        (0, "ue_positions", [5, 6]),
        (0, "user_weights", 5),
        (0, "user_weights", "ab"),
        (1, "user_weights", ["2", True]),
        (None, "mc_trials", 2.5),
        (None, "mc_trials", "x"),
        (None, "mc_trials", True),
        (None, "rng_seed", "5"),
        (None, "rng_seed", True),
        (None, "rng_seed", 12345.0),
        (None, "emi_self_factor", True),
        # finite, but 10^(x / 10) overflows: before, an OverflowError traceback
        (0, "tx_power_dbm", 1e308),
        (1, "tx_power_dbm", 1e308),
        (0, "emi_power_dbm", 1e308),
        (1, "emi_power_dbm", 1e308),
    ],
)
def test_config_from_dict_rejects_malformed_numbers(cluster, field, value):
    # unchecked, each ends in a nan or infinite row, a numpy error, a TypeError
    # or a silently coerced value (2.5 trials run as 2, seed true as 1)
    data = config_to_dict(default_config())
    (data if cluster is None else data["clusters"][cluster])[field] = value
    with pytest.raises(ConfigError, match=field):
        config_from_dict(data)


def test_config_from_dict_requires_clusters():
    with pytest.raises(ConfigError, match="clusters"):
        config_from_dict({"carrier_frequency_ghz": 3.0})
    with pytest.raises(ConfigError):
        config_from_dict([])


def test_save_and_load_config(tmp_path):
    cfg = default_config()
    path = tmp_path / "scenario.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_shipped_default_config_matches_builtin():
    import pathlib

    shipped = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert load_config(shipped) == default_config()


def test_default_config_layout():
    cfg = default_config()
    assert cfg.clusters[0].bs_position == (0.0, 0.0, 4.0)
    assert cfg.clusters[0].ris_position == (3.0, 0.0, 4.0)
    assert cfg.clusters[1].ris_position == (13.0, 0.0, 4.0)
    assert cfg.carrier_frequency_ghz == 3.0
    assert cfg.rng_seed == 12345
