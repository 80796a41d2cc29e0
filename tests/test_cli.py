"""Command line behavior: exit codes, output formats, determinism."""

import json
import subprocess
from dataclasses import replace

import pytest

from risim import config_to_dict, default_config, load_config, save_config
from risim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, cli_main
from risim.harness import CSV_HEADER, TRACE_HEADER


@pytest.fixture()
def tiny_config(tmp_path):
    base = default_config()
    cfg = replace(
        base,
        mc_trials=3,
        clusters=(
            replace(base.clusters[0], ris_side=3),
            replace(base.clusters[1], ris_side=3),
        ),
    )
    path = tmp_path / "tiny.json"
    save_config(cfg, path)
    return str(path)


def test_sweep_requires_config():
    assert cli_main(["sweep-power"]) == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert cli_main(["sweep-everything"]) == EXIT_USAGE
    assert cli_main([]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_config_file_is_runtime_error(capsys):
    code = cli_main(["sweep-power", "--config", "/nonexistent/nope.json"])
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def test_sweep_power_csv(tiny_config, capsys):
    code = cli_main(["sweep-power", "--config", tiny_config, "--grid", "20,30", "--trials", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 6  # two grid points, six default cases
    assert lines[1].startswith("20,eif,fixed,")


def test_sweep_power_deterministic(tiny_config, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep-power", "--config", tiny_config, "--grid", "30", "--trials", "3"]
    assert cli_main(args + ["--out", str(out1)]) == EXIT_OK
    assert cli_main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_scenarios_and_mode_flags(tiny_config, capsys):
    code = cli_main(
        [
            "sweep-power", "--config", tiny_config, "--grid", "30",
            "--scenarios", "eif,emi:-60", "--mode", "unaware", "--trials", "2",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split(",")[1] for line in lines[1:]] == ["eif", "emi_-60"]
    assert all(line.split(",")[2] == "unaware" for line in lines[1:])


def test_sweep_emi_defaults(tiny_config, capsys):
    # negative grids need the = form or argparse reads them as option names
    code = cli_main(["sweep-emi", "--config", tiny_config, "--grid=-70,-60", "--trials", "2"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    # default cases are emi and emi_irr, labeled with the swept level, unaware mode
    assert [line.split(",")[1] for line in lines[1:]] == [
        "emi_-70", "emi_irr_-70", "emi_-60", "emi_irr_-60",
    ]
    assert all(line.split(",")[2] == "unaware" for line in lines[1:])


def test_sweep_elements_rejects_non_square(tiny_config, capsys):
    code = cli_main(["sweep-elements", "--config", tiny_config, "--grid", "8", "--trials", "2"])
    assert code == EXIT_RUNTIME
    assert "perfect squares" in capsys.readouterr().err


def test_repeated_scenario_is_runtime_error(tiny_config, capsys):
    # before, eif,eif wrote two eif rows that each pooled both copies' trials
    args = ["sweep-power", "--config", tiny_config, "--grid", "30", "--trials", "3"]
    assert cli_main(args + ["--scenarios", "eif,eif"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario 'eif' is given more than once" in captured.err


@pytest.mark.parametrize("command", ["sweep-power", "single-trial"])
@pytest.mark.parametrize(
    "scenarios, message",
    [("", "at least one scenario case is required"), ("eif,eif", "scenario 'eif' is given more than once")],
    ids=["empty", "repeated"],
)
def test_bad_scenario_list_is_runtime_error(tiny_config, tmp_path, capsys, command, scenarios, message):
    # single-trial used to print a header without rows, or the same case twice
    out = tmp_path / "out.txt"
    trials = [] if command == "single-trial" else ["--trials", "1"]  # single-trial has no --trials
    args = [command, "--config", tiny_config, "--scenarios", scenarios, *trials, "--out", str(out)]
    assert cli_main(args) == EXIT_RUNTIME
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-power", "--scenarios", "emi:nan"],
        ["sweep-power", "--scenarios", "emi:inf"],
        ["sweep-emi", "--grid", "nan"],
        ["sweep-emi", "--grid", "inf"],
        ["sweep-emi", "--scenarios", "eif", "--grid", "nan"],
        ["single-trial", "--scenarios", "emi_irr:-inf"],
        ["single-trial", "--scenarios", "emi:1e308"],  # finite, but overflows in watts
    ],
    ids=" ".join,
)
def test_non_finite_emi_level_is_runtime_error(tiny_config, tmp_path, capsys, argv):
    # a nan or infinite level or grid value would end in a nan mean, rate or sweep value
    out = tmp_path / "out.csv"
    trials = [] if argv[0] == "single-trial" else ["--trials", "1"]  # single-trial has no --trials
    args = argv + ["--config", tiny_config, "--mode", "fixed", *trials, "--out", str(out)]
    assert cli_main(args) == EXIT_RUNTIME
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def test_malformed_config_number_is_runtime_error(tmp_path, capsys):
    malformed = (
        ("noise_psd_dbm_hz", float("nan")),
        ("ue_positions", 5),
        ("tx_power_dbm", 1e308),  # finite, but overflows in watts
        ("emi_power_dbm", 1e308),
    )
    out = tmp_path / "out.csv"
    for field, value in malformed:
        data = config_to_dict(default_config())
        (data if field == "noise_psd_dbm_hz" else data["clusters"][0])[field] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        args = ["sweep-power", "--config", str(config), "--grid", "30", "--trials", "2"]
        assert cli_main(args + ["--out", str(out)]) == EXIT_RUNTIME
        assert not out.exists()
        assert field in capsys.readouterr().err
    # the same power as a grid value is named with it
    config = tmp_path / "good.json"
    config.write_text(json.dumps(config_to_dict(default_config())), encoding="utf-8")
    for command, variable in (("sweep-power", "tx_power_dbm"), ("sweep-emi", "emi_dbm")):
        args = [command, "--config", str(config), "--grid", "1e308", "--trials", "2"]
        assert cli_main(args + ["--out", str(out)]) == EXIT_RUNTIME
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{variable} grid value" in err and "1e+308" in err


def test_bad_grid_and_bad_scenario(tiny_config, capsys):
    assert cli_main(["sweep-power", "--config", tiny_config, "--grid", "10,x"]) == EXIT_RUNTIME
    assert (
        cli_main(["sweep-power", "--config", tiny_config, "--scenarios", "bogus", "--trials", "1"])
        == EXIT_RUNTIME
    )
    assert cli_main(["sweep-power", "--config", tiny_config, "--trials", "0"]) == EXIT_RUNTIME
    assert cli_main(["sweep-power", "--config", tiny_config, "--grid", ","]) == EXIT_RUNTIME
    assert "sweep grid must not be empty" in capsys.readouterr().err
    assert cli_main(["single-trial", "--config", tiny_config, "--trial", "-1"]) == EXIT_RUNTIME
    assert "trial must be >= 0" in capsys.readouterr().err


def test_single_trial_runs_without_config(tiny_config, capsys):
    # no --config: the built-in scenario is used; keep it to one cheap case
    code = cli_main(["single-trial", "--scenarios", "eif", "--trial", "1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("trial 1 mode fixed\n")
    assert "eif: sum_rate_bps_hz=" in out


def test_single_trial_rejects_trials(tiny_config, capsys):
    # one draw has no trial count: the flag is a usage error, not silently ignored
    code = cli_main(["single-trial", "--config", tiny_config, "--scenarios", "eif", "--trials", "5"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "unrecognized arguments: --trials 5" in captured.err
    assert captured.out == ""


def test_single_trial_deterministic(tiny_config, capsys):
    args = ["single-trial", "--config", tiny_config, "--seed", "7"]
    assert cli_main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert cli_main(args) == EXIT_OK
    assert capsys.readouterr().out == first
    assert cli_main(args + ["--seed", "8"]) == EXIT_OK
    assert capsys.readouterr().out != first


def test_seed_and_trials_flags_set_the_config(tiny_config, tmp_path, capsys):
    # without --trials a sweep runs the config's mc_trials (3 here), and
    # --seed draws what the config's rng_seed set to the same value draws
    for flags, attempted in (([], 3), (["--trials", "2"], 2)):
        assert cli_main(["sweep-power", "--config", tiny_config, "--grid", "30", *flags]) == EXIT_OK
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 6
        for row in rows:
            *_, trials, skipped = row.split(",")
            assert int(trials) + int(skipped) == attempted
    assert cli_main(["single-trial", "--config", tiny_config, "--seed", "7"]) == EXIT_OK
    flagged = capsys.readouterr().out
    seeded = tmp_path / "seeded.json"
    save_config(replace(load_config(tiny_config), rng_seed=7), seeded)
    assert cli_main(["single-trial", "--config", str(seeded)]) == EXIT_OK
    assert capsys.readouterr().out == flagged
    assert cli_main(["single-trial", "--config", tiny_config]) == EXIT_OK
    assert capsys.readouterr().out != flagged  # the config's own seed draws another channel


def test_single_trial_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "single.txt"
    dump = tmp_path / "channels"
    trace = tmp_path / "trace.csv"
    code = cli_main(
        [
            "single-trial", "--config", tiny_config, "--trial", "3",
            "--mode", "aware", "--scenarios", "emi:-65",
            "--out", str(out), "--dump-channels", str(dump), "--trace", str(trace),
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("trial 3 mode aware\n")
    assert "emi_-65: sum_rate_bps_hz=" in text
    assert (dump / "channels_trial00003.npz").exists()
    assert trace.read_text(encoding="utf-8").splitlines()[0] == TRACE_HEADER


@pytest.mark.parametrize("command", ["single-trial", "sweep-power"])
def test_unit_power_is_a_usage_error(command, tiny_config, capsys):
    # the config owns every transmit power: there is no flag that overrides it
    args = [command, "--config", tiny_config, "--scenarios", "eif", "--unit-power"]
    assert cli_main(args) == EXIT_USAGE
    assert "--unit-power" in capsys.readouterr().err


def test_console_script_installed(tiny_config):
    proc = subprocess.run(
        ["risim", "single-trial", "--config", tiny_config, "--scenarios", "eif"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("trial 0 mode fixed")
