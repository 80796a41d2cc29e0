"""Command line interface for sweeps and single-trial inspection."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .harness import (
    DEFAULT_CASES,
    EMI_SWEEP_CASES,
    Mode,
    SweepSpec,
    _fmt,
    parse_scenario_token,
    render_csv,
    render_trace,
    run_single_trial,
    run_sweep,
)
from .scenario import ConfigError, default_config, load_config
from .sinr import outage_indicator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_SWEEPS = {
    "sweep-power": ("tx_power_dbm", "10,15,20,25,30,35,40", DEFAULT_CASES, Mode.FIXED),
    "sweep-elements": ("ris_elements", "25,100,225,400", DEFAULT_CASES, Mode.FIXED),
    "sweep-emi": ("emi_dbm", "-75,-70,-65,-60", EMI_SWEEP_CASES, Mode.UNAWARE),
}


def _add_common(p: argparse.ArgumentParser, config_required: bool) -> None:
    p.add_argument(
        "--config",
        required=config_required,
        help="scenario config JSON" + ("" if config_required else " (built-in default if omitted)"),
    )
    p.add_argument("--seed", type=int, help="root RNG seed (sets the config's rng_seed for this run)")
    p.add_argument("--mode", choices=[m.value for m in Mode], help="precoding/phase mode")
    p.add_argument(
        "--scenarios",
        help="comma-separated scenario tokens, name[:emi_dbm], e.g. eif,irr,emi:-65",
    )
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--trace", help="write a per-iteration optimizer trace CSV here")


def _build_parser() -> _Parser:
    parser = _Parser(prog="risim", description="Multi-RIS downlink Monte Carlo simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (variable, default_grid, _, default_mode) in _SWEEPS.items():
        p = sub.add_parser(name, help=f"sweep {variable}")
        _add_common(p, config_required=True)
        p.add_argument("--trials", type=int, help="Monte Carlo trials (sets the config's mc_trials for this run)")
        p.add_argument("--grid", default=default_grid, help=f"comma list (default: {default_grid})")
        p.set_defaults(default_mode=default_mode)
    p = sub.add_parser("single-trial", help="evaluate scenarios on one channel draw")
    _add_common(p, config_required=False)
    p.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
    p.add_argument("--dump-channels", help="write the drawn channels to this directory as .npz")
    p.set_defaults(default_mode=Mode.FIXED, trials=None)
    return parser


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad grid value in '{text}'") from exc


def _parse_cases(text: str | None, default):
    if text is None:
        return default
    return tuple(parse_scenario_token(tok) for tok in text.split(",") if tok.strip() != "")


def _fmt_vec(values) -> str:
    return "[" + ",".join(_fmt(v) for v in np.asarray(values).ravel()) + "]"


def _render_single(results, cfg, mode: Mode, trial: int) -> str:
    lines = [f"trial {trial} mode {mode.value}"]
    threshold = cfg.rate_threshold_bps_hz
    for case, report in results:
        with np.errstate(divide="ignore"):
            sinr_db = 10.0 * np.log10(report.sinr)
        outage = outage_indicator(report.rates_bps_hz, threshold)
        lines.append(
            f"{case.label}: sum_rate_bps_hz={_fmt(report.sum_rate_bps_hz)} "
            f"rates={_fmt_vec(report.rates_bps_hz)} sinr_db={_fmt_vec(sinr_db)} "
            f"outage=[{','.join(str(v) for v in outage)}]"
        )
    return "\n".join(lines) + "\n"


def _dispatch(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, mc_trials=args.trials)
    mode = Mode(args.mode) if args.mode else args.default_mode
    trace_rows = [] if args.trace else None

    if args.command == "single-trial":
        cases = _parse_cases(args.scenarios, DEFAULT_CASES)
        results = run_single_trial(
            cfg,
            cases,
            mode,
            trial=args.trial,
            trace=trace_rows,
            dump_dir=args.dump_channels,
        )
        text = _render_single(results, cfg, mode, args.trial)
    else:
        variable, _, default_cases, _ = _SWEEPS[args.command]
        spec = SweepSpec(
            variable=variable,
            grid=_parse_grid(args.grid),
            scenarios=_parse_cases(args.scenarios, default_cases),
            mode=mode,
        )
        text = render_csv(run_sweep(cfg, spec, trace=trace_rows))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.trace:
        Path(args.trace).write_text(render_trace(trace_rows), encoding="utf-8")
    return EXIT_OK


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return _dispatch(args)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"risim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
