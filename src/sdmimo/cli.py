"""Command-line front end.

Subcommands:

* ``pa-curves``        AM-AM / AM-PM table for the configured PA
* ``shaping-spectrum`` measured vs predicted distortion power over angle
* ``ber``              Monte Carlo BER sweep over the noise grid
* ``scatter``          noise-free IQ cloud at one subcarrier

Every run writes its outputs plus a ``manifest.json`` (config snapshot,
seed, timestamps, file list) under ``--out``; input config files are
never modified.  Exit codes: 0 success, 1 runtime failure, 2 usage
error, 3 invalid configuration.  Failures print a machine-readable JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import ConfigError, NoCompressionPoint
from .harness import run_ber, run_scatter, run_shaping_spectrum
from .pa import amp_response, compute_r1db, phase_response
from .report import (
    write_ber_csv,
    write_constellation_csv,
    write_manifest,
    write_pa_curves_csv,
    write_scatter_csv,
    write_spectrum_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _error_json(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _apply_overrides(cfg: ExperimentConfig, seed: Optional[int]) -> ExperimentConfig:
    if seed is None:
        return cfg
    if seed < 0:
        raise ConfigError("--seed must be >= 0")
    run = dataclasses.replace(cfg.run, seed=seed)
    return dataclasses.replace(cfg, run=run)


def positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1 (its name is in the
    usage error for a value that is not an integer)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _pa_curve_rows(cfg: ExperimentConfig, n_points: int):
    pa = cfg.pa
    grid = list(np.linspace(0.0, 2.0 * pa.r_max, n_points))
    try:
        r1db = compute_r1db(pa)
        grid.append(r1db)
    except NoCompressionPoint:
        r1db = None
    grid.sort()
    rows = []
    for r in grid:
        marker = 1 if (r1db is not None and r == r1db) else 0
        rows.append((float(r), float(amp_response(pa, r)), float(phase_response(pa, r)),
                     float(amp_response(pa.linear, r)), marker))
    return rows


def _run_command(args, cfg: ExperimentConfig, out_dir: Path) -> Tuple[List[Path], int]:
    """Run one subcommand; returns the files it wrote and the failed-trial count."""
    if args.command == "pa-curves":
        return [write_pa_curves_csv(out_dir / "pa_curves.csv", _pa_curve_rows(cfg, args.points))], 0
    if args.command == "ber":
        records = run_ber(cfg, workers=args.threads)
        return [write_ber_csv(out_dir / "ber.csv", records)], records[0].failed_trials
    if args.command == "scatter":
        return [write_scatter_csv(out_dir / "scatter.csv", run_scatter(cfg)),
                write_constellation_csv(out_dir / "constellation.csv", cfg.system.qam_d)], 0
    return [write_spectrum_csv(out_dir / "spectrum.csv", run_shaping_spectrum(cfg))], 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdmimo",
        description="Spatial sigma-delta PA-distortion shaping experiments "
                    "(multi-user MIMO-OFDM downlink).",
        epilog="Config file: JSON with sections system, pa, scheme, precoder, "
               "noise, run; see the package README for the key reference.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="JSON experiment configuration file")
    common.add_argument("--out", required=True, metavar="DIR",
                        help="output directory (created if missing)")
    common.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the master seed from the config")

    p = sub.add_parser("pa-curves", parents=[common],
                       help="tabulate the PA AM-AM/AM-PM responses")
    p.add_argument("--points", type=positive_int, default=512, help="amplitude grid size")

    sub.add_parser("shaping-spectrum", parents=[common],
                   help="distortion power vs angle, measured and predicted")

    p = sub.add_parser("ber", parents=[common], help="Monte Carlo BER sweep")
    p.add_argument("--threads", type=positive_int, default=1, metavar="N",
                   help="parallel trial workers (at most one per trial)")

    sub.add_parser("scatter", parents=[common],
                   help="noise-free IQ cloud at one subcarrier")
    return parser


def cmd_dispatch(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE

    try:
        cfg = _apply_overrides(load_config(args.config), args.seed)
    except ConfigError as exc:
        _error_json("config", str(exc))
        return EXIT_CONFIG

    out_dir = Path(args.out)
    started = _utcnow()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths, failed_trials = _run_command(args, cfg, out_dir)
        manifest = write_manifest(out_dir / "manifest.json", cfg, [p.name for p in paths],
                                  started, _utcnow(), failed_trials)
        for path in paths + [manifest]:
            print(path)
    except ConfigError as exc:
        _error_json("config", str(exc))
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        _error_json("runtime", f"{type(exc).__name__}: {exc}")
        return EXIT_RUNTIME
    return EXIT_OK


def main() -> None:
    sys.exit(cmd_dispatch())
