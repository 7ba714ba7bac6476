"""CSV and manifest writers for experiment outputs.

All numeric fields are formatted with 12 significant digits so files
are stable across runs and suitable for regression diffing.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, List, Tuple

from .config import ExperimentConfig, config_to_dict
from .harness import MetricRecord, ScatterResult, SpectrumRow

__all__ = ["wilson_interval", "write_ber_csv", "write_scatter_csv", "write_spectrum_csv",
           "write_manifest"]

# standard normal quantile at 0.975: two-sided 95% coverage
_Z95 = 1.959963984540054


def wilson_interval(errors: int, bits: int) -> Tuple[float, float]:
    """Wilson score 95% interval for the bit error rate ``errors / bits``.

    Unlike the normal approximation it stays inside [0, 1] and is not
    empty at zero errors; its bounds are exactly 0 at ``errors == 0`` and
    exactly 1 at ``errors == bits``.  NaN when no bits were counted.
    """
    if bits <= 0:
        return math.nan, math.nan
    z2 = _Z95 * _Z95
    center = (errors + z2 / 2.0) / (bits + z2)
    half = _Z95 * math.sqrt(errors * (bits - errors) / bits + z2 / 4.0) / (bits + z2)
    return (0.0 if errors == 0 else center - half,
            1.0 if errors == bits else center + half)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_ber_csv(path, records: List[MetricRecord]) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "precoder", "snr_db", "sigma_v2", "ber", "ber_lo", "ber_hi",
                    "bits", "errors", "mean_beta", "overloads", "solver_converged_frac",
                    "solver_mean_admm_iters", "failed_trials"])
        for r in records:
            lo, hi = wilson_interval(r.errors, r.bits)
            w.writerow([r.scheme, r.precoder, _fmt(r.snr_db), _fmt(r.sigma_v2),
                        _fmt(r.ber), _fmt(lo), _fmt(hi), r.bits, r.errors,
                        _fmt(r.mean_beta), r.overloads,
                        _fmt(r.solver_converged_frac), _fmt(r.solver_mean_admm_iters),
                        r.failed_trials])
    return path


def write_scatter_csv(path, result: ScatterResult) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "re", "im", "symbol_re", "symbol_im"])
        k_users, n_blocks = result.points.shape
        for i in range(k_users):
            for b in range(n_blocks):
                pt = result.points[i, b]
                sym = result.symbols[i, b]
                w.writerow([i, _fmt(float(pt.real)), _fmt(float(pt.imag)),
                            _fmt(float(sym.real)), _fmt(float(sym.imag))])
    return path


def write_constellation_csv(path, d: int) -> Path:
    """Constellation points plus the per-axis decision thresholds (the
    even integers between adjacent levels), for overlaying on scatter
    plots."""
    path = Path(path)
    levels = range(-(2 * d - 1), 2 * d, 2)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "re", "im"])
        for lr in levels:
            for li in levels:
                w.writerow(["point", _fmt(float(lr)), _fmt(float(li))])
        for t in range(-(2 * d - 2), 2 * d - 1, 2):
            w.writerow(["axis_threshold", _fmt(float(t)), ""])
    return path


def write_spectrum_csv(path, rows: Iterable[SpectrumRow]) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta_deg", "measured", "predicted"])
        for r in rows:
            w.writerow([_fmt(r.theta_deg), _fmt(r.measured), _fmt(r.predicted)])
    return path


def write_pa_curves_csv(path, rows) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "g_a", "g_p", "ideal_g_a", "is_r1db"])
        for r, ga, gp, ideal, marker in rows:
            w.writerow([_fmt(r), _fmt(ga), _fmt(gp), _fmt(ideal), marker])
    return path


def write_manifest(path, cfg: ExperimentConfig, outputs: List[str],
                   started: str, finished: str, failed_trials: int = 0) -> Path:
    from . import __version__

    path = Path(path)
    doc = {
        "tool": "sdmimo",
        "version": __version__,
        "master_seed": cfg.run.seed,
        "started_utc": started,
        "finished_utc": finished,
        "failed_trials": failed_trials,
        "outputs": outputs,
        "config": config_to_dict(cfg),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
