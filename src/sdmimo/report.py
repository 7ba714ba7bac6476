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
from .qam import QamConstellation

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


def _write_csv(path, header: List[str], rows: Iterable) -> Path:
    """One header line, then one line per row with every cell through `_fmt`."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)
    return path


def write_ber_csv(path, records: List[MetricRecord]) -> Path:
    header = ["scheme", "precoder", "snr_db", "sigma_v2", "ber", "ber_lo", "ber_hi", "bits",
              "errors", "mean_beta", "overloads", "solver_converged_frac",
              "solver_mean_admm_iters", "failed_trials"]
    return _write_csv(path, header, (
        [r.scheme, r.precoder, r.snr_db, r.sigma_v2, r.ber, *wilson_interval(r.errors, r.bits),
         r.bits, r.errors, r.mean_beta, r.overloads, r.solver_converged_frac,
         r.solver_mean_admm_iters, r.failed_trials] for r in records))


def write_scatter_csv(path, result: ScatterResult) -> Path:
    k_users, n_blocks = result.points.shape
    return _write_csv(path, ["user", "re", "im", "symbol_re", "symbol_im"], (
        [i, float(pt.real), float(pt.imag), float(sym.real), float(sym.imag)]
        for i in range(k_users)
        for pt, sym in zip(result.points[i], result.symbols[i])))


def write_constellation_csv(path, d: int) -> Path:
    """Constellation points plus the per-axis decision thresholds (the
    even integers between adjacent levels), for overlaying on scatter
    plots."""
    levels = QamConstellation(d).levels.astype(float)
    points = [["point", lr, li] for lr in levels for li in levels]
    thresholds = [["axis_threshold", t, ""] for t in levels[:-1] + 1]
    return _write_csv(path, ["kind", "re", "im"], points + thresholds)


def write_spectrum_csv(path, rows: Iterable[SpectrumRow]) -> Path:
    return _write_csv(path, ["theta_deg", "measured", "predicted"],
                      ([r.theta_deg, r.measured, r.predicted] for r in rows))


def write_pa_curves_csv(path, rows) -> Path:
    return _write_csv(path, ["r", "g_a", "g_p", "ideal_g_a", "is_r1db"], rows)


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
