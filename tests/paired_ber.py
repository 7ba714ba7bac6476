"""Paired BER comparison between two source trees.

Usage (from the repository root):

    python tests/paired_ber.py BASE_SRC HEAD_SRC [--config FILE]
                               [--selectors zf-tsd,slp-tsd] [--trials N]

Each ``*_SRC`` is a directory holding the ``sdmimo`` package (a
checkout's ``src``).  For each tree and selector a fresh interpreter
builds the BER experiment of ``--config`` (default
``configs/ber_desk.json``), with the config's seed and the given trial
count (default: the config's), and records every trial's bit errors per
noise point through ``harness._run_trial``, as ``run_ber`` tallies them.
Trial t draws from ``SeedSequence((seed, t))`` in both trees, so the
same trial index is a pair.  The config and the subprocess launch are
those of ``tests/slp_parity.py``.

Per selector and noise point the script prints the base and head errors,
the paired difference head - base, its trial-clustered standard error
``sqrt(T / (T - 1) * sum_t (d_t - mean d)^2)`` over the T per-trial
differences d_t (errors cluster by channel, so the trial is the unit),
and z = difference / SE.  It also says which draws are paired: per
trial, it compares digests of the channel's frequency response, of the
block's symbols and of the noise that ``add_noise`` adds, and reports in
how many paired trials each is identical in the two trees.  A trial that
raises in either tree is left out of the pairs and named.

The report is informational: the script exits 0 unless a tree fails to
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from slp_parity import DEFAULT_CONFIG, experiment_doc, run_in_tree

DRAWS = ("channel", "symbols", "noise")


def _digest(a) -> str:
    return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()


def record(config: str, selector: str, trials: Optional[int]) -> dict:
    """Per-trial errors of `selector` on the experiment of `config`, with
    the importable ``sdmimo``, and per trial the digests of its draws
    (channel, symbols and noise of each block, concatenated)."""
    from sdmimo import harness
    from sdmimo.config import config_from_dict

    doc = experiment_doc(config, selector, None, trials)
    cfg = config_from_dict(doc)
    ctx = harness.build_context(cfg)

    draws: Dict[str, List[str]] = {}
    real_block, real_noise = harness._run_block, harness.add_noise

    def block(ctx, chan, symbols, grid):
        draws["channel"].append(_digest(chan.freq))
        draws["symbols"].append(_digest(symbols))
        return real_block(ctx, chan, symbols, grid)

    def noise(y, levels, rng):
        out = real_noise(y, levels, rng)
        draws["noise"].append(_digest(out - y))
        return out

    errors, digests, failures = [], [], []
    harness._run_block, harness.add_noise = block, noise
    try:
        for t in range(cfg.run.trials):
            draws.update({key: [] for key in DRAWS})
            try:
                errors.append([int(e) for e in harness._run_trial(ctx, t)[0]])
            except Exception as exc:  # noqa: BLE001 - counted and named, as run_ber does
                errors.append(None)
                failures.append(f"trial {t}: {type(exc).__name__}: {exc}")
            digests.append({key: _digest(np.array(v)) for key, v in draws.items()})
    finally:
        harness._run_block, harness.add_noise = real_block, real_noise
    bits = (cfg.run.blocks_per_trial * 2 * ctx.const.bits_per_axis
            * cfg.system.k * cfg.system.m_s)
    return {"module": harness.__file__, "snr_db": [-10.0 * math.log10(s) if s > 0 else math.inf
                                                   for s in cfg.sigma_v2],
            "bits_per_trial": bits, "errors": errors, "digests": digests, "failures": failures}


def record_tree(src: Path, config: str, selector: str, trials: Optional[int]) -> dict:
    """:func:`record` in a fresh interpreter that imports ``sdmimo`` from `src`."""
    return run_in_tree(src, "paired_ber", "record", config, selector, trials)


def paired_stats(base: np.ndarray, head: np.ndarray) -> dict:
    """Paired statistics of two ``(T, S)`` arrays of per-trial error
    counts: per column the totals, their difference head - base, the
    trial-clustered SE of that difference and z = difference / SE (0 when
    the difference is 0, and +-inf when it is not and the SE is 0)."""
    base, head = np.asarray(base, dtype=float), np.asarray(head, dtype=float)
    d = head - base
    t = d.shape[0]
    diff = d.sum(axis=0)
    se = (np.sqrt(t / (t - 1) * np.sum((d - d.mean(axis=0)) ** 2, axis=0))
          if t > 1 else np.full(diff.shape, np.nan))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0, 0.0, diff / se)
    return {"base": base.sum(axis=0), "head": head.sum(axis=0), "diff": diff, "se": se, "z": z}


def compare(selector: str, base: dict, head: dict) -> List[str]:
    """Report lines for one selector's records of the two trees."""
    kept = [t for t, (b, h) in enumerate(zip(base["errors"], head["errors"]))
            if b is not None and h is not None]
    lines = [f"{selector}: {len(kept)} paired trials"]
    for tree, rec in (("base", base), ("head", head)):
        lines += [f"  left out, {tree} {failure}" for failure in rec["failures"]]
    same = {key: sum(base["digests"][t][key] == head["digests"][t][key] for t in kept)
            for key in DRAWS}
    lines.append("  identical draws: " + ", ".join(
        f"{key} {same[key]}/{len(kept)}" for key in DRAWS))
    if not kept:
        return lines
    stats = paired_stats(np.array([base["errors"][t] for t in kept]),
                         np.array([head["errors"][t] for t in kept]))
    bits = len(kept) * base["bits_per_trial"]
    lines.append(f"  {'snr_db':>6} {'base':>7} {'head':>7} {'diff':>7} {'se':>8} {'z':>7}"
                 f"   ({bits} bits per point)")
    for i, snr in enumerate(base["snr_db"]):
        lines.append(f"  {snr:6g} {stats['base'][i]:7.0f} {stats['head'][i]:7.0f} "
                     f"{stats['diff'][i]:+7.0f} {stats['se'][i]:8.2f} {stats['z'][i]:+7.2f}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired per-trial BER comparison between two source trees.")
    parser.add_argument("base", type=Path, help="directory holding the base's sdmimo")
    parser.add_argument("head", type=Path, help="directory holding the head's sdmimo")
    parser.add_argument("--config", default=str(DEFAULT_CONFIG), help="experiment JSON")
    parser.add_argument("--selectors", default="zf-tsd",
                        help="comma-separated precoder selectors (default: zf-tsd)")
    parser.add_argument("--trials", type=int, default=None, help="trials (default: config's)")
    args = parser.parse_args(argv)
    for selector in args.selectors.split(","):
        base, head = (record_tree(src, args.config, selector, args.trials)
                      for src in (args.base, args.head))
        print("\n".join(compare(selector, base, head)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
