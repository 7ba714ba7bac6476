"""Benchmark workloads: the per-step experiment documents derived from the
workload seed, the per-step output checks, and the fixed-seed reference
check.

A *step* is one call into ``harness.run_ber`` or ``harness.run_scatter``.
Every input a step sees (channel, symbols, noise) follows from the
experiment document built here, so the same workload seed gives the same
steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

SNR_DB = (14.0, 20.0, 24.0, 28.0, 32.0, 36.0)

# Seed of the reference check: the steps replayed after the timed phase of
# every run and compared with reference.json.
REF_SEED = 2024

# Acceptance band of the reference check: 3 sigma of a binomial error count.
BAND_SIGMAS = 3.0
# Relative tolerance on a reference scatter rms_deviation.
RMS_REL_TOL = 1e-6


def _doc(n: int, k: int, precoder: str, scheme: str, noise: dict, seed: int,
         blocks: int = 1) -> dict:
    # The desk-scale system of configs/ber_desk.json, copied so that the
    # benchmark does not move when that file is edited.
    return {
        "system": {"n": n, "k": k, "d_over_lambda": 0.125, "m": 512, "m_s": 300,
                   "m_cp": 40, "osf": 7, "j_paths": 4, "l_taps": 20,
                   "angle_spread_deg": 35.0, "delay_min_ts": 5.0,
                   "delay_max_ts": 15.0, "rrc_rolloff": 0.22, "rrc_span_ts": 5.0,
                   "qam_d": 2},
        "pa": {"kind": "modified_rapp", "A": 16.0, "r_max": 0.1187, "phi": 1.1,
               "zeta": 4.0, "B": -345.0, "C": 0.17},
        "scheme": scheme,
        "precoder": {"name": precoder},
        "noise": noise,
        "run": {"trials": 1, "blocks_per_trial": blocks, "seed": seed,
                "self_check": False},
    }


def step_seed(workload_seed: int, index: int) -> int:
    """Master seed of one step, derived from the workload seed."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


# criterion 9's three zero-forcing chains: (label, precoder, scheme)
_ZF_CHAINS = (("zf-tsd", "zf-tsd", "auto"),
              ("zf-bo", "zf-bo", "auto"),
              ("zf-plain", "zf-sd", "none"))


def _ber_zf_step(seed: int, i: int) -> Tuple[str, dict]:
    label, precoder, scheme = _ZF_CHAINS[i % len(_ZF_CHAINS)]
    return label, _doc(16, 4, precoder, scheme, {"inv_sigma_v2_db": list(SNR_DB)},
                       step_seed(seed, i))


def _ber_slp_step(seed: int, i: int) -> Tuple[str, dict]:
    # one SNR point per step, cycling over the grid; every step draws its
    # own channel, since the solver's cost depends on the channel
    snr = SNR_DB[i % len(SNR_DB)]
    return "slp-tsd", _doc(16, 4, "slp-tsd", "auto", {"inv_sigma_v2_db": [snr]},
                           step_seed(seed, i))


SCATTER_BLOCKS = 3


def _scatter_step(seed: int, i: int) -> Tuple[str, dict]:
    return "zf-tsd", _doc(64, 10, "zf-tsd", "auto", {"sigma_v2": [0.0]},
                          step_seed(seed, i), blocks=SCATTER_BLOCKS)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                                   # "ber" | "scatter"
    step: Callable[[int, int], Tuple[str, dict]]
    cycle: int          # steps after which the chain/SNR rotation repeats
    ref_steps: int      # steps replayed by the reference check
    slp: bool = False   # per-SNR solver counts are reported


WORKLOADS: Dict[str, Workload] = {
    "ber-zf": Workload("ber-zf", "ber", _ber_zf_step, cycle=3, ref_steps=12),
    "ber-slp": Workload("ber-slp", "ber", _ber_slp_step, cycle=6, ref_steps=6, slp=True),
    "scatter": Workload("scatter", "scatter", _scatter_step, cycle=1, ref_steps=2),
}


def run_step(harness, wl: Workload, cfg):
    """One step; the harness entry point is looked up on every call so a
    tracer installed on the module sees it."""
    if wl.kind == "ber":
        return harness.run_ber(cfg)
    return harness.run_scatter(cfg)


# zf_precode's rank test: a subcarrier with sigma_min^2 <= 1e-10 sigma_max^2
# makes the zero-forcing and symbol-level precoders raise RankDeficient.
SINGULAR_SV2_RATIO = 1e-10


def singular_channel(sdmimo, cfg) -> bool:
    """Whether the step's channel (the first draw of trial 0's substream) is
    singular at some subcarrier, so that raising RankDeficient is the
    documented outcome of the step rather than a failure."""
    s = cfg.system
    chan = sdmimo.draw_channel(
        sdmimo.harness.substream(cfg.run.seed, 0),
        sdmimo.UlaGeometry(n=s.n, d_over_lambda=s.d_over_lambda), s.ofdm,
        s.k, s.j_paths, s.l_taps,
        rx_filter=sdmimo.RrcFilter(rolloff=s.rrc_rolloff, span=s.rrc_span_ts),
        pa_gain=cfg.pa.gain, angle_spread_deg=s.angle_spread_deg,
        delay_range_ts=(s.delay_min_ts, s.delay_max_ts))
    sv = np.linalg.svd(chan.freq, compute_uv=False)
    return bool(np.any(sv[:, -1] ** 2 <= SINGULAR_SV2_RATIO * sv[:, 0] ** 2))


def check_step(wl: Workload, cfg, result) -> Optional[str]:
    """Invariants every step's output must satisfy; None when it passes."""
    if wl.kind == "scatter":
        k, blocks = cfg.system.k, cfg.run.blocks_per_trial
        pts, sym = np.asarray(result.points), np.asarray(result.symbols)
        if pts.shape != (k, blocks) or sym.shape != (k, blocks):
            return f"scatter shape {pts.shape}, expected {(k, blocks)}"
        if not np.all(np.isfinite(pts)):
            return "non-finite scatter point"
        # noise-free shaped ZF stays within half a level spacing (1) of the
        # intended symbol on both axes
        worst = float(np.max(np.maximum(abs(pts.real - sym.real), abs(pts.imag - sym.imag))))
        if worst >= 1.0:
            return f"scatter point {worst:.3g} from its symbol on one axis"
        rms = float(np.sqrt(np.mean(np.abs(pts - sym) ** 2)))
        if not math.isclose(result.rms_deviation, rms, rel_tol=1e-12):
            return f"rms_deviation {result.rms_deviation!r} != {rms!r} recomputed"
        return None

    if len(result) != len(cfg.sigma_v2):
        return f"{len(result)} BER records for {len(cfg.sigma_v2)} noise points"
    bits_per_symbol = 2 * int(math.log2(2 * cfg.system.qam_d))
    bits = (bits_per_symbol * cfg.system.k * cfg.system.m_s
            * cfg.run.blocks_per_trial * cfg.run.trials)
    for rec in result:
        if rec.bits != bits:
            return f"{rec.bits} bits counted, expected {bits}"
        if not 0 <= rec.errors <= rec.bits:
            return f"{rec.errors} errors out of {rec.bits} bits"
        if not (math.isfinite(rec.mean_beta) and rec.mean_beta > 0):
            return f"mean_beta {rec.mean_beta!r}"
        if rec.overloads != 0:
            return f"{rec.overloads} modulator overloads under the no-overloading budget"
        if wl.slp and not (0.0 <= rec.solver_converged_frac <= 1.0
                           and 1.0 <= rec.solver_mean_admm_iters <= cfg.precoder.admm_max_iter):
            return (f"solver stats converged_frac={rec.solver_converged_frac!r} "
                    f"admm_iters={rec.solver_mean_admm_iters!r}")
    return None


def reference_summary(wl: Workload, steps: List[Tuple[str, object]]) -> dict:
    """Aggregate the reference steps' outputs: errors/bits per (chain, SNR)
    for BER workloads, rms_deviation per step for scatter."""
    if wl.kind == "scatter":
        return {"rms_deviation": [float(res.rms_deviation) for _, res in steps]}
    agg: Dict[Tuple[str, float], List[int]] = {}
    for label, records in steps:
        for rec in records:
            key = (label, round(float(rec.snr_db), 6))
            tally = agg.setdefault(key, [0, 0])
            tally[0] += int(rec.errors)
            tally[1] += int(rec.bits)
    return {"points": [{"chain": c, "snr_db": s, "errors": e, "bits": b}
                       for (c, s), (e, b) in sorted(agg.items())]}


def compare_reference(wl: Workload, ref: dict, got: dict) -> dict:
    """Compare a reference summary with the recorded one.

    BER points pass within a 3-sigma binomial band around the recorded
    error count (at least one error's worth of variance).  The SLP band is
    one-sided: fewer errors than recorded pass, because a better solver is
    allowed to lower the BER.  Scatter rms_deviation passes within
    RMS_REL_TOL.  Exact matches are counted separately.
    """
    out = {"points": 0, "exact": 0, "failed": [], "max_sigmas": 0.0}
    if wl.kind == "scatter":
        want, have = ref["rms_deviation"], got["rms_deviation"]
        if len(want) != len(have):
            out["failed"].append(f"{len(have)} scatter steps, reference has {len(want)}")
            return out
        for w, h in zip(want, have):
            out["points"] += 1
            out["exact"] += int(w == h)
            if not abs(h - w) <= RMS_REL_TOL * abs(w):
                out["failed"].append(f"rms_deviation {h!r} vs reference {w!r}")
        return out
    have = {(p["chain"], p["snr_db"]): p for p in got["points"]}
    for p in ref["points"]:
        out["points"] += 1
        q = have.get((p["chain"], p["snr_db"]))
        if q is None or q["bits"] != p["bits"]:
            out["failed"].append(f"{p['chain']} @ {p['snr_db']} dB: bits differ or missing")
            continue
        out["exact"] += int(q["errors"] == p["errors"])
        rate = max(p["errors"], 1) / p["bits"]
        sigma = math.sqrt(p["bits"] * rate * (1.0 - rate))
        dev = (q["errors"] - p["errors"]) / sigma
        out["max_sigmas"] = max(out["max_sigmas"], abs(dev))
        if dev > BAND_SIGMAS or (not wl.slp and dev < -BAND_SIGMAS):
            out["failed"].append(f"{p['chain']} @ {p['snr_db']} dB: {q['errors']} errors, "
                                 f"reference {p['errors']} ({dev:+.1f} sigma)")
    return out
