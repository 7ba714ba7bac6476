import concurrent.futures
import dataclasses
import json
import math
import platform
import statistics
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from sdmimo import harness
from sdmimo.channel import add_noise, propagate
from sdmimo.config import PRECODER_NAMES, config_from_dict
from sdmimo.errors import ConfigError, RankDeficient
from sdmimo.harness import (
    build_context,
    run_ber,
    run_scatter,
    run_shaping_spectrum,
    self_check_linear_chain,
    substream,
)
from sdmimo.ofdm import receiver_dft
from sdmimo.qam import detect, symbols_to_bits_errors


def _tiny_doc(precoder="zf-ref", scheme="auto", **run_kw):
    run = {"trials": 2, "blocks_per_trial": 1, "seed": 99, "self_check": False}
    run.update(run_kw)
    return {
        "system": {"n": 4, "k": 2, "m": 64, "m_s": 40, "qam_d": 2},
        "pa": {"kind": "modified_rapp"},
        "precoder": {"name": precoder},
        "scheme": scheme,
        "noise": {"sigma_v2": [0.0, 1e-3]},
        "run": run,
    }


def _chain(precoder, scheme="auto"):
    return build_context(config_from_dict(_tiny_doc(precoder, scheme))).chain


def test_resolve_chain_defaults():
    spec = _chain("zf-tsd")
    assert (spec.family, spec.budget_kind, spec.scheme) == ("zf", "headroom", "tsd1")
    spec = _chain("zf-bo")
    assert (spec.budget_kind, spec.scheme, spec.pa_mode) == ("backoff", "none", "except_last")
    spec = _chain("slp-ref")
    assert (spec.family, spec.pa_mode) == ("slp", "ideal")
    # scheme override turns the sigma-delta ZF chain into plain distorting ZF
    spec = _chain("zf-sd", "none")
    assert (spec.scheme, spec.pa_mode) == ("none", "all")
    with pytest.raises(ConfigError):
        _chain("zf-dirty")


def test_second_order_scheme_shrinks_budget():
    cfg1 = config_from_dict(_tiny_doc("zf-sd"))
    cfg2 = config_from_dict({**_tiny_doc("zf-sd"), "scheme": "sd2"})
    ctx1 = build_context(cfg1)
    ctx2 = build_context(cfg2)
    assert ctx2.bound == pytest.approx(ctx1.budget.chi - 3 * ctx1.budget.psi)
    assert ctx2.bound < ctx1.bound


def test_substream_independent_of_other_trials():
    a = substream(5, 3).standard_normal(8)
    b = substream(5, 3).standard_normal(8)
    c = substream(5, 4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_self_check_linear_chain_passes():
    cfg = config_from_dict(_tiny_doc())
    err = self_check_linear_chain(build_context(cfg))
    assert err <= 1e-6


def test_ber_noiseless_ideal_chain_is_error_free():
    cfg = config_from_dict(_tiny_doc("zf-ref", trials=4, blocks_per_trial=80))
    records = run_ber(cfg)
    assert records[0].sigma_v2 == 0.0
    assert records[0].errors == 0
    assert records[0].bits >= 100_000


def test_ber_saturates_at_half_under_pure_noise():
    doc = _tiny_doc("zf-ref")
    doc["noise"] = {"sigma_v2": [1e9]}
    doc["run"]["trials"] = 4
    records = run_ber(config_from_dict(doc))
    ber = records[0].ber
    n = records[0].bits
    assert abs(ber - 0.5) <= 3.0 * np.sqrt(0.25 / n)


def test_ber_deterministic_across_runs_and_workers():
    cfg = config_from_dict(_tiny_doc("zf-tsd", trials=3))
    a = run_ber(cfg)
    b = run_ber(cfg)
    assert a == b
    c = run_ber(cfg, workers=2)
    assert a == c


def test_process_pool_has_at_most_one_worker_per_trial(monkeypatch):
    sizes = []

    class RecordingPool:
        """Records its size and maps in this process: starts no worker."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = config_from_dict(_tiny_doc("zf-tsd", trials=2))
    assert run_ber(cfg, workers=8) == run_ber(cfg)
    assert sizes == [2]
    # a single trial runs in this process
    run_ber(config_from_dict(_tiny_doc("zf-tsd", trials=1)), workers=8)
    assert sizes == [2]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator policy")
def test_repeated_run_does_not_fault_its_heap_back_in():
    # with glibc's dynamic thresholds a desk-scale zf-tsd trial maps its
    # largest arrays fresh and trims the heap when they are freed, about
    # 320 minor faults a call; with the heap kept a warm call takes almost none
    import resource

    doc = json.loads((Path(__file__).parents[1] / "configs" / "ber_desk.json").read_text())
    doc["precoder"] = {"name": "zf-tsd"}
    doc["run"].update(trials=1, self_check=False)
    cfg = config_from_dict(doc)
    for _ in range(3):
        run_ber(cfg)
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_ber(cfg)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert statistics.median(faults) < 40, faults


@pytest.mark.parametrize("lookup", ["no C library", "no mallopt"])
def test_heap_policy_is_a_no_op_without_mallopt(monkeypatch, lookup):
    cfg = config_from_dict(_tiny_doc("zf-tsd"))
    expected = run_ber(cfg)
    names = []

    def cdll(name):
        names.append(name)
        if lookup == "no C library":
            raise OSError(lookup)
        return object()

    monkeypatch.setattr(harness.ctypes, "CDLL", cdll)
    harness._keep_heap.cache_clear()
    try:
        assert run_ber(cfg) == expected
        assert run_ber(cfg) == expected
    finally:
        # the next run in this process sets the policy again
        harness._keep_heap.cache_clear()
    assert names == [None]


def test_ber_records_have_consistent_counts():
    cfg = config_from_dict(_tiny_doc("zf-tsd"))
    for rec in run_ber(cfg):
        assert 0 <= rec.errors <= rec.bits
        assert rec.ber == pytest.approx(rec.errors / rec.bits)
        assert rec.scheme == "tsd1" and rec.precoder == "zf-tsd"


def test_ber_adding_trials_preserves_prefix():
    # trial substreams depend only on (seed, trial index)
    doc2 = _tiny_doc("zf-tsd", trials=2)
    doc4 = _tiny_doc("zf-tsd", trials=4)
    r2 = run_ber(config_from_dict(doc2))
    r4 = run_ber(config_from_dict(doc4))
    # with double the trials the first half of the tallies is unchanged,
    # so the error counts can only grow
    assert all(b.errors >= a.errors for a, b in zip(r2, r4))
    assert all(b.bits == 2 * a.bits for a, b in zip(r2, r4))


def test_overloads_counted_when_budget_exceeds_modulator_bound():
    # total-power normalization does not cap the peak, so pushing it
    # through a first-order loop trips the overload accounting
    doc = _tiny_doc("zf-tp", scheme="sd1")
    records = run_ber(config_from_dict(doc))
    assert records[0].overloads > 0


def test_slp_runs_and_reports_diagnostics():
    doc = _tiny_doc("slp-tsd")
    doc["noise"] = {"sigma_v2": [1e-3]}
    records = run_ber(config_from_dict(doc))
    assert records[0].solver_mean_admm_iters >= 1
    assert 0.0 <= records[0].solver_converged_frac <= 1.0


def test_slp_solver_stats_are_per_snr():
    # with one block per trial both noise points solve on the same channel
    # and symbols, so each record must match the single-SNR run at its point
    # (the noise draws of the first point do not reach the second's solve)
    snrs = [10.0, 40.0]
    doc = _tiny_doc("slp-tsd")
    doc["noise"] = {"inv_sigma_v2_db": snrs}
    both = run_ber(config_from_dict(doc))
    for rec, snr in zip(both, snrs):
        doc["noise"] = {"inv_sigma_v2_db": [snr]}
        (alone,) = run_ber(config_from_dict(doc))
        assert rec.solver_converged_frac == alone.solver_converged_frac
        assert rec.solver_mean_admm_iters == alone.solver_mean_admm_iters
        assert (rec.mean_beta, rec.overloads) == (alone.mean_beta, alone.overloads)
    assert both[0].solver_mean_admm_iters != both[1].solver_mean_admm_iters
    assert both[0].mean_beta != both[1].mean_beta


def test_slp_start_is_shared_by_every_noise_point(monkeypatch):
    # the ZF start point and the modulator distortion measurement depend on
    # the channel and the block only: one of each per block on a 3-point
    # grid, and every solve equals the single-SNR run's solve at its point
    import sdmimo.harness as hz

    calls = {"zf_precode": 0, "modulate": 0}
    solves = []

    def counted(name):
        real = getattr(hz, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    real_slp = hz.slp_precode

    def recorded(chan, symbols, budget, sigma_eta, **kwargs):
        res = real_slp(chan, symbols, budget, sigma_eta, **kwargs)
        solves.append((sigma_eta, res.beta, res.z))
        return res

    monkeypatch.setattr(hz, "zf_precode", counted("zf_precode"))
    monkeypatch.setattr(hz, "modulate", counted("modulate"))
    monkeypatch.setattr(hz, "slp_precode", recorded)

    snrs = [10.0, 25.0, 40.0]
    doc = _tiny_doc("slp-tsd", trials=1, blocks_per_trial=2)
    doc["noise"] = {"inv_sigma_v2_db": snrs}
    run_ber(config_from_dict(doc))
    # per block: one measurement run plus one transmit run per noise point
    assert calls == {"zf_precode": 2, "modulate": 2 * (1 + len(snrs))}

    # with one block per trial every noise point solves on the same channel
    # and symbols as the single-SNR run; the first point also sees the same
    # noise draws
    doc = _tiny_doc("slp-tsd")
    doc["noise"] = {"inv_sigma_v2_db": snrs}
    solves.clear()
    records = run_ber(config_from_dict(doc))
    grid_solves = list(solves)
    for si, snr in enumerate(snrs):
        doc["noise"] = {"inv_sigma_v2_db": [snr]}
        solves.clear()
        (alone,) = run_ber(config_from_dict(doc))
        for (sig_a, beta_a, z_a), (sig_b, beta_b, z_b) in zip(
                grid_solves[si::len(snrs)], solves, strict=True):
            assert np.array_equal(sig_a, sig_b)
            assert np.array_equal(beta_a, beta_b)
            assert np.array_equal(z_a, z_b)
        rec = records[si]
        assert rec.solver_converged_frac == alone.solver_converged_frac
        assert rec.solver_mean_admm_iters == alone.solver_mean_admm_iters
        if si == 0:
            assert (rec.errors, rec.bits) == (alone.errors, alone.bits)


_DESK_SNR_DB = [14.0, 20.0, 24.0, 28.0, 32.0, 36.0]


def _per_point_zf_counts(ctx, trial):
    """Errors and bits per noise point of one zero-forcing trial, with a
    DFT, a detection and a bit tally of its own for every noise point: the
    reference for the stacked noise sweep in `_run_trial`."""
    import sdmimo.harness as hz

    cfg = ctx.cfg
    rng = substream(cfg.run.seed, trial)
    chan = hz._draw_trial_channel(ctx, rng)
    errors = np.zeros(len(cfg.sigma_v2), dtype=np.int64)
    bits = np.zeros(len(cfg.sigma_v2), dtype=np.int64)
    for _block in range(cfg.run.blocks_per_trial):
        symbols = ctx.const.random_symbols(rng, (cfg.system.k, cfg.system.m_s))
        result = hz._designs(ctx, chan, symbols, (0.0,))[0]
        u, _ = hz._transmit(ctx, result.x)
        y0 = propagate(chan, u)
        for si, sv2 in enumerate(cfg.sigma_v2):
            r = receiver_dft(ctx.ofdm, add_noise(y0, sv2, rng))
            s_hat = detect(r, ctx.ofdm.m * result.beta[:, None], ctx.const)
            errors[si] += symbols_to_bits_errors(symbols, s_hat, ctx.const)
            bits[si] += symbols.size * 2 * ctx.const.bits_per_axis
    return errors, bits


@pytest.mark.parametrize("precoder,scheme", [("zf-tsd", "auto"), ("zf-bo", "auto"),
                                             ("zf-sd", "none")])
@pytest.mark.parametrize("blocks", [1, 2])
def test_stacked_noise_sweep_matches_per_point_loop(precoder, scheme, blocks):
    doc = _tiny_doc(precoder, scheme, trials=3, blocks_per_trial=blocks)
    doc["noise"] = {"inv_sigma_v2_db": _DESK_SNR_DB}
    cfg = config_from_dict(doc)
    records = run_ber(cfg)
    ctx = build_context(cfg)
    counts = [_per_point_zf_counts(ctx, t) for t in range(cfg.run.trials)]
    assert [r.errors for r in records] == list(sum(e for e, _ in counts))
    assert [r.bits for r in records] == list(sum(b for _, b in counts))
    assert records[0].errors > 0      # the comparison covers actual errors


@pytest.mark.parametrize("precoder,scheme", [("zf-tsd", "auto"), ("zf-bo", "auto"),
                                             ("zf-sd", "none")])
def test_single_snr_run_matches_first_point_of_sweep(precoder, scheme):
    # the first noise point's draws come first in every block, so alone or
    # in the grid it sees the same noise
    doc = _tiny_doc(precoder, scheme, trials=3)
    doc["noise"] = {"inv_sigma_v2_db": _DESK_SNR_DB}
    first = run_ber(config_from_dict(doc))[0]
    doc["noise"] = {"inv_sigma_v2_db": _DESK_SNR_DB[:1]}
    (alone,) = run_ber(config_from_dict(doc))
    assert (alone.errors, alone.bits, alone.mean_beta) == (first.errors, first.bits,
                                                           first.mean_beta)
    assert alone.errors > 0


def test_scatter_ideal_chain_hits_constellation():
    doc = _tiny_doc("zf-ref", blocks_per_trial=4)
    res = run_scatter(config_from_dict(doc))
    # reference chain: cloud collapses onto the intended points
    assert res.rms_deviation <= 2e-2
    assert res.points.shape == (2, 4)


def test_scatter_deterministic():
    doc = _tiny_doc("zf-tsd", blocks_per_trial=3)
    a = run_scatter(config_from_dict(doc))
    b = run_scatter(config_from_dict(doc))
    assert np.array_equal(a.points, b.points)
    assert a.rms_deviation == b.rms_deviation


def test_scatter_subcarrier_range_checked():
    doc = _tiny_doc("zf-ref")
    doc["run"]["scatter_subcarrier"] = 40
    with pytest.raises(ConfigError):
        run_scatter(config_from_dict(doc))


def test_shaping_spectrum_rows():
    doc = _tiny_doc("zf-tsd")
    doc["system"]["n"] = 16
    doc["run"]["spectrum_frames"] = 20
    doc["run"]["spectrum_samples"] = 128
    doc["run"]["spectrum_angles_deg"] = [0.0, 10.0, 20.0, 30.0]
    rows = run_shaping_spectrum(config_from_dict(doc))
    assert rows[0].measured <= 1e-20          # exact broadside cancellation
    assert rows[0].predicted == 0.0
    measured = [r.measured for r in rows]
    assert all(b >= a for a, b in zip(measured, measured[1:]))


def test_shaping_spectrum_requires_sd_scheme():
    doc = _tiny_doc("zf-bo")
    with pytest.raises(ConfigError):
        run_shaping_spectrum(config_from_dict(doc))


def test_failed_trials_are_excluded_with_warning(monkeypatch):
    # a run whose trial 1 of 3 raises reports, in every column but
    # failed_trials, what a 2-trial run of its trials 0 and 2 reports
    import sdmimo.harness as hz

    real = hz._run_trial

    def flaky(ctx, trial):
        if trial == 1:
            raise RuntimeError("synthetic failure")
        return real(ctx, trial)

    def skipping(ctx, trial):
        return real(ctx, 2 if trial == 1 else trial)

    for name in ("zf-tsd", "slp-tsd"):
        doc = _tiny_doc(name, trials=3)
        monkeypatch.setattr(hz, "_run_trial", flaky)
        with pytest.warns(UserWarning, match="failed"):
            records = run_ber(config_from_dict(doc))
        assert records[0].bits > 0
        assert [r.failed_trials for r in records] == [1, 1]
        doc["run"]["trials"] = 2
        monkeypatch.setattr(hz, "_run_trial", skipping)
        kept = run_ber(config_from_dict(doc))
        assert [dataclasses.replace(r, failed_trials=0) for r in records] == kept, name


@pytest.mark.parametrize("name", PRECODER_NAMES)
def test_every_selector_runs(name):
    cfg = config_from_dict({**_tiny_doc(name, trials=1), "noise": {"sigma_v2": [1e-3]}})
    assert build_context(cfg).chain.family == name.split("-")[0]
    (rec,) = run_ber(cfg)
    assert np.isfinite(rec.ber) and np.isfinite(rec.mean_beta)
    assert rec.precoder == name and rec.failed_trials == 0


# a channel whose FIR covers the whole delay + filter support, so that the
# discrete frequency model is exact; over 886 full-rank draws (N <= 8,
# seeds 0-29) the worst deviation was 3.4e-11
_ZF_EXACT_TOL = 1e-8


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), k_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_zf_block_with_ideal_pas_is_received_exactly(n, k_frac, seed):
    # with ideal PAs and no noise every subcarrier receives r = M beta s,
    # whatever the channel, and detection makes no bit error; rank-deficient
    # draws are refused by the precoder and skipped (counted as an event)
    import sdmimo.harness as hz

    k = 1 + int(k_frac * (n - 1))
    cfg = config_from_dict({"system": {"n": n, "k": k, "m": 64, "m_s": 40},
                            "precoder": {"name": "zf-ref"}, "run": {"self_check": False}})
    ctx = build_context(cfg)
    sys_ = cfg.system
    rng = substream(seed, 0)
    chan = hz._draw_trial_channel(ctx, rng, int(math.ceil(sys_.delay_max_ts + sys_.rrc_span_ts)) + 2)
    symbols = ctx.const.random_symbols(rng, (k, sys_.m_s))
    try:
        design = hz._designs(ctx, chan, symbols, (0.0,))[0]
    except RankDeficient:
        event("rank-deficient channel skipped")
        assume(False)
    u, n_over = hz._transmit(ctx, design.x)
    r = receiver_dft(ctx.ofdm, propagate(chan, u))
    scale = ctx.ofdm.m * design.beta[:, None]
    assert n_over == 0
    assert np.max(np.abs(r / scale - symbols)) <= _ZF_EXACT_TOL
    assert symbols_to_bits_errors(symbols, detect(r, scale, ctx.const), ctx.const) == 0
