"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers (run with ``pytest -s`` to see them
inline).  Criteria combine exact invariants, oracle equivalences, and
desk-scale qualitative reproductions of the reference experiments."""

import math

import numpy as np

from sdmimo.channel import (
    RrcFilter,
    UlaGeometry,
    distortion_noise_power,
    draw_channel,
    hold_rx_power_factor,
)
from sdmimo.config import config_from_dict
from sdmimo.harness import run_ber, run_scatter, run_shaping_spectrum, substream
from sdmimo.ofdm import OfdmParams, idft_modulate, receiver_dft
from sdmimo.pa import PaModel, ShapingBudget
from sdmimo.precoding import dp_components, slp_precode, zf_precode
from sdmimo.qam import QamConstellation
from sdmimo.sigma_delta import ModulatorConfig, modulate

from conftest import complex_uniform_disk
from fine_grid import fine_grid_propagate
from rx_filters import psi_hat_bound
from slp_functions import margins, slp_objective, slp_objective_and_grad


def _report(num: int, name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:2d} PASS  {name}" + (f"  [{detail}]" if detail else ""))


RAPP = PaModel.modified_rapp(gain=16.0, r_max=0.1187, phi=1.1, zeta=4.0,
                             b=-345.0, c=0.17)
RAPP_BUDGET = ShapingBudget.from_pa(RAPP, RAPP.r_max)


def _ber_doc(n, k, precoder, scheme="auto", trials=100, blocks=1, seed=2024):
    return {
        "system": {"n": n, "k": k, "m": 512, "m_s": 300, "m_cp": 40,
                   "osf": 7, "qam_d": 2},
        "pa": {"kind": "modified_rapp", "A": 16.0, "r_max": 0.1187,
               "phi": 1.1, "zeta": 4.0, "B": -345.0, "C": 0.17},
        "precoder": {"name": precoder},
        "scheme": scheme,
        "noise": {"inv_sigma_v2_db": [14.0, 20.0, 24.0, 28.0, 32.0, 36.0]},
        "run": {"trials": trials, "blocks_per_trial": blocks, "seed": seed,
                "self_check": False},
    }


def test_criterion_01_no_overloading_bounds():
    # Rapp parameters, chi = r_max, 1e4 samples per antenna, N = 32
    cfg = ModulatorConfig(order=1, tail_removing=False, pa=RAPP, budget=RAPP_BUDGET)
    rng = substream(1, 0)
    x = complex_uniform_disk(rng, (32, 10_000), 1.0)
    x *= cfg.input_bound / np.abs(x).max()
    u, q, b = modulate(cfg, x)
    b_max, q_max = float(np.abs(b).max()), float(np.abs(q).max())
    assert b_max <= RAPP_BUDGET.chi + 1e-9
    assert q_max <= RAPP_BUDGET.psi + 1e-9
    _report(1, "first-order loop keeps |b| <= chi and |q| <= psi",
            f"max|b|={b_max:.6f} vs chi={RAPP_BUDGET.chi:.6f}, "
            f"max|q|={q_max:.6f} vs psi={RAPP_BUDGET.psi:.6f}")


def test_criterion_02_telescoping_identities():
    rng = substream(2, 0)
    cfg1 = ModulatorConfig(order=1, tail_removing=False, pa=RAPP, budget=RAPP_BUDGET)
    x = complex_uniform_disk(rng, (16, 2048), cfg1.input_bound)
    u, q, _ = modulate(cfg1, x)
    q1 = np.vstack([np.zeros((1, x.shape[1])), q[:-1]])
    rel1 = float(np.abs(u - 16.0 * (x + q - q1)).max() / np.abs(u).max())
    assert rel1 <= 1e-12

    cfg2 = ModulatorConfig(order=2, tail_removing=False, pa=RAPP, budget=RAPP_BUDGET)
    x = complex_uniform_disk(rng, (16, 2048), cfg2.input_bound)
    u, q, _ = modulate(cfg2, x)
    pad = np.zeros((2, x.shape[1]))
    q1 = np.vstack([pad[:1], q[:-1]])
    q2 = np.vstack([pad, q[:-2]])
    rel2 = float(np.abs(u - 16.0 * (x + q - 2 * q1 + q2)).max() / np.abs(u).max())
    assert rel2 <= 1e-12
    _report(2, "loop output identities hold per sample",
            f"first-order rel err {rel1:.2e}, second-order {rel2:.2e}")


def test_criterion_03_broadside_cancellation():
    n, n_frames, samples = 32, 1000, 64
    bound = RAPP_BUDGET.headroom
    # tail-removing: the broadside beam cancels exactly
    cfg_t = ModulatorConfig(order=1, tail_removing=True, pa=RAPP, budget=RAPP_BUDGET)
    rng = substream(3, 0)
    worst = 0.0
    for _ in range(50):
        x = bound * np.exp(1j * rng.uniform(-np.pi, np.pi, (n, samples)))
        u, _, _ = modulate(cfg_t, x)
        xi = np.sum(u - 16.0 * x, axis=0)
        worst = max(worst, float(np.mean(np.abs(xi) ** 2)))
    assert worst <= 1e-20

    # plain first order: broadside power equals the last antenna's
    # distortion term, estimated from an independent batch of frames
    cfg_p = ModulatorConfig(order=1, tail_removing=False, pa=RAPP, budget=RAPP_BUDGET)
    rng_a, rng_b = substream(3, 1), substream(3, 2)
    p_beam = np.empty(n_frames)
    p_tail = np.empty(n_frames)
    for f in range(n_frames):
        x = bound * np.exp(1j * rng_a.uniform(-np.pi, np.pi, (n, samples)))
        u, _, _ = modulate(cfg_p, x)
        p_beam[f] = np.mean(np.abs(np.sum(u - 16.0 * x, axis=0)) ** 2)
        x = bound * np.exp(1j * rng_b.uniform(-np.pi, np.pi, (n, samples)))
        _, q, _ = modulate(cfg_p, x)
        p_tail[f] = 16.0**2 * np.mean(np.abs(q[-1]) ** 2)
    diff = abs(p_beam.mean() - p_tail.mean())
    band = 3.0 * math.sqrt(p_beam.var() / n_frames + p_tail.var() / n_frames)
    assert diff <= band
    _report(3, "broadside distortion: exact tail cancellation, last-antenna "
               "term otherwise",
            f"tail power {worst:.2e} <= 1e-20; plain diff {diff:.3e} "
            f"within 3-sigma {band:.3e}")


def test_criterion_04_shaping_spectrum_match():
    # closed-form shaped power vs measurement, N = 64, d = lambda/8, TWTA PA
    doc = _ber_doc(64, 2, "zf-tsd")
    doc["pa"] = {"kind": "twta", "A": 16.0, "r_max": 0.1187}
    doc["run"].update({"spectrum_frames": 200, "spectrum_samples": 512,
                       "spectrum_angles_deg": [5.0, 10.0, 20.0, 30.0]})
    rows = run_shaping_spectrum(config_from_dict(doc))
    ratios = [r.measured / r.predicted for r in rows]
    for r in rows:
        assert abs(r.measured - r.predicted) <= 0.25 * r.predicted
    measured = [r.measured for r in rows]
    assert all(b >= a for a, b in zip(measured, measured[1:]))
    _report(4, "shaped-distortion spectrum matches the closed form within 25%",
            "meas/pred at 5/10/20/30 deg = "
            + ", ".join(f"{x:.3f}" for x in ratios))


def test_criterion_05_ofdm_channel_consistency():
    # linear chain vs frequency-domain model at (N,K,M,M_s) = (8,2,64,40)
    geom = UlaGeometry(n=8, d_over_lambda=0.125)
    ofdm = OfdmParams(m=64, m_s=40, m_cp=40, osf=7)
    rng = substream(5, 0)
    chan = draw_channel(rng, geom, ofdm, 2, 4, 22, rx_filter=RrcFilter(),
                        pa_gain=16.0)
    z = 0.005 * (rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40)))
    u = 16.0 * idft_modulate(ofdm, z)
    from sdmimo.channel import propagate

    model = ofdm.m * np.einsum("pkn,np->kp", chan.freq, z)
    err = 0.0
    # the chain, and the independent fine-grid oracle, against the model
    for y in (propagate(chan, u), fine_grid_propagate(chan, u)):
        r = receiver_dft(ofdm, y)
        err = max(err, float(np.max(np.abs(r - model) / np.abs(model).max())))
    assert err <= 1e-6
    _report(5, "full linear chain equals the per-subcarrier model (gain M)",
            f"worst relative error {err:.2e}")


def test_criterion_06_zf_exactness_and_tightness():
    rng = substream(6, 0)
    const = QamConstellation(2)
    worst_eq = 0.0
    worst_peak = 0.0
    for trial in range(100):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, min(n, 4) + 1))
        geom = UlaGeometry(n=n, d_over_lambda=0.125)
        ofdm = OfdmParams(m=16, m_s=10, m_cp=40, osf=7)
        chan = draw_channel(rng, geom, ofdm, k, 4, 20, rx_filter=RrcFilter(),
                            pa_gain=16.0)
        s = const.random_symbols(rng, (k, 10))
        budget = float(rng.uniform(0.01, 1.0))
        res = zf_precode(chan, s, budget)
        eq = np.abs(np.einsum("pkn,np->kp", chan.freq, res.z) / res.beta[0] - s)
        worst_eq = max(worst_eq, float(eq.max()))
        peak = float(np.abs(res.x[:, ofdm.m_cp:]).max())
        worst_peak = max(worst_peak, abs(peak - budget) / np.spacing(budget))
    assert worst_eq <= 1e-10
    assert worst_peak <= 1.0
    _report(6, "ZF inverts the channel and saturates the budget",
            f"worst |Hz*Gamma - s| = {worst_eq:.2e}, "
            f"worst peak offset = {worst_peak:.2f} ulp")


def test_criterion_07_dp_formula_vs_monte_carlo():
    rng = substream(7, 0)
    beta, sigma, d = 1.0, 0.9, 2
    n = 10**6
    cases = [("interior", 1, 0.15), ("upper boundary", 3, -0.2),
             ("lower boundary", -3, 0.1)]
    details = []
    for label, s, v_off in cases:
        v = beta * s + v_off
        noise = rng.standard_normal(n) * (sigma / math.sqrt(2.0))
        decided = np.clip(2 * np.round(((v + noise) / beta - 1) / 2) + 1,
                          -(2 * d - 1), 2 * d - 1)
        hits = float(np.count_nonzero(decided == s)) / n
        dp, _, _ = dp_components(margins(np.array([s]), np.array([v]), beta, sigma, d),
                                 need_grad=False)
        dp = float(dp[0])
        band = 3.0 * math.sqrt(dp * (1.0 - dp) / n)
        assert abs(hits - dp) <= band
        details.append(f"{label}: |{hits:.5f}-{dp:.5f}| <= {band:.1e}")
    _report(7, "detection probability branches match Monte Carlo", "; ".join(details))


def _solver_instance(trial, n=16, k=4, m=64, m_s=40):
    rng = substream(8, trial)
    geom = UlaGeometry(n=n, d_over_lambda=0.125)
    ofdm = OfdmParams(m=m, m_s=m_s, m_cp=40, osf=7)
    chan = draw_channel(rng, geom, ofdm, k, 4, 20, rx_filter=RrcFilter(),
                        pa_gain=16.0)
    s = QamConstellation(2).random_symbols(rng, (k, m_s))
    # the worst-case received amplitude bound psi_hat, planned as the
    # per-antenna second moment whose received power is psi_hat^2 / 3
    psi_hat = psi_hat_bound(16.0, RAPP_BUDGET.psi, RrcFilter(), 7)
    m2 = psi_hat**2 / 3 / (16.0**2 * hold_rx_power_factor(RrcFilter(), 7))
    sigma_eta = np.sqrt(distortion_noise_power(chan, m2, "tsd1") + 1e-3)
    return chan, s, sigma_eta


def test_criterion_08a_objective_gradient():
    chan, s, sigma = _solver_instance(0)
    rng = substream(8, 100)
    zf = zf_precode(chan, s, RAPP_BUDGET.headroom)
    beta = zf.beta * rng.uniform(0.5, 1.5, size=4)
    z = zf.z * (1.0 + 0.1 * rng.standard_normal(zf.z.shape))
    _, g_beta, g_z = slp_objective_and_grad(beta, z, chan, s, sigma, d=2)
    eps = 1e-6
    worst = 0.0
    for _ in range(10):
        i = int(rng.integers(4))
        db = np.zeros(4)
        db[i] = eps
        fd = (slp_objective(beta + db, z, chan, s, sigma, 2)
              - slp_objective(beta - db, z, chan, s, sigma, 2)) / (2 * eps)
        worst = max(worst, abs(fd - g_beta[i]) / abs(fd))
        nn, pp = int(rng.integers(z.shape[0])), int(rng.integers(z.shape[1]))
        for unit, part in ((eps, "real"), (1j * eps, "imag")):
            dz = np.zeros_like(z)
            dz[nn, pp] = unit
            fd = (slp_objective(beta, z + dz, chan, s, sigma, 2)
                  - slp_objective(beta, z - dz, chan, s, sigma, 2)) / (2 * eps)
            g = g_z[nn, pp].real if part == "real" else g_z[nn, pp].imag
            worst = max(worst, abs(fd - g) / abs(fd))
    assert worst <= 1e-5
    _report(8, "(a) objective gradient matches central differences",
            f"worst relative deviation {worst:.2e}")


def test_criterion_08b_admm_meets_stopping_rules():
    converged = 0
    iters = []
    for trial in range(50):
        chan, s, sigma = _solver_instance(trial)
        res = slp_precode(chan, s, RAPP_BUDGET.headroom, sigma, d=2)
        converged += int(res.diagnostics["converged"])
        iters.append(res.diagnostics["admm_iterations"])
        # (c) returned block is feasible exactly after the final projection
        assert np.abs(res.x[:, chan.ofdm.m_cp:]).max() <= RAPP_BUDGET.headroom + 2 * np.spacing(
            RAPP_BUDGET.headroom)
    assert converged >= 45
    _report(8, "(b,c) ADMM meets the stopping rules within 30 rounds; "
               "output feasible",
            f"{converged}/50 converged, mean rounds {np.mean(iters):.1f}")


def test_criterion_09_desk_scale_ber_orderings():
    # (N,K) = (16,4), 16-QAM, modified Rapp, 100 channel trials,
    # noise grid spanning the 1e-1 .. 1e-4 BER region
    curves = {}
    for label, precoder, scheme in (
        ("zf-tsd", "zf-tsd", "auto"),
        ("zf-bo", "zf-bo", "auto"),
        ("zf-plain", "zf-sd", "none"),
        ("slp-tsd", "slp-tsd", "auto"),
    ):
        cfg = config_from_dict(_ber_doc(16, 4, precoder, scheme))
        curves[label] = run_ber(cfg)

    tsd = curves["zf-tsd"]
    assert tsd[0].ber >= 1e-2 and tsd[-1].ber <= 1e-4  # grid spans the region

    # (i) tail-removing shaping beats power back-off at the top two points
    for a, b in zip(tsd[-2:], curves["zf-bo"][-2:]):
        assert a.ber <= b.ber

    # (ii) plain distorting ZF shows an error floor
    assert curves["zf-plain"][-1].ber > 5.0 * tsd[-1].ber

    # (iii) symbol-level design never loses to ZF within Monte Carlo error
    for a, b in zip(curves["slp-tsd"], tsd):
        band = 3.0 * math.sqrt(
            max(a.ber * (1 - a.ber), 1e-12) / a.bits
            + max(b.ber * (1 - b.ber), 1e-12) / b.bits)
        assert a.ber <= b.ber + band

    fmt = lambda recs: "/".join(f"{r.ber:.1e}" for r in recs)
    _report(9, "desk-scale BER orderings reproduced",
            f"zf-tsd {fmt(tsd)}; zf-bo {fmt(curves['zf-bo'])}; "
            f"zf-plain {fmt(curves['zf-plain'])}; slp-tsd {fmt(curves['slp-tsd'])}")


def test_criterion_10_scatter_contrast():
    def deviation(n, k, precoder, scheme="auto"):
        doc = _ber_doc(n, k, precoder, scheme, seed=11)
        doc["noise"] = {"sigma_v2": [0.0]}
        doc["run"]["trials"] = 1
        doc["run"]["blocks_per_trial"] = 30
        return run_scatter(config_from_dict(doc)).rms_deviation

    d_plain = deviation(64, 10, "zf-sd", "none")
    d_tsd64 = deviation(64, 10, "zf-tsd")
    assert d_plain >= 2.0 * d_tsd64
    d_sd56 = deviation(56, 10, "zf-sd")
    d_tsd56 = deviation(56, 10, "zf-tsd")
    assert d_sd56 > d_tsd56
    _report(10, "scatter contrast: shaping cleans the cloud, tail removal "
                "matters at N=56",
            f"(64,10) plain/tsd = {d_plain / d_tsd64:.2f} >= 2; "
            f"(56,10) sd/tsd = {d_sd56 / d_tsd56:.2f} > 1")


def test_criterion_11_byte_identical_outputs(tmp_path):
    import json

    from sdmimo.cli import cmd_dispatch

    doc = _ber_doc(4, 2, "zf-tsd", trials=2)
    doc["system"].update({"m": 64, "m_s": 40})
    doc["run"].update({"spectrum_frames": 10, "spectrum_samples": 64})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        for sub, fname in (("ber", "ber.csv"), ("scatter", "scatter.csv"),
                           ("shaping-spectrum", "spectrum.csv")):
            assert cmd_dispatch([sub, "--config", str(cfg_path),
                                 "--out", str(out)]) == 0
        blobs.append(tuple((out / f).read_bytes()
                           for f in ("ber.csv", "scatter.csv", "spectrum.csv")))
    assert blobs[0] == blobs[1]
    _report(11, "identical config and seed give byte-identical CSV outputs")
