import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdmimo
from sdmimo.channel import (
    RrcFilter,
    UlaGeometry,
    add_noise,
    channel_from_paths,
    distortion_noise_power,
    draw_channel,
    propagate,
    pulse_filter_taps,
    rrc_impulse,
    steering_vector,
)
from sdmimo.errors import ShapeMismatch
from sdmimo.ofdm import OfdmParams, idft_modulate, receiver_dft

from fine_grid import fine_grid_propagate
from rx_filters import DiracFilter, psi_hat_bound, receive_filter_abs_integral


def test_steering_broadside_is_ones():
    geom = UlaGeometry(n=8, d_over_lambda=0.125)
    assert np.allclose(steering_vector(geom, 0.0), np.ones(8))


def test_steering_phases_at_30_degrees():
    geom = UlaGeometry(n=3, d_over_lambda=0.125)
    a = steering_vector(geom, math.radians(30.0))
    # per-antenna phase increment is 2 pi (d/lambda) sin(30 deg) = pi/8
    assert np.allclose(np.angle(a), [0.0, -np.pi / 8, -np.pi / 4])


def test_steering_conjugate_symmetry():
    geom = UlaGeometry(n=6, d_over_lambda=0.25)
    for theta in (0.1, 0.4, 1.0):
        assert np.allclose(steering_vector(geom, -theta),
                           steering_vector(geom, theta).conj())


def test_steering_linearity():
    geom = UlaGeometry(n=5, d_over_lambda=0.125)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    w = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    a = steering_vector(geom, 0.3)
    assert np.allclose(a @ (u + w), a @ u + a @ w)


def test_geometry_validation():
    with pytest.raises(ValueError):
        UlaGeometry(n=4, d_over_lambda=0.6)
    with pytest.raises(ValueError):
        UlaGeometry(n=0)


def test_rrc_impulse_reference_values():
    # closed-form values at t=0 and symmetry
    a = 0.22
    assert rrc_impulse(np.array([0.0]), a)[0] == pytest.approx(1 - a + 4 * a / np.pi)
    t = np.linspace(-4, 4, 101)
    h = rrc_impulse(t, a)
    assert np.allclose(h, h[::-1])
    # singular point t = 1/(4a) handled
    val = rrc_impulse(np.array([1.0 / (4 * a)]), a)[0]
    assert np.isfinite(val)


def test_dirac_filter_identity():
    # (Pi (*) delta) equals the rectangular pulse itself
    from sdmimo.channel import pulse_filter_taps

    po, center = pulse_filter_taps(DiracFilter(), osf=7)
    assert center == 0
    assert np.allclose(po, np.ones(7))


def test_single_broadside_path_with_dirac_filter():
    # tap 0 is the all-ones steered direction scaled by the PA gain
    geom = UlaGeometry(n=4, d_over_lambda=0.125)
    ofdm = OfdmParams(m=16, m_s=10, m_cp=8, osf=7)
    chan = channel_from_paths(geom, ofdm, alpha=[[1.0]], theta=[[0.0]],
                              tau_ts=[[0.0]], l_taps=3, rx_filter=DiracFilter(),
                              pa_gain=16.0)
    assert np.allclose(chan.taps[0, 0], 16.0 * np.ones(4))
    assert np.allclose(chan.taps[0, 1:], 0.0)


@pytest.mark.parametrize("l_taps", [8, 16, 24])
def test_freq_is_the_dft_of_the_taps(l_taps):
    # freq[p] = sum_l taps[:, l] e^{-2j pi l p / M} as written, for fewer
    # taps than M, exactly M, and more than M (lags l and l + M alias)
    geom = UlaGeometry(n=6, d_over_lambda=0.125)
    ofdm = OfdmParams(m=16, m_s=10, m_cp=40, osf=7)
    chan = draw_channel(np.random.default_rng(40 + l_taps), geom, ofdm, 3, 4, l_taps,
                        rx_filter=RrcFilter(), pa_gain=16.0,
                        delay_range_ts=(10.0, 15.0))
    if l_taps > ofdm.m:
        assert np.any(chan.taps[:, ofdm.m:] != 0)
    lp = np.outer(np.arange(ofdm.m_s), np.arange(l_taps))
    want = np.einsum("kln,pl->pkn", chan.taps, np.exp(-2j * np.pi * lp / ofdm.m))
    assert chan.freq.shape == (ofdm.m_s, 3, 6)
    assert np.max(np.abs(chan.freq - want)) <= 1e-13 * np.abs(chan.taps).sum(axis=1).max()


def test_cached_tables_equal_fresh_ones_and_are_read_only():
    from sdmimo.channel import _dft_matrix, pulse_filter_taps

    for rx_filter in (RrcFilter(), RrcFilter(rolloff=0.5, span=3.0), DiracFilter()):
        po, center = pulse_filter_taps(rx_filter, 7)
        fresh, fresh_center = pulse_filter_taps.__wrapped__(rx_filter, 7)
        assert np.array_equal(po, fresh) and center == fresh_center
        assert pulse_filter_taps(rx_filter, 7)[0] is po
        with pytest.raises(ValueError):
            po[0] = 1.0
    dft = _dft_matrix(16, 10, 24)
    assert np.array_equal(dft, _dft_matrix.__wrapped__(16, 10, 24))
    assert _dft_matrix(16, 10, 24) is dft
    with pytest.raises(ValueError):
        dft[1, 1] = 0.0


def test_draw_channel_deterministic():
    geom = UlaGeometry(n=8, d_over_lambda=0.125)
    ofdm = OfdmParams(m=64, m_s=40, m_cp=40, osf=7)
    a = draw_channel(np.random.default_rng(123), geom, ofdm, 2, 4, 20, pa_gain=16.0)
    b = draw_channel(np.random.default_rng(123), geom, ofdm, 2, 4, 20, pa_gain=16.0)
    assert np.array_equal(a.taps, b.taps)
    assert np.array_equal(a.freq, b.freq)


def test_draw_channel_path_statistics():
    # per-path complex gains are CN(0, 1/J): total mean power 1 per user
    geom = UlaGeometry(n=2, d_over_lambda=0.125)
    ofdm = OfdmParams(m=16, m_s=10, m_cp=40, osf=7)
    rng = np.random.default_rng(7)
    total = 0.0
    n_draws = 2500
    for _ in range(n_draws):
        chan = draw_channel(rng, geom, ofdm, 4, 4, 2, rx_filter=DiracFilter())
        total += float(np.mean(np.sum(np.abs(chan.alpha) ** 2, axis=1)))
    assert total / n_draws == pytest.approx(1.0, rel=0.05)
    # angles and delays in the configured ranges
    chan = draw_channel(rng, geom, ofdm, 50, 4, 2, rx_filter=DiracFilter())
    assert np.all(np.abs(chan.theta) <= math.radians(35.0))
    assert np.all(chan.tau_fine >= 5 * 7) and np.all(chan.tau_fine <= 15 * 7)


def test_propagate_zero_input():
    geom = UlaGeometry(n=4, d_over_lambda=0.125)
    ofdm = OfdmParams(m=32, m_s=20, m_cp=40, osf=7)
    chan = draw_channel(np.random.default_rng(1), geom, ofdm, 2, 4, 20, pa_gain=16.0)
    y = propagate(chan, np.zeros((4, ofdm.m_cp + ofdm.m), dtype=complex))
    assert y.shape == (2, 72)
    assert not y.any()


def test_propagate_matches_tap_model():
    # propagation (and the fine-grid oracle) equals sum_l h_l^T x_{m-l}
    # when taps cover the support
    geom = UlaGeometry(n=8, d_over_lambda=0.125)
    ofdm = OfdmParams(m=64, m_s=40, m_cp=40, osf=7)
    rng = np.random.default_rng(5)
    chan = draw_channel(rng, geom, ofdm, 2, 4, 22, rx_filter=RrcFilter(), pa_gain=16.0)
    z = 0.01 * (rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40)))
    x_cp = idft_modulate(ofdm, z)
    u = 16.0 * x_cp

    y_model = np.zeros((2, ofdm.m), dtype=complex)
    for m in range(ofdm.m):
        for l in range(chan.taps.shape[1]):
            idx = m - l + ofdm.m_cp
            if 0 <= idx < x_cp.shape[1]:
                y_model[:, m] += chan.taps[:, l, :] @ x_cp[:, idx]
    for y in (propagate(chan, u), fine_grid_propagate(chan, u)):
        err = np.max(np.abs(y[:, ofdm.m_cp:] - y_model)) / np.max(np.abs(y_model))
        assert err <= 1e-6


def test_propagate_matches_fine_grid_oracle():
    # the symbol-rate FIR equals holding the frame on the quadrature grid,
    # steering, delaying and filtering it there, over random channels:
    # every osf in 1..8, delays below the RRC half-span (negative lags),
    # the Dirac filter, and sizes down to one antenna, user and path
    rng = np.random.default_rng(20261017)
    worst = 0.0
    for trial in range(240):
        osf = trial % 8 + 1
        n, k, j = (int(v) for v in rng.integers(1, 7, size=3))
        m = int(rng.integers(1, 48))
        m_cp = int(rng.integers(0, 16))
        ofdm = OfdmParams(m=m, m_s=int(rng.integers(1, m + 1)), m_cp=m_cp, osf=osf)
        if trial % 4 == 3:
            rx_filter = DiracFilter()
        else:
            rx_filter = RrcFilter(rolloff=float(rng.uniform(0.05, 0.5)),
                                  span=float(rng.integers(1, 6)))
        geom = UlaGeometry(n=n, d_over_lambda=float(rng.uniform(0.05, 0.5)))
        chan = draw_channel(rng, geom, ofdm, k, j, int(rng.integers(1, 30)),
                            rx_filter=rx_filter, pa_gain=16.0,
                            delay_range_ts=(0.0, float(m_cp)))
        u = rng.standard_normal((n, m_cp + m)) + 1j * rng.standard_normal((n, m_cp + m))
        y_ref = fine_grid_propagate(chan, u)
        err = np.max(np.abs(propagate(chan, u) - y_ref)) / np.max(np.abs(y_ref))
        worst = max(worst, float(err))
    assert worst <= 1e-12


def test_import_leaves_scipy_signal_unloaded():
    # the FIR propagation needs no scipy.signal, whose import dominated start-up
    env = dict(os.environ, PYTHONPATH=str(Path(sdmimo.__file__).resolve().parents[1]))
    code = "import sys, sdmimo; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_full_chain_frequency_consistency():
    # linear chain reproduces r = M * h_p^T z_p for every user and subcarrier
    geom = UlaGeometry(n=8, d_over_lambda=0.125)
    ofdm = OfdmParams(m=64, m_s=40, m_cp=40, osf=7)
    rng = np.random.default_rng(6)
    chan = draw_channel(rng, geom, ofdm, 2, 4, 22, rx_filter=RrcFilter(), pa_gain=16.0)
    z = 0.01 * (rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40)))
    u = 16.0 * idft_modulate(ofdm, z)
    r = receiver_dft(ofdm, propagate(chan, u))
    model = ofdm.m * np.einsum("pkn,np->kp", chan.freq, z)
    assert np.max(np.abs(r - model)) / np.max(np.abs(model)) <= 1e-6


def test_noise_statistics():
    geom = UlaGeometry(n=2, d_over_lambda=0.125)
    ofdm = OfdmParams(m=256, m_s=100, m_cp=40, osf=7)
    chan = draw_channel(np.random.default_rng(2), geom, ofdm, 3, 4, 20, pa_gain=16.0)
    sigma_v2 = 0.25
    y0 = propagate(chan, np.zeros((2, ofdm.m_cp + ofdm.m), dtype=complex))
    y = add_noise(y0[None], [sigma_v2], np.random.default_rng(3))[0]
    power = float(np.mean(np.abs(y) ** 2))
    assert power == pytest.approx(sigma_v2, rel=0.1)


def test_add_noise_bit_for_bit():
    # from one generator state: every real part, then every imaginary part,
    # scaled by sqrt(sigma_v2 / 2); exact, so a 1e-6 change of the scale
    # (which no golden output resolves) fails here
    y = np.random.default_rng(17).standard_normal((3, 56)) * (1.0 + 0.5j)
    sigma_v2 = 0.037
    got = add_noise(y[None], [sigma_v2], np.random.default_rng(23))[0]
    rng = np.random.default_rng(23)
    re = rng.standard_normal(y.shape)
    im = rng.standard_normal(y.shape)
    scale = math.sqrt(sigma_v2 / 2.0)
    assert np.array_equal(got, y + (re + 1j * im) * scale)
    assert not np.array_equal(got, y + (re + 1j * im) * (scale * (1.0 + 1e-6)))


@pytest.mark.parametrize("stacked", [False, True])
def test_add_noise_grid_matches_one_draw_per_level(stacked):
    # a grid's noise is the stream of one call per positive level, in grid
    # order; a level of 0 draws nothing and keeps its frame, whether it is
    # first, in the middle or last
    grid = [0.0, 0.037, 0.5, 0.0, 1e-3, 0.0]
    y = (np.random.default_rng(17).standard_normal((len(grid) if stacked else 1, 3, 56))
         * (1.0 + 0.5j))
    gen = np.random.default_rng(23)
    got = add_noise(y, grid, gen)
    assert got.shape == (len(grid), 3, 56)
    rng = np.random.default_rng(23)
    for s, sv2 in enumerate(grid):
        y_s = y[s if stacked else 0]
        if sv2 > 0:
            re = rng.standard_normal(y_s.shape)
            im = rng.standard_normal(y_s.shape)
            y_s = y_s + (re + 1j * im) * math.sqrt(sv2 / 2.0)
        assert got[s].tobytes() == y_s.tobytes()
    assert gen.random() == rng.random()


def test_add_noise_grid_without_noise_needs_no_rng():
    y = np.arange(6.0).reshape(1, 2, 3) * 1j
    got = add_noise(y, [0.0, 0.0], None)
    assert got.shape == (2, 2, 3) and np.array_equal(got, np.concatenate([y, y]))
    with pytest.raises(ValueError):
        add_noise(y, [0.0, 0.1], None)


def test_add_noise_requires_rng():
    with pytest.raises(ValueError, match="rng required"):
        add_noise(np.zeros((1, 56), dtype=complex), [0.1], None)


def test_propagate_shape_check():
    geom = UlaGeometry(n=2, d_over_lambda=0.125)
    ofdm = OfdmParams(m=16, m_s=10, m_cp=40, osf=7)
    chan = draw_channel(np.random.default_rng(2), geom, ofdm, 1, 4, 20)
    with pytest.raises(ShapeMismatch):
        propagate(chan, np.zeros((2, 5), dtype=complex))


def test_delay_beyond_cp_rejected():
    geom = UlaGeometry(n=2, d_over_lambda=0.125)
    ofdm = OfdmParams(m=16, m_s=10, m_cp=8, osf=7)
    chan = channel_from_paths(geom, ofdm, [[1.0]], [[0.0]], [[12.0]], 4,
                              DiracFilter(), 1.0)
    with pytest.raises(ValueError):
        propagate(chan, np.zeros((2, ofdm.m_cp + ofdm.m), dtype=complex))


def test_tap_grid_convergence():
    # halving the fine-grid step changes the taps by less than 1 percent
    geom = UlaGeometry(n=4, d_over_lambda=0.125)
    rng = np.random.default_rng(9)
    alpha = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(8.0)
    theta = rng.uniform(-0.6, 0.6, (2, 4))
    # delays on the coarse (osf=7) grid stay representable when doubled
    tau = np.round(rng.uniform(5, 15, (2, 4)) * 7) / 7
    taps7 = channel_from_paths(geom, OfdmParams(m=64, m_s=40, m_cp=40, osf=7),
                               alpha, theta, tau, 22, RrcFilter(), 16.0).taps
    taps14 = channel_from_paths(geom, OfdmParams(m=64, m_s=40, m_cp=40, osf=14),
                                alpha, theta, tau, 22, RrcFilter(), 16.0).taps
    denom = np.linalg.norm(taps7)
    assert np.linalg.norm(taps14 - taps7) / denom < 0.01


def test_psi_hat_quadrature():
    val = receive_filter_abs_integral(RrcFilter(rolloff=0.22, span=5.0), osf=7)
    finer = receive_filter_abs_integral(RrcFilter(rolloff=0.22, span=5.0), osf=28)
    assert val == pytest.approx(finer, rel=0.01)
    assert psi_hat_bound(16.0, 0.03, RrcFilter(), 7) == pytest.approx(16.0 * 0.03 * val)


def _held_distortion_power(chan, q_second_moment):
    # A^2 E|q|^2 integral (Pi (*) Omega)^2, from the sampled pulse-filter taps
    po, _ = pulse_filter_taps(chan.rx_filter, chan.ofdm.osf)
    return chan.pa_gain**2 * q_second_moment * float(np.sum(po**2)) / chan.ofdm.osf


def test_distortion_noise_power_reference():
    # independent re-implementation of the per-user closed form
    geom = UlaGeometry(n=64, d_over_lambda=0.125)
    ofdm = OfdmParams(m=64, m_s=40, m_cp=40, osf=7)
    rng = np.random.default_rng(11)
    chan = draw_channel(rng, geom, ofdm, 3, 4, 20, pa_gain=16.0)
    m2 = 8e-4
    base = _held_distortion_power(chan, m2)
    for scheme in ("sd1", "tsd1", "sd2", "tsd2"):
        got = distortion_noise_power(chan, m2, scheme)
        for i in range(3):
            acc_shaped = acc_tail = acc_edge2 = 0.0
            for j in range(4):
                a2 = abs(chan.alpha[i, j]) ** 2
                w = 2 * np.pi * 0.125 * np.sin(chan.theta[i, j])
                s2 = np.sin(w / 2.0) ** 2
                if scheme in ("sd1", "tsd1"):
                    acc_shaped += 4 * 63 * base * a2 * s2
                else:
                    acc_shaped += 16 * 62 * base * a2 * s2 * s2
                acc_tail += base * a2
                acc_edge2 += base * a2 * (abs(1 - 2 * np.exp(-1j * w)) ** 2 + 1)
            if scheme == "sd1":
                expected = acc_shaped + acc_tail
            elif scheme == "tsd1":
                expected = acc_shaped
            elif scheme == "tsd2":
                expected = acc_shaped
            else:
                expected = acc_shaped + acc_edge2
            assert got[i] == pytest.approx(expected, rel=1e-12)


def test_distortion_noise_power_broadside_cases():
    geom = UlaGeometry(n=16, d_over_lambda=0.125)
    ofdm = OfdmParams(m=16, m_s=10, m_cp=40, osf=7)
    chan = channel_from_paths(geom, ofdm, [[1.0]], [[0.0]], [[5.0]], 20,
                              RrcFilter(), 16.0)
    m2 = 1e-3
    assert distortion_noise_power(chan, m2, "tsd1")[0] == 0.0
    assert distortion_noise_power(chan, m2, "sd1")[0] == pytest.approx(
        _held_distortion_power(chan, m2))
    with pytest.raises(ValueError):
        distortion_noise_power(chan, m2, "none")
