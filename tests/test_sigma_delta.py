import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdmimo import sigma_delta
from sdmimo.errors import ShapeMismatch
from sdmimo.ofdm import OfdmParams
from sdmimo.pa import PaModel, ShapingBudget
from sdmimo.sigma_delta import (
    ModulatorConfig,
    count_overloads,
    modulate,
    shaped_distortion_power,
)

from conftest import complex_uniform_disk
from fine_grid import sample_hold
from sd_oracle import modulate_oracle


def _cfg(pa, order=1, tail=False):
    return ModulatorConfig(order=order, tail_removing=tail, pa=pa,
                           budget=ShapingBudget.from_pa(pa, pa.r_max))


def test_zero_input_is_fixed_point(rapp_pa):
    x = np.zeros((8, 32), dtype=complex)
    for order in (1, 2):
        u, q, b = modulate(_cfg(rapp_pa, order=order), x)
        assert not u.any() and not q.any() and not b.any()


def test_ideal_pa_linear_region_passthrough(ideal_pa):
    rng = np.random.default_rng(1)
    x = complex_uniform_disk(rng, (6, 100), ideal_pa.r_max)
    for order in (1, 2):
        u, q, b = modulate(_cfg(ideal_pa, order=order), x)
        assert np.allclose(u, ideal_pa.gain * x)
        assert np.allclose(q, 0.0)


@pytest.mark.parametrize("pa_name", ["rapp_pa", "twta_pa"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_order_no_overloading_bounds(pa_name, seed, request):
    # feedback keeps PA inputs within chi and distortion within psi
    # whenever the input obeys the first-order amplitude bound
    pa = request.getfixturevalue(pa_name)
    cfg = _cfg(pa)
    rng = np.random.default_rng(seed)
    x = complex_uniform_disk(rng, (8, 512), 1.0)
    x *= cfg.input_bound / np.abs(x).max()
    u, q, b = modulate(cfg, x)
    assert np.abs(b).max() <= cfg.budget.chi + 1e-9
    assert np.abs(q).max() <= cfg.budget.psi + 1e-9


def test_second_order_no_overloading_bounds(rapp_pa):
    cfg = _cfg(rapp_pa, order=2)
    rng = np.random.default_rng(3)
    x = complex_uniform_disk(rng, (16, 512), 1.0)
    x *= cfg.input_bound / np.abs(x).max()
    u, q, b = modulate(cfg, x)
    assert np.abs(b).max() <= cfg.budget.chi + 1e-9
    assert np.abs(q).max() <= cfg.budget.psi + 1e-9


def test_first_order_recurrence_matches_scalar_replay(rapp_pa):
    # independent scalar re-implementation of the loop as oracle
    from sdmimo.pa import apply_pa

    cfg = _cfg(rapp_pa)
    rng = np.random.default_rng(4)
    x = complex_uniform_disk(rng, (3, 5), cfg.input_bound)
    u, q, b = modulate(cfg, x)
    for t in range(x.shape[1]):
        q_prev = 0.0
        for n in range(x.shape[0]):
            b_nt = x[n, t] - q_prev
            u_nt = apply_pa(rapp_pa, b_nt)
            q_nt = u_nt / rapp_pa.gain - b_nt
            assert b[n, t] == pytest.approx(b_nt, abs=1e-15)
            assert u[n, t] == pytest.approx(u_nt, abs=1e-15)
            assert q[n, t] == pytest.approx(q_nt, abs=1e-15)
            q_prev = q_nt


def test_second_order_recurrence_matches_scalar_replay(rapp_pa):
    from sdmimo.pa import apply_pa

    cfg = _cfg(rapp_pa, order=2)
    rng = np.random.default_rng(5)
    x = complex_uniform_disk(rng, (3, 4), cfg.input_bound)
    u, q, b = modulate(cfg, x)
    for t in range(x.shape[1]):
        q1 = 0.0
        q2 = 0.0
        for n in range(x.shape[0]):
            b_nt = x[n, t] - 2.0 * q1 + q2
            u_nt = apply_pa(rapp_pa, b_nt)
            q_nt = u_nt / rapp_pa.gain - b_nt
            assert b[n, t] == pytest.approx(b_nt, abs=1e-15)
            assert u[n, t] == pytest.approx(u_nt, abs=1e-15)
            q2 = q1
            q1 = q_nt


@pytest.mark.parametrize("tail", [False, True])
def test_first_order_output_identity(rapp_pa, tail):
    # u_n = A x_n + A (q_n - q_{n-1}) holds per sample to machine precision
    cfg = _cfg(rapp_pa, tail=tail)
    rng = np.random.default_rng(6)
    x = complex_uniform_disk(rng, (12, 256), cfg.input_bound)
    u, q, b = modulate(cfg, x)
    q_shift = np.vstack([np.zeros((1, x.shape[1])), q[:-1]])
    resid = u - rapp_pa.gain * x - rapp_pa.gain * (q - q_shift)
    assert np.abs(resid).max() <= 1e-12 * np.abs(u).max()


def test_second_order_output_identity(rapp_pa):
    cfg = _cfg(rapp_pa, order=2)
    rng = np.random.default_rng(7)
    x = complex_uniform_disk(rng, (10, 128), cfg.input_bound)
    u, q, b = modulate(cfg, x)
    pad = np.zeros((2, x.shape[1]))
    q1 = np.vstack([pad[:1], q[:-1]])
    q2 = np.vstack([pad, q[:-2]])
    resid = u - rapp_pa.gain * (x + q - 2.0 * q1 + q2)
    assert np.abs(resid).max() <= 1e-12 * np.abs(u).max()


def test_tail_removal_zeroes_last_distortion(rapp_pa):
    cfg = _cfg(rapp_pa, tail=True)
    rng = np.random.default_rng(8)
    x = complex_uniform_disk(rng, (9, 200), cfg.input_bound)
    u, q, b = modulate(cfg, x)
    assert np.abs(q[-1]).max() == 0.0
    # broadside sum telescopes exactly: sum_n u_n = A sum_n x_n
    assert np.allclose(u.sum(axis=0), rapp_pa.gain * x.sum(axis=0), atol=1e-12)


def test_second_order_tail_removal(rapp_pa):
    cfg = ModulatorConfig(order=2, tail_removing=True, pa=rapp_pa,
                          budget=ShapingBudget.from_pa(rapp_pa, rapp_pa.r_max))
    rng = np.random.default_rng(9)
    x = complex_uniform_disk(rng, (8, 100), cfg.input_bound)
    u, q, b = modulate(cfg, x)
    assert np.abs(q[-2:]).max() == 0.0


def test_one_bit_quantizer_stub_bound(monkeypatch):
    # classic one-bit result via a signum stub: |x|<=1 implies |q|<=1
    monkeypatch.setattr(sigma_delta, "apply_pa_into",
                        lambda model, z, out, work: np.sign(z, out=out))
    cfg = ModulatorConfig(order=1, tail_removing=False,
                          pa=PaModel.ideal(gain=1.0, r_max=1.0),
                          budget=ShapingBudget(chi=2.0, psi=1.0))
    rng = np.random.default_rng(10)
    x = rng.uniform(-1.0, 1.0, size=(64, 400)).astype(complex)
    u, q, b = modulate(cfg, x)
    assert np.array_equal(np.abs(u), np.ones(u.shape))  # the stub ran on every row
    assert np.abs(q).max() <= 1.0 + 1e-12


def test_overload_count(rapp_pa):
    cfg = _cfg(rapp_pa)
    x = np.full((4, 10), 2.0 * cfg.input_bound, dtype=complex)
    assert count_overloads(cfg, x) == 40


def test_shape_validation(rapp_pa):
    cfg = _cfg(rapp_pa, tail=True)
    with pytest.raises(ShapeMismatch):
        modulate(cfg, np.zeros(10, dtype=complex))
    with pytest.raises(ShapeMismatch):
        modulate(cfg, np.zeros((1, 10), dtype=complex))


def test_config_requires_positive_bound(ideal_pa):
    budget = ShapingBudget(chi=0.1, psi=0.05)
    with pytest.raises(ValueError):
        ModulatorConfig(order=2, tail_removing=False, pa=ideal_pa, budget=budget)


def test_shaped_power_broadside():
    assert shaped_distortion_power(0.0, 0.125, 64, 16.0, 0.03, "tsd1") == 0.0
    assert shaped_distortion_power(0.0, 0.125, 64, 16.0, 0.03, "sd1") == pytest.approx(
        16.0**2 * 0.03**2 / 3.0
    )
    assert shaped_distortion_power(0.0, 0.125, 64, 16.0, 0.03, "tsd2") == 0.0


def test_shaped_power_angle_ratio():
    # ratio between angles depends only on the high-pass profile
    p30 = shaped_distortion_power(math.radians(30), 0.125, 64, 16.0, 0.03, "tsd1")
    p5 = shaped_distortion_power(math.radians(5), 0.125, 64, 16.0, 0.03, "tsd1")
    expected = (math.sin(math.pi / 8 * math.sin(math.radians(30))) ** 2
                / math.sin(math.pi / 8 * math.sin(math.radians(5))) ** 2)
    assert p30 / p5 == pytest.approx(expected, rel=1e-12)


def test_shaped_power_matches_synthetic_iid_model():
    # build the received distortion directly from the assumed i.i.d. law
    rng = np.random.default_rng(11)
    n, psi, gain, d_over_lambda = 32, 0.03, 16.0, 0.125
    theta = math.radians(20)
    omega = 2 * np.pi * d_over_lambda * math.sin(theta)
    draws = 200_000
    q = (rng.uniform(0, psi, (draws, n - 1))
         * np.exp(1j * rng.uniform(-np.pi, np.pi, (draws, n - 1))))
    phases = np.exp(-1j * omega * np.arange(n - 1))
    xi = gain * (1 - np.exp(-1j * omega)) * (q @ phases)
    measured = np.mean(np.abs(xi) ** 2)
    predicted = shaped_distortion_power(theta, d_over_lambda, n, gain, psi, "tsd1")
    assert measured == pytest.approx(predicted, rel=0.02)


def test_shaped_power_unknown_scheme():
    with pytest.raises(ValueError):
        shaped_distortion_power(0.1, 0.125, 8, 16.0, 0.03, "sd3")


def test_measured_spectrum_tracks_sin2_profile(rapp_pa):
    # the angular shape of the measured tail-removed distortion follows the
    # sin^2 high-pass profile within 20%, independent of the absolute level
    budget = ShapingBudget.from_pa(rapp_pa, rapp_pa.r_max)
    cfg = ModulatorConfig(order=1, tail_removing=True, pa=rapp_pa, budget=budget)
    from sdmimo.channel import UlaGeometry, steering_vector

    geom = UlaGeometry(32, 0.125)
    angles = [10.0, 20.0, 30.0]
    steer = np.stack([steering_vector(geom, math.radians(a)) for a in angles])
    rng = np.random.default_rng(21)
    acc = np.zeros(3)
    count = 0
    for _ in range(80):
        x = cfg.input_bound * np.exp(1j * rng.uniform(-np.pi, np.pi, (32, 256)))
        u, _, _ = modulate(cfg, x)
        acc += np.sum(np.abs(steer @ (u - rapp_pa.gain * x)) ** 2, axis=1)
        count += 256
    measured = acc / count
    profile = np.array([math.sin(math.pi / 8 * math.sin(math.radians(a))) ** 2
                        for a in angles])
    # normalize both curves by their last point and compare shapes
    shape_err = np.abs(measured / measured[-1] - profile / profile[-1])
    assert shape_err.max() <= 0.2


_RAPP = PaModel.modified_rapp(gain=16.0, r_max=0.1187, phi=1.1, zeta=4.0, b=-345.0, c=0.17)
_RAPP_BUDGET = ShapingBudget.from_pa(_RAPP, _RAPP.r_max)

# modulator frames with at least 3 antennas (the tsd2 minimum), with
# amplitudes on both sides of the no-overloading bounds
FRAMES = st.tuples(st.integers(3, 8), st.integers(1, 10)).flatmap(
    lambda shape: arrays(np.complex128, shape, elements=st.complex_numbers(
        max_magnitude=0.2, allow_nan=False, allow_infinity=False)))


@pytest.mark.parametrize("scheme", ("sd1", "tsd1", "sd2", "tsd2"))
@settings(max_examples=100, deadline=None)
@given(x=FRAMES, osf=st.integers(1, 8))
def test_modulate_commutes_with_hold(scheme, x, osf):
    # the loop is memoryless along time: modulating the held frame is
    # bit-identical to holding the symbol-rate loop's outputs
    cfg = ModulatorConfig.from_scheme(scheme, _RAPP, _RAPP_BUDGET)
    params = OfdmParams(m=x.shape[1], m_s=1, m_cp=0, osf=osf)
    held_first = modulate(cfg, sample_hold(params, x))
    loop_first = modulate(cfg, x)
    for a, b in zip(held_first, loop_first):
        assert a.tobytes() == sample_hold(params, b).tobytes()


_PA_MODELS = (
    PaModel.ideal(gain=16.0, r_max=0.1187),
    _RAPP,
    PaModel.twta(gain=16.0, r_max=0.1187),
)


@pytest.mark.parametrize("model", _PA_MODELS, ids=lambda m: m.kind)
@pytest.mark.parametrize("scheme", ("sd1", "tsd1", "sd2", "tsd2"))
@settings(max_examples=60, deadline=None)
@given(x=FRAMES)
def test_loop_matches_per_order_oracle(model, scheme, x):
    # the one error-feedback recurrence reproduces the per-order loops with
    # their per-antenna PA list bit for bit, overloaded samples included,
    # whatever the frame's memory layout: C-ordered, Fortran-ordered, or a
    # strided view into a larger frame
    cfg = ModulatorConfig.from_scheme(scheme, model, ShapingBudget.from_pa(model, model.r_max))
    expected = modulate_oracle(cfg, x)
    wide = np.zeros((2 * x.shape[0], 3 * x.shape[1]), dtype=complex)
    wide[::2, 1::3] = x
    for frame in (x, np.asfortranarray(x), wide[::2, 1::3]):
        for a, b in zip(modulate(cfg, frame), expected):
            assert np.array_equal(a, b)


def test_tail_count_per_scheme(rapp_pa, rapp_budget):
    tails = {s: ModulatorConfig.from_scheme(s, rapp_pa, rapp_budget).n_tail
             for s in ("sd1", "tsd1", "sd2", "tsd2")}
    assert tails == {"sd1": 0, "tsd1": 1, "sd2": 0, "tsd2": 2}


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
def test_nonfinite_pa_input_rejected(rapp_pa, value):
    # a non-finite input, or a finite one whose feedback overflows, reaches
    # a PA as a non-finite sample, which apply_pa rejects on that row
    x = np.zeros((4, 3), dtype=complex)
    x[0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="finite"):
            modulate(_cfg(rapp_pa), x)


@pytest.mark.parametrize("scheme", ["sd1", "tsd1", "sd2", "tsd2"])
@pytest.mark.parametrize("theta_deg", [7.0, 25.0, -48.0])
def test_shaped_power_per_angle_hand_values(scheme, theta_deg):
    n, d_over_lambda, gain, psi = 12, 0.3, 16.0, 0.03
    w = 2.0 * math.pi * d_over_lambda * math.sin(math.radians(theta_deg))
    base = gain**2 * psi**2 / 3.0
    s2 = math.sin(w / 2.0) ** 2
    expected = {
        "sd1": 4.0 * (n - 1) * base * s2 + base,
        "tsd1": 4.0 * (n - 1) * base * s2,
        # |1 - 2 e^{-jw}|^2 = 5 - 4 cos w for the two unshaped edge antennas
        "sd2": 16.0 * (n - 2) * base * s2**2 + base * (5.0 - 4.0 * math.cos(w) + 1.0),
        "tsd2": 16.0 * (n - 2) * base * s2**2,
    }[scheme]
    got = shaped_distortion_power(math.radians(theta_deg), d_over_lambda, n, gain, psi,
                                  scheme)
    assert got == pytest.approx(expected, rel=1e-12)


# random PAs around the 3GPP modified Rapp fit, and the TWTA at any r_max
_RANDOM_PAS = st.one_of(
    st.builds(PaModel.modified_rapp, gain=st.just(16.0), r_max=st.floats(0.02, 1.0),
              phi=st.floats(0.3, 5.0), zeta=st.floats(0.5, 8.0),
              b=st.floats(-1000.0, 1000.0), c=st.floats(0.02, 1.0)),
    st.builds(PaModel.twta, gain=st.just(16.0), r_max=st.floats(0.02, 1.0)),
)


def _polar_frames(min_antennas: int):
    """(amplitude, phase) arrays of a modulator frame, before scaling to the bound."""
    return st.tuples(st.integers(min_antennas, 16), st.integers(1, 16)).flatmap(
        lambda shape: st.tuples(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)),
                                arrays(np.float64, shape, elements=st.floats(-np.pi, np.pi))))


@pytest.mark.parametrize("scheme", ("sd1", "tsd1", "sd2", "tsd2"))
@settings(max_examples=80, deadline=None)
@given(pa=_RANDOM_PAS, chi_frac=st.floats(1e-6, 1.0), constant_envelope=st.booleans(),
       data=st.data())
def test_no_overloading_bounds_and_loop_identity_over_random_pas(
        scheme, pa, chi_frac, constant_envelope, data):
    # an input whose peak sits on the input bound keeps every PA input within
    # chi and every distortion sample within psi; the slack is compute_psi's
    # 1e-6 absolute accuracy, tripled for |b| <= |x| + 2|q_{n-1}| + |q_{n-2}|
    budget = ShapingBudget.from_pa(pa, chi_frac * pa.r_max)
    order, _ = sigma_delta.SCHEMES[scheme]
    assume(budget.chi - (1.0 if order == 1 else 3.0) * budget.psi > 0)
    cfg = ModulatorConfig.from_scheme(scheme, pa, budget)
    amp, phase = data.draw(_polar_frames(order + 1))
    x = (np.ones_like(amp) if constant_envelope else amp) * np.exp(1j * phase)
    assume(np.abs(x).max() > 1e-100)
    x *= cfg.input_bound / np.abs(x).max()
    assert count_overloads(cfg, x) == 0
    u, q, b = modulate(cfg, x)
    assert np.abs(b).max() <= budget.chi + 3e-6
    assert np.abs(q).max() <= budget.psi + 1e-6
    # u_n = A (x_n + q_n - sum_k c_k q_{n-k}), the loop identity of either order
    pad = np.zeros((2, x.shape[1]))
    q1 = np.vstack([pad[:1], q[:-1]])
    q2 = np.vstack([pad, q[:-2]])
    feedback = q1 if order == 1 else 2.0 * q1 - q2
    resid = u - pa.gain * (x + q - feedback)
    assert np.abs(resid).max() <= 1e-12 * np.abs(u).max()
