import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdmimo.errors import NoCompressionPoint
from sdmimo.ofdm import OfdmParams
from sdmimo.pa import (
    PaModel,
    ShapingBudget,
    amp_response,
    apply_pa,
    compute_psi,
    compute_r1db,
    phase_response,
)

from fine_grid import sample_hold

# worst-case relative distortion of the modified Rapp set over |z| <= r_max,
# frozen from a 1e6-point brute-force grid search
RAPP_PSI_AT_RMAX = 0.03256675


def test_ideal_linear_region():
    pa = PaModel.ideal(gain=16.0, r_max=0.1187)
    assert apply_pa(pa, 0.05) == pytest.approx(0.8)
    z = 0.03 * np.exp(1j * 1.1)
    assert apply_pa(pa, z) == pytest.approx(16.0 * z)


def test_ideal_clips_above_rmax():
    pa = PaModel.ideal(gain=16.0, r_max=0.1187)
    out = apply_pa(pa, 0.5)
    assert abs(out) == pytest.approx(16.0 * 0.1187)


def test_zero_maps_to_zero(rapp_pa, twta_pa, ideal_pa):
    for pa in (rapp_pa, twta_pa, ideal_pa):
        assert apply_pa(pa, 0.0) == 0.0


def test_nonfinite_input_rejected(rapp_pa):
    with pytest.raises(ValueError):
        apply_pa(rapp_pa, np.inf)
    with pytest.raises(ValueError):
        apply_pa(rapp_pa, np.array([1.0, np.nan]))


def test_rapp_amplitude_at_rmax(rapp_pa):
    # amplitude branch evaluates to A*r_max / 2**(1/(2*phi)) at r = r_max
    out = apply_pa(rapp_pa, rapp_pa.r_max)
    assert abs(out) == pytest.approx(16.0 * 0.1187 / 2 ** (1 / 2.2), rel=1e-12)
    assert np.angle(out) == pytest.approx(phase_response(rapp_pa, rapp_pa.r_max))


def test_rapp_phase_formula(rapp_pa):
    r = 0.09
    expected = -345.0 * r**4 / (1.0 + (r / 0.17) ** 4)
    assert phase_response(rapp_pa, r) == pytest.approx(expected, rel=1e-12)


def test_twta_at_rmax(twta_pa):
    out = apply_pa(twta_pa, twta_pa.r_max)
    assert abs(out) == pytest.approx(16.0 * 0.1187 / 1.25, rel=1e-12)
    assert np.angle(out) == pytest.approx(np.pi / 12.0 / 1.25, rel=1e-12)


def test_polar_decomposition_consistency(rapp_pa, twta_pa):
    rng = np.random.default_rng(0)
    z = 0.2 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    for pa in (rapp_pa, twta_pa):
        out = apply_pa(pa, z)
        assert np.allclose(np.abs(out), amp_response(pa, np.abs(z)))
        dphi = np.angle(out) - np.angle(z) - phase_response(pa, np.abs(z))
        assert np.allclose(np.mod(dphi + np.pi, 2 * np.pi) - np.pi, 0.0, atol=1e-12)


def test_amplitude_response_nondecreasing(rapp_pa, twta_pa, ideal_pa):
    # the TWTA response peaks at 2*r_max and rolls over beyond, so its
    # monotone range is the drive region up to that point
    for pa, r_hi in ((rapp_pa, 5 * 0.1187), (twta_pa, 2 * 0.1187), (ideal_pa, 5 * 0.1187)):
        r = np.linspace(0.0, r_hi, 4000)
        ga = amp_response(pa, r)
        assert np.all(np.diff(ga) >= -1e-12)
        assert ga[0] == 0.0


def test_psi_ideal():
    pa = PaModel.ideal(gain=16.0, r_max=0.1187)
    assert compute_psi(pa, pa.r_max) == pytest.approx(0.0, abs=1e-12)
    # above saturation the clipping error is maximal at the disk edge
    assert compute_psi(pa, 2 * pa.r_max) == pytest.approx(pa.r_max, abs=1e-9)


def test_psi_rapp_regression(rapp_pa):
    psi = compute_psi(rapp_pa, rapp_pa.r_max)
    assert 0.0 < psi < rapp_pa.r_max
    assert psi == pytest.approx(RAPP_PSI_AT_RMAX, abs=1e-6)


def test_psi_matches_brute_force(rapp_pa, twta_pa):
    for pa in (rapp_pa, twta_pa):
        chi = pa.r_max
        r = np.linspace(0.0, chi, 10**6)
        ga = amp_response(pa, r) / pa.gain
        gp = phase_response(pa, r)
        brute = np.max(np.abs(ga * np.exp(1j * gp) - r))
        assert compute_psi(pa, chi) == pytest.approx(brute, abs=1e-6)


def test_psi_nondecreasing_in_chi(rapp_pa):
    chis = np.linspace(0.02, 3 * rapp_pa.r_max, 12)
    psis = [compute_psi(rapp_pa, c) for c in chis]
    assert np.all(np.diff(psis) >= -1e-9)


def test_pa_characteristics_are_computed_once_per_model(rapp_pa):
    # psi and r1db are memoized per model (and chi): a repeated call returns
    # the identical float from the cache, and a model that differs in one
    # field is a different key with a different value
    compute_psi.cache_clear()
    compute_r1db.cache_clear()
    psi = compute_psi(rapp_pa, rapp_pa.r_max)
    r1db = compute_r1db(rapp_pa)
    assert compute_psi(rapp_pa, rapp_pa.r_max) is psi
    assert compute_r1db(rapp_pa) is r1db
    assert compute_psi.cache_info().hits == 1 and compute_r1db.cache_info().hits == 1
    assert compute_psi(dataclasses.replace(rapp_pa, phi=2.0), rapp_pa.r_max) != psi
    assert compute_psi.cache_info().misses == 2


def test_r1db_rapp(rapp_pa):
    # analytic inversion of the amplitude branch:
    # (1 + (r/r_max)^(2 phi))^(1/(2 phi)) = 10^(1/20)
    expected = 0.1187 * (10 ** (2 * 1.1 / 20.0) - 1.0) ** (1 / 2.2)
    r = compute_r1db(rapp_pa)
    assert r == pytest.approx(expected, rel=1e-8)
    assert r < rapp_pa.r_max


def test_r1db_twta(twta_pa):
    expected = 0.1187 * np.sqrt(4.0 * (10**0.05 - 1.0))
    assert compute_r1db(twta_pa) == pytest.approx(expected, rel=1e-8)


def test_r1db_ideal_raises(ideal_pa):
    with pytest.raises(NoCompressionPoint):
        compute_r1db(ideal_pa)


def test_r1db_beyond_search_interval_raises(rapp_pa):
    # with phi = 0.01 the output is already over 1 dB below linear gain at
    # the interval's lower end, 1e-12*r_max, and A*r / g_a(r) grows with r,
    # so the search interval holds no root
    with pytest.raises(NoCompressionPoint):
        compute_r1db(dataclasses.replace(rapp_pa, phi=0.01))


def test_budget_from_pa(rapp_pa):
    budget = ShapingBudget.from_pa(rapp_pa, rapp_pa.r_max)
    assert budget.psi == pytest.approx(RAPP_PSI_AT_RMAX, abs=1e-6)
    assert budget.headroom == pytest.approx(rapp_pa.r_max - budget.psi)
    assert budget.psi < budget.chi


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PaModel(kind="ideal", gain=-1.0, r_max=0.1)
    with pytest.raises(ValueError):
        PaModel(kind="modified_rapp", gain=1.0, r_max=0.1, phi=-2.0, zeta=1.0, c=0.2)
    with pytest.raises(ValueError):
        PaModel(kind="sspa", gain=1.0, r_max=0.1)


_PA_MODELS = (
    PaModel.ideal(gain=16.0, r_max=0.1187),
    PaModel.modified_rapp(gain=16.0, r_max=0.1187, phi=1.1, zeta=4.0, b=-345.0, c=0.17),
    PaModel.twta(gain=16.0, r_max=0.1187),
)

# antenna frames reaching past saturation, zeros and tiny values included
FRAMES = st.tuples(st.integers(1, 6), st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.complex128, shape, elements=st.complex_numbers(
        max_magnitude=0.4, allow_nan=False, allow_infinity=False)))


@pytest.mark.parametrize("model", _PA_MODELS, ids=lambda m: m.kind)
@settings(max_examples=150, deadline=None)
@given(x=FRAMES, osf=st.integers(1, 8))
def test_pa_commutes_with_hold(model, x, osf):
    # memoryless PA: running it on the symbol-rate samples and holding the
    # result is bit-identical to running it on the held samples
    params = OfdmParams(m=x.shape[1], m_s=1, m_cp=0, osf=osf)
    held_first = apply_pa(model, sample_hold(params, x))
    pa_first = sample_hold(params, apply_pa(model, x))
    assert held_first.tobytes() == pa_first.tobytes()
