import numpy as np
import pytest

from sdmimo.errors import ShapeMismatch
from sdmimo.ofdm import OfdmParams, idft_modulate, receiver_dft

from fine_grid import sample_hold


def _naive_f(m):
    grid = np.arange(m)
    return np.exp(2j * np.pi * np.outer(grid, grid) / m)


def test_dc_tone():
    params = OfdmParams(m=16, m_s=10, m_cp=4, osf=1)
    z = np.zeros((2, 10), dtype=complex)
    z[1, 0] = 1.0
    x = idft_modulate(params, z)[:, params.m_cp:]
    assert np.allclose(x[1], 1.0)
    assert np.allclose(x[0], 0.0)


def test_zero_grid():
    params = OfdmParams(m=8, m_s=5, m_cp=2, osf=3)
    x = idft_modulate(params, np.zeros((3, 5), dtype=complex))[:, params.m_cp:]
    assert not x.any()


def test_idft_matches_naive_matrix():
    params = OfdmParams(m=8, m_s=5, m_cp=3, osf=1)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    fs = _naive_f(8)[:, :5]
    x = idft_modulate(params, z)[:, params.m_cp:]
    assert np.allclose(x, z @ fs.T, atol=1e-13)


def test_round_trip_gain_is_m():
    # F_s^H F_s = M I, so demodulating the modulated grid returns M * Z
    params = OfdmParams(m=8, m_s=5, m_cp=3, osf=1)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    r = receiver_dft(params, idft_modulate(params, z))
    assert np.allclose(r, 8 * z, atol=1e-12)


@pytest.mark.parametrize("m,m_s", [(8, 1), (8, 5), (8, 8), (64, 40)])
def test_round_trip_all_sizes(m, m_s):
    params = OfdmParams(m=m, m_s=m_s, m_cp=5, osf=1)
    rng = np.random.default_rng(m + m_s)
    z = rng.standard_normal((2, m_s)) + 1j * rng.standard_normal((2, m_s))
    r = receiver_dft(params, idft_modulate(params, z))
    assert np.max(np.abs(r - m * z)) <= 1e-11 * m * np.abs(z).max()


def test_cp_periodicity():
    # (m, m_s, m_cp): a CP shorter than, as long as, and longer than the block
    for m, m_s, m_cp in ((16, 9, 5), (16, 9, 0), (16, 9, 16), (16, 8, 40)):
        params = OfdmParams(m=m, m_s=m_s, m_cp=m_cp, osf=1)
        rng = np.random.default_rng(2)
        z = rng.standard_normal((2, m_s)) + 1j * rng.standard_normal((2, m_s))
        x_cp = idft_modulate(params, z)
        assert x_cp.shape == (2, m_cp + m)
        # one C-ordered block, whose last m columns are the payload
        assert x_cp.flags.c_contiguous
        x = x_cp[:, m_cp:]
        # column i is payload sample (i - m_cp) mod m, bit for bit, so
        # sample m and m + M agree across the CP region
        cyclic = x[:, (np.arange(m_cp + m) - m_cp) % m]
        assert x_cp.tobytes() == cyclic.tobytes()
        if 0 < m_cp <= m:
            assert x_cp[:, :m_cp].tobytes() == np.ascontiguousarray(x[:, m - m_cp:]).tobytes()


def test_sample_hold_identity_at_osf1():
    params = OfdmParams(m=8, m_s=4, m_cp=2, osf=1)
    rng = np.random.default_rng(3)
    x_cp = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
    assert np.array_equal(sample_hold(params, x_cp), x_cp)


def test_sample_hold_replicates():
    params = OfdmParams(m=4, m_s=2, m_cp=1, osf=7)
    x_cp = np.zeros((1, 5), dtype=complex)
    x_cp[0, 2] = 3.0 - 1.0j
    fine = sample_hold(params, x_cp)
    assert fine.shape == (1, 35)
    assert np.array_equal(fine[0, 14:21], np.full(7, 3.0 - 1.0j))
    assert not fine[0, :14].any() and not fine[0, 21:].any()


def test_sample_hold_piecewise_constant():
    params = OfdmParams(m=8, m_s=4, m_cp=2, osf=7)
    rng = np.random.default_rng(4)
    x_cp = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
    fine = sample_hold(params, x_cp)
    breaks = np.nonzero(np.diff(fine[0]))[0] + 1
    assert np.all(breaks % 7 == 0)


def test_sample_hold_preserves_max():
    # zero-order hold keeps the per-antenna peak amplitude unchanged
    params = OfdmParams(m=32, m_s=20, m_cp=4, osf=7)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
    x_cp = idft_modulate(params, z)
    fine = sample_hold(params, x_cp)
    assert np.abs(fine).max() == np.abs(x_cp).max()


def test_receiver_tone_orthogonality():
    params = OfdmParams(m=16, m_s=10, m_cp=3, osf=1)
    fs = _naive_f(16)[:, :10]
    for p in (0, 4, 9):
        y = np.concatenate([np.zeros(3, dtype=complex), fs[:, p]])
        r = receiver_dft(params, y)
        expected = np.zeros(10, dtype=complex)
        expected[p] = 16.0
        assert np.allclose(r, expected, atol=1e-12)


def test_receiver_zero():
    params = OfdmParams(m=8, m_s=6, m_cp=2, osf=1)
    assert not receiver_dft(params, np.zeros(10, dtype=complex)).any()


def test_shape_errors():
    params = OfdmParams(m=8, m_s=6, m_cp=2, osf=1)
    with pytest.raises(ShapeMismatch):
        idft_modulate(params, np.zeros((2, 5), dtype=complex))
    with pytest.raises(ShapeMismatch):
        receiver_dft(params, np.zeros(9, dtype=complex))
    with pytest.raises(ShapeMismatch):
        sample_hold(params, np.zeros((2, 9), dtype=complex))


def test_params_validation():
    with pytest.raises(ValueError):
        OfdmParams(m=8, m_s=9)
    with pytest.raises(ValueError):
        OfdmParams(m=8, m_s=4, m_cp=-1)
    with pytest.raises(ValueError):
        OfdmParams(m=8, m_s=4, osf=0)
