"""Reference formulas of the receive side: detection and the Gray-coded bit
tally as first written, in complex arithmetic, one axis at a time.

:func:`detect_oracle` divides the complex received values by the real
beta with numpy's complex division and decides each axis with
``np.where``.  :func:`bits_errors_oracle` Gray-codes each axis of both
symbol arrays and counts the bits of their XOR with a one-byte table, so
it covers Gray codes of at most 8 bits (d <= 128).  The package's
interleaved float-view versions must give bit-equal decisions and counts.
:func:`expected_bits_errors` gives the mean and variance of that count
for a noisy received grid in closed form.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _nearest_level(x: np.ndarray, d: int) -> np.ndarray:
    # nearest odd level, clipped to +-(2d-1); exact ties go toward zero and
    # +-0 decides -1
    level = 2.0 * np.clip(np.ceil(np.abs(x) / 2.0), 1, d) - 1.0
    return np.where(x > 0, level, -level)


def detect_oracle(r, beta, d: int) -> np.ndarray:
    """Per-axis nearest level of numpy's complex quotient ``r / beta``."""
    z = np.asarray(r, dtype=complex) / beta
    return _nearest_level(z.real, d) + 1j * _nearest_level(z.imag, d)


def bits_errors_oracle(s_true, s_hat, d: int):
    """Bit errors under per-axis Gray coding, summed like
    :func:`sdmimo.qam.symbols_to_bits_errors`; exact for d <= 128."""

    def gray(ax):
        k = ((np.asarray(ax) + (2 * d - 1)) / 2).astype(np.int64)
        return k ^ (k >> 1)

    s_true = np.asarray(s_true)
    s_hat = np.asarray(s_hat)
    flips = (_POPCOUNT[(gray(s_true.real) ^ gray(s_hat.real)) & 0xFF]
             + _POPCOUNT[(gray(s_true.imag) ^ gray(s_hat.imag)) & 0xFF])
    counts = flips.sum(axis=tuple(range(max(flips.ndim - 2, 0), flips.ndim)))
    return int(counts) if counts.ndim == 0 else counts


def expected_bits_errors(r0, scale, level: float, s_true, d: int):
    """Mean and variance of the Gray bit errors of ``detect(r0 + n, scale)``
    against `s_true`, with n i.i.d. CN(0, `level`) on every entry of `r0`.

    Each axis of each entry decides level j on ``(2j - 2d, 2j - 2d + 2]``
    (j = 0 .. 2d-1, the outer regions open), with probability
    ``Phi((b_hi - x) / s) - Phi((b_lo - x) / s)`` for the noise-free
    quotient x = r0 / scale and s = sqrt(level / 2) / scale, and costs the
    Hamming distance between the Gray codes of j and of the true level.
    The axes are independent, so their means and variances add; exact for
    d <= 128."""
    scale = np.broadcast_to(scale, np.shape(r0))
    q = r0 / scale
    x = np.concatenate([q.real.ravel(), q.imag.ravel()])
    s = np.tile((np.sqrt(level / 2.0) / scale).ravel(), 2)
    s_true = np.asarray(s_true)
    true = ((np.concatenate([s_true.real.ravel(), s_true.imag.ravel()]) + (2 * d - 1)) / 2)
    k = np.arange(2 * d)
    gray = k ^ (k >> 1)
    cost = _POPCOUNT[(gray[true.astype(np.int64), None] ^ gray[None, :]) & 0xFF]
    edges = np.concatenate([[-np.inf], 2.0 * k[1:] - 2 * d, [np.inf]])
    p = np.diff(ndtr((edges[None, :] - x[:, None]) / s[:, None]), axis=1)
    mean = np.sum(p * cost, axis=1)
    return float(mean.sum()), float(np.sum(np.sum(p * cost**2, axis=1) - mean**2))
