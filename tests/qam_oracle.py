"""Reference formulas of the receive side: detection and the Gray-coded bit
tally as first written, in complex arithmetic, one axis at a time.

:func:`detect_oracle` divides the complex received values by the real
beta with numpy's complex division and decides each axis with
``np.where``.  :func:`bits_errors_oracle` Gray-codes each axis of both
symbol arrays and counts the bits of their XOR with a one-byte table, so
it covers Gray codes of at most 8 bits (d <= 128).  The package's
interleaved float-view versions must give bit-equal decisions and counts.
"""

from __future__ import annotations

import numpy as np

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
