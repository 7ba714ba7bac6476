"""OFDM frame machinery: scaled IDFT, cyclic prefix and receiver DFT.

Conventions
-----------
The modulation matrix is the unnormalized exponent form
``F[m, p] = exp(+2j*pi*m*p/M)``; only its first ``m_s`` columns are
used.  The receiver applies the conjugate transpose, so a modulate +
demodulate round trip has gain ``M`` (``F_s^H F_s = M*I``).  That factor
is not divided out anywhere in this module; downstream code absorbs it
into the per-user scaling calibration.

The sampling period is normalized to 1 and the transmit pulse is a
zero-order hold of each sample, which preserves per-antenna maximum
amplitudes exactly.  The PA chain runs on the symbol-rate samples; the
hold itself lives in the channel's FIR taps, whose quadrature grid has
``osf`` points per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

__all__ = ["OfdmParams", "TimeGrid", "idft_modulate", "receiver_dft"]


@dataclass(frozen=True)
class OfdmParams:
    """IDFT size `m`, active subcarriers `m_s`, CP length `m_cp`, and `osf`,
    the quadrature points per sample used to build the channel taps."""

    m: int = 512
    m_s: int = 300
    m_cp: int = 40
    osf: int = 7

    def __post_init__(self) -> None:
        if not (self.m >= self.m_s >= 1):
            raise ValueError("need m >= m_s >= 1")
        if self.m_cp < 0 or self.osf < 1:
            raise ValueError("need m_cp >= 0 and osf >= 1")


@dataclass(frozen=True)
class TimeGrid:
    """Time-domain block: payload samples plus the cyclic-prefix view.

    `x` has shape (N, m); `with_cp` prepends the last `m_cp` columns, so
    sample m and sample m+M agree across the CP boundary by construction.
    """

    x: np.ndarray
    m_cp: int

    @property
    def with_cp(self) -> np.ndarray:
        if self.m_cp == 0:
            return self.x
        return np.concatenate([self.x[:, -self.m_cp:], self.x], axis=1)


def idft_modulate(params: OfdmParams, z) -> TimeGrid:
    """Map frequency-domain symbols to time samples, ``x_m = sum_p z_p e^{2j pi mp/M}``.

    `z` has shape (N, m_s); subcarriers m_s..M-1 are zero-padded.  The
    transform is computed by FFT without 1/M normalization, matching the
    unnormalized matrix convention above.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[1] != params.m_s:
        raise ShapeMismatch(f"expected (N, {params.m_s}) symbol grid, got {z.shape}")
    return TimeGrid(x=np.fft.ifft(z, n=params.m, axis=1, norm="forward"), m_cp=params.m_cp)


def receiver_dft(params: OfdmParams, y) -> np.ndarray:
    """CP removal followed by the subcarrier DFT ``r_p = sum_m y_m e^{-2j pi mp/M}``.

    `y` holds ``m_cp + m`` received samples along its last axis (leading
    axes, e.g. users, are preserved); returns `m_s` frequency bins.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape[-1] != params.m_cp + params.m:
        raise ShapeMismatch(
            f"expected {params.m_cp + params.m} samples on the last axis, got {y.shape}"
        )
    payload = y[..., params.m_cp:]
    return np.fft.fft(payload, axis=-1)[..., : params.m_s]
