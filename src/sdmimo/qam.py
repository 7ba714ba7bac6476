"""Square QAM constellations, detection, and the Gray-coded bit tally.

The constellation is the set {s_R + j s_I : s_R, s_I odd integers in
[-(2D-1), 2D-1]}, i.e. 4*D^2 points.  Detection is per-axis nearest odd
integer with clipping; exact mid-ties round toward zero, and a component
of exactly zero (a tie between -1 and +1) decides -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QamConstellation",
    "detect",
    "symbols_to_bits_errors",
]


@dataclass(frozen=True)
class QamConstellation:
    """4*D^2-point square QAM with odd-integer coordinates."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be a positive integer")

    @property
    def levels(self) -> np.ndarray:
        """Per-axis amplitude levels, [-(2d-1), ..., -1, 1, ..., 2d-1]."""
        return np.arange(-(2 * self.d - 1), 2 * self.d, 2)

    @property
    def points(self) -> np.ndarray:
        """All 4*d^2 constellation points."""
        lv = self.levels.astype(float)
        return (lv[:, None] + 1j * lv[None, :]).ravel()

    @property
    def bits_per_axis(self) -> int:
        """log2(2d), the Gray-code width of one axis; the bit tally needs
        d to be a power of two, so any other d raises ``ValueError``."""
        if self.d & (self.d - 1):
            raise ValueError(f"d = {self.d} is not a power of two: no whole bits per axis")
        return int(np.log2(2 * self.d))

    def random_symbols(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Symbols drawn uniformly from the constellation."""
        re = rng.integers(0, 2 * self.d, size=shape)
        im = rng.integers(0, 2 * self.d, size=shape)
        lv = self.levels
        return lv[re].astype(float) + 1j * lv[im].astype(float)


def _nearest_level(x: np.ndarray, d: int) -> np.ndarray:
    # nearest odd level, clipped to +-(2d-1); exact ties go toward zero and
    # +-0 decides -1.  |x| / 2 is exact (a subnormal may round, but stays
    # below 1), so every boundary 2j is decided exactly
    level = 2.0 * np.clip(np.ceil(np.abs(x) / 2.0), 1, d) - 1.0
    return np.where(x > 0, level, -level)


def detect(r, beta, constellation: QamConstellation) -> np.ndarray:
    """Decide symbols from received values: per-axis nearest level of r/beta.

    Scaling invariant: ``detect(c*r, c*beta)`` equals ``detect(r, beta)``
    bit for bit when c is a power of two (and nothing overflows or
    underflows), since then ``c*r / (c*beta)`` rounds to ``r / beta``.  A
    general c > 0 can move the quotient of a point that sits on a
    decision boundary by one ulp, and so its decision by one level.
    """
    if np.any(np.asarray(beta) <= 0):
        raise ValueError("beta must be positive")
    z = np.asarray(r, dtype=complex) / beta
    d = constellation.d
    return _nearest_level(z.real, d) + 1j * _nearest_level(z.imag, d)


# bit counts for one byte, used to tally Gray-coded bit errors
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def symbols_to_bits_errors(s_true, s_hat, constellation: QamConstellation):
    """Bit errors between true and detected symbols under per-axis Gray coding.

    Each axis carries log2(2d) bits; the level index k (0..2d-1) maps to
    the Gray code k ^ (k >> 1), so adjacent levels differ in one bit.
    The two arrays broadcast against each other.  A result of at most two
    dimensions gives the total as an int; a stacked one, e.g. (S, K, m_s),
    is summed over its last two axes and gives one count per leading
    index (an int64 array).
    """
    d = constellation.d

    def gray(ax):
        k = ((np.asarray(ax) + (2 * d - 1)) / 2).astype(np.int64)
        return k ^ (k >> 1)

    s_true = np.asarray(s_true)
    s_hat = np.asarray(s_hat)
    flips = (_POPCOUNT[(gray(s_true.real) ^ gray(s_hat.real)) & 0xFF]
             + _POPCOUNT[(gray(s_true.imag) ^ gray(s_hat.imag)) & 0xFF])
    counts = flips.sum(axis=tuple(range(max(flips.ndim - 2, 0), flips.ndim)))
    return int(counts) if counts.ndim == 0 else counts
