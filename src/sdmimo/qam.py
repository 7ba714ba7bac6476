"""Square QAM constellations, detection, and the Gray-coded bit tally.

The constellation is the set {s_R + j s_I : s_R, s_I odd integers in
[-(2D-1), 2D-1]}, i.e. 4*D^2 points.  Detection is per-axis nearest odd
integer with clipping; exact mid-ties round toward zero, and a component
of exactly zero (a tie between -1 and +1) decides -1.  Detection and the
bit tally run on the interleaved float views of their complex inputs.
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
        """Symbols drawn uniformly from the constellation: all level indices
        of the real parts, then all of the imaginary parts, written into
        one complex array."""
        re = rng.integers(0, 2 * self.d, size=shape)
        im = rng.integers(0, 2 * self.d, size=shape)
        lv = self.levels.astype(float)
        s = np.empty(re.shape, dtype=complex)
        s.real = lv[re]
        s.imag = lv[im]
        return s


def detect(r, beta, constellation: QamConstellation) -> np.ndarray:
    """Decide symbols from received values: per-axis nearest level of the
    quotient ``r * (1/beta)``.

    The quotient is one real product per component of the float view of
    `r`: what numpy computes for a complex array divided by a real one,
    which can differ from the true quotient ``r / beta`` by one ulp.  The
    level rule ``2 clip(ceil(|z| / 2), 1, d) - 1``, times +1 where
    ``z > 0`` and -1 elsewhere, runs in place on the float view of the
    result.  ``|z| / 2`` is exact (a subnormal may round, but stays below
    1), so every boundary 2j of the quotient is decided exactly.

    Scaling invariant: ``detect(c*r, c*beta)`` equals ``detect(r, beta)``
    bit for bit when c is a power of two (and nothing overflows or
    underflows), since then ``c*r * (1/(c*beta))`` rounds to
    ``r * (1/beta)``.  A general c > 0 can move the quotient of a point
    that sits on a decision boundary by one ulp, and so its decision by
    one level.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("beta must be positive")
    r = np.asarray(r, dtype=complex)
    s_hat = np.empty(np.broadcast_shapes(r.shape, beta.shape), dtype=complex)
    z = s_hat[..., None].view(float)          # (..., 2): real and imaginary parts
    np.multiply(r[..., None].view(float), 1.0 / beta[..., None], out=z)
    sign = np.greater(z, 0.0).astype(float)
    sign *= 2.0
    sign -= 1.0
    np.abs(z, out=z)
    z /= 2.0
    np.ceil(z, out=z)
    np.clip(z, 1, constellation.d, out=z)
    z *= 2.0
    z -= 1.0
    z *= sign
    return s_hat


def symbols_to_bits_errors(s_true, s_hat, constellation: QamConstellation):
    """Bit errors between true and detected symbols under per-axis Gray coding.

    Each axis carries log2(2d) bits; the level index k (0..2d-1) maps to
    the Gray code k ^ (k >> 1), so adjacent levels differ in one bit.
    Gray coding commutes with XOR, so the bits two components differ in
    are those of the one Gray code of their indices' XOR, counted with
    ``np.bitwise_count`` (every bit, for any d).  The two arrays
    broadcast against each other.  A result of at most two dimensions
    gives the total as an int; a stacked one, e.g. (S, K, m_s), is summed
    over its last two axes and gives one count per leading index (an
    int64 array).
    """
    d = constellation.d

    def index(s):
        # the level index (level + 2d - 1) / 2 of every real and imaginary part
        s = np.asarray(s, dtype=complex)
        return ((s[..., None].view(float) + (2 * d - 1)) / 2).astype(np.int64)

    x = index(s_true) ^ index(s_hat)
    x ^= x >> 1
    flips = np.bitwise_count(x)
    nd = flips.ndim - 1
    counts = flips.sum(axis=tuple(range(max(nd - 2, 0), flips.ndim)), dtype=np.int64)
    return int(counts) if counts.ndim == 0 else counts
