"""Square QAM constellations, detection, Gray bit mapping, and the
per-component correct-detection probability used by the symbol-level
precoder.

The constellation is the set {s_R + j s_I : s_R, s_I odd integers in
[-(2D-1), 2D-1]}, i.e. 4*D^2 points.  Detection is per-axis nearest odd
integer with clipping; exact mid-ties round toward zero, and a component
of exactly zero (a tie between -1 and +1) decides -1.

The probability is computed in two steps: :func:`margins` forms the
margin-normalized offsets of a level's upper and lower decision
thresholds, stacked on a leading axis of two, and :func:`dp_components`
turns the stack into probabilities (and densities for gradients).  The
symbol-level objective forms the margins from constants it lays out
once per solve and keeps them for its gradient.

Only the symbol-level precoder evaluates the Gaussian CDF, so
``scipy.special.ndtr`` is imported inside :func:`dp_components`, the
one function that calls it: ``import sdmimo`` then loads numpy and the
standard library only, and a run with no ``slp-*`` selector never loads
SciPy (its import is about half of a ZF run's start-up).  An SLP run
pays the same import once, at its first objective evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QamConstellation",
    "detect",
    "dp_components",
    "margins",
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


_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _phi_pdf(t: np.ndarray) -> np.ndarray:
    """Standard normal density, ``exp(-0.5 t t) / sqrt(2 pi)``, zero at +-inf."""
    p = -0.5 * t
    p *= t
    np.exp(p, out=p)
    p /= _SQRT_2PI
    return p


def _level_offsets(s, d):
    """What the margins take from the levels `s` alone, each stacked on a
    new leading axis of two: the offsets ``(1 + s, s - 1)`` of the upper
    and lower decision thresholds, and the bounds that put the thresholds
    that do not exist at infinity (+inf as the lower bound of the upper
    margin above the top level, -inf as the upper bound of the lower
    margin below the bottom one, and no bound elsewhere)."""
    s = np.asarray(s, dtype=float)
    bounds = np.stack((np.where(s >= 2 * d - 1, np.inf, -np.inf),
                       np.where(s <= -(2 * d - 1), -np.inf, np.inf)))
    return np.stack((1.0 + s, s - 1.0)), bounds


def _margins(offsets, bounds, v, beta, sigma_eta):
    """Stacked margins from :func:`_level_offsets`' output: a new array
    shaped like `offsets`, formed in place in the order
    ``sqrt(2) (beta (s +- 1) - v) / sigma_eta``, with the missing
    thresholds at +-inf."""
    t = offsets * beta
    t -= v
    t *= np.sqrt(2.0)
    t /= sigma_eta
    np.maximum(t[0], bounds[0], out=t[0])
    np.minimum(t[1], bounds[1], out=t[1])
    return t


def margins(s_axis, v_axis, beta, sigma_eta, d):
    """Margin-normalized offsets of the upper and lower decision thresholds
    of levels `s_axis` from received components `v_axis`, stacked on a new
    leading axis: ``t[0] = ta``, ``t[1] = tc`` with
    ``sqrt(2) (beta (s +- 1) - v) / sigma_eta``, and +inf above the top
    level and -inf below the bottom one.  The arguments broadcast
    against each other (`beta` and `sigma_eta` are typically per-user
    columns).  :func:`dp_components` takes the result."""
    v = np.asarray(v_axis, dtype=float)
    s = np.broadcast_to(np.asarray(s_axis, dtype=float),
                        np.broadcast_shapes(np.shape(s_axis), v.shape, np.shape(beta),
                                            np.shape(sigma_eta)))
    return _margins(*_level_offsets(s, d), v, beta, sigma_eta)


def dp_components(t, need_grad=True):
    """Vectorized per-component DP with the pieces needed for gradients.

    `t` holds the stacked margins of :func:`margins`, ``t[0] = ta`` and
    ``t[1] = tc``.  Returns ``(dp, phi_hi, phi_lo)``, each shaped like
    ``t[0]``, where `phi_hi`/`phi_lo` are the Gaussian densities at the
    upper/lower margins (zero where the corresponding branch has no
    finite threshold); both are None when `need_grad` is false.

    The edge levels carry an infinite threshold, so every entry is the
    interval probability ``Phi(ta) - Phi(tc)``.  It is taken in the
    survival form ``Phi(-tc) - Phi(-ta)`` when ``ta + tc > 0``, where both
    arguments are high and the direct difference would cancel.  Both
    margins go through one `ndtr` call and give the same values as
    evaluating each level's branch on its own (a zero DP may come out as
    -0.0): negation is exact, ``ndtr(-inf) == 0`` and ``-(x - y) == y - x``
    in IEEE arithmetic.
    """
    from scipy.special import ndtr

    sgn = np.where(t[0] + t[1] > 0, -1.0, 1.0)
    u = sgn * t
    ndtr(u, out=u)
    dp = np.subtract(u[0], u[1], out=u[0])
    dp *= sgn
    if not need_grad:
        return dp, None, None
    phi = _phi_pdf(t)
    return dp, phi[0], phi[1]


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
