"""Memoryless power-amplifier models and their derived characteristics.

A PA is described by an amplitude response ``g_a`` (AM-AM) and a phase
response ``g_p`` (AM-PM); the complex baseband output for input ``z`` is
``g_a(|z|) * exp(1j*arg(z)) * exp(1j*g_p(|z|))``.  Three kinds are
supported:

* ``ideal``: linear gain up to ``r_max``, hard amplitude clipping above,
  no phase conversion.
* ``modified_rapp``: the 3GPP modified Rapp model with smoothness ``phi``
  and phase parameters ``b``, ``c``, ``zeta``.  The phase response is in
  radians, with ``b`` applied literally to ``r**zeta`` (no unit
  rescaling), so for the common parameter set (b=-345, zeta=4, c=0.17,
  r_max=0.1187) the phase stays within a few hundredths of a radian over
  the admissible input range.
* ``twta``: a travelling-wave-tube style model with quadratic AM-AM
  compression and AM-PM conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import NoCompressionPoint

__all__ = [
    "PaModel",
    "ShapingBudget",
    "amp_response",
    "phase_response",
    "apply_pa",
    "apply_pa_into",
    "pa_work",
    "compute_psi",
    "compute_r1db",
]

_KINDS = ("ideal", "modified_rapp", "twta")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PaModel:
    """Parameters of a memoryless PA.

    Attributes
    ----------
    kind : str
        One of ``"ideal"``, ``"modified_rapp"``, ``"twta"``.
    gain : float
        Small-signal gain A (> 0).
    r_max : float
        Reference input amplitude (> 0); the ideal model saturates at
        output ``gain * r_max``.
    phi, zeta, b, c : float
        Modified-Rapp fitting parameters (ignored by the other kinds).
    """

    kind: str
    gain: float
    r_max: float
    phi: float = 1.0
    zeta: float = 1.0
    b: float = 0.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown PA kind {self.kind!r}")
        if not (self.gain > 0 and self.r_max > 0):
            raise ValueError("PA gain and r_max must be positive")
        if self.kind == "modified_rapp":
            if not (self.phi > 0 and self.zeta > 0 and self.c > 0):
                raise ValueError("modified Rapp requires phi, zeta, c > 0")

    @classmethod
    def ideal(cls, gain: float, r_max: float) -> "PaModel":
        return cls(kind="ideal", gain=gain, r_max=r_max)

    @property
    def linear(self) -> "PaModel":
        """The ideal PA of the same gain and saturation amplitude."""
        return PaModel.ideal(self.gain, self.r_max)

    @classmethod
    def modified_rapp(
        cls,
        gain: float,
        r_max: float,
        phi: float,
        zeta: float,
        b: float,
        c: float,
    ) -> "PaModel":
        return cls(kind="modified_rapp", gain=gain, r_max=r_max,
                   phi=phi, zeta=zeta, b=b, c=c)

    @classmethod
    def twta(cls, gain: float, r_max: float) -> "PaModel":
        return cls(kind="twta", gain=gain, r_max=r_max)


def _gain_phase(model: PaModel, r, out=None):
    """``(g_a(r)/r, g_p(r))`` of a non-ideal PA, the ratio written without
    dividing by r (so it is finite at r = 0).  The one closed form per kind
    behind :func:`amp_response`, :func:`phase_response` and :func:`apply_pa`.

    With `out`, a triple of float arrays shaped like `r`, the gain and the
    phase are written into its first two and returned, and the third (which
    may be `r` itself) is scratch; without it they are new values.  Powers
    are taken in place (``**=``), which for a numpy scalar is the scalar
    power of the plain expression, so every value is the one the plain
    expressions give, bit for bit, with or without `out`."""
    gain, phase, scratch = (None, None, None) if out is None else out
    if model.kind == "modified_rapp":
        two_phi = 2.0 * model.phi
        # A / (1 + (r/r_max)^(2 phi))^(1/(2 phi))
        g = np.divide(r, model.r_max, out=gain)
        g **= two_phi
        g += 1.0
        g **= 1.0 / two_phi
        g = np.divide(model.gain, g, out=gain)
        # b r^zeta / (1 + r^zeta c^-zeta)
        r_zeta = np.power(r, model.zeta, out=phase)
        num = np.multiply(model.b, r_zeta, out=scratch)
        den = np.multiply(r_zeta, model.c ** -model.zeta, out=phase)
        den += 1.0
        return g, np.divide(num, den, out=phase)
    # twta: A / (1 + (r/r_max)^2 / 4) and (pi/12) (r/r_max)^2 / (1 + (r/r_max)^2 / 4)
    ratio2 = np.divide(r, model.r_max, out=phase)
    ratio2 **= 2
    den = np.multiply(0.25, ratio2, out=gain)
    den += 1.0
    ph = np.divide(np.multiply(np.pi / 12.0, ratio2, out=phase), den, out=phase)
    return np.divide(model.gain, den, out=gain), ph


def amp_response(model: PaModel, r):
    """AM-AM conversion g_a(r); vectorized over `r` (amplitudes >= 0)."""
    r = np.asarray(r, dtype=float)
    if model.kind == "ideal":
        return model.gain * np.minimum(r, model.r_max)
    return r * _gain_phase(model, r)[0]


def phase_response(model: PaModel, r):
    """AM-PM conversion g_p(r) in radians; vectorized over `r`."""
    r = np.asarray(r, dtype=float)
    if model.kind == "ideal":
        return np.zeros_like(r)
    return _gain_phase(model, r)[1]


def pa_work(shape) -> Tuple[np.ndarray, ...]:
    """Work buffers of :func:`apply_pa_into` for inputs of shape `shape`:
    three float arrays, one complex and one bool array."""
    return (np.empty(shape), np.empty(shape), np.empty(shape),
            np.empty(shape, dtype=complex), np.empty(shape, dtype=bool))


def apply_pa_into(model: PaModel, z: np.ndarray, out: np.ndarray, work) -> np.ndarray:
    """The PA kernel: :func:`apply_pa` of the complex array `z`, written into
    `out` (complex, shaped like `z`, not overlapping it) with the buffers
    `work` of :func:`pa_work`, and returned.  Raises ``ValueError`` on
    non-finite inputs.

    Each model kind has this one implementation; its ufuncs run in the
    order and with the operands of the plain expressions in
    :func:`apply_pa`'s docstring, so the values do not depend on whether
    the buffers are fresh or reused.  (No complex product writes over one
    of its operands: numpy forms such a product by another loop, whose
    roundings can differ.)
    """
    r, f1, f2, rot, mask = work
    if not np.isfinite(z, out=mask).all():
        raise ValueError("PA input must be finite")
    np.abs(z, out=r)
    if model.kind == "ideal":
        # exactly linear below saturation (no polar round trip), so the
        # loop distortion of an in-range linear PA is exactly zero: the
        # samples over r_max are scaled by r_max/r, the others copied
        over = np.greater(r, model.r_max, out=mask)
        f1.fill(1.0)
        np.divide(model.r_max, r, out=f1, where=over)
        np.multiply(z, f1, out=rot)
        np.copyto(rot, z, where=np.logical_not(over, out=over))
        return np.multiply(model.gain, rot, out=out)
    gain, phase = _gain_phase(model, r, (f1, f2, r))
    # z * (gain cos(phase) + j gain sin(phase)), r now scratch
    np.multiply(gain, np.cos(phase, out=r), out=rot.real)
    np.multiply(gain, np.sin(phase, out=r), out=rot.imag)
    return np.multiply(z, rot, out=out)


def apply_pa(model: PaModel, z):
    """Apply the PA response to complex baseband samples.

    Returns ``g_a(|z|) * exp(1j*(arg(z) + g_p(|z|)))``, computed as
    ``z * (g_a(|z|)/|z|) * exp(1j*g_p(|z|))`` so no angle is taken and a
    zero input maps to a zero output.  Accepts scalars or arrays; raises
    ``ValueError`` on non-finite inputs.  Allocates the output and runs
    :func:`apply_pa_into`, the kernel that :func:`sdmimo.sigma_delta.modulate`
    runs on each antenna row.
    """
    z = np.asarray(z, dtype=complex)
    out = apply_pa_into(model, z, np.empty(z.shape, dtype=complex), pa_work(z.shape))
    if z.ndim == 0:
        return complex(out)
    return out


def _distortion_amp(model: PaModel, r):
    """|G(r)/A - r| for a real amplitude r (phase factored out)."""
    r = np.asarray(r, dtype=float)
    if model.kind == "ideal":
        return np.abs(amp_response(model, r) / model.gain - r)
    gain, phase = _gain_phase(model, r)
    return np.abs(r * (gain / model.gain) * np.exp(1j * phase) - r)


@lru_cache(maxsize=64)
def compute_psi(model: PaModel, chi: float) -> float:
    """Worst-case relative PA distortion over the input disk of radius `chi`.

    Evaluates ``max_{|z| <= chi} |G(z)/A - z|``.  The expression depends
    only on ``|z|``, so the search runs over amplitudes: a coarse grid of
    4096 points on [0, chi] followed by a golden-section refinement
    around the best coarse point.  Absolute accuracy is better than 1e-6
    for the smooth models used here.  Computed once per (model, chi) and
    shared, since every experiment run asks for it again.
    """
    if chi <= 0:
        raise ValueError("chi must be positive")
    grid = np.linspace(0.0, chi, 4096)
    vals = _distortion_amp(model, grid)
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    # golden-section maximization on [lo, hi]
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = float(_distortion_amp(model, x1))
    f2 = float(_distortion_amp(model, x2))
    while (b - a) > 1e-12 * max(chi, 1.0):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = float(_distortion_amp(model, x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = float(_distortion_amp(model, x1))
    best = max(float(vals[k]), f1, f2)
    return best


@lru_cache(maxsize=64)
def compute_r1db(model: PaModel) -> float:
    """Input amplitude at which the output falls 1 dB below linear gain.

    Solves ``20*log10(A*r / g_a(r)) = 1`` by bisection on
    ``(0, 10*r_max]`` to relative tolerance 1e-9.  Raises
    :class:`NoCompressionPoint` for the ideal model (linear up to
    ``r_max``) or when no root exists in the search interval.  Computed
    once per model and shared, like :func:`compute_psi`.
    """
    if model.kind == "ideal":
        raise NoCompressionPoint("ideal PA is linear up to r_max")

    def f(r: float) -> float:
        return 20.0 * math.log10(model.gain * r / float(amp_response(model, r))) - 1.0

    hi = 10.0 * model.r_max
    lo = 1e-12 * model.r_max
    if f(lo) > 0 or f(hi) < 0:
        # A*r / g_a(r) increases with r for modified Rapp and TWTA, so the
        # end points bracket the only root when there is one
        raise NoCompressionPoint("no 1 dB compression point in (0, 10*r_max]")
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ShapingBudget:
    """Amplitude budget pair (chi, psi).

    ``chi`` bounds the PA input amplitude and ``psi`` is the worst-case
    relative distortion over that disk (see :func:`compute_psi`).
    """

    chi: float
    psi: float

    def __post_init__(self) -> None:
        if self.chi <= 0 or self.psi < 0:
            raise ValueError("need chi > 0 and psi >= 0")

    @classmethod
    def from_pa(cls, model: PaModel, chi: float) -> "ShapingBudget":
        return cls(chi=chi, psi=compute_psi(model, chi))

    @property
    def headroom(self) -> float:
        """First-order no-overloading input bound, chi - psi."""
        return self.chi - self.psi
