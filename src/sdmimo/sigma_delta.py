"""Spatial sigma-delta modulators across the antenna index.

The modulators run the PA inside a feedback loop between adjacent
antennas of a ULA so that the PA distortion is pushed toward high
spatial frequencies (large angles).  First- and second-order loops are
provided, each with an optional tail-removing variant that puts ideal
(linear) PAs on the last one or two antennas so that the unshaped tail
distortion vanishes.

:data:`SCHEMES` maps each scheme name to its loop order and tail
removal.  Both orders run one error-feedback recurrence,
``b_n = x_n - sum_k c_k q_{n-k}``, with coefficients (1) or (2, -1), and
:func:`shaped_power` is the one closed form of their shaped distortion.
All frames are complex arrays of shape (n_antennas, n_samples); the
recurrence is sequential in the antenna index and vectorized over time
samples.  State is local to one call: the error feedback starts from
zero at every frame, so frames (and therefore OFDM blocks) are
independent.

:func:`modulate` is the one entry point of both loops.  It emits no
warning when an input sample exceeds the no-overloading bound: a caller
counts such samples with :func:`count_overloads` (the experiments report
the count as the ``overloads`` column of ``ber.csv``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ShapeMismatch
from .pa import PaModel, ShapingBudget, apply_pa

__all__ = [
    "ModulatorConfig",
    "modulate",
    "count_overloads",
    "shaped_power",
    "shaped_distortion_power",
]

# scheme name -> (loop order, tail removing)
SCHEMES = {"sd1": (1, False), "tsd1": (1, True), "sd2": (2, False), "tsd2": (2, True)}


def _scheme(name: str) -> Tuple[int, bool]:
    if name not in SCHEMES:
        raise ValueError(f"unknown modulator scheme {name!r} (expected one of {tuple(SCHEMES)})")
    return SCHEMES[name]


@dataclass(frozen=True)
class ModulatorConfig:
    """Modulator order/variant plus the PA and amplitude budget it runs with."""

    order: int
    tail_removing: bool
    pa: PaModel
    budget: ShapingBudget

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.input_bound <= 0:
            raise ValueError(
                "empty no-overloading input set: need chi - psi > 0 "
                "(first order) or chi - 3*psi > 0 (second order)"
            )

    @classmethod
    def from_scheme(cls, scheme: str, pa: PaModel, budget: ShapingBudget) -> "ModulatorConfig":
        order, tail_removing = _scheme(scheme)
        return cls(order=order, tail_removing=tail_removing, pa=pa, budget=budget)

    @property
    def n_tail(self) -> int:
        """Number of tail antennas with an ideal PA: the loop order for
        the tail-removing variants, else 0."""
        return self.order if self.tail_removing else 0

    @property
    def input_bound(self) -> float:
        """Largest input amplitude with a no-overloading guarantee."""
        if self.order == 1:
            return self.budget.headroom
        return self.budget.chi - 3.0 * self.budget.psi


def _check_frame(x: np.ndarray, cfg: ModulatorConfig) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2:
        raise ShapeMismatch(f"antenna frame must be 2-D, got shape {x.shape}")
    min_rows = cfg.n_tail + 1
    if x.shape[0] < min_rows:
        raise ShapeMismatch(f"need at least {min_rows} antennas, got {x.shape[0]}")
    return x


def count_overloads(cfg: ModulatorConfig, x) -> int:
    """Number of input samples whose amplitude exceeds the bound."""
    return int(np.count_nonzero(np.abs(np.asarray(x)) > cfg.input_bound + 1e-12))


# feedback coefficients c_k of b_n = x_n - sum_k c_k q_{n-k}, by loop order:
# first order b_n = x_n - q_{n-1}, second order b_n = x_n - 2 q_{n-1} + q_{n-2}
_FEEDBACK = {1: (1.0,), 2: (2.0, -1.0)}


def modulate(cfg: ModulatorConfig, x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the loop of order `cfg.order` over an (N, T) antenna frame `x`.

    The error-feedback recurrence ``b_n = x_n - sum_k c_k q_{n-k}``,
    ``u_n = G_n(b_n)``, ``q_n = u_n/A - b_n`` over the antenna index, with
    ``q_n = 0`` before the first antenna.  ``G_n`` is the configured PA,
    or an ideal one on the last ``cfg.n_tail`` antennas, whose distortion
    is then zero whenever ``|b_n| <= r_max``.

    Returns ``(u, q, b)``, three (N, T) complex arrays: PA outputs,
    per-antenna distortion and PA inputs.  The identity
    ``u_n = A x_n + A (q_n - sum_k c_k q_{n-k})`` holds to machine
    precision (``q_n - q_{n-1}`` at first order, ``q_n - 2 q_{n-1} +
    q_{n-2}`` at second).  Input samples over ``cfg.input_bound`` void the
    distortion bounds but not the loop (the PA is total); count them with
    :func:`count_overloads`.  Raises ``ValueError`` at the first antenna
    whose PA input is not finite.
    """
    x = _check_frame(x, cfg)
    n_antennas = x.shape[0]
    first_tail = n_antennas - cfg.n_tail
    linear = cfg.pa.linear
    u = np.empty_like(x)
    q = np.empty_like(x)
    b = np.empty_like(x)
    for n in range(n_antennas):
        b_n = x[n]
        for k, c in enumerate(_FEEDBACK[cfg.order][:n], start=1):
            b_n = b_n - c * q[n - k]
        b[n] = b_n
        u[n] = apply_pa(linear if n >= first_tail else cfg.pa, b_n)
        q[n] = u[n] / cfg.pa.gain - b_n
    return u, q, b


def shaped_power(scheme: str, n_antennas: int, base: float,
                 weights: np.ndarray, half_w: np.ndarray) -> np.ndarray:
    """The closed-form shaped distortion power of `scheme`, summed over the
    last axis of `weights` and `half_w`.

    ``base`` is the unshaped power of one antenna, ``half_w`` the half
    spatial frequencies ``pi (d/lambda) sin(theta)`` and ``weights`` their
    power weights.  With ``s2 = sin^2(half_w)`` and ``w = 2 half_w``:

    * ``"sd1"``  : 4 (N-1) base sum(weights s2) + base sum(weights)
                   (the last term is the unshaped tail antenna)
    * ``"tsd1"`` : the sd1 expression without the tail term
    * ``"tsd2"`` : 16 (N-2) base sum(weights s2^2), i.e. the squared
                   second-difference high-pass gain |1 - exp(-j w)|^4
                   applied to the N-2 shaped antennas
    * ``"sd2"``  : the tsd2 expression plus the two unshaped edge
                   antennas, base sum(weights (|1 - 2 e^{-j w}|^2 + 1))
    """
    order, tail_removing = _scheme(scheme)
    s2 = np.sin(half_w) ** 2
    if order == 1:
        shaped = 4.0 * (n_antennas - 1) * base * np.sum(weights * s2, axis=-1)
        edge = weights
    else:
        shaped = 16.0 * (n_antennas - 2) * base * np.sum(weights * s2 * s2, axis=-1)
        w = 2.0 * half_w
        edge = weights * (np.abs(1.0 - 2.0 * np.exp(-1j * w)) ** 2 + 1.0)
    if tail_removing:
        return shaped
    return shaped + base * np.sum(edge, axis=-1)


def shaped_distortion_power(
    theta: float,
    d_over_lambda: float,
    n_antennas: int,
    gain: float,
    psi: float,
    scheme: str,
) -> float:
    """Closed-form prediction of the beamformed distortion power at angle `theta`.

    Under the i.i.d. distortion model (amplitude uniform on [0, psi],
    phase uniform, independent across antennas, so E|q|^2 = psi^2/3),
    this is :func:`shaped_power` at the single half frequency
    ``pi (d/lambda) sin(theta)`` with unit weight and
    ``base = A^2 psi^2 / 3``.

    `theta` is in radians; `n_antennas` must be at least 2 (3 for the
    second-order schemes).
    """
    order, _ = _scheme(scheme)
    if n_antennas <= order:
        raise ValueError(f"{scheme} needs at least {order + 1} antennas")
    half_w = np.array([math.pi * d_over_lambda * math.sin(theta)])
    return float(shaped_power(scheme, n_antennas, gain**2 * psi**2 / 3.0,
                              np.ones(1), half_w))
