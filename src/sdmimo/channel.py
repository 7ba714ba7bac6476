"""ULA geometry, multipath channel generation, and symbol-rate propagation.

The transmit array is a uniform linear array with sub-half-wavelength
spacing.  Each user sees J paths with complex gains, departure angles,
and delays; the receiver low-pass filters with a root-raised-cosine
pulse and samples at the symbol rate.

Discretization
--------------
The transmit pulse is a zero-order hold of the symbol-rate samples and
the PAs are memoryless, so the received symbol-rate samples are an
exact FIR of the symbol-rate PA output.  Its taps

    ``h_{i,l} = sum_j alpha_{i,j} a(theta_{i,j}) (Pi (*) Omega)(l - tau_{i,j})``

are built by quadrature on a grid with step ``dt = 1/osf`` (sampling
period normalized to 1): path delays are snapped to that grid, and
``(Pi (*) Omega)`` is a left-Riemann sum with weight `dt`.  `osf` only
sets this quadrature; the chain itself runs at the symbol rate.

Two tap sets come from the same table.  :func:`propagate` applies the
gain-free taps over every lag where ``(Pi (*) Omega)(l - tau) != 0``
(negative lags included, when a delay is shorter than the filter's half
span); the PA gain A is already inside the PA output frame.  The model
taps ``taps`` hold lags ``0 .. l_taps-1`` times A, exactly as written
above, and define the frequency channels used by the precoders:
``freq`` is their M-point DFT at the active subcarriers, one dense DFT
matrix product whose twiddles are reduced mod M, so taps beyond lag M
alias exactly as the DFT sum says.

Every zero-forcing design solves ``H_p w = s_p`` on each subcarrier.
:class:`GramFactor` holds what that needs (the inverse Gram matrices
``(H_p H_p^H)^{-1}``, one batched inverse computed once per realization
and cached on it, whose norms also certify the rank test) and applies
the corrected semi-normal equations.

The DFT twiddle matrix and the pulse/filter table depend only on the
grid and the filter, so they are computed once per process and shared
read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import RankDeficient, ShapeMismatch
from .ofdm import OfdmParams
from .sigma_delta import shaped_power

__all__ = [
    "UlaGeometry",
    "RrcFilter",
    "ChannelRealization",
    "GramFactor",
    "steering_vector",
    "rrc_impulse",
    "pulse_filter_taps",
    "channel_from_paths",
    "draw_channel",
    "propagate",
    "add_noise",
    "hold_rx_power_factor",
    "distortion_noise_power",
]


@dataclass(frozen=True)
class UlaGeometry:
    """Uniform linear array: `n` elements spaced `d_over_lambda` wavelengths apart."""

    n: int
    d_over_lambda: float = 0.125

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one antenna")
        if not (0.0 < self.d_over_lambda <= 0.5):
            raise ValueError("spacing must satisfy 0 < d/lambda <= 1/2")


def steering_vector(geom: UlaGeometry, theta) -> np.ndarray:
    """Array response at angle `theta` (radians), entry n = e^{-j(n-1) w},
    w = 2 pi (d/lambda) sin(theta).  An array of angles gives one response
    per angle along a new last axis."""
    omega = 2.0 * np.pi * geom.d_over_lambda * np.sin(theta)
    return np.exp(-1j * np.multiply.outer(omega, np.arange(geom.n)))


def rrc_impulse(t, rolloff: float) -> np.ndarray:
    """Root-raised-cosine impulse response with unit symbol period.

    Uses the standard closed form with the t=0 and t = 1/(4 rolloff)
    singularities filled by their limits.  The DC gain (time integral)
    of this normalization is 1.
    """
    t = np.asarray(t, dtype=float)
    a = rolloff
    out = np.empty_like(t)
    tiny = 1e-10
    at_zero = np.abs(t) < tiny
    at_sing = np.abs(np.abs(4.0 * a * t) - 1.0) < tiny if a > 0 else np.zeros_like(at_zero)
    regular = ~(at_zero | at_sing)

    tr = t[regular]
    num = np.sin(np.pi * tr * (1.0 - a)) + 4.0 * a * tr * np.cos(np.pi * tr * (1.0 + a))
    den = np.pi * tr * (1.0 - (4.0 * a * tr) ** 2)
    out[regular] = num / den
    out[at_zero] = 1.0 - a + 4.0 * a / np.pi
    if a > 0:
        out[at_sing] = (a / np.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * a))
            + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * a))
        )
    return out


@dataclass(frozen=True)
class RrcFilter:
    """Receive filter description: RRC rolloff and truncated half-span (in T_s)."""

    rolloff: float = 0.22
    span: float = 5.0

    def sample(self, osf: int) -> Tuple[np.ndarray, int]:
        """Quadrature-grid samples and the index corresponding to lag zero.

        Samples sit at half-integer grid offsets, (i - half + 1/2)/osf,
        so that convolving a zero-order-hold signal against them is the
        midpoint quadrature of the underlying integral over each hold
        cell (second-order accurate in the grid step).
        """
        half = int(round(self.span * osf))
        k = np.arange(-half, half)
        return rrc_impulse((k + 0.5) / osf, self.rolloff), half - 1


@lru_cache(maxsize=16)
def pulse_filter_taps(rx_filter, osf: int) -> Tuple[np.ndarray, int]:
    """Rectangular transmit pulse convolved with the receive filter.

    `rx_filter` is any hashable object whose ``sample(osf)`` returns the
    filter's quadrature-grid samples and the index of lag zero, as
    :meth:`RrcFilter.sample` does.  Returns the quadrature-grid array of
    ``(Pi (*) Omega)(c/osf)`` and the index of lag c = 0.  The
    rectangular pulse is sampled left-closed on [0, 1), matching the
    zero-order-hold transmit pulse.  The result is computed once per
    (filter, osf) and shared, so the array is read-only.
    """
    omega, center = rx_filter.sample(osf)
    po = np.convolve(np.ones(osf), omega) / osf
    po.setflags(write=False)
    return po, center  # index i <-> lag c = i - center


@lru_cache(maxsize=16)
def _dft_matrix(m: int, m_s: int, l_taps: int) -> np.ndarray:
    """The (m_s, l_taps) twiddles ``exp(-2j pi ((l p) mod M) / M)``,
    computed once per shape and shared, so read-only."""
    lp = np.outer(np.arange(m_s), np.arange(l_taps)) % m
    dft = np.exp(-2j * np.pi / m * lp)
    dft.setflags(write=False)
    return dft


# a subcarrier whose Gram eigenvalues satisfy lambda_min <= _RANK_TOL *
# lambda_max counts as rank deficient (sigma_min^2 <= 1e-10 sigma_max^2)
_RANK_TOL = 1e-10
# GramFactor's norm certificate decides a subcarrier only when its
# eigenvalue-ratio interval clears _RANK_TOL by this factor; near the
# threshold the rounding of t is ~1e-5 relative, and the eigenvalues'
# ~1e-13 lambda_max, so what the certificate decides agrees with eigvalsh
_CERT_MARGIN = 2.0


@dataclass(frozen=True)
class GramFactor:
    """Minimum-norm solver for the per-subcarrier systems ``H_p w_p = s_p``.

    `h` is the (m_s, K, N) stack of channel matrices (K <= N) and
    `gram_inv` the inverse Gram matrices ``(H_p H_p^H)^{-1}`` (m_s, K, K).
    Build it with :meth:`of`, which raises :class:`RankDeficient` when some
    subcarrier fails the rank test ``lambda_min <= 1e-10 lambda_max`` on
    the eigenvalues of ``G_p = H_p H_p^H``.

    The rank test needs no eigen-decomposition on most subcarriers.  With
    the Frobenius norms ``t = ||G||_F ||G^{-1}||_F`` the eigenvalue ratio
    obeys ``1/t <= lambda_min/lambda_max <= K/t``, so one batched inverse
    certifies every subcarrier whose interval lies clear of the threshold;
    `np.linalg.eigvalsh` runs only on the rest (none on typical channels)
    and decides them exactly as a full eigenvalue test would.  The bounds
    hold for the computed inverse too: each of its columns solves a system
    within rounding of G, so its norm cannot fall far below
    ``1/lambda_min`` even when G is singular.  (The trace of a computed
    inverse carries no such guarantee: on a G with two equal rows its
    huge entries cancel in the trace.)  An exactly singular G, which the
    inverse cannot factor, also raises :class:`RankDeficient`.

    :meth:`solve` uses the corrected semi-normal equations (A. Bjorck,
    Linear Algebra Appl. 88/89, 1987): the semi-normal solution
    ``w = H^H G^{-1} s`` followed by one refinement step
    ``w += H^H G^{-1} (s - H w)``.  Forming G squares the condition
    number, so the first step alone leaves a residual of ~4e-6 at
    cond(H) = 9e4; after the correction the residual is at the level of a
    per-subcarrier SVD solve (~2e-11 on unit-scale symbols) and `w`
    agrees with the SVD minimum-norm solution to ~3e-11 relative, for
    every condition number the rank test admits.  Both steps are batched
    matrix products, where the SVD needs one LAPACK call per subcarrier.
    """

    h: np.ndarray
    gram_inv: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray) -> "GramFactor":
        gram = h @ h.conj().transpose(0, 2, 1)
        try:
            gram_inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("channel Gram matrix is singular at some subcarrier") from exc
        k = h.shape[1]
        t = np.linalg.norm(gram, axis=(1, 2)) * np.linalg.norm(gram_inv, axis=(1, 2))
        full = t * (_CERT_MARGIN * _RANK_TOL) < 1.0
        deficient = t * _RANK_TOL > _CERT_MARGIN * k     # also t = inf
        band = ~(full | deficient)                         # and t = NaN
        if np.any(deficient):
            raise RankDeficient("channel Gram matrix is singular at some subcarrier")
        if np.any(band):
            lam = np.linalg.eigvalsh(gram[band])    # ascending
            if np.any(lam[:, 0] <= _RANK_TOL * lam[:, -1]):
                raise RankDeficient("channel Gram matrix is singular at some subcarrier")
        return cls(h=h, gram_inv=gram_inv)

    def _semi_normal(self, s: np.ndarray) -> np.ndarray:
        """``H^H G^{-1} s`` per subcarrier, taken as ``(y^H H)^H`` with
        ``y = G^{-1} s`` so that no conjugate transpose of H is formed."""
        y = self.gram_inv @ s[:, :, None]
        return (y.conj().transpose(0, 2, 1) @ self.h)[:, 0].conj()

    def solve(self, s: np.ndarray) -> np.ndarray:
        """Minimum-norm solutions (m_s, N) for the right-hand sides `s` (m_s, K)."""
        w = self._semi_normal(s)
        return w + self._semi_normal(s - (self.h @ w[:, :, None])[..., 0])


@dataclass(frozen=True)
class ChannelRealization:
    """Multipath parameters plus the derived discrete-time/frequency channels.

    `alpha`, `theta` are (K, J); `tau_fine` holds delays as integer
    multiples of the quadrature step 1/osf.  `taps` is (K, L, N) and
    `freq` is (m_s, K, N) with
    ``freq[p] = sum_l taps[:, l, :] e^{-2j pi l p / M}``.
    `prop_taps` (K, L_prop, N) are the gain-free full-support taps that
    :func:`propagate` applies; entry l holds lag ``prop_lag0 + l``.
    The ZF factorization of `freq` (:attr:`gram`) is computed on first
    use and cached.
    """

    geom: UlaGeometry
    ofdm: OfdmParams
    rx_filter: RrcFilter
    pa_gain: float
    alpha: np.ndarray
    theta: np.ndarray
    tau_fine: np.ndarray
    taps: np.ndarray
    freq: np.ndarray
    prop_taps: np.ndarray
    prop_lag0: int

    @property
    def n_users(self) -> int:
        return self.alpha.shape[0]

    @cached_property
    def gram(self) -> GramFactor:
        """:class:`GramFactor` of every subcarrier's K x N channel matrix,
        computed on first use and kept for the realization's lifetime (the
        channel is fixed, so every precoder call shares it).  Raises
        :class:`RankDeficient` when some subcarrier is singular."""
        return GramFactor.of(self.freq)


def channel_from_paths(
    geom: UlaGeometry,
    ofdm: OfdmParams,
    alpha,
    theta,
    tau_ts,
    l_taps: int,
    rx_filter=None,
    pa_gain: float = 1.0,
) -> ChannelRealization:
    """Build the derived taps and frequency channels from explicit paths.

    `tau_ts` is in units of the sampling period; delays are snapped to
    the quadrature grid (multiples of 1/osf).  `l_taps` sets the model
    taps' length; it may exceed M, in which case lags l and l + M land on
    the same twiddle in `freq`.
    """
    if rx_filter is None:
        rx_filter = RrcFilter()
    alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    tau_fine = np.rint(np.atleast_2d(np.asarray(tau_ts, dtype=float)) * ofdm.osf).astype(int)
    if not (alpha.shape == theta.shape == tau_fine.shape):
        raise ShapeMismatch("alpha, theta, tau must share the shape (K, J)")

    osf = ofdm.osf
    po, po_center = pulse_filter_taps(rx_filter, osf)
    # lag l of path (i, j) reads po[l*osf - tau + po_center]; its support
    # is the lags where that index lies inside po
    lag_min = int(np.min(-((po_center - tau_fine) // osf)))
    lag_max = int(np.max((po.size - 1 - po_center + tau_fine) // osf))
    lag0 = min(lag_min, 0)
    lags = np.arange(lag0, max(lag_max, l_taps - 1) + 1)
    idx = lags * osf - tau_fine[:, :, None] + po_center             # (K, J, lags)
    inside = (idx >= 0) & (idx < po.size)
    weight = np.where(inside, po[np.clip(idx, 0, po.size - 1)], 0.0)
    steer = steering_vector(geom, theta)                             # (K, J, N)
    table = np.einsum("kjl,kjn->kln", alpha[:, :, None] * weight, steer)
    taps = pa_gain * table[:, -lag0:l_taps - lag0]
    prop_taps = table[:, lag_min - lag0:lag_max - lag0 + 1]

    # freq[p] = sum_l taps[:, l] e^{-2j pi l p / M}: one (m_s, l_taps) DFT
    # matrix times the taps, which lands directly in the (m_s, K, N) layout
    k_users, _, n = taps.shape
    dft = _dft_matrix(ofdm.m, ofdm.m_s, l_taps)
    freq = (dft @ taps.transpose(1, 0, 2).reshape(l_taps, k_users * n)).reshape(
        ofdm.m_s, k_users, n)
    return ChannelRealization(
        geom=geom, ofdm=ofdm, rx_filter=rx_filter, pa_gain=pa_gain,
        alpha=alpha, theta=theta, tau_fine=tau_fine, taps=taps, freq=freq,
        prop_taps=prop_taps, prop_lag0=lag_min,
    )


def draw_channel(
    rng: np.random.Generator,
    geom: UlaGeometry,
    ofdm: OfdmParams,
    k_users: int,
    j_paths: int,
    l_taps: int,
    rx_filter=None,
    pa_gain: float = 1.0,
    angle_spread_deg: float = 35.0,
    delay_range_ts: Tuple[float, float] = (5.0, 15.0),
) -> ChannelRealization:
    """Draw a random multipath realization.

    Per user and path: gain ~ CN(0, 1/J), angle ~ U[-spread, +spread]
    and delay ~ U[delay range] snapped to the quadrature grid.  Deterministic
    given the generator state.
    """
    shape = (k_users, j_paths)
    alpha = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0 * j_paths)
    spread = math.radians(angle_spread_deg)
    theta = rng.uniform(-spread, spread, size=shape)
    tau = rng.uniform(delay_range_ts[0], delay_range_ts[1], size=shape)
    return channel_from_paths(geom, ofdm, alpha, theta, tau, l_taps, rx_filter, pa_gain)


def propagate(chan: ChannelRealization, u: np.ndarray) -> np.ndarray:
    """Propagate a symbol-rate PA-output frame to the K users, noise-free.

    Applies the full-support FIR ``y_i[m] = sum_l prop_taps[i, l] . u[:, m - l]``
    (the held frame's delayed, steered superposition after receive
    filtering and symbol-rate sampling, with samples outside the frame
    taken as zero).  Receiver noise is :func:`add_noise`'s job.

    `u` is (N, m_cp + m) covering the CP-extended block; the return value
    is (K, m_cp + m), one row per user, starting at the first CP sample.
    """
    u = np.asarray(u, dtype=complex)
    ofdm = chan.ofdm
    n_samples = ofdm.m_cp + ofdm.m
    if u.shape != (chan.geom.n, n_samples):
        raise ShapeMismatch(f"expected frame shape {(chan.geom.n, n_samples)}, got {u.shape}")
    if chan.tau_fine.min(initial=0) < 0:
        raise ValueError("negative delays are not supported")
    if chan.tau_fine.max(initial=0) > ofdm.m_cp * ofdm.osf:
        raise ValueError("path delay exceeds the cyclic-prefix coverage")

    k_users, n_lags, n = chan.prop_taps.shape
    per_lag = (chan.prop_taps.reshape(k_users * n_lags, n) @ u).reshape(k_users, n_lags, n_samples)
    y = np.zeros((k_users, n_samples), dtype=complex)
    for l in range(n_lags):
        shift = chan.prop_lag0 + l
        if shift >= 0:
            y[:, shift:] += per_lag[:, l, :max(n_samples - shift, 0)]
        else:
            y[:, :shift] += per_lag[:, l, -shift:]
    return y


def add_noise(y: np.ndarray, sigma_v2: float,
              rng: Optional[np.random.Generator]) -> np.ndarray:
    """`y` plus i.i.d. CN(0, sigma_v2) samples, one per entry.

    Draws all real parts, then all imaginary parts, from `rng`.  Returns
    `y` itself, drawing nothing, when ``sigma_v2 <= 0``; otherwise `rng`
    is required.
    """
    if sigma_v2 <= 0.0:
        return y
    if rng is None:
        raise ValueError("rng required when sigma_v2 > 0")
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + noise * math.sqrt(sigma_v2 / 2.0)


def hold_rx_power_factor(rx_filter, osf: int) -> float:
    """Power gain of transmit-hold plus receive filtering on sample-white
    signals: the quadrature of ``integral (Pi (*) Omega)^2``.

    A memoryless PA driven by zero-order-hold samples emits distortion
    that is itself held per sampling period, so its post-filter power at
    the symbol instants is the per-sample second moment times this
    factor."""
    po, _ = pulse_filter_taps(rx_filter, osf)
    return float(np.sum(po**2) / osf)


def distortion_noise_power(chan: ChannelRealization, q_second_moment: float,
                           scheme: str) -> np.ndarray:
    """Per-user closed-form estimate of the received shaped-distortion power
    of a modulator whose per-antenna distortion has second moment
    `q_second_moment`.

    Each antenna's received distortion power is
    ``base = A^2 * E|q|^2 * integral (Pi (*) Omega)^2``, with the PA gain
    A and the receive filter of `chan` (see :func:`hold_rx_power_factor`).
    Under the i.i.d. distortion model the per-user power is
    :func:`sdmimo.sigma_delta.shaped_power` of `scheme` over each user's
    paths, with half frequencies ``pi (d/lambda) sin(theta_{i,j})`` and
    weights ``|alpha_{i,j}|^2``.

    The first-order forms follow the i.i.d. model directly; the
    second-order forms apply the same model to the squared
    second-difference response.
    """
    if q_second_moment < 0:
        raise ValueError("second moment must be nonnegative")
    base = chan.pa_gain**2 * q_second_moment * hold_rx_power_factor(chan.rx_filter, chan.ofdm.osf)
    half_w = np.pi * chan.geom.d_over_lambda * np.sin(chan.theta)
    return shaped_power(scheme, chan.geom.n, base, np.abs(chan.alpha) ** 2, half_w)
