"""Transmit signal designs: zero-forcing variants and the symbol-level
precoder solved by ADMM with an accelerated proximal gradient inner loop.

Both designs produce a frequency grid Z (N x m_s), the matching
time-domain block X, and per-user constellation scaling factors beta.
The amplitude constraint ``max |x_{n,m}| <= budget`` encodes the
modulator's no-overloading requirement (or a power back-off limit for
the benchmark schemes).

The symbol-level design maximizes the product of per-component correct
detection probabilities, equivalently minimizes

    F(beta, Z) = - sum_{i,p} ( log DP_R(i,p) + log DP_I(i,p) ),

subject to X = Z F_s^T, max-amplitude feasibility of X, and beta >= 0.
The splitting alternates a closed-form projection in X, an APG solve in
(beta, Z), and a dual ascent step.  Each solve lays the problem's
constants out once, user-major (a private objective object), and
evaluates F at each point once: the value comes with the point's
decision margins, from which the Gaussian densities and the gradient
are formed only where the inner loop asks for them, and a round starts
from the evaluation its predecessor ended on.  The rounds and the line
search update their arrays in place; every value they compute is the
one the plain expressions give, so the in-place updates change no
decision of the solver.

:func:`_margins` stacks the margins of a level's two decision thresholds
on a leading axis of two, and :func:`dp_components` turns the stack into
detection probabilities.  It imports ``scipy.special.ndtr``, so that
``import sdmimo`` loads numpy and the standard library only and a run
with no ``slp-*`` selector never loads SciPy (its import is about half
of a ZF run's start-up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .channel import ChannelRealization
from .errors import ShapeMismatch
from .ofdm import idft_modulate

__all__ = [
    "PrecodeResult",
    "SlpSettings",
    "dp_components",
    "zf_precode",
    "slp_precode",
]

# "sigma-delta" scales the block to a peak amplitude, "total-power" to an RMS one
ZF_VARIANTS = ("sigma-delta", "total-power")

_OBJECTIVE_CAP = 1e12
_DP_FLOOR = 1e-300


@dataclass(frozen=True)
class SlpSettings:
    """Settings of :func:`slp_precode`, checked when constructed: a value
    out of range raises ``ValueError`` naming its key."""

    rho: Optional[float] = None    # ADMM penalty > 0; None: max(100, K*m_s/5)
    admm_max_iter: int = 30        # ADMM rounds, >= 1
    apg_max_iter: int = 50         # APG steps per round, >= 1
    ftol: float = 1e-3             # relative objective change that ends the rounds, > 0
    xtol: float = 1e-3             # squared equality residual that ends them, > 0
    apg_tol: float = 1e-6          # squared step that ends an APG loop, > 0

    def __post_init__(self) -> None:
        for key in ("admm_max_iter", "apg_max_iter"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("ftol", "xtol", "apg_tol", "rho"):
            value = getattr(self, key)
            if not (value is None and key == "rho" or value > 0):
                raise ValueError(f"{key} must be positive")


@dataclass(frozen=True)
class PrecodeResult:
    """Designed transmit block plus solver diagnostics.

    `z` is the frequency grid (N, m_s), `x` the C-ordered (N, m_cp + m)
    time block with its CP (see :func:`~sdmimo.ofdm.idft_modulate`),
    `beta` the per-user scaling factors.  `diagnostics` carries
    iteration counts, objective values, and the final equality residual
    where applicable.
    """

    z: np.ndarray
    x: np.ndarray
    beta: np.ndarray
    diagnostics: Dict[str, float] = field(default_factory=dict)


def _scale_to_max(x_unnorm: np.ndarray, budget: float) -> float:
    """Scale factor making max |x| equal `budget` to within one ulp."""
    mag = np.abs(x_unnorm)
    peak = float(mag.max())
    if peak == 0.0:
        raise ValueError("cannot scale an all-zero block to a positive budget")
    scale = budget / peak
    scaled = np.empty(x_unnorm.shape, dtype=complex)     # one work buffer for the checks
    for _ in range(4):
        achieved = float(np.abs(np.multiply(x_unnorm, scale, out=scaled), out=mag).max())
        if abs(achieved - budget) <= np.spacing(budget):
            break
        scale *= budget / achieved
    return scale


def zf_precode(
    chan: ChannelRealization,
    symbols: np.ndarray,
    budget: float,
    variant: str = "sigma-delta",
) -> PrecodeResult:
    """Zero-forcing design ``z_p = H_p^dagger s_p / Gamma``.

    For the peak-amplitude variant "sigma-delta" (used with any peak
    budget: a modulator's input bound, a PA back-off or the reference
    chain's headroom) Gamma makes the time-domain peak exactly equal to
    `budget`; the constraint is tight by construction.  For
    "total-power", `budget` is the per-antenna RMS reference r_max and
    Gamma enforces ``||X||_F^2 = N * M * budget^2`` on the realized
    block.  The per-user scaling factors are beta_i = 1/Gamma.

    The minimum-norm solutions come from the channel's cached Gram
    factorization (see :class:`~sdmimo.channel.GramFactor`), shared by
    every call on the same realization.  Raises :class:`RankDeficient`
    when some subcarrier's channel matrix has (numerically) dependent
    rows, ``sigma_min^2 <= 1e-10 sigma_max^2``.
    """
    if variant not in ZF_VARIANTS:
        raise ValueError(f"unknown ZF variant {variant!r}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    symbols = np.asarray(symbols, dtype=complex)
    m_s, k_users, _ = chan.freq.shape
    if symbols.shape != (k_users, m_s):
        raise ShapeMismatch(f"expected symbols of shape {(k_users, m_s)}, got {symbols.shape}")
    w = chan.gram.solve(symbols.T).T
    x = idft_modulate(chan.ofdm, w)
    x_unnorm = x[:, chan.ofdm.m_cp:]
    if variant == "total-power":
        scale = budget * math.sqrt(x_unnorm.size) / float(np.linalg.norm(x_unnorm))
    else:
        # the CP columns repeat payload samples: the whole block has the
        # payload's peak, and its contiguous rows are checked faster
        scale = _scale_to_max(x, budget)
    # scaling every entry keeps the CP columns a copy of the payload
    np.multiply(x, scale, out=x)
    return PrecodeResult(z=w * scale, x=x, beta=np.full(chan.n_users, scale))


def _project_in_place(x: np.ndarray, bound: float) -> np.ndarray:
    """Entrywise projection of the complex array `x` onto the max-amplitude
    ball, written into `x`: clip magnitudes, keep phases.  Idempotent; the
    Euclidean projection onto the feasible set since the constraint is
    separable per entry."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    mag = np.abs(x)
    over = mag > bound
    if np.any(over):
        x[over] *= bound / mag[over]
    return x


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
    """Stacked margins ``t[0] = ta``, ``t[1] = tc``: the margin-normalized
    offsets ``sqrt(2) (beta (s +- 1) - v) / sigma_eta`` of the upper and
    lower decision thresholds of levels `s` from received components `v`,
    with the missing thresholds at +-inf.  `offsets` and `bounds` are
    :func:`_level_offsets`' output for `s`; the result is a new array
    shaped like `offsets`, formed in place in that order.
    :func:`dp_components` takes it."""
    t = offsets * beta
    t -= v
    t *= np.sqrt(2.0)
    t /= sigma_eta
    np.maximum(t[0], bounds[0], out=t[0])
    np.minimum(t[1], bounds[1], out=t[1])
    return t


def dp_components(t, need_grad=True):
    """Vectorized per-component DP with the pieces needed for gradients.

    `t` holds the stacked margins of :func:`_margins`, ``t[0] = ta`` and
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


class _SlpObjective:
    """F(beta, Z) of one symbol-level problem, with what depends only on the
    problem (channel, symbols, noise levels, d) laid out once per solve.

    The layout is user-major, ``(K, 2 m_s)``: row i holds user i's I and Q
    components side by side, subcarrier after subcarrier (the real view of
    a ``(K, m_s)`` complex array), so every per-user beta or sigma column
    ``(K, 1)`` broadcasts along a contiguous row.  The threshold offsets
    ``1 +- s`` and the bounds that put the edge levels' missing thresholds
    at infinity are stacked on a leading axis of two, ``(2, K, 2 m_s)``, so
    the two margins of an entry are formed together and one
    `dp_components` call covers one point.  The received values
    ``h_{i,p}^T z_p`` are formed per subcarrier as one batched product and
    copied into the user-major work array.

    :meth:`value` evaluates no Gaussian density; it returns F together with
    the evaluated point, which keeps the margins, so :meth:`grad` forms
    the densities and the gradients without forming them again.  A caller
    that needs F at many points and gradients at few pays for the
    densities only where it asks for them.
    """

    def __init__(self, chan: ChannelRealization, symbols, sigma_eta, d: int):
        symbols = np.asarray(symbols, dtype=complex)
        sigma_eta = np.asarray(sigma_eta, dtype=float)
        k_users, m_s = symbols.shape
        self.freq = chan.freq                                                  # (m_s, K, N)
        self.freq_h = np.ascontiguousarray(chan.freq.conj().transpose(0, 2, 1))  # (m_s, N, K)
        self.offsets, self.bounds = _level_offsets(np.ascontiguousarray(symbols).view(float), d)
        self.sigma = sigma_eta.reshape(-1, 1)
        # the received values in the user-major layout, overwritten by every call
        self._v = np.empty((k_users, m_s), dtype=complex)

    def value(self, beta, z):
        """``(F, point)``: the objective, capped at a large finite value when
        any DP underflows so that line searches stay finite, and the point
        in the form :meth:`grad` takes (its margins and floored DPs)."""
        v = np.matmul(self.freq, z.T[:, :, None])                # (m_s, K, 1)
        np.copyto(self._v, v[:, :, 0].T)
        t = _margins(self.offsets, self.bounds, self._v.view(float), beta.reshape(-1, 1),
                     self.sigma)
        dp, _, _ = dp_components(t, need_grad=False)
        dp_safe = np.maximum(dp, _DP_FLOOR, out=dp)
        f = min(0.0 - float(np.log(dp_safe).sum()), _OBJECTIVE_CAP)
        return f, (t, dp_safe)

    def grad(self, point):
        """``(grad_beta, grad_Z)`` at a point returned by :meth:`value`."""
        t, dp_safe = point
        phi = _phi_pdf(t)                                        # (phi_hi, phi_lo)
        scale = math.sqrt(2.0) / (self.sigma * dp_safe)
        g_v = scale * (phi[0] - phi[1])                          # d F / d v
        g_beta = scale * (phi[0] * self.offsets[0] - phi[1] * self.offsets[1])
        grad_beta = -g_beta.sum(axis=1)
        # the real view read back as complex is g_R + j g_I, (K, m_s)
        g_v = g_v.view(complex).T[:, :, None]                   # (m_s, K, 1)
        grad_z = np.ascontiguousarray(np.matmul(self.freq_h, g_v)[:, :, 0].T)
        return grad_beta, grad_z


def _apg_solve(obj, ofdm, beta0, z0, eval0, w_target, rho, max_iter, tol, gamma0):
    """Accelerated proximal gradient for
    ``min_{beta >= 0, Z} F(beta, Z) + rho/2 ||W - Z F_s^T||_F^2``.

    The quadratic coupling term has Hessian ``rho * M * I`` (the padded
    IDFT satisfies ``A^H A = M I``), so it is handled inside the
    proximal step in closed form together with the nonnegativity clip on
    beta; only the detection-probability sum F (`obj`, a
    :class:`_SlpObjective`) is treated as the smooth part.  This keeps the
    step size governed by F's curvature rather than by ``rho * M``, which
    matters because the stopping rule below is an absolute step-size test.

    Nesterov extrapolation with mu_{-1} = 0.  Backtracking starts from
    step 1.0, halves, and re-expands by 2 per iteration; a step is
    accepted when the smooth part passes its quadratic majorization
    test (sufficient-decrease slack 1e-4).  Stops when the squared
    iterate step drops below `tol` or after `max_iter` iterations
    (at least one).

    `eval0` is ``obj.value(beta0, z0)``, which the caller already has.
    The first two extrapolation points are the current iterate itself
    (the step from the previous iterate is zero, then its weight is), so
    they reuse the evaluation at hand and only need the gradient: every
    point is evaluated once.  Returns ``(beta, Z, step, iterations, eval)``:
    the iterate, the last accepted step, the iteration count, and
    ``obj.value`` at the returned iterate, which is the last accepted
    line-search evaluation.

    The proximal step and the extrapolation are written in place into new
    arrays (C-ordered, as the plain expressions give them), and the step
    an iteration takes serves both its stopping test and the next
    extrapolation.  Each value is the one the plain expression gives, so
    no decision depends on how it is formed.
    """
    m, m_s = ofdm.m, ofdm.m_s
    w_spec = rho * np.fft.fft(w_target, axis=1)[:, :m_s]   # rho * W conj(F_s)
    w_step = np.empty_like(w_spec)

    def prox_step(beta_ex, z_ex, g_beta, g_z, step):
        # prox of the gradient step, (max(0, b - step g_b), (z - step g_z +
        # step w_spec) / (1 + step rho M)), formed in place in a new pair of
        # arrays.  numpy divides a complex array by a real value as the
        # multiplication by its reciprocal written here, which gives the
        # same values without a complex division per entry
        beta_new = np.maximum(0.0, beta_ex - step * g_beta)
        z_new = step * g_z
        np.subtract(z_ex, z_new, out=z_new)
        z_new += np.multiply(w_spec, step, out=w_step)
        z_new *= 1.0 / (1.0 + step * rho * m)
        return beta_new, z_new

    beta, z = beta0, z0
    f_cur, point_cur = eval0
    mu_prev = 0.0
    gamma = gamma0
    iters = 0
    for _ in range(max_iter):
        iters += 1
        mu = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mu_prev**2))
        if mu_prev <= 1.0:
            # the first step from the previous iterate is zero, the second's
            # weight is zero: the extrapolation point is the iterate itself
            beta_ex, z_ex, f_ex, point_ex = beta, z, f_cur, point_cur
        else:
            # beta + wgt (beta - beta_prev), and the same for Z, on the steps
            # the previous iteration took
            wgt = (mu_prev - 1.0) / mu
            beta_ex = np.add(np.multiply(d_beta, wgt, out=d_beta), beta, out=d_beta)
            z_ex = np.add(np.multiply(d_z, wgt, out=d_z), z, out=d_z)
            f_ex, point_ex = obj.value(beta_ex, z_ex)
        g_beta, g_z = obj.grad(point_ex)
        gamma = min(2.0 * gamma, 1.0)

        while True:
            beta_new, z_new = prox_step(beta_ex, z_ex, g_beta, g_z, gamma)
            f_new, point_new = obj.value(beta_new, z_new)
            d_beta = beta_new - beta_ex
            d_z = z_new - z_ex
            lin = float(np.dot(g_beta, d_beta)) + float(np.vdot(g_z, d_z).real)
            step_sq = float(np.dot(d_beta, d_beta)) + float(np.vdot(d_z, d_z).real)
            if f_new <= f_ex + lin + (1.0 + 1e-4) * step_sq / (2.0 * gamma) or gamma < 1e-18:
                break
            gamma *= 0.5

        d_beta = beta_new - beta
        d_z = z_new - z
        beta, z, f_cur, point_cur = beta_new, z_new, f_new, point_new
        mu_prev = mu
        step2 = float(np.sum(d_beta ** 2)) + float(np.linalg.norm(d_z) ** 2)
        if step2 <= tol:
            break
    return beta, z, gamma, iters, (f_cur, point_cur)


def slp_precode(
    chan: ChannelRealization,
    symbols: np.ndarray,
    budget: float,
    sigma_eta,
    d: int,
    settings: SlpSettings = SlpSettings(),
    start: Optional[PrecodeResult] = None,
) -> PrecodeResult:
    """Symbol-level precoding by ADMM splitting.

    Starting from the zero-forcing point (beta, Z, X) with zero duals,
    each round projects the X block onto the amplitude ball, solves the
    (beta, Z) subproblem by APG, and takes a dual ascent step with
    penalty `rho`.  `settings` holds the penalty, the iteration caps and
    the stopping tolerances (see :class:`SlpSettings`).  The returned X
    is the time-domain image of the final Z projected onto the amplitude
    ball, so the constraint holds exactly; `diagnostics["converged"]` is
    0.0 when the caps were hit with the residual still above tolerance
    (non-fatal).  `d` sets the constellation, 4 d^2 points with levels
    up to 2d - 1 per axis.

    The solve builds one :class:`_SlpObjective` and evaluates each point
    once: a round's APG starts from the previous round's returned iterate
    (the ZF point in round 1) with the evaluation already made there.

    When `settings.rho` is None the penalty is ``max(100, K*m_s/5)``: it
    has to track the objective's scale (a sum over K*m_s subcarrier
    detection terms) for the dual updates to equilibrate within the
    round budget, and it must not fall below the level at which the
    absolute residual tolerance stays enforceable.

    `start` is that zero-forcing point, ``zf_precode(chan, symbols,
    budget, "sigma-delta")``, for a caller that has already computed it;
    when None it is computed here.
    """
    symbols = np.asarray(symbols, dtype=complex)
    sigma_eta = np.asarray(sigma_eta, dtype=float)
    if not np.all(sigma_eta > 0):
        raise ValueError("sigma_eta must be positive for every user")
    rho = settings.rho
    if rho is None:
        rho = max(100.0, 0.2 * symbols.shape[0] * chan.ofdm.m_s)

    if start is None:
        start = zf_precode(chan, symbols, budget, variant="sigma-delta")
    beta = start.beta.copy()
    z = start.z.copy()
    lam = np.zeros((chan.geom.n, chan.ofdm.m), dtype=complex)

    obj = _SlpObjective(chan, symbols, sigma_eta, d)
    evaluation = obj.value(beta, z)
    f_prev = evaluation[0]
    f_best = f_prev
    gamma = 1.0
    apg_total = 0
    rounds = 0
    converged = False
    f_cur = f_prev
    resid2 = math.inf
    z_grid = idft_modulate(chan.ofdm, z)     # Z F_s^T, with its CP

    for _ in range(settings.admm_max_iter):
        rounds += 1
        lam_rho = lam * (1.0 / rho)     # lam / rho, as numpy's complex division forms it
        x_block = _project_in_place(z_grid[:, chan.ofdm.m_cp:] - lam_rho, budget)
        w_target = np.add(x_block, lam_rho, out=lam_rho)
        beta, z, gamma, n_apg, evaluation = _apg_solve(
            obj, chan.ofdm, beta, z, evaluation, w_target, rho,
            settings.apg_max_iter, settings.apg_tol, gamma,
        )
        f_cur = evaluation[0]
        apg_total += n_apg
        z_grid = idft_modulate(chan.ofdm, z)
        resid = np.subtract(x_block, z_grid[:, chan.ofdm.m_cp:], out=x_block)
        resid2 = float(np.linalg.norm(resid) ** 2)
        lam += np.multiply(resid, rho, out=resid)
        f_best = min(f_best, f_cur)
        if (abs(f_cur - f_prev) <= settings.ftol * abs(f_prev)
                and resid2 <= settings.xtol):
            converged = True
            break
        f_prev = f_cur

    # the projection is entrywise, so projecting the whole block keeps its
    # CP columns a copy of the projected payload
    _project_in_place(z_grid, budget)
    diag = {
        "admm_iterations": float(rounds),
        "apg_iterations": float(apg_total),
        "objective": f_cur,
        "best_objective": f_best,
        "residual_sq": resid2,
        "converged": 1.0 if converged else 0.0,
    }
    return PrecodeResult(z=z, x=z_grid, beta=beta, diagnostics=diag)
