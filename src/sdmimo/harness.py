"""End-to-end Monte Carlo experiments: BER curves, IQ scatter clouds, and
shaped-distortion angular spectra.

Every experiment runs each OFDM block through one function,
:func:`_run_block`, with one entry point per stage.  :func:`_designs`
precodes the block: one zero-forcing design for the whole noise grid, or
one symbol-level solve per noise point from one shared zero-forcing
start and distortion measurement.  :func:`_transmit` runs each design
once through ``modulate`` and the PAs and counts its overloads once;
``propagate`` carries it to the users noise-free.  A BER trial adds one
``add_noise`` draw per grid point to those frames, in grid order, then
runs one DFT, detection and bit tally over the stack; the scatter run
reads its one noise-free frame.

The PAs are memoryless and the transmit pulse is a zero-order hold, so
running the modulator and PAs on the ``m_cp + m`` symbol-rate samples
gives exactly the held PA output; the channel's FIR taps carry the hold
and receive filtering (see :mod:`sdmimo.channel`).

Reproducibility: trial t draws everything from a generator seeded by
``SeedSequence((master_seed, t))``, so results are independent of
execution order and adding trials never perturbs earlier ones.

Memory: :func:`build_context` sets glibc's allocator policy once per
process (:func:`_keep_heap`), so that a run reuses the heap pages of the
runs before it instead of faulting fresh ones in.  No output depends on
the policy or on what reused memory holds.

Chain recipes
-------------
The precoder selector fixes the family, the amplitude budget, and the
default PA/modulator layout; the one table of them is
:data:`sdmimo.config.CHAINS`, one :class:`~sdmimo.config.ChainSpec` per
selector.  Budgets: "headroom" is the modulator's input bound (chi -
psi, or chi - 3 psi for sd2/tsd2; chi - psi with no modulator),
"backoff" the PA's r_1dB, "total-power" the reference r_max.
PA layouts with no modulator: "all" nonlinear, "except_last" (a linear
last antenna) or "ideal".  The `scheme` config key (default "auto") can
override the modulator, e.g. ``{"precoder": "zf-sd", "scheme": "none"}``
runs plain ZF through distorting PAs with no shaping loop.
:func:`build_context` looks the selector's chain up once per run,
replaces its scheme when the key is not "auto", and builds the
modulator, so a scheme whose no-overloading input set is empty for the
configured PA and chi, or whose tail needs more antennas than the array
has, is a :class:`~sdmimo.errors.ConfigError` before any trial, whatever
the selector; so is a back-off budget for a PA with no 1 dB compression
point.

Scaling note: the unnormalized DFT pair makes the noise-free received
subcarrier value ``M * h_p^T z_p``, so detection divides by ``M *
beta_i``.  The noise axis is reported as 1/sigma_v^2 in dB with
sigma_v^2 the per-sample time-domain variance actually injected.
"""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    ChannelRealization,
    RrcFilter,
    UlaGeometry,
    add_noise,
    distortion_noise_power,
    draw_channel,
    propagate,
    steering_vector,
)
from .config import CHAINS, ChainSpec, ExperimentConfig
from .errors import ConfigError, NoCompressionPoint
from .ofdm import OfdmParams, idft_modulate, receiver_dft
from .pa import ShapingBudget, apply_pa, compute_r1db
from .precoding import PrecodeResult, slp_precode, zf_precode
from .qam import QamConstellation, detect, symbols_to_bits_errors
from .sigma_delta import ModulatorConfig, count_overloads, modulate, shaped_distortion_power

__all__ = [
    "MetricRecord",
    "ScatterResult",
    "SpectrumRow",
    "substream",
    "run_ber",
    "run_scatter",
    "run_shaping_spectrum",
]


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, index...) path."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *path)))


@dataclass(frozen=True)
class _Context:
    """Per-run precomputed objects shared by every trial."""

    cfg: ExperimentConfig
    chain: ChainSpec
    ofdm: OfdmParams
    geom: UlaGeometry
    rx_filter: RrcFilter
    const: QamConstellation
    budget: ShapingBudget      # PA input disk chi and its distortion psi
    modulator: Optional[ModulatorConfig]   # None when the scheme is "none"
    bound: float               # amplitude budget handed to the precoder


_M_TRIM_THRESHOLD = -1     # glibc's mallopt parameters
_M_MMAP_THRESHOLD = -3


@functools.lru_cache(maxsize=None)
def _keep_heap() -> None:
    """Keep freed heap memory in the process, and serve arrays up to
    32 MiB from the heap, where the C library has glibc's ``mallopt``;
    do nothing elsewhere (macOS, Windows).  Runs once per process.

    glibc's dynamic thresholds map a run's largest arrays fresh and trim
    the heap top when they are freed, so each run faults its heap in
    again: about 2,500 minor faults a 64-antenna scatter run."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc's ceiling for its dynamic thresholds on 64-bit
    # (DEFAULT_MMAP_THRESHOLD_MAX), with the trim threshold at twice the
    # mmap threshold, as its dynamic rule sets them
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def build_context(cfg: ExperimentConfig) -> _Context:
    _keep_heap()
    sys_ = cfg.system
    chain = CHAINS[cfg.precoder.name]
    if cfg.scheme != "auto":
        chain = replace(chain, scheme=cfg.scheme)
    ofdm = sys_.ofdm
    geom = UlaGeometry(n=sys_.n, d_over_lambda=sys_.d_over_lambda)
    rx_filter = RrcFilter(rolloff=sys_.rrc_rolloff, span=sys_.rrc_span_ts)
    budget = ShapingBudget.from_pa(cfg.pa, cfg.chi_value)
    modulator = None
    if chain.scheme != "none":
        try:
            modulator = ModulatorConfig.from_scheme(chain.scheme, cfg.pa, budget)
        except ValueError as exc:
            raise ConfigError(f"scheme {chain.scheme!r} with this PA and chi: {exc}") from exc
        if sys_.n <= modulator.n_tail:
            raise ConfigError(f"scheme {chain.scheme!r} needs at least "
                              f"{modulator.n_tail + 1} antennas, got n = {sys_.n}")

    if chain.budget_kind == "headroom":
        bound = budget.headroom if modulator is None else modulator.input_bound
        if bound <= 0:
            raise ConfigError("no-overloading budget is empty for this PA and chi")
    elif chain.budget_kind == "backoff":
        try:
            bound = compute_r1db(cfg.pa)
        except NoCompressionPoint as exc:
            raise ConfigError(f"the back-off budget of {cfg.precoder.name!r} is the PA's "
                              f"1 dB compression point: {exc}") from exc
    else:  # total power reference amplitude
        bound = cfg.pa.r_max
    return _Context(cfg=cfg, chain=chain, ofdm=ofdm, geom=geom, rx_filter=rx_filter,
                    const=QamConstellation(d=sys_.qam_d), budget=budget,
                    modulator=modulator, bound=bound)


def _draw_trial_channel(ctx: _Context, rng: np.random.Generator,
                        l_taps: Optional[int] = None) -> ChannelRealization:
    """The run's channel draw, with the configured tap count unless `l_taps`
    is given."""
    sys_ = ctx.cfg.system
    return draw_channel(
        rng, ctx.geom, ctx.ofdm, sys_.k, sys_.j_paths,
        sys_.l_taps if l_taps is None else l_taps,
        rx_filter=ctx.rx_filter, pa_gain=ctx.cfg.pa.gain,
        angle_spread_deg=sys_.angle_spread_deg,
        delay_range_ts=(sys_.delay_min_ts, sys_.delay_max_ts),
    )


def _designs(ctx: _Context, chan: ChannelRealization, symbols: np.ndarray,
             grid: Sequence[float]) -> List[PrecodeResult]:
    """One block's transmit designs for the noise grid `grid`: one
    zero-forcing design shared by every point, or one symbol-level solve
    per point from the block's one zero-forcing start.

    The solves plan for the closed-form per-user shaped-distortion power
    of the distortion second moment measured by running the modulator on
    the zero-forcing block (the drive statistics the final signal will
    have).  Their per-user noise std is in units of the decision
    statistic r / M: the thermal and distortion variances are divided by
    the DFT round-trip gain M, so the design margins match the
    detector's operating point.
    """
    if ctx.chain.family == "zf":
        # every budget but total power scales to a peak amplitude
        variant = "total-power" if ctx.chain.budget_kind == "total-power" else "sigma-delta"
        return [zf_precode(chan, symbols, ctx.bound, variant=variant)]
    zf = zf_precode(chan, symbols, ctx.bound, variant="sigma-delta")
    sigma_xi2 = np.zeros(chan.n_users)
    if ctx.modulator is not None:
        _, q, _ = modulate(ctx.modulator, zf.x)
        shaped = q[:q.shape[0] - ctx.modulator.n_tail]
        # np.mean sums in memory order, and q is C-ordered: the mean is taken
        # over the transpose, sample by sample (antennas within a sample),
        # the summation order of the recorded symbol-level outputs
        # (tests/golden), so the same seed keeps giving the same bytes
        power = np.ascontiguousarray((np.abs(shaped) ** 2).T)
        sigma_xi2 = distortion_noise_power(chan, float(np.mean(power)), ctx.chain.scheme)
    return [slp_precode(chan, symbols, ctx.bound, np.sqrt((sigma_xi2 + sv2) / ctx.ofdm.m),
                        d=ctx.const.d, settings=ctx.cfg.precoder, start=zf)
            for sv2 in grid]


def _check_noise_free_designs(ctx: _Context, grid: Sequence[float]) -> None:
    """Raise :class:`~sdmimo.errors.ConfigError`, before any trial, for a
    symbol-level design at a noise-free point of `grid` whose chain
    plans no distortion (no modulator, or ideal PAs): its noise level
    would be 0."""
    if (ctx.chain.family == "slp" and 0.0 in grid
            and (ctx.modulator is None or ctx.cfg.pa.kind == "ideal")):
        raise ConfigError("a noise-free symbol-level design needs planned distortion: "
                          "a sigma-delta scheme and a PA kind other than 'ideal'")


def _transmit(ctx: _Context, x: np.ndarray) -> Tuple[np.ndarray, int]:
    """Symbol-rate PA-array output for a precoded CP-extended block, plus
    the number of modulator input samples over the no-overloading bound."""
    pa = ctx.cfg.pa
    if ctx.modulator is not None:
        return modulate(ctx.modulator, x)[0], count_overloads(ctx.modulator, x)
    if ctx.chain.pa_mode == "ideal":
        return apply_pa(pa.linear, x), 0
    u = apply_pa(pa, x)
    if ctx.chain.pa_mode == "except_last":
        u[-1] = apply_pa(pa.linear, x[-1])
    return u, 0


def _run_block(ctx: _Context, chan: ChannelRealization, symbols: np.ndarray,
               grid: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One OFDM block for the noise grid `grid`: its D designs, each sent
    once and propagated noise-free.  Returns the received frames
    ``(D, K, m_cp + m)``, the designs' beta ``(D, K)`` and their tallies
    ``(4, D)``: mean beta, overloads, and each solve's ``converged`` flag
    and ADMM rounds (zero for zero forcing, which makes no solve)."""
    designs = _designs(ctx, chan, symbols, grid)
    sent = [_transmit(ctx, design.x) for design in designs]
    tally = [(float(d.beta.mean()), n_over, d.diagnostics.get("converged", 0.0),
              d.diagnostics.get("admm_iterations", 0.0)) for d, (_, n_over) in zip(designs, sent)]
    return (np.stack([propagate(chan, u) for u, _ in sent]),
            np.stack([d.beta for d in designs]), np.array(tally).T)


def _run_trial(ctx: _Context, trial: int) -> np.ndarray:
    """One trial's tallies, a ``(5, S)`` array with one column per noise
    point.  Its rows are bit errors, the designs' summed mean beta,
    overloads, and the symbol-level solves' ``converged`` flags and ADMM
    rounds (zero for zero forcing, which makes no solve)."""
    cfg = ctx.cfg
    rng = substream(cfg.run.seed, trial)
    chan = _draw_trial_channel(ctx, rng)
    tally = np.zeros((5, len(cfg.sigma_v2)))
    for _ in range(cfg.run.blocks_per_trial):
        symbols = ctx.const.random_symbols(rng, (cfg.system.k, cfg.system.m_s))
        frames, beta, block_tally = _run_block(ctx, chan, symbols, cfg.sigma_v2)
        # a zero-forcing block has one design for the whole grid, whose
        # frame and tallies serve every column
        tally[1:] += block_tally
        # one noisy copy per noise point, drawn in grid order, then one DFT,
        # one detection and one bit tally for the whole stack
        frames = np.broadcast_to(frames, (len(cfg.sigma_v2),) + frames.shape[1:])
        y = np.stack([add_noise(y0, sv2, rng) for y0, sv2 in zip(frames, cfg.sigma_v2)])
        s_hat = detect(receiver_dft(ctx.ofdm, y), ctx.ofdm.m * beta[:, :, None], ctx.const)
        tally[0] += symbols_to_bits_errors(symbols, s_hat, ctx.const)
    return tally


@dataclass
class MetricRecord:
    """One BER point: scheme/precoder labels, noise level, and tallies of
    the designs used at this point (a zero-forcing design serves them all).

    `mean_beta` averages the designs' mean beta over trials and blocks.
    `overloads` counts their symbol-rate modulator input samples whose
    amplitude exceeds the no-overloading bound.  The solver columns
    average the ``converged`` flags and ADMM rounds of the symbol-level
    solves, one per block at this point (NaN for zero-forcing).
    `failed_trials` is the number of trials of the whole run that raised
    and were excluded from every tally (the same on every record).
    """

    scheme: str
    precoder: str
    sigma_v2: float
    snr_db: float
    ber: float
    bits: int
    errors: int
    mean_beta: float
    overloads: int
    solver_converged_frac: float
    solver_mean_admm_iters: float
    failed_trials: int


def self_check_linear_chain(ctx: _Context) -> float:
    """Regression check: ideal PAs in the linear region must reproduce the
    frequency-domain model ``M * h_p^T z_p`` through the full chain.

    Uses a tap count that covers the whole delay + filter support so the
    discrete model is exact.  Returns the worst relative error; raises
    ``RuntimeError`` if it exceeds 1e-6.
    """
    cfg = ctx.cfg
    sys_ = cfg.system
    rng = substream(cfg.run.seed, 2**40)
    l_full = int(math.ceil(sys_.delay_max_ts + sys_.rrc_span_ts)) + 2
    chan = _draw_trial_channel(ctx, rng, l_full)
    scale = 0.5 * cfg.pa.r_max / math.sqrt(sys_.n * ctx.ofdm.m)
    z = scale * (rng.standard_normal((sys_.n, ctx.ofdm.m_s))
                 + 1j * rng.standard_normal((sys_.n, ctx.ofdm.m_s)))
    u = cfg.pa.gain * idft_modulate(ctx.ofdm, z)
    y = propagate(chan, u)
    r = receiver_dft(ctx.ofdm, y)
    model = ctx.ofdm.m * np.einsum("pkn,np->kp", chan.freq, z)
    err = float(np.max(np.abs(r - model)) / np.max(np.abs(model)))
    if err > 1e-6:
        raise RuntimeError(f"linear-chain self check failed: relative error {err:.3g}")
    return err


def _attempt_trial(ctx: _Context, trial: int) -> Tuple[Optional[np.ndarray],
                                                      Optional[Exception]]:
    """One trial's tally, or the exception it raised (per-trial isolation)."""
    try:
        return _run_trial(ctx, trial), None
    except Exception as exc:  # noqa: BLE001 - per-trial isolation
        return None, exc


def run_ber(cfg: ExperimentConfig, workers: int = 1) -> List[MetricRecord]:
    """Monte Carlo BER sweep over the configured noise grid.

    Runs ``cfg.run.trials`` independent channel trials with
    ``cfg.run.blocks_per_trial`` OFDM blocks each and accumulates
    Gray-coded bit errors per noise point, one block at a time along the
    path of the module docstring: a zero-forcing block is precoded,
    modulated and propagated once for the whole grid, a symbol-level
    block once per noise point; every noise point then gets its own
    noise draw, in grid order.  The tally arrays of the trials that do
    not raise are summed once, in trial order, and form every record.
    Trials that raise are excluded from the tallies and counted (a
    warning summarizes them); when every trial raises, the
    ``RuntimeError`` names the first trial's exception.
    Runs at most one worker per trial, and in this process for one
    worker.  Deterministic for a fixed config and seed, for any worker
    count.
    """
    ctx = build_context(cfg)
    _check_noise_free_designs(ctx, cfg.sigma_v2)
    if cfg.run.self_check:
        self_check_linear_chain(ctx)

    trials = range(cfg.run.trials)
    workers = min(workers, cfg.run.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            attempts = list(pool.map(_attempt_trial, [ctx] * len(trials), trials))
    else:
        attempts = [_attempt_trial(ctx, t) for t in trials]
    good = [tally for tally, exc in attempts if exc is None]
    for t, (_, exc) in zip(trials, attempts):
        if exc is not None:
            warnings.warn(f"trial {t} failed and was excluded: {exc}")
    failures = len(trials) - len(good)
    if failures:
        warnings.warn(f"{failures} of {cfg.run.trials} trials failed")
    if not good:
        first = attempts[0][1]
        raise RuntimeError(f"all trials failed; trial 0 raised "
                           f"{type(first).__name__}: {first}") from first

    # every noise point of every block carries the same bits, and an
    # slp-* block makes one solve per noise point
    designs = len(good) * cfg.run.blocks_per_trial
    bits = designs * 2 * ctx.const.bits_per_axis * cfg.system.k * cfg.system.m_s
    slp = ctx.chain.family == "slp"
    return [MetricRecord(scheme=ctx.chain.scheme,
                         precoder=cfg.precoder.name,
                         sigma_v2=sv2,
                         snr_db=math.inf if sv2 == 0 else -10.0 * math.log10(sv2),
                         ber=int(errors) / bits,
                         bits=bits,
                         errors=int(errors),
                         mean_beta=float(beta) / designs,
                         overloads=int(overloads),
                         solver_converged_frac=float(converged) / designs if slp else math.nan,
                         solver_mean_admm_iters=float(admm) / designs if slp else math.nan,
                         failed_trials=failures)
            for sv2, (errors, beta, overloads, converged, admm) in zip(cfg.sigma_v2, sum(good).T)]


@dataclass
class ScatterResult:
    """Noise-free received points at one subcarrier, normalized by M*beta."""

    points: np.ndarray      # (K, blocks) complex
    symbols: np.ndarray     # (K, blocks) intended constellation points
    rms_deviation: float


def run_scatter(cfg: ExperimentConfig) -> ScatterResult:
    """Noise-free IQ cloud for one fixed channel over many OFDM blocks.

    Emits ``r_{i,p} / (M beta_i)`` per user and block at subcarrier
    ``p = cfg.run.scatter_subcarrier``, plus the RMS distance of the
    cloud from the intended constellation points, for designs made for
    the first noise point.
    """
    ctx = build_context(cfg)
    p = cfg.run.scatter_subcarrier
    if not (0 <= p < cfg.system.m_s):
        raise ConfigError(f"scatter subcarrier {p} out of range [0, {cfg.system.m_s})")
    _check_noise_free_designs(ctx, cfg.sigma_v2[:1])
    rng = substream(cfg.run.seed, 0)
    chan = _draw_trial_channel(ctx, rng)

    n_blocks = cfg.run.blocks_per_trial
    points = np.empty((cfg.system.k, n_blocks), dtype=complex)
    intended = np.empty((cfg.system.k, n_blocks), dtype=complex)
    for blk in range(n_blocks):
        symbols = ctx.const.random_symbols(rng, (cfg.system.k, cfg.system.m_s))
        frames, beta, _ = _run_block(ctx, chan, symbols, cfg.sigma_v2[:1])
        r = receiver_dft(ctx.ofdm, frames[0])
        points[:, blk] = r[:, p] / (ctx.ofdm.m * beta[0])
        intended[:, blk] = symbols[:, p]
    rms = float(np.sqrt(np.mean(np.abs(points - intended) ** 2)))
    return ScatterResult(points=points, symbols=intended, rms_deviation=rms)


@dataclass
class SpectrumRow:
    theta_deg: float
    measured: float
    predicted: float


def run_shaping_spectrum(cfg: ExperimentConfig) -> List[SpectrumRow]:
    """Measured vs predicted beamformed distortion power at the angles
    ``cfg.run.spectrum_angles_deg``.

    Feeds constant-envelope random-phase frames at the modulator's input
    bound, beamforms the distortion-only component ``a(theta)^T (u - A x)``,
    and averages its power over samples and frames.  The prediction is
    the closed-form shaped-power expression for the configured scheme.
    """
    ctx = build_context(cfg)
    if ctx.modulator is None:
        raise ConfigError("shaping spectrum requires a sigma-delta scheme (sd1/tsd1/sd2/tsd2)")
    if ctx.geom.n <= ctx.modulator.order:
        raise ConfigError(f"the shaping spectrum of {ctx.chain.scheme!r} needs at least "
                          f"{ctx.modulator.order + 1} antennas, got n = {ctx.geom.n}")
    angles = cfg.run.spectrum_angles_deg
    bound = ctx.modulator.input_bound
    rng = substream(cfg.run.seed, 1)
    n = ctx.geom.n

    steer = np.stack([steering_vector(ctx.geom, math.radians(a)) for a in angles])
    acc = np.zeros(len(angles))
    count = 0
    for _frame in range(cfg.run.spectrum_frames):
        phase = rng.uniform(-np.pi, np.pi, size=(n, cfg.run.spectrum_samples))
        x = bound * np.exp(1j * phase)
        u, _, _ = modulate(ctx.modulator, x)
        resid = u - ctx.cfg.pa.gain * x
        beams = steer @ resid                      # (angles, samples)
        acc += np.sum(np.abs(beams) ** 2, axis=1)
        count += cfg.run.spectrum_samples

    rows = []
    for ai, a in enumerate(angles):
        pred = shaped_distortion_power(
            math.radians(a), ctx.geom.d_over_lambda, n,
            ctx.cfg.pa.gain, ctx.budget.psi, ctx.chain.scheme,
        )
        rows.append(SpectrumRow(theta_deg=float(a), measured=float(acc[ai] / count),
                                predicted=pred))
    return rows
