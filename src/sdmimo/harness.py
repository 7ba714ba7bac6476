"""End-to-end Monte Carlo experiments: BER curves, IQ scatter clouds, and
shaped-distortion angular spectra.

Every experiment runs each OFDM block through one path, with one entry
point per stage.  :func:`_designs` precodes it: one zero-forcing design
for the whole noise grid, or one symbol-level solve per noise point from
one shared start.  :func:`_transmit` runs each design once through
``modulate`` and the PAs and counts its overloads once; ``propagate``
carries it to the users noise-free.  A BER trial adds one ``add_noise``
draw per grid point, in grid order, then runs one DFT, detection and bit
tally over the stack; the scatter run reads the noise-free frame.

The PAs are memoryless and the transmit pulse is a zero-order hold, so
running the modulator and PAs on the ``m_cp + m`` symbol-rate samples
gives exactly the held PA output; the channel's FIR taps carry the hold
and receive filtering (see :mod:`sdmimo.channel`).

Reproducibility: trial t draws everything from a generator seeded by
``SeedSequence((master_seed, t))``, so results are independent of
execution order and adding trials never perturbs earlier ones.

Chain recipes
-------------
The precoder selector fixes the family, the amplitude budget, and the
default PA/modulator layout; the one table of them is
:data:`sdmimo.config.CHAINS`.  Budgets: "headroom" is the modulator's
input bound (chi - psi, or chi - 3 psi for sd2/tsd2; chi - psi with no
modulator), "backoff" the PA's r_1dB, "total-power" the reference r_max.
PA layouts with no modulator: "all" nonlinear, "except_last" (a linear
last antenna) or "ideal".  The `scheme` config key (default "auto") can
override the modulator, e.g. ``{"precoder": "zf-sd", "scheme": "none"}``
runs plain ZF through distorting PAs with no shaping loop.
:func:`build_context` resolves the chain once per run, modulator
included, so a scheme whose no-overloading input set is empty for the
configured PA and chi is a :class:`~sdmimo.errors.ConfigError` before
any trial, whatever the selector.

Scaling note: the unnormalized DFT pair makes the noise-free received
subcarrier value ``M * h_p^T z_p``, so detection divides by ``M *
beta_i``.  The noise axis is reported as 1/sigma_v^2 in dB with
sigma_v^2 the per-sample time-domain variance actually injected.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
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
    psi_hat_calibrated,
    steering_vector,
)
from .config import CHAINS, ExperimentConfig
from .errors import ConfigError
from .ofdm import OfdmParams, TimeGrid, idft_modulate, receiver_dft
from .pa import PaModel, ShapingBudget, apply_pa, compute_r1db
from .precoding import PrecodeResult, slp_precode, zf_precode
from .qam import QamConstellation, detect, symbols_to_bits_errors
from .sigma_delta import ModulatorConfig, count_overloads, modulate, shaped_distortion_power

__all__ = [
    "ChainSpec",
    "MetricRecord",
    "ScatterResult",
    "SpectrumRow",
    "resolve_chain",
    "substream",
    "run_ber",
    "run_scatter",
    "run_shaping_spectrum",
]


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, index...) path."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *path)))


@dataclass(frozen=True)
class ChainSpec:
    """Resolved transmit-chain recipe (see module docstring)."""

    family: str        # "zf" | "slp"
    budget_kind: str   # "headroom" | "backoff" | "total-power"
    scheme: str        # a key of sigma_delta.SCHEMES, or "none"
    pa_mode: str       # used when scheme == "none": "all" | "except_last" | "ideal"


def resolve_chain(precoder_name: str, scheme: str = "auto") -> ChainSpec:
    """Map a precoder selector plus optional scheme override to a recipe."""
    if precoder_name not in CHAINS:
        raise ConfigError(f"unknown precoder selector {precoder_name!r}")
    family, budget_kind, default_scheme, pa_mode = CHAINS[precoder_name]
    return ChainSpec(family=family, budget_kind=budget_kind,
                     scheme=default_scheme if scheme == "auto" else scheme, pa_mode=pa_mode)


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


def build_context(cfg: ExperimentConfig) -> _Context:
    sys_ = cfg.system
    chain = resolve_chain(cfg.precoder.name, cfg.scheme)
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

    if chain.budget_kind == "headroom":
        bound = budget.headroom if modulator is None else modulator.input_bound
        if bound <= 0:
            raise ConfigError("no-overloading budget is empty for this PA and chi")
    elif chain.budget_kind == "backoff":
        bound = compute_r1db(cfg.pa)
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


def _slp_start(ctx: _Context, chan: ChannelRealization,
               symbols: np.ndarray) -> Tuple[PrecodeResult, np.ndarray]:
    """The symbol-level design's noise-independent inputs for one block:
    its zero-forcing start point and the per-user received
    shaped-distortion power the design plans for.

    The power uses the closed-form angular structure with the
    per-antenna distortion second moment measured by running the
    modulator on the zero-forcing block (the same drive statistics the
    final signal will have).
    """
    zf = zf_precode(chan, symbols, ctx.bound, variant="sigma-delta")
    if ctx.modulator is None:
        return zf, np.zeros(chan.n_users)
    _, q, _ = modulate(ctx.modulator, zf.x.with_cp)
    shaped = q[:q.shape[0] - ctx.modulator.n_tail]
    m2 = float(np.mean(np.abs(shaped) ** 2))
    psi_hat_eff = psi_hat_calibrated(ctx.cfg.pa.gain, m2, ctx.rx_filter, ctx.ofdm.osf)
    return zf, distortion_noise_power(chan, psi_hat_eff, ctx.chain.scheme)


def _slp_solve(ctx: _Context, chan: ChannelRealization, symbols: np.ndarray,
               start: Tuple[PrecodeResult, np.ndarray], sigma_v2: float) -> PrecodeResult:
    """Symbol-level design at one noise level from :func:`_slp_start`'s output.

    The per-user effective noise std is given in the units of the
    normalized decision statistic r / M: the thermal and distortion
    variances are divided by the DFT round-trip gain M so the design
    margins match the detector's actual operating point.
    """
    zf, sigma_xi2 = start
    sigma_eta = np.sqrt((sigma_xi2 + sigma_v2) / ctx.ofdm.m)
    pc = ctx.cfg.precoder
    return slp_precode(
        chan, symbols, ctx.bound, sigma_eta,
        rho=pc.rho, admm_max_iter=pc.admm_max_iter, apg_max_iter=pc.apg_max_iter,
        ftol=pc.ftol, xtol=pc.xtol, apg_tol=pc.apg_tol, d=ctx.const.d, start=zf,
    )


def _designs(ctx: _Context, chan: ChannelRealization, symbols: np.ndarray,
             grid: Sequence[float]) -> List[PrecodeResult]:
    """One block's transmit designs for the noise grid `grid`: one
    zero-forcing design shared by every point, or one symbol-level solve
    per point, all from the block's single :func:`_slp_start`."""
    if ctx.chain.family == "zf":
        # every budget but total power scales to a peak amplitude
        variant = "total-power" if ctx.chain.budget_kind == "total-power" else "sigma-delta"
        return [zf_precode(chan, symbols, ctx.bound, variant=variant)]
    start = _slp_start(ctx, chan, symbols)
    return [_slp_solve(ctx, chan, symbols, start, sv2) for sv2 in grid]


def _precode(ctx: _Context, chan: ChannelRealization, symbols: np.ndarray,
             sigma_v2: float) -> PrecodeResult:
    """The block's design at the single noise level `sigma_v2`."""
    (design,) = _designs(ctx, chan, symbols, (sigma_v2,))
    return design


def _transmit(ctx: _Context, x_grid: TimeGrid) -> Tuple[np.ndarray, int]:
    """Symbol-rate PA-array output for a precoded block, plus the number
    of modulator input samples over the no-overloading bound."""
    x_cp = x_grid.with_cp
    pa = ctx.cfg.pa
    if ctx.modulator is not None:
        return modulate(ctx.modulator, x_cp)[0], count_overloads(ctx.modulator, x_cp)
    linear = PaModel.ideal(pa.gain, pa.r_max)
    if ctx.chain.pa_mode == "ideal":
        return apply_pa(linear, x_cp), 0
    u = apply_pa(pa, x_cp)
    if ctx.chain.pa_mode == "except_last":
        u[-1] = apply_pa(linear, x_cp[-1])
    return u, 0


@dataclass
class _TrialTally:
    """One trial's counts; the per-SNR arrays have one entry per noise point."""

    errors: np.ndarray
    solves: np.ndarray
    solver_converged: np.ndarray
    solver_admm_iters: np.ndarray
    beta_sum: float = 0.0
    beta_count: int = 0
    overloads: int = 0


def _run_trial(ctx: _Context, trial: int) -> _TrialTally:
    cfg = ctx.cfg
    rng = substream(cfg.run.seed, trial)
    chan = _draw_trial_channel(ctx, rng)
    n_snr = len(cfg.sigma_v2)
    tally = _TrialTally(errors=np.zeros(n_snr, dtype=np.int64),
                        solves=np.zeros(n_snr, dtype=np.int64),
                        solver_converged=np.zeros(n_snr, dtype=np.int64),
                        solver_admm_iters=np.zeros(n_snr))

    for _block in range(cfg.run.blocks_per_trial):
        symbols = ctx.const.random_symbols(rng, (cfg.system.k, cfg.system.m_s))
        designs = _designs(ctx, chan, symbols, cfg.sigma_v2)
        frames = []
        for si, design in enumerate(designs):
            u, n_over = _transmit(ctx, design.x)
            frames.append(propagate(chan, u))
            tally.beta_sum += float(design.beta.mean())
            tally.beta_count += 1
            tally.overloads += n_over
            if "converged" in design.diagnostics:    # a symbol-level solve for point si
                tally.solves[si] += 1
                tally.solver_converged[si] += int(design.diagnostics["converged"])
                tally.solver_admm_iters[si] += design.diagnostics["admm_iterations"]
        if len(designs) < n_snr:                     # one design serves the whole grid
            designs, frames = designs * n_snr, frames * n_snr
        # one noisy copy per noise point, drawn in grid order, then one DFT,
        # one detection and one bit tally for the whole stack
        y = np.stack([add_noise(y0, sv2, rng) for y0, sv2 in zip(frames, cfg.sigma_v2)])
        beta = np.stack([design.beta for design in designs])[:, :, None]
        s_hat = detect(receiver_dft(ctx.ofdm, y), ctx.ofdm.m * beta, ctx.const)
        tally.errors += symbols_to_bits_errors(symbols, s_hat, ctx.const)
    return tally


@dataclass
class MetricRecord:
    """One BER point: scheme/precoder labels, noise level, and tallies.

    `overloads` counts symbol-rate modulator input samples (over all
    trials and blocks) whose amplitude exceeds the no-overloading bound.
    The solver columns summarize the symbol-level solves at this noise
    point only (NaN for zero-forcing).  `failed_trials` is the number of
    trials of the whole run that raised and were excluded from every
    tally (the same on every record of a run).
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
    x_grid = idft_modulate(ctx.ofdm, z)
    u = cfg.pa.gain * x_grid.with_cp
    y = propagate(chan, u)
    r = receiver_dft(ctx.ofdm, y)
    model = ctx.ofdm.m * np.einsum("pkn,np->kp", chan.freq, z)
    err = float(np.max(np.abs(r - model)) / np.max(np.abs(model)))
    if err > 1e-6:
        raise RuntimeError(f"linear-chain self check failed: relative error {err:.3g}")
    return err


def _attempt_trial(ctx: _Context, trial: int) -> Tuple[Optional[_TrialTally],
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
    noise draw, in grid order.  Trials that raise are excluded from the
    tallies and counted (a warning summarizes them).
    Deterministic for a fixed config and seed, for any worker count.
    """
    ctx = build_context(cfg)
    if cfg.run.self_check:
        self_check_linear_chain(ctx)

    trials = range(cfg.run.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            attempts = list(pool.map(_attempt_trial, [ctx] * len(trials), trials))
    else:
        attempts = [_attempt_trial(ctx, t) for t in trials]
    good = []
    for t, (tally, exc) in zip(trials, attempts):
        if exc is None:
            good.append(tally)
        else:
            warnings.warn(f"trial {t} failed and was excluded: {exc}")
    failures = len(trials) - len(good)
    if failures:
        warnings.warn(f"{failures} of {cfg.run.trials} trials failed")
    if not good:
        raise RuntimeError("all trials failed")

    # every noise point of every block carries the same bits
    bits_per_block = 2 * ctx.const.bits_per_axis * cfg.system.k * cfg.system.m_s
    bits = len(good) * cfg.run.blocks_per_trial * bits_per_block
    records = []
    for si, sv2 in enumerate(cfg.sigma_v2):
        errors = int(sum(t.errors[si] for t in good))
        beta_count = sum(t.beta_count for t in good)
        solves = int(sum(t.solves[si] for t in good))
        records.append(MetricRecord(
            scheme=ctx.chain.scheme,
            precoder=cfg.precoder.name,
            sigma_v2=sv2,
            snr_db=math.inf if sv2 == 0 else -10.0 * math.log10(sv2),
            ber=errors / bits if bits else math.nan,
            bits=bits,
            errors=errors,
            mean_beta=sum(t.beta_sum for t in good) / beta_count if beta_count else math.nan,
            overloads=int(sum(t.overloads for t in good)),
            solver_converged_frac=(int(sum(t.solver_converged[si] for t in good)) / solves
                                   if solves else math.nan),
            solver_mean_admm_iters=(float(sum(t.solver_admm_iters[si] for t in good)) / solves
                                    if solves else math.nan),
            failed_trials=failures,
        ))
    return records


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
    cloud from the intended constellation points.
    """
    ctx = build_context(cfg)
    p = cfg.run.scatter_subcarrier
    if not (0 <= p < cfg.system.m_s):
        raise ConfigError(f"scatter subcarrier {p} out of range [0, {cfg.system.m_s})")
    rng = substream(cfg.run.seed, 0)
    chan = _draw_trial_channel(ctx, rng)

    n_blocks = cfg.run.blocks_per_trial
    points = np.empty((cfg.system.k, n_blocks), dtype=complex)
    intended = np.empty((cfg.system.k, n_blocks), dtype=complex)
    for blk in range(n_blocks):
        symbols = ctx.const.random_symbols(rng, (cfg.system.k, cfg.system.m_s))
        design = _precode(ctx, chan, symbols, cfg.sigma_v2[0])
        u, _ = _transmit(ctx, design.x)
        r = receiver_dft(ctx.ofdm, propagate(chan, u))
        points[:, blk] = r[:, p] / (ctx.ofdm.m * design.beta)
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
