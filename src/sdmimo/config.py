"""Experiment configuration: JSON schema, parsing, and validation.

One JSON document describes one experiment, with sections

    {"system": {...}, "pa": {...}, "scheme": "...", "precoder": {...},
     "noise": {...}, "run": {...}}

Unknown keys are rejected so that typos fail loudly, and every value
must have the JSON type of its field's default: an integer field takes
no bool or float, a float field any finite number but a bool (``rho``
also null), a list field a list of numbers.  All parse errors raise
:class:`ConfigError` naming the offending section and key.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple

from .errors import ConfigError
from .ofdm import OfdmParams
from .pa import PaModel
from .precoding import SlpSettings
from .sigma_delta import SCHEMES

__all__ = [
    "ChainSpec",
    "SystemConfig",
    "PrecoderConfig",
    "RunConfig",
    "ExperimentConfig",
    "load_config",
    "config_to_dict",
]


@dataclass(frozen=True)
class ChainSpec:
    """A transmit-chain recipe; the recipes are explained in sdmimo.harness."""

    family: str        # "zf" | "slp"
    budget_kind: str   # "headroom" | "backoff" | "total-power"
    scheme: str        # a key of sigma_delta.SCHEMES, or "none"
    pa_mode: str       # used when scheme == "none": "all" | "except_last" | "ideal"


# precoder selector -> its chain, with the default scheme
CHAINS = {
    "zf-sd": ChainSpec("zf", "headroom", "sd1", "all"),
    "zf-tsd": ChainSpec("zf", "headroom", "tsd1", "all"),
    "zf-bo": ChainSpec("zf", "backoff", "none", "except_last"),
    "zf-tp": ChainSpec("zf", "total-power", "none", "except_last"),
    "zf-ref": ChainSpec("zf", "headroom", "none", "ideal"),
    "slp-sd": ChainSpec("slp", "headroom", "sd1", "all"),
    "slp-tsd": ChainSpec("slp", "headroom", "tsd1", "all"),
    "slp-bo": ChainSpec("slp", "backoff", "none", "except_last"),
    "slp-ref": ChainSpec("slp", "headroom", "none", "ideal"),
}
PRECODER_NAMES = tuple(CHAINS)
SCHEME_NAMES = ("auto", *SCHEMES, "none")

DEFAULT_PA = PaModel.modified_rapp(gain=16.0, r_max=0.1187, phi=1.1, zeta=4.0,
                                   b=-345.0, c=0.17)
# key of the JSON "pa" section (besides "kind") -> PaModel field
_PA_KEYS = {"A": "gain", "r_max": "r_max", "phi": "phi", "zeta": "zeta", "B": "b", "C": "c"}


@dataclass(frozen=True)
class SystemConfig:
    n: int = 16
    k: int = 4
    d_over_lambda: float = 0.125
    m: int = 512
    m_s: int = 300
    m_cp: int = 40
    osf: int = 7
    j_paths: int = 4
    l_taps: int = 20
    angle_spread_deg: float = 35.0
    delay_min_ts: float = 5.0
    delay_max_ts: float = 15.0
    rrc_rolloff: float = 0.22
    rrc_span_ts: float = 5.0
    qam_d: int = 2

    @property
    def ofdm(self) -> OfdmParams:
        return OfdmParams(m=self.m, m_s=self.m_s, m_cp=self.m_cp, osf=self.osf)


@dataclass(frozen=True)
class PrecoderConfig(SlpSettings):
    """The precoder selector and the symbol-level solver's settings."""

    name: str = "zf-tsd"


@dataclass(frozen=True)
class RunConfig:
    trials: int = 100
    blocks_per_trial: int = 10
    seed: int = 12345
    self_check: bool = True
    scatter_subcarrier: int = 0
    spectrum_angles_deg: Tuple[float, ...] = (0.0, 5.0, 10.0, 20.0, 30.0)
    spectrum_frames: int = 200
    spectrum_samples: int = 512


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    pa: PaModel = DEFAULT_PA
    chi: Optional[float] = None            # PA input disk radius; default r_max
    scheme: str = "auto"
    precoder: PrecoderConfig = field(default_factory=PrecoderConfig)
    sigma_v2: Tuple[float, ...] = (1e-4,)
    run: RunConfig = field(default_factory=RunConfig)

    @property
    def chi_value(self) -> float:
        return self.pa.r_max if self.chi is None else self.chi


def _is_number(value, finite: bool = True) -> bool:
    """A JSON number (not a bool); with `finite`, one of finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return not finite or math.isfinite(value)
    except OverflowError:       # an int beyond the float range
        return False


def _is_number_list(value, finite: bool = True) -> bool:
    return isinstance(value, (list, tuple)) and all(_is_number(v, finite) for v in value)


# JSON type of a field, by the type of its default (None: the optional rho)
_TYPE_NAMES = {bool: "true or false", str: "a string", int: "an integer", float: "a finite number",
               tuple: "a list of finite numbers", type(None): "a finite number or null"}


def _has_type_of(default, value) -> bool:
    """Whether `value` has the JSON type of a field whose default is `default`."""
    if isinstance(default, (bool, str)):
        return type(value) is type(default)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, tuple):
        return _is_number_list(value)
    return _is_number(value) or (default is None and value is None)


def _section(doc: dict, name: str, default=None) -> dict:
    block = doc.get(name, {} if default is None else default)
    if not isinstance(block, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    return block


def _take(doc: dict, section_name: str, defaults) -> dict:
    """A config section checked against a dataclass's fields: known keys
    only, each value of its default's JSON type."""
    section = _section(doc, section_name)
    fields = defaults.__dataclass_fields__
    bad = set(section) - set(fields)
    if bad:
        raise ConfigError(f"unknown key(s) in section '{section_name}': {sorted(bad)}")
    for key, value in section.items():
        default = fields[key].default
        if not _has_type_of(default, value):
            raise ConfigError(f"{section_name}.{key} must be {_TYPE_NAMES[type(default)]}, "
                              f"got {value!r}")
    return section


def _pa_from_dict(block: dict) -> PaModel:
    """A PA section over :data:`DEFAULT_PA`: keys left out keep its values."""
    bad = set(block) - {"kind", *_PA_KEYS}
    if bad:
        raise ConfigError(f"unknown key(s) in section 'pa': {sorted(bad)}")
    for key in set(block) & set(_PA_KEYS):
        if not _is_number(block[key]):
            raise ConfigError(f"pa.{key} must be a finite number, got {block[key]!r}")
    try:
        return replace(DEFAULT_PA, kind=block.get("kind", DEFAULT_PA.kind),
                       **{name: float(block[key]) for key, name in _PA_KEYS.items()
                          if key in block})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'pa' section: {exc}") from exc


def _noise_from_dict(block: dict) -> Tuple[float, ...]:
    if "sigma_v2" in block and "inv_sigma_v2_db" in block:
        raise ConfigError("section 'noise': give either sigma_v2 or inv_sigma_v2_db, not both")
    if not ("sigma_v2" in block or "inv_sigma_v2_db" in block):
        raise ConfigError("section 'noise' needs sigma_v2 or inv_sigma_v2_db")
    key = "sigma_v2" if "sigma_v2" in block else "inv_sigma_v2_db"
    if not _is_number_list(block[key], finite=False):
        raise ConfigError(f"noise.{key} must be a list of numbers")
    try:
        values = [float(v) if key == "sigma_v2" else 10.0 ** (-float(v) / 10.0)
                  for v in block[key]]
    except OverflowError as exc:
        raise ConfigError(f"invalid 'noise' section: {exc}") from exc
    bad = set(block) - {"sigma_v2", "inv_sigma_v2_db"}
    if bad:
        raise ConfigError(f"unknown key(s) in section 'noise': {sorted(bad)}")
    if not values:
        raise ConfigError("section 'noise' needs at least one noise point")
    # sigma_v2 = 0 (inv_sigma_v2_db = inf) is the noise-free point
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise ConfigError("noise variances must be finite and nonnegative")
    return tuple(values)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed JSON document."""
    known = {"system", "pa", "chi", "scheme", "precoder", "noise", "run"}
    bad = set(doc) - known
    if bad:
        raise ConfigError(f"unknown top-level key(s): {sorted(bad)}")
    system = SystemConfig(**_take(doc, "system", SystemConfig))
    try:
        precoder = PrecoderConfig(**_take(doc, "precoder", PrecoderConfig))
    except ValueError as exc:
        raise ConfigError(f"precoder: {exc}") from exc
    run_sec = dict(_take(doc, "run", RunConfig))
    if "spectrum_angles_deg" in run_sec:
        run_sec["spectrum_angles_deg"] = tuple(run_sec["spectrum_angles_deg"])
    run = RunConfig(**run_sec)
    pa = _pa_from_dict(_section(doc, "pa"))
    scheme = doc.get("scheme", "auto")
    if scheme not in SCHEME_NAMES:
        raise ConfigError(f"'scheme' must be one of {SCHEME_NAMES}, got {scheme!r}")
    if precoder.name not in PRECODER_NAMES:
        raise ConfigError(f"precoder.name must be one of {PRECODER_NAMES}, got {precoder.name!r}")
    noise = _noise_from_dict(_section(doc, "noise", {"sigma_v2": [1e-4]}))
    chi = doc.get("chi")
    if not (chi is None or _is_number(chi)):
        raise ConfigError(f"chi must be a finite number or null, got {chi!r}")
    cfg = ExperimentConfig(
        system=system, pa=pa, chi=None if chi is None else float(chi),
        scheme=scheme, precoder=precoder, sigma_v2=noise, run=run,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    sys_ = cfg.system
    if sys_.k > sys_.n:
        raise ConfigError("system: need k <= n for zero-forcing feasibility")
    if sys_.k < 1 or sys_.n < 1:
        raise ConfigError("system: n and k must be positive")
    if not (0 < sys_.d_over_lambda <= 0.5):
        raise ConfigError("system: d_over_lambda must lie in (0, 1/2]")
    if sys_.qam_d < 1 or sys_.qam_d & (sys_.qam_d - 1):
        # the Gray bit tally needs a whole number of bits per axis, log2(2 qam_d)
        raise ConfigError("system: qam_d must be a power of two (1, 2, 4, ...)")
    if not (0 <= sys_.rrc_rolloff <= 1):
        raise ConfigError("system: rrc_rolloff must lie in [0, 1]")
    if not (0 <= sys_.angle_spread_deg <= 90):
        raise ConfigError("system: angle_spread_deg must lie in [0, 90]")
    if sys_.angle_spread_deg == 0 and sys_.k >= 2:
        # every path then leaves at broadside: each subcarrier's channel has rank 1
        raise ConfigError("system: angle_spread_deg 0 gives rank-one channels, so k must be 1")
    if sys_.j_paths < 1 or sys_.l_taps < 1:
        raise ConfigError("system: j_paths and l_taps must be >= 1")
    if sys_.delay_max_ts < sys_.delay_min_ts or sys_.delay_min_ts < 0:
        raise ConfigError("system: delay range must satisfy 0 <= min <= max")
    if sys_.delay_max_ts + sys_.rrc_span_ts > sys_.m_cp:
        raise ConfigError("system: m_cp must cover delay_max_ts + rrc_span_ts")
    try:
        sys_.ofdm
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc
    # the receive filter is sampled round(rrc_span_ts * osf) quadrature steps
    # each side: none when the product is at most 1/2
    if sys_.rrc_span_ts * sys_.osf <= 0.5:
        raise ConfigError("system: rrc_span_ts must round to at least one step of 1/osf")
    if cfg.run.trials < 1 or cfg.run.blocks_per_trial < 1:
        raise ConfigError("run: trials and blocks_per_trial must be >= 1")
    if cfg.run.spectrum_frames < 1 or cfg.run.spectrum_samples < 1:
        raise ConfigError("run: spectrum_frames and spectrum_samples must be >= 1")
    if not cfg.run.spectrum_angles_deg:
        raise ConfigError("run: spectrum_angles_deg must name at least one angle")
    if cfg.run.seed < 0:
        raise ConfigError("run: seed must be >= 0")
    if not (math.isfinite(cfg.chi_value) and cfg.chi_value > 0):
        raise ConfigError("chi must be finite and positive")


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return config_from_dict(doc)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Round-trippable plain-dict snapshot of a configuration (for manifests)."""
    return {
        "system": asdict(cfg.system),
        "pa": {"kind": cfg.pa.kind,
               **{key: getattr(cfg.pa, name) for key, name in _PA_KEYS.items()}},
        "chi": cfg.chi,
        "scheme": cfg.scheme,
        "precoder": asdict(cfg.precoder),
        "noise": {"sigma_v2": list(cfg.sigma_v2)},
        "run": {**asdict(cfg.run),
                "spectrum_angles_deg": list(cfg.run.spectrum_angles_deg)},
    }
