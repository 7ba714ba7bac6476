"""Spatial sigma-delta shaping of PA distortion in a multi-user
MIMO-OFDM downlink: PA models, antenna-domain modulators, the OFDM and
multipath channel chain, ZF and symbol-level precoders, and a seeded
Monte Carlo experiment harness."""

from .channel import (
    ChannelRealization,
    RrcFilter,
    UlaGeometry,
    channel_from_paths,
    distortion_noise_power,
    draw_channel,
    propagate,
    steering_vector,
)
from .config import ExperimentConfig, load_config
from .errors import ConfigError, NoCompressionPoint, RankDeficient, ShapeMismatch
from .harness import run_ber, run_scatter, run_shaping_spectrum
from .ofdm import OfdmParams, TimeGrid, idft_modulate, receiver_dft
from .pa import PaModel, ShapingBudget, apply_pa, compute_psi, compute_r1db
from .precoding import (
    PrecodeResult,
    project_amplitude,
    slp_objective,
    slp_precode,
    zf_precode,
)
from .qam import QamConstellation, detect
from .sigma_delta import ModulatorConfig, modulate, shaped_distortion_power

__version__ = "0.1.0"
