"""Exception types shared across the package."""


class ShapeMismatch(ValueError):
    """An array argument has dimensions incompatible with the operation."""


class NoCompressionPoint(RuntimeError):
    """The 1 dB compression relation has no root for this PA model."""


class RankDeficient(RuntimeError):
    """A per-subcarrier channel matrix is (numerically) row-rank deficient."""


class ConfigError(ValueError):
    """An experiment configuration file is missing or inconsistent."""
