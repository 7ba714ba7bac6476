"""Receive-filter references for the tests: an identity filter for chain
checks, and the worst-case analytic bound on the received distortion
amplitude, ``psi_hat = A psi * integral |Omega|``."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class DiracFilter:
    """Identity receive filter (discrete delta), handy for chain tests."""

    span: float = 0.0

    def sample(self, osf: int) -> Tuple[np.ndarray, int]:
        return np.array([float(osf)]), 0   # weight 1/dt so conv * dt == identity


def receive_filter_abs_integral(rx_filter, osf: int) -> float:
    """Quadrature of the receive filter's absolute integral."""
    omega, _ = rx_filter.sample(osf)
    return float(np.sum(np.abs(omega)) / osf)


def psi_hat_bound(pa_gain: float, psi: float, rx_filter, osf: int) -> float:
    """Receive-side distortion amplitude bound, A * psi * integral |Omega|."""
    return pa_gain * psi * receive_filter_abs_integral(rx_filter, osf)
