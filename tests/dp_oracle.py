"""Independent reference for :func:`sdmimo.qam.dp_components`.

Evaluates each level class on its own branch: the interior levels by
the difference of two normal CDFs (in the survival form when both
arguments are high), the top level by the upper tail above its lower
threshold, and the bottom level by the lower tail below its upper
threshold, each with its own `ndtr` calls.  The densities are zeroed
explicitly where a branch has no finite threshold.  The package kernel
folds the edge levels into the interior formula with infinite
thresholds; comparing the two checks that folding bit for bit.
"""

import numpy as np
from scipy.special import ndtr


def _phi_pdf(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


def dp_components_oracle(s_axis, v_axis, beta, sigma_eta, d):
    """``(dp, phi_hi, phi_lo)`` by per-branch evaluation."""
    s = np.asarray(s_axis, dtype=float)
    v = np.asarray(v_axis, dtype=float)
    rt2 = np.sqrt(2.0)
    a = beta * (1.0 + s) - v
    c = beta * (s - 1.0) - v
    ta = rt2 * a / sigma_eta
    tc = rt2 * c / sigma_eta
    top = s >= 2 * d - 1
    bottom = s <= -(2 * d - 1)
    interior = ~(top | bottom)

    diff = np.where(ta + tc > 0, ndtr(-tc) - ndtr(-ta), ndtr(ta) - ndtr(tc))
    dp = np.where(interior, diff, np.where(top, ndtr(-tc), ndtr(ta)))

    phi_hi = np.where(top, 0.0, _phi_pdf(ta))
    phi_lo = np.where(bottom, 0.0, _phi_pdf(tc))
    return dp, phi_hi, phi_lo
