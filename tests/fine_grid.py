"""Independent reference for :func:`sdmimo.channel.propagate`, and the
zero-order hold it is built on.

Propagates a symbol-rate frame the long way: hold every sample for
``osf`` grid points, form each user's waveform as the delayed, steered
superposition of the antenna signals on that grid, apply the receive
filter by convolution weighted with the grid step, and sample at the
symbol rate.  It shares no tap table with the package, so comparing the
two checks the FIR taps rather than the chain against itself.
"""

import numpy as np
from scipy.signal import fftconvolve

from sdmimo.channel import ChannelRealization, steering_vector
from sdmimo.errors import ShapeMismatch
from sdmimo.ofdm import OfdmParams


def sample_hold(params: OfdmParams, x_cp) -> np.ndarray:
    """Zero-order hold of CP-extended samples onto the quadrature grid.

    Each of the ``m_cp + m`` samples is replicated `osf` times, covering
    t in [-T_cp, T) with grid step 1/osf.
    """
    x_cp = np.asarray(x_cp, dtype=complex)
    if x_cp.ndim != 2 or x_cp.shape[1] != params.m_cp + params.m:
        raise ShapeMismatch(
            f"expected (N, {params.m_cp + params.m}) CP-extended block, got {x_cp.shape}"
        )
    return np.repeat(x_cp, params.osf, axis=1)


def fine_grid_propagate(chan: ChannelRealization, u: np.ndarray) -> np.ndarray:
    """Noise-free received (K, m_cp + m) samples for the (N, m_cp + m) frame `u`."""
    ofdm = chan.ofdm
    osf = ofdm.osf
    u_fine = sample_hold(ofdm, u)
    n_fine = u_fine.shape[1]
    omega, center = chan.rx_filter.sample(osf)
    max_shift = int(chan.tau_fine.max(initial=0))

    y_pre = np.zeros((chan.n_users, n_fine + max_shift), dtype=complex)
    for i in range(chan.n_users):
        for j in range(chan.alpha.shape[1]):
            steered = chan.alpha[i, j] * (steering_vector(chan.geom, chan.theta[i, j]) @ u_fine)
            s = int(chan.tau_fine[i, j])
            y_pre[i, s:s + n_fine] += steered

    conv = fftconvolve(y_pre, omega[None, :], axes=1) / osf
    # sample m (m = -m_cp .. m-1) sits at conv index center + (m + m_cp)*osf
    return conv[:, center:center + n_fine:osf].copy()
