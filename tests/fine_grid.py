"""Independent reference for :func:`sdmimo.channel.propagate`.

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


def fine_grid_propagate(chan: ChannelRealization, u: np.ndarray) -> np.ndarray:
    """Noise-free received (K, m_cp + m) samples for the (N, m_cp + m) frame `u`."""
    ofdm = chan.ofdm
    osf = ofdm.osf
    u_fine = np.repeat(np.asarray(u, dtype=complex), osf, axis=1)
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
