"""Independent reference for the symbol-level objective
:func:`sdmimo.precoding.slp_objective_and_grad`.

Forms the received values with one `einsum` over the channel, stacks the
I and Q components into ``(2, K, m_s)`` arrays for one `dp_components`
call with densities, and sums each component on its own.  The package
keeps the constants of one problem in a user-major ``(K, 2 m_s)`` layout
with the two margins stacked, keeps each point's margins for its
gradient, evaluates the densities only where a gradient is asked for,
and forms the adjoint product as a batched `matmul`; comparing the two
checks that layout and that split to within rounding.
"""

import math

import numpy as np

from sdmimo.qam import dp_components, margins

_OBJECTIVE_CAP = 1e12
_DP_FLOOR = 1e-300


def slp_objective_and_grad_oracle(beta, z, chan, symbols, sigma_eta, d):
    """``(F, grad_beta, grad_Z)`` by stacked per-component evaluation."""
    symbols = np.asarray(symbols, dtype=complex)
    beta = np.asarray(beta, dtype=float)
    sigma_eta = np.asarray(sigma_eta, dtype=float)
    v = np.einsum("pkn,np->kp", chan.freq, np.asarray(z, dtype=complex))
    s_iq = np.stack((symbols.real, symbols.imag))
    sig_col = sigma_eta[:, None]

    dp, phi_hi, phi_lo = dp_components(
        margins(s_iq, np.stack((v.real, v.imag)), beta[:, None], sig_col, d))
    dp_safe = np.maximum(dp, _DP_FLOOR)
    logdp = np.log(dp_safe)
    f_total = min(0.0 - float(logdp[0].sum()) - float(logdp[1].sum()), _OBJECTIVE_CAP)

    scale = math.sqrt(2.0) / (sig_col * dp_safe)
    g_v = scale * (phi_hi - phi_lo)
    g_beta = (scale * (phi_hi * (1.0 + s_iq) - phi_lo * (s_iq - 1.0))).sum(axis=2)
    grad_beta = 0.0 - g_beta[0] - g_beta[1]
    coef = 0.0 + g_v[0] + 1j * g_v[1]
    grad_z = np.einsum("pkn,kp->np", chan.freq.conj(), coef)
    return f_total, grad_beta, grad_z
