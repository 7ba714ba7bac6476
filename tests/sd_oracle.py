"""Independent reference for the spatial sigma-delta loops in :mod:`sdmimo`.

One loop body per order, written out term by term, with one PA callable
per antenna (ideal PAs on the tail antennas of the tail-removing
variants), and the finiteness check of `apply_pa` on every antenna row.
The package runs one error-feedback recurrence over the feedback
coefficients instead; comparing the two checks that rewrite bit for bit.
"""

import numpy as np

from sdmimo.pa import PaModel, apply_pa


def _responses(cfg, n_antennas: int) -> list:
    pa_fn = lambda z: apply_pa(cfg.pa, z)  # noqa: E731
    n_tail = 0
    if cfg.tail_removing:
        n_tail = 1 if cfg.order == 1 else 2
    if n_tail == 0 or cfg.pa.kind == "ideal":
        return [pa_fn] * n_antennas
    linear = PaModel.ideal(cfg.pa.gain, cfg.pa.r_max)
    lin_fn = lambda z: apply_pa(linear, z)  # noqa: E731
    return [pa_fn] * (n_antennas - n_tail) + [lin_fn] * n_tail


def _run_first_order(responses, gain, x):
    """b_n = x_n - q_{n-1}, u_n = G_n(b_n), q_n = u_n/A - b_n."""
    u = np.empty_like(x)
    q = np.empty_like(x)
    b = np.empty_like(x)
    q_prev = np.zeros(x.shape[1], dtype=complex)
    for n in range(x.shape[0]):
        b[n] = x[n] - q_prev
        u[n] = responses[n](b[n])
        q[n] = u[n] / gain - b[n]
        q_prev = q[n]
    return u, q, b


def _run_second_order(responses, gain, x):
    """b_n = x_n - 2 q_{n-1} + q_{n-2}."""
    u = np.empty_like(x)
    q = np.empty_like(x)
    b = np.empty_like(x)
    q_prev = np.zeros(x.shape[1], dtype=complex)
    q_prev2 = np.zeros(x.shape[1], dtype=complex)
    for n in range(x.shape[0]):
        b[n] = x[n] - 2.0 * q_prev + q_prev2
        u[n] = responses[n](b[n])
        q[n] = u[n] / gain - b[n]
        q_prev2 = q_prev
        q_prev = q[n]
    return u, q, b


def modulate_oracle(cfg, x):
    """(u, q, b) of the loop `cfg` describes, over the (N, T) frame `x`."""
    x = np.asarray(x, dtype=complex)
    run = _run_first_order if cfg.order == 1 else _run_second_order
    return run(_responses(cfg, x.shape[0]), cfg.pa.gain, x)
