"""Test entry points to the symbol-level objective, the decision margins
and the amplitude projection.

The package evaluates these only inside a solve: ``slp_precode`` builds
one ``_SlpObjective`` per solve and projects its blocks in place.  The
tests check them one point at a time through these wrappers.
"""

import numpy as np

from sdmimo.precoding import _level_offsets, _margins, _project_in_place, _SlpObjective


def margins(s_axis, v_axis, beta, sigma_eta, d):
    """Margin-normalized offsets of the upper and lower decision thresholds
    of levels `s_axis` from received components `v_axis`, stacked on a new
    leading axis: ``t[0] = ta``, ``t[1] = tc`` with
    ``sqrt(2) (beta (s +- 1) - v) / sigma_eta``, and +inf above the top
    level and -inf below the bottom one.  The arguments broadcast
    against each other (`beta` and `sigma_eta` are typically per-user
    columns).  :func:`sdmimo.precoding.dp_components` takes the result."""
    v = np.asarray(v_axis, dtype=float)
    s = np.broadcast_to(np.asarray(s_axis, dtype=float),
                        np.broadcast_shapes(np.shape(s_axis), v.shape, np.shape(beta),
                                            np.shape(sigma_eta)))
    return _margins(*_level_offsets(s, d), v, beta, sigma_eta)


def project_amplitude(x, bound):
    """Entrywise projection onto the max-amplitude ball, on a copy of `x`."""
    return _project_in_place(np.array(x, dtype=complex), bound)


def slp_objective(beta, z, chan, symbols, sigma_eta, d):
    """Negative sum of log detection probabilities over users, subcarriers,
    and I/Q components of the 4 d^2-point constellation; capped at a large
    finite value when any DP underflows so that line searches stay finite."""
    f, _ = _SlpObjective(chan, symbols, sigma_eta, d).value(
        np.asarray(beta, dtype=float), np.asarray(z, dtype=complex))
    return f


def slp_objective_and_grad(beta, z, chan, symbols, sigma_eta, d):
    """Objective F(beta, Z) with gradients, ``(F, grad_beta, grad_Z)``.

    The gradient w.r.t. Z follows the convention
    ``F(Z + dZ) ~= F(Z) + Re tr(G^H dZ)``, i.e. real and imaginary parts
    of G are the partial derivatives w.r.t. the real and imaginary parts
    of Z.  F is the value :func:`slp_objective` gives at the same point.
    """
    obj = _SlpObjective(chan, symbols, sigma_eta, d)
    f, point = obj.value(np.asarray(beta, dtype=float), np.asarray(z, dtype=complex))
    grad_beta, grad_z = obj.grad(point)
    return f, grad_beta, grad_z
