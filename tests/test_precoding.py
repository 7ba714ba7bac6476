import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdmimo.channel import (
    GramFactor,
    RrcFilter,
    UlaGeometry,
    channel_from_paths,
    draw_channel,
)
from sdmimo.errors import RankDeficient
from sdmimo.ofdm import OfdmParams, idft_modulate
from sdmimo.precoding import (
    SlpSettings,
    project_amplitude,
    slp_objective,
    slp_objective_and_grad,
    slp_precode,
    zf_precode,
)
from sdmimo import harness, precoding
from sdmimo.config import config_from_dict
from sdmimo.qam import QamConstellation, margins
from rx_filters import DiracFilter
from slp_oracle import slp_objective_and_grad_oracle
from zf_oracle import svd_min_norm_solve, svd_rank_deficient


def _random_channel(rng, n, k, m, m_s, l_taps=20):
    geom = UlaGeometry(n=n, d_over_lambda=0.125)
    ofdm = OfdmParams(m=m, m_s=m_s, m_cp=40, osf=7)
    return draw_channel(rng, geom, ofdm, k, 4, l_taps, rx_filter=RrcFilter(),
                        pa_gain=16.0)


def test_zf_scalar_flat_channel():
    # single user, single antenna, one-tap unit channel: z_p = s_p / Gamma
    geom = UlaGeometry(n=1, d_over_lambda=0.125)
    ofdm = OfdmParams(m=16, m_s=10, m_cp=8, osf=7)
    chan = channel_from_paths(geom, ofdm, [[1.0]], [[0.0]], [[0.0]], 2,
                              DiracFilter(), pa_gain=1.0)
    rng = np.random.default_rng(0)
    s = QamConstellation(2).random_symbols(rng, (1, 10))
    res = zf_precode(chan, s, budget=0.5)
    received = np.einsum("pkn,np->kp", chan.freq, res.z)
    assert np.allclose(received, res.beta[0] * s, atol=1e-12)


def test_zf_pseudo_inverse_identity():
    rng = np.random.default_rng(1)
    chan = _random_channel(rng, 8, 2, 16, 10)
    s = QamConstellation(2).random_symbols(rng, (2, 10))
    res = zf_precode(chan, s, budget=0.08)
    received = np.einsum("pkn,np->kp", chan.freq, res.z) / res.beta[0]
    assert np.max(np.abs(received - s)) <= 1e-10


def test_zf_budget_exactly_tight():
    rng = np.random.default_rng(2)
    for trial in range(20):
        chan = _random_channel(rng, 8, 3, 16, 10)
        s = QamConstellation(2).random_symbols(rng, (3, 10))
        budget = float(rng.uniform(0.01, 1.0))
        res = zf_precode(chan, s, budget=budget)
        peak = float(np.abs(res.x.x).max())
        assert abs(peak - budget) <= np.spacing(budget)


def test_zf_time_freq_consistency():
    rng = np.random.default_rng(3)
    chan = _random_channel(rng, 8, 2, 16, 10)
    s = QamConstellation(2).random_symbols(rng, (2, 10))
    res = zf_precode(chan, s, budget=0.08)
    x_again = idft_modulate(chan.ofdm, res.z).x
    assert np.max(np.abs(x_again - res.x.x)) <= 1e-12 * np.abs(res.x.x).max()


def test_zf_total_power_variant():
    rng = np.random.default_rng(4)
    chan = _random_channel(rng, 8, 2, 16, 10)
    s = QamConstellation(2).random_symbols(rng, (2, 10))
    r_max = 0.1187
    res = zf_precode(chan, s, budget=r_max, variant="total-power")
    n, m = res.x.x.shape
    assert np.linalg.norm(res.x.x) ** 2 == pytest.approx(n * m * r_max**2, rel=1e-12)


def test_zf_rank_deficient_raises():
    # two users sharing the same path geometry produce dependent rows
    geom = UlaGeometry(n=4, d_over_lambda=0.125)
    ofdm = OfdmParams(m=16, m_s=10, m_cp=40, osf=7)
    chan = channel_from_paths(geom, ofdm, [[1.0], [1.0]], [[0.2], [0.2]],
                              [[5.0], [5.0]], 20, RrcFilter(), 16.0)
    s = QamConstellation(2).random_symbols(np.random.default_rng(5), (2, 10))
    with pytest.raises(RankDeficient):
        zf_precode(chan, s, budget=0.08)


def _stack_with_singular_values(rng, m_s, n, sv):
    """(m_s, K, N) stack H_p = U_p diag(sv) V_p^H with random unitary U_p and
    orthonormal V_p, so every subcarrier has the singular values `sv`."""
    k = len(sv)
    u, _ = np.linalg.qr(rng.standard_normal((m_s, k, k)) + 1j * rng.standard_normal((m_s, k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((m_s, n, k)) + 1j * rng.standard_normal((m_s, n, k)))
    return (u * np.asarray(sv)) @ v.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("k,n", [(1, 1), (4, 16), (10, 64)])
@pytest.mark.parametrize("cond", [1e1, 1e3, 1e4, 9e4])
def test_gram_solve_matches_svd_oracle(k, n, cond):
    # prescribed condition numbers up to 9e4 (sigma ratio^2 = 1.2e-10, just
    # inside the rank test): the corrected semi-normal solution must be as
    # exact as the SVD solve and equal its minimum-norm solution
    rng = np.random.default_rng(int(cond) + 100 * k)
    m_s = 300
    h = 16.0 * _stack_with_singular_values(rng, m_s, n, np.logspace(0.0, -np.log10(cond), k))
    s = rng.standard_normal((m_s, k)) + 1j * rng.standard_normal((m_s, k))
    w = GramFactor.of(h).solve(s)
    w_ref = svd_min_norm_solve(h, s)

    def residual(x):
        return float(np.max(np.abs((h @ x[:, :, None])[..., 0] - s)))

    assert residual(w) <= 2.0 * residual(w_ref) + 1e-13
    rel = np.linalg.norm(w - w_ref, axis=1) / np.linalg.norm(w_ref, axis=1)
    assert float(rel.max()) <= 1e-9


@pytest.mark.parametrize("ratio,singular", [(1e-11, True), (1e-9, False)])
def test_gram_rank_test_agrees_with_svd(ratio, singular):
    # sigma_min^2 / sigma_max^2 on one subcarrier on either side of the 1e-10
    # threshold; the other subcarriers are well conditioned
    rng = np.random.default_rng(7)
    h = np.concatenate([
        _stack_with_singular_values(rng, 39, 16, [1.0, 0.8, 0.5, 0.3]),
        _stack_with_singular_values(rng, 1, 16, [1.0, 0.5, 0.1, np.sqrt(ratio)]),
    ])
    assert svd_rank_deficient(h) is singular
    if singular:
        with pytest.raises(RankDeficient):
            GramFactor.of(h)
    else:
        GramFactor.of(h)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 10), extra=st.integers(0, 6),
       log_ratio=st.floats(-12.0, -8.0), seed=st.integers(0, 2**32 - 1))
def test_gram_rank_certificate_agrees_with_svd(k, extra, log_ratio, seed):
    # sigma_min^2 / sigma_max^2 = 10**log_ratio on one subcarrier (1 for
    # K = 1, where only the scale is tiny); ratios within 0.1% of the 1e-10
    # threshold are left out, since there a rounding-level change of the
    # computed eigenvalues may flip the decision of either test.  Ratios in
    # [5e-11, 2e-10] lie in every K's fallback band, so eigvalsh decides them;
    # the rest are decided by the norm certificate alone.
    assume(abs(log_ratio + 10.0) > 4.3e-4)
    rng = np.random.default_rng(seed)
    ratio = 10.0 ** log_ratio
    sv = (np.sqrt([ratio]) if k == 1 else
          np.concatenate([np.logspace(0.0, -1.0, k - 1), np.sqrt([ratio])]))
    h = np.concatenate([
        _stack_with_singular_values(rng, 5, k + extra, np.linspace(1.0, 0.5, k)),
        _stack_with_singular_values(rng, 1, k + extra, sv),
    ])
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        try:
            GramFactor.of(h)
            raised = False
        except RankDeficient:
            raised = True
    assert raised is svd_rank_deficient(h)
    if k > 1 and 5e-11 <= ratio <= 2e-10:
        assert spy.call_count == 1
        assert spy.call_args.args[0].shape == (1, k, k)
    elif not 5e-11 / k <= ratio <= 2e-10 * k:
        assert spy.call_count == 0


def test_gram_rank_certificate_skips_eigvalsh_on_drawn_channels():
    rng = np.random.default_rng(9)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        for _ in range(5):
            _random_channel(rng, 16, 4, 64, 40).gram
    assert spy.call_count == 0


@pytest.mark.parametrize("dependent", ["zero_row", "duplicate_row"])
def test_exactly_singular_gram_raises_rank_deficient(dependent):
    rng = np.random.default_rng(10)
    h = _stack_with_singular_values(rng, 8, 6, [1.0, 0.7, 0.4])
    if dependent == "zero_row":
        h[3, 1] = 0.0
        # the batched inverse itself fails on this stack
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(h @ h.conj().transpose(0, 2, 1))
    else:
        h[3, 2] = h[3, 0]
    with pytest.raises(RankDeficient):
        GramFactor.of(h)


def test_zf_precode_matches_svd_oracle_on_drawn_channels():
    rng = np.random.default_rng(8)
    for _ in range(5):
        chan = _random_channel(rng, 16, 4, 64, 40)
        s = QamConstellation(2).random_symbols(rng, (4, 40))
        res = zf_precode(chan, s, budget=0.08)
        w_ref = svd_min_norm_solve(chan.freq, s.T).T
        assert np.max(np.abs(res.z / res.beta[0] - w_ref)) <= 1e-12 * np.abs(w_ref).max()


def test_project_amplitude_basics():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    inside = project_amplitude(0.1 * x / np.abs(x).max(), 0.1)
    assert np.array_equal(inside, 0.1 * x / np.abs(x).max())
    assert project_amplitude(np.array([[2.4 + 0j]]), 1.2)[0, 0] == pytest.approx(1.2)
    proj = project_amplitude(x, 0.7)
    assert np.abs(proj).max() <= 0.7 + 1e-15
    # idempotent and phase preserving
    assert np.allclose(project_amplitude(proj, 0.7), proj)
    mask = np.abs(x) > 1e-9
    assert np.allclose(np.angle(proj[mask]), np.angle(x[mask]))


def test_project_amplitude_is_euclidean_projection():
    # brute-force search over a dense feasible sample cannot beat it
    rng = np.random.default_rng(7)
    x = 2.0 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    bound = 0.9
    proj = project_amplitude(x, bound)
    dist = np.linalg.norm(proj - x)
    mags = np.linspace(0, bound, 40)
    phases = np.linspace(-np.pi, np.pi, 80, endpoint=False)
    grid = (mags[:, None] * np.exp(1j * phases[None, :])).ravel()
    for _ in range(200):
        cand = rng.choice(grid, size=(2, 2))
        assert np.linalg.norm(cand - x) >= dist - 1e-9


def _slp_setup(seed, n=8, k=2, m=16, m_s=10):
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng, n, k, m, m_s)
    const = QamConstellation(2)
    s = const.random_symbols(rng, (k, m_s))
    sigma_eta = rng.uniform(0.1, 0.5, size=k)
    return rng, chan, s, sigma_eta


def test_slp_objective_reference_value():
    # one user, one subcarrier, perfect shaping, sqrt(2) beta / sigma = 2
    geom = UlaGeometry(n=1, d_over_lambda=0.125)
    ofdm = OfdmParams(m=4, m_s=1, m_cp=2, osf=7)
    chan = channel_from_paths(geom, ofdm, [[1.0]], [[0.0]], [[0.0]], 1,
                              DiracFilter(), pa_gain=1.0)
    # single unit tap: received = z
    beta = np.array([1.0])
    sigma = np.array([np.sqrt(2.0) / 2.0])
    s = np.array([[1.0 + 1.0j]])
    z = np.array([[1.0 + 1.0j]])       # received exactly beta * s
    f = slp_objective(beta, z, chan, s, sigma, d=2)
    from scipy.special import ndtr
    expected = -2.0 * np.log(2 * ndtr(2.0) - 1.0)
    assert f == pytest.approx(expected, rel=1e-10)
    assert f == pytest.approx(0.0931, abs=2e-4)


def test_slp_objective_decreases_with_margin():
    # doubling (beta, Z) doubles every decision margin, so F must shrink
    _, chan, s, sigma = _slp_setup(8)
    zf = zf_precode(chan, s, budget=0.05)
    f1 = slp_objective(zf.beta, zf.z, chan, s, sigma, d=2)
    f2 = slp_objective(2 * zf.beta, 2 * zf.z, chan, s, sigma, d=2)
    assert 0.0 < f2 < f1


def test_slp_objective_convexity_on_segments():
    rng, chan, s, sigma = _slp_setup(9)
    for _ in range(10):
        b1 = rng.uniform(0.0, 0.3, 2)
        b2 = rng.uniform(0.0, 0.3, 2)
        z1 = 0.01 * (rng.standard_normal((8, 10)) + 1j * rng.standard_normal((8, 10)))
        z2 = 0.01 * (rng.standard_normal((8, 10)) + 1j * rng.standard_normal((8, 10)))
        f1 = slp_objective(b1, z1, chan, s, sigma, d=2)
        f2 = slp_objective(b2, z2, chan, s, sigma, d=2)
        fm = slp_objective(0.5 * (b1 + b2), 0.5 * (z1 + z2), chan, s, sigma, d=2)
        assert fm <= 0.5 * (f1 + f2) + 1e-8


def test_slp_gradient_matches_finite_differences():
    rng, chan, s, sigma = _slp_setup(10)
    zf = zf_precode(chan, s, budget=0.0861)
    beta = zf.beta * rng.uniform(0.5, 1.5, size=2)
    z = zf.z + 0.1 * np.abs(zf.z).mean() * (
        rng.standard_normal(zf.z.shape) + 1j * rng.standard_normal(zf.z.shape))
    f0, g_beta, g_z = slp_objective_and_grad(beta, z, chan, s, sigma, d=2)
    eps = 1e-6

    def fd(db, dz):
        fp = slp_objective(beta + db, z + dz, chan, s, sigma, d=2)
        fm = slp_objective(beta - db, z - dz, chan, s, sigma, d=2)
        return (fp - fm) / (2 * eps)

    for _ in range(10):
        i = rng.integers(2)
        db = np.zeros(2)
        db[i] = eps
        assert fd(db, 0.0) == pytest.approx(g_beta[i], rel=1e-5)
        n_idx = rng.integers(z.shape[0])
        p_idx = rng.integers(z.shape[1])
        dz = np.zeros_like(z)
        dz[n_idx, p_idx] = eps
        assert fd(0.0, dz) == pytest.approx(g_z[n_idx, p_idx].real, rel=1e-5)
        dz[n_idx, p_idx] = 1j * eps
        assert fd(0.0, dz) == pytest.approx(g_z[n_idx, p_idx].imag, rel=1e-5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 4]),
       k=st.integers(1, 4), extra=st.integers(0, 4))
def test_slp_objective_matches_stacked_oracle(seed, d, k, extra):
    # the per-solve objective (interleaved I/Q layout, densities only for a
    # gradient, batched adjoint) against the stacked per-component form
    rng = np.random.default_rng(seed)
    chan = _random_channel(rng, k + extra, k, 16, 10)
    s = QamConstellation(d).random_symbols(rng, (k, 10))
    try:
        zf = zf_precode(chan, s, budget=0.0861)
    except RankDeficient:
        assume(False)
    beta = zf.beta * rng.uniform(0.5, 1.5, size=k)
    z = zf.z + 0.1 * np.abs(zf.z).mean() * (
        rng.standard_normal(zf.z.shape) + 1j * rng.standard_normal(zf.z.shape))
    sigma = zf.beta * rng.uniform(0.2, 3.0, size=k)
    f, g_beta, g_z = slp_objective_and_grad(beta, z, chan, s, sigma, d)
    f_ref, g_beta_ref, g_z_ref = slp_objective_and_grad_oracle(beta, z, chan, s, sigma, d)
    assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
    assert np.linalg.norm(g_beta - g_beta_ref) <= 1e-10 * np.linalg.norm(g_beta_ref)
    assert np.linalg.norm(g_z - g_z_ref) <= 1e-10 * np.linalg.norm(g_z_ref)
    assert slp_objective(beta, z, chan, s, sigma, d) == f


def test_slp_objective_requires_d():
    # d is not inferred from the block: a 16-QAM block with no real part at
    # +-3 would otherwise be scored as QPSK
    _, chan, s, sigma = _slp_setup(13)
    zf = zf_precode(chan, s, budget=0.0861)
    with pytest.raises(TypeError):
        slp_objective(zf.beta, zf.z, chan, s, sigma)
    with pytest.raises(TypeError):
        slp_objective_and_grad(zf.beta, zf.z, chan, s, sigma)
    with pytest.raises(TypeError):
        slp_precode(chan, s, 0.0861, sigma)


def test_slp_evaluates_no_point_twice(monkeypatch):
    # every objective evaluation of one solve is at a new point: the line
    # search's accepted value is reused wherever the inner loop restarts
    # from that point.  Every evaluation goes through the kernel by the
    # name precoding.dp_components, one point per call
    seen = []
    kernel = precoding.dp_components

    def spy(t, *args, **kwargs):
        out = kernel(t, *args, **kwargs)
        seen.append((np.asarray(t).tobytes(), np.size(out[0])))
        return out

    monkeypatch.setattr(precoding, "dp_components", spy)
    _, chan, s, sigma = _slp_setup(21, n=16, k=4, m=64, m_s=40)
    res = slp_precode(chan, s, 0.0861, sigma, d=2)
    assert res.diagnostics["apg_iterations"] > res.diagnostics["admm_iterations"] > 1
    # the start point plus at least one line-search point per APG step
    assert len(seen) >= res.diagnostics["apg_iterations"] + 1
    assert len(set(seen)) == len(seen)
    assert {size for _, size in seen} == {2 * s.size}


def test_slp_improves_on_zf_and_is_feasible():
    _, chan, s, sigma = _slp_setup(11)
    budget = 0.0861
    zf = zf_precode(chan, s, budget)
    f_zf = slp_objective(zf.beta, zf.z, chan, s, sigma, d=2)
    res = slp_precode(chan, s, budget, sigma, d=2)
    assert res.diagnostics["best_objective"] <= f_zf + 1e-9
    assert res.diagnostics["objective"] < f_zf
    assert np.abs(res.x.x).max() <= budget + 1e-9
    assert np.all(res.beta >= 0)
    # equality residual within tolerance or flagged
    assert (res.diagnostics["residual_sq"] <= 1e-3
            or res.diagnostics["converged"] == 0.0)


def test_slp_huge_budget_drives_dp_to_one():
    # with a generous budget the solver pushes every DP toward 1 and the
    # final decision margins are no worse than the ZF start's
    from sdmimo.qam import dp_components

    def min_dp(beta, z, chan, s, sigma):
        v = np.einsum("pkn,np->kp", chan.freq, z)
        b, sg = beta[:, None], sigma[:, None]
        dp_r, _, _ = dp_components(margins(s.real, v.real, b, sg, 2))
        dp_i, _, _ = dp_components(margins(s.imag, v.imag, b, sg, 2))
        return min(dp_r.min(), dp_i.min())

    _, chan, s, sigma = _slp_setup(12)
    budget = 0.2
    zf = zf_precode(chan, s, budget)
    f_zf = slp_objective(zf.beta, zf.z, chan, s, sigma, d=2)
    res = slp_precode(chan, s, budget, sigma, d=2)
    assert res.diagnostics["objective"] <= f_zf + 1e-12
    assert min_dp(res.beta, res.z, chan, s, sigma) >= \
        min_dp(zf.beta, zf.z, chan, s, sigma) - 1e-12


def test_slp_converges_within_iteration_caps():
    ok = 0
    for seed in range(10):
        _, chan, s, sigma = _slp_setup(100 + seed, n=16, k=4, m=64, m_s=40)
        res = slp_precode(chan, s, 0.0861, sigma, d=2)
        ok += int(res.diagnostics["converged"])
        assert res.diagnostics["admm_iterations"] <= 30
    assert ok >= 9


@pytest.mark.parametrize("seed,caps", [(21, {}), (22, {"apg_max_iter": 1}),
                                       (23, {"admm_max_iter": 1}),
                                       (24, {"apg_max_iter": 3, "admm_max_iter": 4})])
def test_slp_reported_objective_is_that_of_returned_iterate(seed, caps):
    # the objective comes from the solver's last accepted line search, not
    # from a fresh evaluation; it must still equal one exactly
    _, chan, s, sigma = _slp_setup(seed, n=16, k=4, m=64, m_s=40)
    res = slp_precode(chan, s, 0.0861, sigma, d=2, settings=SlpSettings(**caps))
    assert res.diagnostics["objective"] == slp_objective(res.beta, res.z, chan, s, sigma, d=2)


def test_slp_given_start_point_changes_nothing():
    _, chan, s, sigma = _slp_setup(25, n=16, k=4, m=64, m_s=40)
    own = slp_precode(chan, s, 0.0861, sigma, d=2)
    zf = zf_precode(chan, s, 0.0861, variant="sigma-delta")
    given_start = slp_precode(chan, s, 0.0861, sigma, d=2, start=zf)
    assert given_start.diagnostics == own.diagnostics
    assert np.array_equal(given_start.z, own.z)
    assert np.array_equal(given_start.beta, own.beta)
    # the solver copies the start point; the caller's result stays intact
    assert np.array_equal(zf.z, zf_precode(chan, s, 0.0861, variant="sigma-delta").z)


def test_slp_rejects_empty_inner_loop():
    _, chan, s, sigma = _slp_setup(26)
    with pytest.raises(ValueError, match="apg_max_iter"):
        slp_precode(chan, s, 0.0861, sigma, d=2, settings=SlpSettings(apg_max_iter=0))


def test_slp_rejects_nan_noise_level():
    # a NaN passes a `<= 0` test; the solve would run every cap to a NaN beta
    _, chan, s, _ = _slp_setup(27)
    with pytest.raises(ValueError, match="sigma_eta"):
        slp_precode(chan, s, 0.0861, [np.nan, 0.01], d=2)


@pytest.mark.parametrize("key,value", [
    ("admm_max_iter", 0), ("apg_max_iter", -3), ("ftol", 0.0), ("xtol", -1e-3),
    ("apg_tol", float("nan")), ("rho", 0.0),
])
def test_slp_settings_reject_out_of_range_values(key, value):
    # the settings check themselves, whoever builds them; the error names the key
    with pytest.raises(ValueError, match=key):
        SlpSettings(**{key: value})


_DECISIONS = json.loads((Path(__file__).resolve().parent / "slp_decisions.json").read_text())


@pytest.mark.parametrize("want", _DECISIONS["solves"],
                         ids=lambda w: f"seed{w['seed']}-{w['inv_sigma_v2_db']:g}dB")
def test_slp_decisions_match_recorded_solves(monkeypatch, want):
    # desk-size solves replayed against diagnostics recorded with an earlier
    # version: the iteration counts and the stopping outcome must agree
    # exactly, so any changed line-search or stopping decision fails here,
    # and the objective and the residual to within last-digit rounding
    solves = []

    def recorded(*args, **kwargs):
        res = slp_precode(*args, **kwargs)
        solves.append(res.diagnostics)
        return res

    monkeypatch.setattr(harness, "slp_precode", recorded)
    doc = {"system": _DECISIONS["system"], "pa": _DECISIONS["pa"], "scheme": "auto",
           "precoder": {"name": "slp-tsd"},
           "noise": {"inv_sigma_v2_db": [want["inv_sigma_v2_db"]]},
           "run": {"trials": 1, "blocks_per_trial": 1, "seed": want["seed"],
                   "self_check": False}}
    harness.run_ber(config_from_dict(doc))
    (got,) = solves
    for key in ("apg_iterations", "admm_iterations", "converged"):
        assert got[key] == want[key], key
    for key in ("objective", "best_objective", "residual_sq"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key


def test_parity_script_passes_one_tree_and_fails_a_doctored_record(tmp_path, monkeypatch,
                                                                    capsys):
    # the same tree twice, at the golden runs' scale, reads identical; a
    # record with one more APG step in one solve, or one more error or a
    # larger mean beta at one noise point, exits 1
    import slp_parity

    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "system": {"n": 4, "k": 2, "m": 64, "m_s": 40, "qam_d": 2},
        "noise": {"inv_sigma_v2_db": [10.0, 20.0, 30.0]},
        "run": {"trials": 2, "blocks_per_trial": 1, "seed": 99}}))
    src = Path(precoding.__file__).resolve().parents[1]
    records = []
    real = slp_parity.record_tree

    def kept(*args):
        records.append(real(*args))
        return records[-1]

    monkeypatch.setattr(slp_parity, "record_tree", kept)
    assert slp_parity.main([str(src), str(src), "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "solves: 6 parent, 6 change" in out
    assert "objective: largest relative difference 0 (0 of 6 solves differ)" in out

    for where, key in (("solves", "apg_iterations"), ("points", "errors"),
                       ("points", "mean_beta")):
        doctored = json.loads(json.dumps(records[0]))
        doctored[where][1][key] += 1
        monkeypatch.setattr(slp_parity, "record_tree",
                            lambda src, *args: doctored if src.name == "b" else records[0])
        assert slp_parity.main(["a", "b"]) == 1
        assert "DIFFER" in capsys.readouterr().out


def test_slp_objective_point_holds_the_margins_of_its_levels():
    # the objective forms one point's stacked margins in its user-major
    # layout from constants laid out once per solve; they are the margins
    # qam.margins forms from the levels and received values directly
    _, chan, s, sigma = _slp_setup(27, n=16, k=4, m=64, m_s=40)
    zf = zf_precode(chan, s, 0.0861)
    obj = precoding._SlpObjective(chan, s, sigma, 2)
    _, (t, _) = obj.value(zf.beta, zf.z)
    v = np.einsum("pkn,np->kp", chan.freq, zf.z)
    v_rows = np.matmul(chan.freq, zf.z.T[:, :, None])[:, :, 0].T    # the objective's product
    assert np.allclose(v_rows, v, rtol=1e-12, atol=0)
    want = margins(np.ascontiguousarray(s).view(float),
                   np.ascontiguousarray(v_rows).view(float),
                   zf.beta[:, None], sigma[:, None], 2)
    assert t.shape == (2, 4, 2 * 40)
    assert np.array_equal(t, want)
