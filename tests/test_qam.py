import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from dp_oracle import dp_components_oracle
from qam_oracle import bits_errors_oracle, detect_oracle
from sdmimo.precoding import dp_components
from sdmimo.qam import QamConstellation, detect, symbols_to_bits_errors
from slp_functions import margins


def _dp_scalar(s, v, beta, sigma, d):
    """The oracle's detection probability of one component, as a float."""
    return float(dp_components_oracle(s, v, beta, sigma, d)[0])


def test_constellation_structure():
    const = QamConstellation(d=2)
    assert np.array_equal(const.levels, [-3, -1, 1, 3])
    pts = const.points
    assert pts.size == 16
    # symmetric under negation and I/Q swap
    assert set(map(complex, -pts)) == set(map(complex, pts))
    assert set(map(complex, 1j * pts.conj())) == set(map(complex, pts))


def test_random_symbols_uniform():
    const = QamConstellation(d=2)
    rng = np.random.default_rng(0)
    s = const.random_symbols(rng, 200_000)
    counts = {}
    for p in const.points:
        counts[complex(p)] = np.count_nonzero(s == p)
    expected = s.size / 16
    for c in counts.values():
        assert abs(c - expected) < 5 * np.sqrt(expected)


def test_random_symbols_match_the_complex_sum_of_levels():
    # all real-part indices, then all imaginary-part ones, from one generator
    const = QamConstellation(d=4)
    got = const.random_symbols(np.random.default_rng(9), (3, 7))
    rng = np.random.default_rng(9)
    re = rng.integers(0, 8, size=(3, 7))
    im = rng.integers(0, 8, size=(3, 7))
    lv = const.levels.astype(float)
    assert np.array_equal(got, lv[re] + 1j * lv[im])


def test_detect_exact_symbols():
    const = QamConstellation(d=4)
    rng = np.random.default_rng(1)
    s = const.random_symbols(rng, (3, 50))
    assert np.array_equal(detect(0.37 * s, 0.37, const), s)


def test_detect_example_with_clipping():
    const = QamConstellation(d=2)
    assert detect(2.2 - 5.1j, 1.0, const) == 3 - 3j


def test_detect_scaling_invariance():
    const = QamConstellation(d=2)
    rng = np.random.default_rng(2)
    r = 5 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    for c in (1e-3, 1.0, 42.0):
        assert np.array_equal(detect(c * r, c, const), detect(r, 1.0, const))


# normalized received components: the decision boundaries 0, +-2, +-4 and
# points off them, none so small that a power-of-two scaling underflows
_NORMALIZED_AXIS = st.one_of(
    st.sampled_from([-4.0, -2.0, 0.0, 2.0, 4.0]),
    st.floats(-8.0, 8.0).filter(lambda v: v == 0.0 or abs(v) > 1e-100),
)
# a received component: beta times a normalized one, moved by -1, 0 or +1 ulp
# unless zero (one ulp off zero is subnormal)
_RECEIVED_AXIS = st.tuples(_NORMALIZED_AXIS, st.integers(-1, 1))


def _received(axis, beta):
    z, ulps = (np.array(col) for col in zip(*axis))
    v = z * beta
    return np.where((ulps == 0) | (v == 0), v,
                    np.nextafter(v, np.where(ulps > 0, np.inf, -np.inf)))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), k=st.integers(-40, 40),
       entries=st.lists(st.tuples(_RECEIVED_AXIS, _RECEIVED_AXIS, st.floats(1e-3, 1e3)),
                        min_size=1, max_size=40))
def test_detect_invariant_under_power_of_two_scaling(d, k, entries):
    # scaling r and beta by 2^k is exact, so c r / (c beta) rounds to r / beta
    # and every decision, on and next to the boundaries, is bit-identical
    const = QamConstellation(d)
    re, im, beta = zip(*entries)
    beta = np.array(beta)
    r = _received(re, beta) + 1j * _received(im, beta)
    c = 2.0 ** k
    assert np.array_equal(detect(c * r, c * beta, const), detect(r, beta, const))


@pytest.mark.parametrize("x,level", [
    (0.0, -1.0), (-0.0, -1.0), (5e-324, 1.0), (-5e-324, -1.0), (2.2e-308, 1.0),
    (-2.2e-308, -1.0), (1e-17, 1.0), (-1e-17, -1.0), (1.2e-16, 1.0), (-1.2e-16, -1.0),
])
@pytest.mark.parametrize("d", [1, 2])
def test_detect_near_zero_takes_the_sign(x, level, d):
    # a component next to zero decides +-1 by its sign; zero itself, a tie
    # between -1 and +1, decides -1 whatever its sign
    assert detect(complex(x, x), 1.0, QamConstellation(d)) == complex(level, level)


def _exact_level(x: float, d: int) -> float:
    """Nearest odd integer of x in exact arithmetic, ties toward zero and
    zero to -1, clipped to +-(2d-1)."""
    level = 2 * math.ceil(Fraction(abs(x)) / 2) - 1   # (2j - 2, 2j] -> 2j - 1
    level = min(max(level, 1), 2 * d - 1)
    return float(level if x > 0 else -level)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), xs=st.lists(st.one_of(
    st.floats(-10.0, 10.0, allow_subnormal=True),
    st.tuples(st.integers(-10, 10), st.integers(-1, 1)).map(
        lambda p: float(np.nextafter(float(p[0]), math.copysign(np.inf, p[1]))
                        if p[1] else float(p[0])))), min_size=1, max_size=20))
def test_detect_matches_exact_nearest_level(d, xs):
    # every decision, on the boundaries, one ulp off them and next to zero,
    # is the exact-arithmetic nearest level
    got = detect(np.array(xs) + 0j, 1.0, QamConstellation(d)).real
    assert list(got) == [_exact_level(v, d) for v in xs]


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 4), k=st.integers(0, 40), sign=st.sampled_from([1.0, -1.0]),
       ulps=st.integers(0, 3), beta=st.floats(1e-3, 1e3))
def test_detect_zero_component_invariant_under_power_of_two_scaling(d, k, sign, ulps, beta):
    # the zero component, on its own and moved by 1-3 ulps, keeps its
    # decision when r and beta are scaled up by 2^k (exact even for a
    # subnormal; scaling down would round one)
    v = sign * 0.0
    for _ in range(ulps):
        v = np.nextafter(v, sign * np.inf)
    r = complex(v, -v)
    c = 2.0 ** k
    assert detect(c * r, c * beta, QamConstellation(d)) == detect(r, beta, QamConstellation(d))


def test_detect_midpoint_ties_round_toward_zero():
    const = QamConstellation(d=2)
    assert detect(2.0 + 0j, 1.0, const).real == 1.0
    assert detect(-2.0 + 0j, 1.0, const).real == -1.0
    assert detect(0j + 2.0j, 1.0, const).imag == 1.0
    assert detect(-2.0j, 1.0, const).imag == -1.0


@pytest.mark.parametrize("beta", [1.27, 1.44, 1.5])
def test_detect_quotient_is_scaled_by_the_reciprocal(beta):
    # a component one ulp above 2 beta: its true quotient lies above the
    # boundary 2 and rounds to 2 + 2^-51, which decides 3, while
    # r * (1/beta), numpy's complex / real, rounds to 2.0 exactly, a tie
    # that decides 1.  The golden outputs see such a move only through
    # integer counts, so the decisions are pinned here
    v = float(np.nextafter(2.0 * beta, np.inf))
    assert v / beta > 2.0 and v * (1.0 / beta) == 2.0
    r = np.array([complex(v, v), complex(-v, 0.5 * beta), complex(0.5 * beta, -v)])
    want = np.array([1 + 1j, -1 + 1j, 1 - 1j])
    const = QamConstellation(2)
    assert np.array_equal(detect(r, beta, const), want)
    assert np.array_equal(detect_oracle(r, beta, 2), want)
    true_quotient = np.array([complex(z.real / beta, z.imag / beta) for z in r])
    assert not np.array_equal(detect(true_quotient, 1.0, const), want)


# one received component: a boundary 2j of the quotient times beta, moved
# by -1, 0 or +1 ulp, or a free value (+-0, subnormals and ordinary floats)
_COMPONENT = st.one_of(
    st.tuples(st.integers(-129, 129), st.integers(-1, 1)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
    st.floats(-1e3, 1e3, allow_subnormal=True),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
)


def _component(c, beta):
    if not isinstance(c, tuple):
        return c
    j, ulps = c
    v = 2.0 * j * beta
    return float(np.nextafter(v, math.copysign(np.inf, ulps))) if ulps and v else v


@settings(max_examples=300, deadline=None)
@given(d=st.one_of(st.integers(1, 4), st.integers(1, 128)),
       entries=st.lists(st.tuples(_COMPONENT, _COMPONENT, st.floats(1e-3, 1e3)),
                        min_size=1, max_size=40))
def test_detect_matches_complex_division_oracle(d, entries):
    # the float-view quotient and level rule decide exactly as numpy's
    # complex division and the per-axis np.where rule do: on the
    # boundaries, one ulp off them, at +-0 and for subnormal components
    beta = np.array([b for _, _, b in entries])
    r = np.array([complex(_component(re, b), _component(im, b)) for re, im, b in entries])
    assert np.array_equal(detect(r, beta, QamConstellation(d)), detect_oracle(r, beta, d))
    assert np.array_equal(detect(r[:, None], beta[:, None], QamConstellation(d)),
                          detect_oracle(r[:, None], beta[:, None], d))


def test_dp_interior_example():
    # received exactly beta*s with sqrt(2) beta / sigma = 2
    beta = 1.0
    sigma = np.sqrt(2.0) / 2.0 * beta * 2 / 2  # sqrt(2)*beta/sigma == 2
    sigma = np.sqrt(2.0) * beta / 2.0
    dp = _dp_scalar(1, beta * 1.0, beta, sigma, d=2)
    assert dp == pytest.approx(2 * ndtr(2.0) - 1.0, abs=1e-12)
    assert dp == pytest.approx(0.9545, abs=1e-4)


def test_dp_boundary_example():
    beta, sigma, d = 0.7, 0.31, 2
    s = 2 * d - 1
    dp = _dp_scalar(s, beta * s, beta, sigma, d)
    assert dp == pytest.approx(float(ndtr(np.sqrt(2) * beta / sigma)), abs=1e-12)
    dp_low = _dp_scalar(-s, -beta * s, beta, sigma, d)
    assert dp_low == pytest.approx(dp, abs=1e-12)


def test_dp_zero_beta_interior_is_zero():
    assert _dp_scalar(1, 0.0, 0.0, 1.0, d=2) == pytest.approx(0.0, abs=1e-15)


def test_dp_left_right_partition():
    # P(correct) + P(decide below) + P(decide above) = 1 from the same Phi terms
    beta, sigma, d, s, v = 0.9, 0.4, 2, 1, 0.55
    a = beta + beta * s - v
    c = -beta + beta * s - v
    p_correct = _dp_scalar(s, v, beta, sigma, d)
    p_below = float(ndtr(np.sqrt(2) * c / sigma))
    p_above = 1.0 - float(ndtr(np.sqrt(2) * a / sigma))
    assert p_correct + p_below + p_above == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("s,v_off", [(1, 0.0), (3, 0.1), (-3, -0.05)])
def test_dp_matches_monte_carlo(s, v_off):
    # empirical per-axis decision frequency under complex Gaussian noise
    rng = np.random.default_rng(42)
    beta, sigma, d = 1.0, 0.8, 2
    v = beta * s + v_off
    n = 200_000
    noise = rng.standard_normal(n) * (sigma / np.sqrt(2.0))
    received = v + noise
    decided = np.clip(2 * np.round((received / beta - 1) / 2) + 1, -(2 * d - 1), 2 * d - 1)
    hits = np.count_nonzero(decided == s) / n
    dp, _, _ = dp_components(margins(np.array([s]), np.array([v]), beta, sigma, d),
                             need_grad=False)
    dp = float(dp[0])
    assert abs(hits - dp) <= 3.0 * np.sqrt(dp * (1 - dp) / n) + 1e-4


def test_dp_components_vectorized_consistency():
    rng = np.random.default_rng(3)
    const = QamConstellation(d=2)
    s = const.random_symbols(rng, (3, 8))
    v = s.real * 0.9 + rng.standard_normal((3, 8)) * 0.1
    beta = np.array([0.8, 1.0, 1.2])[:, None]
    sigma = np.array([0.3, 0.5, 0.7])[:, None]
    dp, phi_hi, phi_lo = dp_components(margins(s.real, v, beta, sigma, 2))
    for i in range(3):
        for p in range(8):
            ref = _dp_scalar(int(s.real[i, p]), v[i, p],
                             float(beta[i, 0]), float(sigma[i, 0]), 2)
            assert dp[i, p] == pytest.approx(ref, abs=1e-12)


def test_dp_components_stable_for_large_margins():
    # on-target interior symbol with huge scaling: DP -> 1 without overflow
    dp, _, _ = dp_components(margins(np.array([1.0]), np.array([50.0]),
                                     np.array([50.0]), np.array([1.0]), 2))
    assert dp[0] == pytest.approx(1.0, abs=1e-15)
    # catastrophically off-target: DP underflows to a nonnegative value
    dp, _, _ = dp_components(margins(np.array([1.0]), np.array([200.0]),
                                     np.array([1.0]), np.array([1.0]), 2))
    assert 0.0 <= dp[0] < 1e-300


# one DP entry: level index (mapped onto the 2d levels), beta, sigma_eta,
# and the received component's offset from beta*s in units of sigma_eta;
# beta 0 and powers of two with offset 0 put ta + tc at exactly 0
_DP_ENTRIES = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.one_of(st.sampled_from([0.0, 2.0**-7, 0.5, 1.0]),
                  st.floats(1e-6, 10.0, allow_nan=False)),
        st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
        st.one_of(st.just(0.0), st.sampled_from([-40.0, 40.0]),
                  st.floats(-40.0, 40.0, allow_nan=False)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), entries=_DP_ENTRIES)
def test_dp_components_matches_per_branch_oracle(d, entries):
    # the two-ndtr kernel equals evaluating each level's branch, entry for entry
    lv = QamConstellation(d).levels.astype(float)
    idx, beta, sigma, off = (np.array(col) for col in zip(*entries))
    s = np.concatenate([lv, lv[idx % lv.size]])         # every level at least once
    beta = np.concatenate([np.full(lv.size, beta[0]), beta])
    sigma = np.concatenate([np.full(lv.size, sigma[0]), sigma])
    off = np.concatenate([np.full(lv.size, off[0]), off])
    v = beta * s + off * sigma
    want = dp_components_oracle(s, v, beta, sigma, d)
    got = dp_components(margins(s, v, beta, sigma, d))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    dp_only, phi_hi, phi_lo = dp_components(margins(s, v, beta, sigma, d), need_grad=False)
    assert np.array_equal(dp_only, want[0])
    assert phi_hi is None and phi_lo is None


def test_gray_bits_adjacent_levels_differ_by_one():
    const = QamConstellation(d=4)
    lv = const.levels
    for a, b in zip(lv[:-1], lv[1:]):
        errs = symbols_to_bits_errors(np.array([a + 1j]), np.array([b + 1j]), const)
        assert errs == 1


def test_bits_per_axis_bounds_every_symbol_pair():
    # the Gray codes of 2d levels span exactly bits_per_axis bits, so the
    # worst symbol pair flips every bit a BER row counts for it
    for d in (1, 2, 4, 8):
        const = QamConstellation(d)
        pts = const.points
        flips = symbols_to_bits_errors(pts[:, None, None, None], pts[None, :, None, None], const)
        assert flips.max() == 2 * const.bits_per_axis
    with pytest.raises(ValueError, match="power of two"):
        QamConstellation(3).bits_per_axis


def _axis_flips(a, b, const, axis):
    """Bit errors of each level pair (a[i], b[j]) on one axis, the other
    axis at level 1 on both sides: a (len(a), len(b)) array."""
    a, b = a[:, None, None, None], b[None, :, None, None]
    if axis == "imag":
        return symbols_to_bits_errors(1.0 + 1j * a, 1.0 + 1j * b, const)
    return symbols_to_bits_errors(a + 1j, b + 1j, const)


@pytest.mark.parametrize("axis", ["real", "imag"])
@pytest.mark.parametrize("d", [256, 512])
def test_gray_bits_of_wide_axes(d, axis):
    # Gray codes of 9 and 10 bits: adjacent levels differ in exactly one bit
    # and the worst pair on an axis flips all bits_per_axis of them
    const = QamConstellation(d)
    lv = const.levels.astype(float)
    assert np.array_equal(np.diag(_axis_flips(lv[:-1], lv[1:], const, axis)),
                          np.ones(lv.size - 1))
    assert _axis_flips(lv, lv, const, axis).max() == const.bits_per_axis


@settings(max_examples=200, deadline=None)
@given(e=st.integers(0, 7), seed=st.integers(0, 2**32 - 1), stack=st.integers(1, 4),
       same=st.floats(0.0, 1.0))
def test_bit_tally_matches_byte_table_oracle(e, seed, stack, same):
    # one Gray code of the index XOR counted by bitwise_count equals the
    # per-axis Gray codes counted by a byte table, for d = 1 .. 128
    const = QamConstellation(2**e)
    rng = np.random.default_rng(seed)
    s_true = const.random_symbols(rng, (3, 5))
    s_hat = const.random_symbols(rng, (stack, 3, 5))
    s_hat = np.where(rng.random(s_hat.shape) < same, s_true, s_hat)
    got = symbols_to_bits_errors(s_true, s_hat, const)
    assert got.dtype == np.int64
    assert np.array_equal(got, bits_errors_oracle(s_true, s_hat, const.d))
    total = symbols_to_bits_errors(s_true, s_hat[0], const)
    assert isinstance(total, int) and total == bits_errors_oracle(s_true, s_hat[0], const.d)


def test_bit_error_count_matches_manual():
    const = QamConstellation(d=2)   # levels -3,-1,1,3 -> gray 00,01,11,10
    s_true = np.array([3 + 3j])
    s_hat = np.array([-3 - 1j])     # re: 10 vs 00 -> 1 bit; im: 10 vs 01 -> 2 bits
    assert symbols_to_bits_errors(s_true, s_hat, const) == 3
    assert symbols_to_bits_errors(s_true, s_true, const) == 0
    # d = 256: levels -511 and 1 have the Gray codes 0 and 384, two bits apart
    assert symbols_to_bits_errors(np.array([-511 + 1j]), np.array([1 + 1j]),
                                  QamConstellation(256)) == 2


def test_bit_errors_of_a_stack_are_counted_per_frame():
    # a (S, K, M) stack of decisions gives one count per leading index,
    # each equal to the count of that frame alone
    const = QamConstellation(d=2)
    rng = np.random.default_rng(11)
    s_true = const.random_symbols(rng, (3, 7))
    s_hat = np.stack([s_true, const.random_symbols(rng, (3, 7)),
                      const.random_symbols(rng, (3, 7))])
    counts = symbols_to_bits_errors(s_true, s_hat, const)
    assert counts.shape == (3,)
    assert list(counts) == [symbols_to_bits_errors(s_true, f, const) for f in s_hat]
    assert counts[0] == 0 and counts[1] > 0
