"""The numpy polar kernel: both closed forms against mpmath,
determinism, and batches that match their elements bit for bit."""

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opineq.kernels as kernels
from opineq.errors import DomainError
from opineq.quadrature import angular_kernel_batch

SCIPY_HYP2F1 = kernels.hyp2f1


def test_polar_batch_deterministic():
    um1 = np.geomspace(1e-6, 10.0, 25)
    v1, _, n1 = kernels.polar_batch(1.5, 0.0, 0, um1, tol=1e-11)
    v2, _, n2 = kernels.polar_batch(1.5, 0.0, 0, um1, tol=1e-11)
    assert np.array_equal(v1, v2)
    assert n1 == n2


def test_backend_name_reported():
    assert kernels.backend_name == "python"


@pytest.mark.parametrize("p,w,m", [
    (1.5, 0.0, 0),      # d=2 angular kernel
    (2.0, 1.0, 0),      # d=3
    (1.25, -0.5, 0),    # d=1.5, singular sin weight
    (0.5, 0.0, 0),      # log singularity at u = 1
    (1.5, 0.0, 2),      # 1 - cos(2t) weight
    (1.5, 0.0, 1),      # 1 - cos(t) weight
])
def test_batched_call_matches_per_element(p, w, m):
    _assert_batch_matches_elements(p, w, m, np.geomspace(1e-10, 1e3, 30))


def _assert_batch_matches_elements(p, w, m, um1):
    # both closed forms are elementwise: one evaluation per element, and
    # the same bits whatever else is in the batch
    v, e, n = kernels.polar_batch(p, w, m, um1)
    assert n == um1.size
    assert np.all(e >= 0)
    ref, ref_e = np.array([
        [r[0] for r in kernels.polar_batch(p, w, m, [u])[:2]]
        for u in um1]).T
    assert np.array_equal(v, ref) and np.array_equal(e, ref_e)


# the kernel arguments of each library caller: angular_kernel_batch at
# p = (d+1)/2, w = d-2; anticomm.channel_moments at p = 3/2 with the
# 1 - cos(m t) weight; and p = 1/2, w = 0 as generic coverage of the
# unweighted kernel, a value that grows like log 1/(u - 1) as u -> 1
CALLER_ARGS = st.one_of(
    st.floats(1.2, 6.0).map(lambda d: ((d + 1.0) / 2.0, d - 2.0, 0)),
    st.tuples(st.just(1.5), st.just(0.0), st.integers(1, 6)),
    st.tuples(st.just(0.5), st.just(0.0), st.just(0)),
)
# u - 1 from 1e-10 to 1e3, at least 2.3% apart once sorted
UM1_BATCHES = st.lists(st.integers(-1000, 300), min_size=1, max_size=12,
                       unique=True).map(lambda k: 10.0 ** (np.sort(k) / 100.0))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


@PROPERTY
@given(CALLER_ARGS, UM1_BATCHES)
def test_batched_call_matches_per_element_property(args, um1):
    _assert_batch_matches_elements(*args, um1)


@PROPERTY
@given(st.floats(1.2, 6.0), UM1_BATCHES)
def test_angular_kernel_decreases_in_u(d, um1):
    vals, _, _ = angular_kernel_batch(d, um1)
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("p,w,m,um1", [
    (0.0, -0.5, 0, 1.0),     # sin^(-1/2) t, singular at both ends
    (1.5, 0.0, 1, 1e-10),    # 1 - cos t ~ t^2/2 under the u ~ 1 peak
    (1.5, 0.0, 2, 1e-8),
] + [
    # angular kernels at d = 1.2, 2.01, 2.3: sin^w with w not a half-integer
    pytest.param((d + 1.0) / 2.0, d - 2.0, 0, um1, id="d%g-%g" % (d, um1))
    for d in (1.2, 2.01, 2.3) for um1 in (1e-12, 1e-8, 1e-3, 1.0, 1e3)
])
def test_relative_precision_at_the_ends(p, w, m, um1):
    v, e, _ = kernels.polar_batch(p, w, m, [um1], tol=1e-11)
    with mpmath.workdps(30):
        u = mpmath.mpf(um1)
        a = 1 / (mpmath.mpf(w) + 1)

        # each half of [0, pi] in x, the distance from its endpoint, so
        # sin x keeps its relative precision there; x = s^a turns the
        # endpoint factor x^w dx into a s^0 ds, which tanh-sinh resolves
        def f(s, region):
            x = s ** a
            t = mpmath.pi - x if region else x
            c = 2 * mpmath.sin(m * t / 2) ** 2 if m else 1
            s2 = 2 * (mpmath.cos(x / 2) if region else mpmath.sin(x / 2)) ** 2
            return a * s ** (a - 1) * mpmath.sin(x) ** w * c / (u + s2) ** p

        breaks = ([0] + [mpmath.mpf(10) ** (k / a) for k in range(-8, 0)]
                  + [(mpmath.pi / 2) ** (1 / a)])
        exact = float(sum(mpmath.quad(lambda s: f(s, region), breaks)
                          for region in (0, 1)))
    assert e[0] <= 1e-11 * abs(v[0])
    assert abs(v[0] - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("um1", [[np.nan], [-1e-300], [0.5, np.nan, 2.0]])
def test_nan_or_negative_um1_rejected(um1):
    with pytest.raises(DomainError):
        kernels.polar_batch(1.5, 0.0, 0, um1)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_non_positive_tolerance_rejected(tol):
    with pytest.raises(DomainError):
        kernels.polar_batch(1.5, 0, 0, [0.5], tol=tol)


def test_tolerance_is_keyword_only():
    # perfbench's tracer reads the tolerance from the keywords: a positional
    # one would be counted against the default, without any error
    with pytest.raises(TypeError):
        kernels.polar_batch(1.5, 0.0, 0, [0.5], 1e-11)
    with pytest.raises(TypeError):
        kernels.polar_batch(1.5, 0.0, 0, [0.5], tol=1e-11, eta=[0.0])


def _closed_form_reference(p, w, um1):
    """The m = 0 integral at mpf p and w: the Gegenbauer series in u^-2,
    B((w+1)/2, 1/2) u^-p 2F1(p/2, (p+1)/2; w/2 + 1; u^-2), which takes
    neither the quadratic nor Euler's transformation of the closed form."""
    u = 1 + mpmath.mpf(um1)
    return (mpmath.beta((w + 1) / 2, mpmath.mpf(1) / 2) * u ** -p
            * mpmath.hyp2f1(p / 2, (p + 1) / 2, w / 2 + 1, 1 / u ** 2))


def _kd_exponents(d):
    """K_d's exact p = (d+1)/2 and w = d - 2, for use at a working
    precision above 53 bits: its n = 2p - w - 1 is exactly 2."""
    return lambda: ((mpmath.mpf(d) + 1) / 2, mpmath.mpf(d) - 2)


def _assert_within_bound(exponents, um1, v, e, dps):
    with mpmath.workdps(dps):
        ref = _closed_form_reference(*exponents(), um1)
        assert abs(mpmath.mpf(v) - ref) <= e, (um1, float(abs(v / ref - 1)))
    assert e <= 1e-14 * v


@pytest.mark.parametrize("d", [1.2, 1.5, 2.0, 2.01, 2.3, 2.5, 3.0,
                               7.050034627526924, 8.0, 12.0])
def test_kd_closed_form_within_its_bound(d):
    # K_d's polar integral is one scipy hyp2f1 per element; every value
    # lies within its returned bound, and the bound within 1e-14.  40
    # digits, and 60 where u is large and d >= 8, resolve the reference
    um1 = 10.0 ** np.arange(-14, 9)
    v, e, n = kernels.polar_batch((d + 1.0) / 2.0, d - 2.0, 0, um1)
    assert n == um1.size
    for x, vi, ei in zip(um1, v, e):
        _assert_within_bound(_kd_exponents(d), x, vi, ei,
                             60 if d >= 8 and x >= 1e6 else 40)


def test_d11_case_within_its_bound():
    # the adaptive path stopped here after 2,010 evaluations, 3.7e-15 off,
    # with no flag: the bias of 15-digit GK15 tables
    v, e, n = kernels.polar_batch(1.05, -0.9, 0, [1e-12], tol=1e-15)
    assert n == 1
    _assert_within_bound(lambda: (mpmath.mpf("1.05"), mpmath.mpf("-0.9")),
                         1e-12, v[0], e[0], 40)


@PROPERTY
@given(st.floats(1.01, 20.0), st.floats(-14.0, 8.0))
def test_kd_closed_form_passes_integer_c_minus_a_minus_b(d, log_um1):
    # scipy's hyp2f1 near argument 1 is off by up to 9e-7 when c - a - b
    # misses an integer by an ulp; the value and its slope are passed
    # with c - a - b exactly 2 and 1
    passed = []

    def recording(a, b, c, z):
        passed.append(c - a - b)
        return SCIPY_HYP2F1(a, b, c, z)

    um1 = 10.0 ** log_um1
    with mock.patch.object(kernels, "hyp2f1", recording):
        v, e, _ = kernels.polar_batch((d + 1.0) / 2.0, d - 2.0, 0, [um1])
    assert passed == [2.0, 1.0]
    _assert_within_bound(_kd_exponents(d), um1, v[0], e[0],
                         60 if um1 >= 1e6 else 40)


def _channel_reference(m, um1):
    """(A_0 - A_m)(u) through mpmath's toroidal functions: d/du of
    Q_(j-1/2)(u) = 2^(-1/2) int cos(j t) (u - cos t)^(-1/2) dt is
    Q^1_(j-1/2)(u) / sinh x (type 3, u = cosh x), so
    int cos(j t) (u - cos t)^(-3/2) dt is -2 sqrt(2) Q^1_(j-1/2)(u) / sinh x.  Neither the Gauss series nor the
    elliptic recurrence of the closed form enters.  The two terms share
    a (u - 1)^-1 pole, which takes 14 of the 50 digits at u - 1 = 1e-14."""
    with mpmath.workdps(50):
        w = mpmath.mpf(um1)
        q = [mpmath.re(mpmath.legenq(j - mpmath.mpf(1) / 2, 1, 1 + w, type=3))
             for j in (0, m)]
        return 2 * mpmath.sqrt(2) * (q[1] - q[0]) / mpmath.sqrt(w * (w + 2))


@pytest.mark.parametrize("m", list(kernels.CHANNEL_M))
def test_channel_closed_form_within_its_bound(m):
    # every value lies within its returned bound, and the bound within
    # 1e-14, from u - 1 = 1e-14 to 1e8 and on both sides of the switch
    # between the Gauss series and the elliptic recurrence, at
    # e^-x = m / (m + 1), u - 1 = 1 / (2m (m + 1)).  Around e^-x = 1/2,
    # u - 1 = 1/4, a switch there would leave the recurrence 391 units of
    # 2^-53 off at m = 6
    sides = np.array([0.9, 0.96, 1 - 1e-15, 1.0, 1 + 1e-15, 1.1])
    um1 = np.concatenate([10.0 ** np.arange(-14, 9), 0.25 * sides,
                          sides / (2.0 * m * (m + 1.0))])
    v, e, n = kernels.polar_batch(1.5, 0.0, m, um1)
    assert n == um1.size
    for x, vi, ei in zip(um1, v, e):
        ref = _channel_reference(m, x)
        assert abs(mpmath.mpf(vi) - ref) <= ei, (x, float(abs(vi / ref - 1)))
    assert np.all(e <= 1e-14 * v)


def test_channel_closed_form_ends():
    # u = 1 is the log singularity, u - 1 = inf the far tail; the suite
    # turns any warning on the way into an error
    for m in kernels.CHANNEL_M:
        v, e, _ = kernels.polar_batch(1.5, 0.0, m, [0.0, np.inf])
        assert v[0] == np.inf and v[1] == 0.0 and e[1] == 0.0


@pytest.mark.parametrize("p,w,m", [
    (0.5, 0.0, 2), (1.5, 0.5, 1), (2.0, 0.0, 1),    # not the channel kernel
    (1.5, 0.0, 7), (1.5, 0.0, -1), (1.5, 0.0, 1.5),  # outside the gated m
])
def test_channel_weight_outside_its_gate_rejected(p, w, m):
    with pytest.raises(DomainError):
        kernels.polar_batch(p, w, m, [0.5])
