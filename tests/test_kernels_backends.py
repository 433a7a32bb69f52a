"""The numpy angular kernel K_d: its closed form against mpmath, with its
sphere factor, the K_d identities and limits, determinism, and batches
that match their elements bit for bit."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opineq.kernels as kernels
from opineq.errors import DomainError, SingularInputError
from opineq.kernels import sphere_surface

SCIPY_HYP2F1 = kernels.hyp2f1
K2_AT_2 = 2.9125841903282682   # int_0^{2pi} (2 - cos t)^{-3/2} dt, mpmath 30 digits


def test_polar_batch_deterministic():
    um1 = np.geomspace(1e-6, 10.0, 25)
    v1, _, n1 = kernels.polar_batch(2.0, um1, tol=1e-11)
    v2, _, n2 = kernels.polar_batch(2.0, um1, tol=1e-11)
    assert np.array_equal(v1, v2)
    assert n1 == n2


def test_backend_name_reported():
    assert kernels.backend_name == "python"


@pytest.mark.parametrize("d", [
    2.0,        # K_2
    3.0,
    1.5,        # singular sin weight
])
def test_batched_call_matches_per_element(d):
    _assert_batch_matches_elements(d, np.geomspace(1e-10, 1e3, 30))


def _assert_batch_matches_elements(d, um1):
    # the closed form is elementwise: one evaluation per element, and the
    # same bits whatever else is in the batch
    v, e, n = kernels.polar_batch(d, um1)
    assert n == um1.size
    assert np.all(e >= 0)
    ref, ref_e = np.array([
        [r[0] for r in kernels.polar_batch(d, [u])[:2]]
        for u in um1]).T
    assert np.array_equal(v, ref) and np.array_equal(e, ref_e)


# the dimensions of the library callers, anticomm.gamma and the ridge moments
CALLER_D = st.floats(1.2, 6.0)
# u - 1 from 1e-10 to 1e3, at least 2.3% apart once sorted
UM1_BATCHES = st.lists(st.integers(-1000, 300), min_size=1, max_size=12,
                       unique=True).map(lambda k: 10.0 ** (np.sort(k) / 100.0))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


@PROPERTY
@given(CALLER_D, UM1_BATCHES)
def test_batched_call_matches_per_element_property(d, um1):
    _assert_batch_matches_elements(d, um1)


@PROPERTY
@given(st.floats(1.2, 6.0), UM1_BATCHES)
def test_angular_kernel_decreases_in_u(d, um1):
    vals, _, _ = kernels.polar_batch(d, um1)
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("d,um1", [
    # angular kernels at d = 1.2, 2.01, 2.3: sin^(d-2), not a half-integer power
    pytest.param(d, um1, id="d%g-%g" % (d, um1))
    for d in (1.2, 2.01, 2.3) for um1 in (1e-12, 1e-8, 1e-3, 1.0, 1e3)
])
def test_relative_precision_at_the_ends(d, um1):
    # the polar integral by mpmath quadrature, times the sphere factor
    v, e, _ = kernels.polar_batch(d, [um1], tol=1e-11)
    with mpmath.workdps(30):
        u = mpmath.mpf(um1)
        p, w = (mpmath.mpf(d) + 1) / 2, mpmath.mpf(d) - 2
        a = 1 / (w + 1)

        # each half of [0, pi] in x, the distance from its endpoint, so
        # sin x keeps its relative precision there; x = s^a turns the
        # endpoint factor x^w dx into a s^0 ds, which tanh-sinh resolves
        def f(s, region):
            x = s ** a
            t = mpmath.pi - x if region else x
            s2 = 2 * (mpmath.cos(x / 2) if region else mpmath.sin(x / 2)) ** 2
            return a * s ** (a - 1) * mpmath.sin(x) ** w / (u + s2) ** p

        breaks = ([0] + [mpmath.mpf(10) ** (k / a) for k in range(-8, 0)]
                  + [(mpmath.pi / 2) ** (1 / a)])
        exact = float(_sphere_mp(d - 2) * sum(
            mpmath.quad(lambda s: f(s, region), breaks) for region in (0, 1)))
    assert e[0] <= 1e-11 * abs(v[0])
    assert abs(v[0] - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("um1", [[np.nan], [-1e-300], [0.5, np.nan, 2.0]])
def test_nan_or_negative_um1_rejected(um1):
    with pytest.raises(DomainError):
        kernels.polar_batch(2.0, um1)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_non_positive_tolerance_rejected(tol):
    with pytest.raises(DomainError):
        kernels.polar_batch(2.0, [0.5], tol=tol)


def test_tolerance_is_keyword_only():
    # perfbench's tracer reads the tolerance from the keywords: a positional
    # one would be counted against the default, without any error
    with pytest.raises(TypeError):
        kernels.polar_batch(2.0, [0.5], 1e-11)
    with pytest.raises(TypeError):
        kernels.polar_batch(2.0, [0.5], tol=1e-11, eta=[0.0])


def _sphere_mp(k):
    """|S^k| at mpf precision."""
    k = mpmath.mpf(k)
    return 2 * mpmath.pi ** ((k + 1) / 2) / mpmath.gamma((k + 1) / 2)


def _closed_form_reference(d, um1):
    """The polar integral at mpf d: the Gegenbauer series in u^-2,
    B((d-1)/2, 1/2) u^-p 2F1(p/2, (p+1)/2; d/2; u^-2), p = (d+1)/2, which
    takes neither the quadratic nor Euler's transformation of the closed
    form."""
    u = 1 + mpmath.mpf(um1)
    p = (d + 1) / 2
    return (mpmath.beta((d - 1) / 2, mpmath.mpf(1) / 2) * u ** -p
            * mpmath.hyp2f1(p / 2, (p + 1) / 2, d / 2, 1 / u ** 2))


def _assert_within_bound(d, um1, v, e, dps, sphere=False, rel=1e-14):
    with mpmath.workdps(dps):
        ref = _closed_form_reference(mpmath.mpf(d), um1)
        if sphere:
            ref *= _sphere_mp(mpmath.mpf(d) - 2)
        assert abs(mpmath.mpf(v) - ref) <= e, (um1, float(abs(v / ref - 1)))
    assert e <= rel * v


@pytest.mark.parametrize("d", [1.1, 1.2, 1.5, 2.0, 2.01, 2.3, 2.5, 3.0,
                               7.050034627526924, 8.0, 12.0, 20.0])
def test_kd_closed_form_within_its_bound(d):
    # K_d's polar integral is one scipy hyp2f1 per element; every value
    # lies within its returned bound, and the bound within 1e-14.  40
    # digits, and 60 where u is large and d >= 8, resolve the reference.
    # At d = 1.1, u - 1 = 1e-12 an adaptive quadrature once stopped
    # 3.7e-15 off with no flag: the bias of 15-digit GK15 tables.
    # polar_batch's K_d, |S^(d-2)| times it, lies within its own bound
    # against the reference times an exact |S^(d-2)|, and that bound
    # within 1.2e-14: the rounding of |S^(d-2)| and of the product add 13
    # units of 2^-53
    um1 = 10.0 ** np.arange(-14, 9)
    v, e = kernels._polar_closed(d, um1)
    kv, ke, n = kernels.polar_batch(d, um1)
    assert n == um1.size
    assert np.all(ke >= sphere_surface(d - 2) * e + (13 * 2.0 ** -53) * np.abs(kv))
    for x, vi, ei, kvi, kei in zip(um1, v, e, kv, ke):
        dps = 60 if d >= 8 and x >= 1e6 else 40
        _assert_within_bound(d, x, vi, ei, dps)
        _assert_within_bound(d, x, kvi, kei, dps, sphere=True, rel=1.2e-14)


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
        v, e = kernels._polar_closed(d, np.array([um1]))
    assert passed == [2.0, 1.0]
    _assert_within_bound(d, um1, v[0], e[0], 60 if um1 >= 1e6 else 40)


@pytest.mark.parametrize("d", [1.0, 0.5, np.nan, np.inf])   # outside (1, inf)
def test_arguments_outside_their_domain_rejected(d):
    with pytest.raises(DomainError):
        kernels.polar_batch(d, [0.5])


def test_angular_query_invariants():
    # d > 1 for the continued sin^(d-2) weight; u = (r + 1/r)/2 >= 1
    for d in (0.5, 1.0):
        with pytest.raises(DomainError):
            kernels.polar_batch(d, [1.0])
    with pytest.raises(DomainError):
        kernels.polar_batch(2.0, [1.0, -0.5])


def test_kernel_d3_closed_form():
    # K_3(u) (u^2 - 1) = 4 pi
    u = np.array([1.1, 2.0, 10.0])
    vals, _, _ = kernels.polar_batch(3.0, u - 1.0)
    assert np.all(np.abs(vals * (u * u - 1.0) - 4.0 * math.pi) < 1e-9)


def test_kernel_d3_value_at_two():
    vals, _, _ = kernels.polar_batch(3.0, [1.0])
    assert abs(vals[0] - 4.0 * math.pi / 3.0) < 1e-10


def test_kernel_d2_regression_constant():
    vals, _, _ = kernels.polar_batch(2.0, [1.0])
    assert abs(vals[0] - K2_AT_2) < 1e-10


def test_kernel_monotone_in_u():
    for d in (1.5, 2.0, 3.0):
        vals, _, _ = kernels.polar_batch(d, [0.1, 0.5, 2.0, 10.0])
        assert np.all(np.diff(vals) < 0)


def test_kernel_u_to_one_limit():
    # (u-1) K_d(u) approaches a finite positive limit
    for d in (1.5, 2.0, 3.0):
        um1 = np.array([1e-2, 1e-4, 1e-6])
        vals, _, _ = kernels.polar_batch(d, um1)
        lim = um1 * vals
        assert np.all(lim > 0)
        ratios = lim[1:] / lim[:-1]
        assert np.all(np.abs(ratios - 1.0) < 0.05)


def test_kernel_singular_input():
    for d in (1.5, 2.0):
        with pytest.raises(SingularInputError):
            kernels.polar_batch(d, [0.5, 0.0])


@pytest.mark.parametrize("d", [1.5, 2.0])
def test_kernel_overflow_is_domain_error(d):
    # (u - 1) K_d(u) tends to |S^(d-1)| 2^((d-5)/2) Gamma(d/2) /
    # (Gamma((d+1)/2) Gamma(3/2)), 2 sqrt 2 at d = 2: K_d(1 + 1e-300) is
    # finite, and K_d(1 + 5e-324) is past the double range
    limit = (sphere_surface(d - 1) * 2.0 ** ((d - 5.0) / 2.0) * math.gamma(d / 2.0)
             / (math.gamma((d + 1.0) / 2.0) * math.gamma(1.5)))
    vals, _, _ = kernels.polar_batch(d, [1e-300])
    assert 1e-300 * vals[0] == pytest.approx(limit, rel=1e-14)
    if d == 2.0:
        assert vals[0] == pytest.approx(2.0 * math.sqrt(2.0) * 1e300, rel=1e-14)
    with pytest.raises(DomainError):
        kernels.polar_batch(d, [5e-324])


def test_sphere_surface_values():
    assert sphere_surface(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_surface(0) == pytest.approx(2.0, rel=1e-15)
    # Gamma((k+1)/2) overflows, then pi^((k+1)/2) too
    for k in (399.0, 1998.0):
        with pytest.raises(DomainError):
            sphere_surface(k)


def test_kernel_deterministic():
    a = kernels.polar_batch(2.3, [0.37])
    b = kernels.polar_batch(2.3, [0.37])
    assert np.array_equal(a[0], b[0]) and a[2] == b[2]
