"""The numpy polar kernel: determinism, and batches that share panels."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opineq.kernels as kernels
from opineq.errors import DomainError
from opineq.quadrature import angular_kernel_batch


def test_selected_backend_deterministic():
    um1 = np.geomspace(1e-6, 10.0, 25)
    v1, _, n1 = kernels.polar_batch(1.5, 0.0, 0, um1, tol=1e-11)
    v2, _, n2 = kernels.polar_batch(1.5, 0.0, 0, um1, tol=1e-11)
    assert np.array_equal(v1, v2)
    assert n1 == n2


def test_backend_name_reported():
    assert kernels.backend_name == "python"


@pytest.mark.parametrize("p,w,m,omc", [
    (1.5, 0.0, 0, False),      # d=2 angular kernel
    (2.0, 1.0, 0, False),      # d=3
    (1.25, -0.5, 0, False),    # d=1.5, singular sin weight
    (0.5, 0.0, 0, False),      # Coulomb channel kernel
    (0.5, 0.0, 2, False),      # cos(2 theta) weight
    (1.5, 0.0, 1, True),       # 1 - cos weight
])
def test_batched_call_matches_per_element(p, w, m, omc):
    # one call refines panels shared by all elements, as the outer
    # quadrature's 15- and 30-node calls do
    _assert_batch_matches_elements(p, w, m, omc, np.geomspace(1e-10, 1e3, 30))


def _assert_batch_matches_elements(p, w, m, omc, um1):
    v, e, n = kernels.polar_batch(p, w, m, um1, tol=1e-11, one_minus_cos=omc)
    assert n >= 15 * um1.size and np.all(e >= 0)
    ref, ref_e = np.array([
        [r[0] for r in kernels.polar_batch(p, w, m, [u], tol=1e-11,
                                           one_minus_cos=omc)[:2]]
        for u in um1]).T
    # an element whose integral cancels below roundoff reports its error
    # above tol; agreement is then only owed within that report
    assert np.all(np.abs(v - ref) <= 1e-10 * np.abs(ref) + e + ref_e)


# the kernel arguments of each library caller: angular_kernel_batch at
# p = (d+1)/2, w = d-2; anticomm.channel_moments at p = 3/2 with the
# 1 - cos weight; spectra.coulomb_channel_kernel at p = 1/2
CALLER_ARGS = st.one_of(
    st.floats(1.2, 6.0).map(lambda d: ((d + 1.0) / 2.0, d - 2.0, 0, False)),
    st.tuples(st.just(1.5), st.just(0.0), st.integers(1, 3), st.just(True)),
    st.tuples(st.just(0.5), st.just(0.0), st.integers(0, 3), st.just(False)),
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


@pytest.mark.parametrize("p,w,m,omc,um1", [
    (0.0, -0.5, 0, False, 1.0),     # sin^(-1/2) t, singular at both ends
    (1.5, 0.0, 1, True, 1e-10),     # 1 - cos t ~ t^2/2 under the u ~ 1 peak
    (1.5, 0.0, 2, True, 1e-8),
])
def test_relative_precision_at_the_ends(p, w, m, omc, um1):
    v, e, _ = kernels.polar_batch(p, w, m, [um1], tol=1e-11, one_minus_cos=omc)
    with mpmath.workdps(30):
        u = mpmath.mpf(um1)

        def f(t):
            c = 2 * mpmath.sin(m * t / 2) ** 2 if omc else mpmath.cos(m * t)
            return mpmath.sin(t) ** w * c / (u + 2 * mpmath.sin(t / 2) ** 2) ** p

        breaks = [0] + [mpmath.mpf(10) ** k for k in range(-6, 1)] + [mpmath.pi]
        exact = float(mpmath.quad(f, breaks))
    assert e[0] <= 1e-11 * abs(v[0])
    assert abs(v[0] - exact) <= 1e-13 * abs(exact)


def test_cancelling_element_stops_at_roundoff_floor():
    # the cos(2t) integral at u - 1 = 100 cancels to ~1e-6 of its absolute
    # mass; refinement stops at the roundoff floor instead of the panel cap
    v, e, n = kernels.polar_batch(0.5, 0.0, 2, [100.0], tol=1e-11)
    assert n < 1000
    with mpmath.workdps(30):
        exact = float(mpmath.quad(
            lambda t: mpmath.cos(2 * t) / mpmath.sqrt(100 + 2 * mpmath.sin(t / 2) ** 2),
            [0, mpmath.pi / 2, mpmath.pi]))
    assert abs(v[0] - exact) <= e[0]


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_non_positive_tolerance_rejected(tol):
    # only the roundoff floor would end the refinement
    with pytest.raises(DomainError):
        kernels.polar_batch(1.5, 0, 0, [0.5], tol=tol)


def test_tolerance_is_keyword_only():
    # perfbench's tracer reads the tolerance from the keywords: a positional
    # one would be counted against the default, without any error
    with pytest.raises(TypeError):
        kernels.polar_batch(1.5, 0.0, 0, [0.5], 1e-11)
    with pytest.raises(TypeError):
        kernels.polar_batch(1.5, 0.0, 0, [0.5], tol=1e-11, one_minus_cos=False,
                            eta=[0.0])
