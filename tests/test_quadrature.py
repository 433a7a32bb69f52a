import heapq
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from opineq.errors import AccuracyError, DomainError, SingularInputError
from opineq.quadrature import (GIDX, WG, WK, XK, QuadResult,
                               angular_kernel_batch, integrate_adaptive,
                               sphere_surface)

K2_AT_2 = 2.9125841903282682   # int_0^{2pi} (2 - cos t)^{-3/2} dt, mpmath 30 digits


def test_constant_integrand():
    res = integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-10)
    assert abs(res.value - 1.0) < 1e-12
    assert res.evaluations >= 1


def test_inverse_sqrt_endpoint_singularity():
    res = integrate_adaptive(lambda x: x ** -0.5, 0.0, 1.0, 1e-10)
    assert abs(res.value - 2.0) < 1e-9


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0),
                                 (-math.inf, math.inf)])
def test_infinite_limit_rejected(a, b):
    # rejected before any node is formed: the suite turns the
    # RuntimeWarning of a NaN node into an error of its own
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: np.exp(-x * x), a, b)


def test_nonconvergence_carries_best_estimate():
    # oscillation far beyond what the subdivision budget can resolve
    with pytest.raises(AccuracyError) as exc:
        integrate_adaptive(lambda x: np.cos(3e7 * x * x), 0.0, 1.0, 1e-10)
    assert exc.value.best is not None
    assert exc.value.best.evaluations > 1000


def _scalar_reference(f, a, b, tol):
    """The adaptive scheme with one scalar integrand call per node:
    (value, evaluations), for comparison with the batched calls."""
    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = np.array([f(mid + half * x) for x in XK])
        ik = float(WK @ fx) * half
        return ik, abs(ik - float(WG @ fx[GIDX]) * half)

    val, err = panel(a, b)
    heap = [(-err, a, b, val, err)]
    total, toterr, abssum, nev = val, err, abs(val), 15
    while toterr > max(tol * abs(total), 1e-14 * abssum, 1e-300):
        _, lo, hi, v0, e0 = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = panel(lo, mid), panel(mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        total += v1 + v2 - v0
        toterr += e1 + e2 - e0
        abssum += abs(v1) + abs(v2) - abs(v0)
        nev += 30
    return total, nev


@pytest.mark.parametrize("f,a,b", [
    (lambda x: np.exp(x) * np.cos(3.0 * x), 0.0, 2.0),     # smooth
    (lambda x: np.log(x) / np.sqrt(x), 0.0, 1.0),          # endpoint singular
])
def test_array_integrand_contract(f, a, b):
    sizes = []

    def counted(x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        sizes.append(x.size)
        return f(x)

    res = integrate_adaptive(counted, a, b, 1e-11)
    assert sizes[0] == 15 and len(sizes) > 1
    assert all(n == 30 for n in sizes[1:])
    assert res.evaluations == sum(sizes)
    ref, nev = _scalar_reference(f, a, b, 1e-11)
    assert res.evaluations == nev
    assert abs(res.value - ref) <= 1e-15 * abs(ref)


def test_integrand_shape_mismatch_is_domain_error():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x[:3], 0.0, 1.0)


def test_nan_integrand_is_domain_error():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: float("nan"), 0.0, 1.0, 1e-8)


def test_bad_interval_and_tolerance():
    for a, b in ((1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, a, b)
    for tol in (-1.0, math.nan):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, tol=tol)


def test_quadresult_invariants():
    with pytest.raises(DomainError):
        QuadResult(float("inf"), 0.0, 1)
    with pytest.raises(DomainError):
        QuadResult(1.0, -1.0, 1)
    with pytest.raises(DomainError):
        QuadResult(1.0, 0.0, 0)


def test_angular_query_invariants():
    # d > 1 for the continued sin^(d-2) weight; u = (r + 1/r)/2 >= 1
    for d in (0.5, 1.0):
        with pytest.raises(DomainError):
            angular_kernel_batch(d, [1.0])
    with pytest.raises(DomainError):
        angular_kernel_batch(2.0, [1.0, -0.5])


def test_kernel_d3_closed_form():
    # K_3(u) (u^2 - 1) = 4 pi
    u = np.array([1.1, 2.0, 10.0])
    vals, _, _ = angular_kernel_batch(3.0, u - 1.0)
    assert np.all(np.abs(vals * (u * u - 1.0) - 4.0 * math.pi) < 1e-9)


def test_kernel_d3_value_at_two():
    vals, _, _ = angular_kernel_batch(3.0, [1.0])
    assert abs(vals[0] - 4.0 * math.pi / 3.0) < 1e-10


def test_kernel_d2_regression_constant():
    vals, _, _ = angular_kernel_batch(2.0, [1.0])
    assert abs(vals[0] - K2_AT_2) < 1e-10


def test_kernel_monotone_in_u():
    for d in (1.5, 2.0, 3.0):
        vals, _, _ = angular_kernel_batch(d, [0.1, 0.5, 2.0, 10.0])
        assert np.all(np.diff(vals) < 0)


def test_kernel_u_to_one_limit():
    # (u-1) K_d(u) approaches a finite positive limit
    for d in (1.5, 2.0, 3.0):
        um1 = np.array([1e-2, 1e-4, 1e-6])
        vals, _, _ = angular_kernel_batch(d, um1)
        lim = um1 * vals
        assert np.all(lim > 0)
        ratios = lim[1:] / lim[:-1]
        assert np.all(np.abs(ratios - 1.0) < 0.05)


def test_kernel_singular_input():
    for d in (1.5, 2.0):
        with pytest.raises(SingularInputError):
            angular_kernel_batch(d, [0.5, 0.0])


@pytest.mark.parametrize("d", [1.5, 2.0])
def test_kernel_overflow_is_domain_error(d):
    # (u - 1) K_d(u) tends to |S^(d-1)| 2^((d-5)/2) Gamma(d/2) /
    # (Gamma((d+1)/2) Gamma(3/2)), 2 sqrt 2 at d = 2: K_d(1 + 1e-300) is
    # finite, and K_d(1 + 5e-324) is past the double range
    limit = (sphere_surface(d - 1) * 2.0 ** ((d - 5.0) / 2.0) * math.gamma(d / 2.0)
             / (math.gamma((d + 1.0) / 2.0) * math.gamma(1.5)))
    vals, _, _ = angular_kernel_batch(d, [1e-300])
    assert 1e-300 * vals[0] == pytest.approx(limit, rel=1e-14)
    if d == 2.0:
        assert vals[0] == pytest.approx(2.0 * math.sqrt(2.0) * 1e300, rel=1e-14)
    with pytest.raises(DomainError):
        angular_kernel_batch(d, [5e-324])


def test_sphere_surface_values():
    assert sphere_surface(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_surface(0) == pytest.approx(2.0, rel=1e-15)


def test_kernel_deterministic():
    a = angular_kernel_batch(2.3, [0.37])
    b = angular_kernel_batch(2.3, [0.37])
    assert np.array_equal(a[0], b[0]) and a[2] == b[2]


def _load_gk15_generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "gk15_table.py"
    spec = importlib.util.spec_from_file_location("gk15_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gk15_tables_are_full_precision():
    # regenerated from the Legendre and Stieltjes roots at 30 digits: every
    # stored node and weight within an ulp, and each weight set summing to
    # 2 within an ulp (15-digit tables left the Kronrod sum 6e-15 short)
    for stored, exact in zip((XK, WK, WG), _load_gk15_generator().gk15()):
        exact = np.array([float(v) for v in exact])
        assert np.all(np.abs(stored - exact) <= np.spacing(np.abs(exact)))
    for w in (WK, WG):
        assert abs(math.fsum(w) - 2.0) <= np.spacing(2.0)
