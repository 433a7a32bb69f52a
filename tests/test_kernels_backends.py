"""The numpy polar kernel: determinism, and batches that share panels."""

import mpmath
import numpy as np
import pytest

import opineq.kernels as kernels


def test_selected_backend_deterministic():
    um1 = np.geomspace(1e-6, 10.0, 25)
    v1, _, n1 = kernels.polar_batch(1.5, 0.0, 0, um1, np.zeros(25), 1e-11)
    v2, _, n2 = kernels.polar_batch(1.5, 0.0, 0, um1, np.zeros(25), 1e-11)
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
    um1 = np.geomspace(1e-10, 1e3, 30)
    eta = np.concatenate([np.zeros(15), np.geomspace(1e-8, 1.0, 15)])
    v, e, n = kernels.polar_batch(p, w, m, um1, eta, 1e-11, omc)
    assert n >= 15 * um1.size and np.all(e >= 0)
    ref, ref_e = np.array([
        [r[0] for r in kernels.polar_batch(p, w, m, [u], [t], 1e-11, omc)[:2]]
        for u, t in zip(um1, eta)]).T
    # an element whose integral cancels below roundoff reports its error
    # above tol; agreement is then only owed within that report
    assert np.all(np.abs(v - ref) <= 1e-10 * np.abs(ref) + e + ref_e)


@pytest.mark.parametrize("p,w,m,omc,um1", [
    (0.0, -0.5, 0, False, 1.0),     # sin^(-1/2) t, singular at both ends
    (1.5, 0.0, 1, True, 1e-10),     # 1 - cos t ~ t^2/2 under the u ~ 1 peak
    (1.5, 0.0, 2, True, 1e-8),
])
def test_relative_precision_at_the_ends(p, w, m, omc, um1):
    v, e, _ = kernels.polar_batch(p, w, m, [um1], [0.0], 1e-11, omc)
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
    v, e, n = kernels.polar_batch(0.5, 0.0, 2, [100.0], [0.0], 1e-11)
    assert n < 1000
    with mpmath.workdps(30):
        exact = float(mpmath.quad(
            lambda t: mpmath.cos(2 * t) / mpmath.sqrt(100 + 2 * mpmath.sin(t / 2) ** 2),
            [0, mpmath.pi / 2, mpmath.pi]))
    assert abs(v[0] - exact) <= e[0]
