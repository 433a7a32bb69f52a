"""Adaptive 1D quadrature and the angular surface integrals over S^(d-1).

Everything here is deterministic: subdivision is worst-first with a
deterministic tie-break, so repeated runs give bit-identical results.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from . import kernels
from .errors import AccuracyError, DomainError, SingularInputError
from .kernels import GIDX, ROUNDOFF_FLOOR, WG, WK, XK

SUBDIVISION_BUDGET = 10_000


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with an error estimate and evaluation count."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError("quadrature value is not finite")
        if self.abs_error_estimate < 0 or self.evaluations < 1:
            raise DomainError("invalid quadrature metadata")


@dataclass(frozen=True)
class AngularKernelQuery:
    """Inputs of the S^(d-1) kernel integral.

    u is the reduced variable (r + 1/r)/2 >= 1 and eta the regularizer
    added to the (u - w.e)^((d+1)/2) denominator.  The kernel depends on
    the unit vector e only through w.e, so it never appears explicitly.
    """

    d: float
    u: float
    eta: float = 0.0

    def __post_init__(self):
        # d > 1 for the continued sin^(d-2) weight; d = 1 exactly is the
        # two-point sphere S^0 and is evaluated in closed form.
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        if self.u < 1:
            raise DomainError("u = (r + 1/r)/2 is >= 1 by construction")
        if self.eta < 0:
            raise DomainError("regularizer eta must be >= 0")


def sphere_surface(k: float) -> float:
    """Surface measure |S^k| = 2 pi^((k+1)/2) / Gamma((k+1)/2), continued in k."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / gamma_fn((k + 1) / 2.0)


def _nodes(a, b):
    return 0.5 * (a + b) + 0.5 * (b - a) * XK


def _evaluate(f, x, a, b):
    """f on the node array x, checked for shape and finiteness on [a, b]."""
    try:
        fx = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    except ValueError:
        raise DomainError("integrand must map an array of %d nodes to as many values"
                          % x.size) from None
    if not np.all(np.isfinite(fx)):
        raise DomainError("integrand returned NaN or infinity on [%g, %g]" % (a, b))
    return fx


def _gk15(fx, a, b):
    half = 0.5 * (b - a)
    ik = float(WK @ fx) * half
    ig = float(WG @ fx[GIDX]) * half
    return ik, abs(ik - ig)


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10) -> QuadResult:
    """Adaptive Gauss-Kronrod integral of f over (a, b); b may be +inf.

    f is vectorized: it maps a 1D ndarray of nodes to an ndarray of the
    integrand's values there (a scalar result is broadcast).  The first
    panel costs one call on its 15 nodes; each subdivision then costs one
    call on the 30 nodes of both halves.  Panels are split worst-first.

    A semi-infinite upper limit is mapped to (0, 1) through
    x = a + t/(1-t).  Raises AccuracyError (carrying the best estimate)
    if the relative tolerance is not reached within the subdivision
    budget, and DomainError if f produces non-finite values.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if not a < b:
        raise DomainError("empty or reversed integration interval")
    g = f
    if math.isinf(b):
        def g(t, _f=f, _a=a):
            w = 1.0 - t
            return _f(_a + t / w) / (w * w)
        a, b = 0.0, 1.0

    val, err = _gk15(_evaluate(g, _nodes(a, b), a, b), a, b)
    heap = [(-err, a, b, val, err)]
    total, toterr, abssum = val, err, abs(val)
    nev = 15
    splits = 0
    while True:
        # a cancelling integral stops at the kernel's roundoff floor
        if toterr <= max(tol * abs(total), ROUNDOFF_FLOOR * abssum, 1e-300):
            return QuadResult(total, toterr, nev)
        if splits >= SUBDIVISION_BUDGET:
            raise AccuracyError(
                "accuracy not reached after %d subdivisions" % splits,
                best=QuadResult(total, toterr, nev),
            )
        _, lo, hi, v0, e0 = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        fx = _evaluate(g, np.concatenate([_nodes(lo, mid), _nodes(mid, hi)]), lo, hi)
        v1, e1 = _gk15(fx[:15], lo, mid)
        v2, e2 = _gk15(fx[15:], mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        total += v1 + v2 - v0
        toterr += e1 + e2 - e0
        abssum += abs(v1) + abs(v2) - abs(v0)
        nev += 30
        splits += 1


def angular_kernel_batch(d: float, um1, eta, tol: float = 1e-11):
    """K_d(u, eta) for arrays of u-1 and eta; returns (values, errors, evals).

    K_d(u, eta) = int over S^(d-1) of dw / ((u - w.e)^((d+1)/2) + eta),
    reduced to the polar integral with weight |S^(d-2)| sin^(d-2).
    """
    if not d > 1:
        raise DomainError("batched kernel needs d > 1 (d = 1 is the two-point sum)")
    um1 = np.atleast_1d(np.asarray(um1, dtype=float))
    eta = np.broadcast_to(np.asarray(eta, dtype=float), um1.shape)
    if np.any(um1 < 0):
        raise DomainError("u must be >= 1")
    if np.any((um1 == 0.0) & (eta == 0.0)):
        raise SingularInputError("u = 1 with eta = 0 is a non-integrable singularity")
    p = (d + 1) / 2.0
    vals, errs, nev = kernels.polar_batch(p, d - 2.0, 0, um1, eta, tol)
    c = sphere_surface(d - 2)
    return c * vals, c * errs, nev


def angular_kernel(q: AngularKernelQuery, tol: float = 1e-11) -> QuadResult:
    """Surface integral K_d(u, eta); d = 1 served by the exact two-point S^0 sum."""
    if q.d == 1.0:
        if q.u == 1.0 and q.eta == 0.0:
            raise SingularInputError("u = 1 with eta = 0 is singular")
        v = 1.0 / ((q.u - 1.0) + q.eta) + 1.0 / ((q.u + 1.0) + q.eta)
        return QuadResult(v, 0.0, 2)
    vals, errs, nev = angular_kernel_batch(q.d, [q.u - 1.0], [q.eta], tol)
    return QuadResult(float(vals[0]), float(errs[0]), int(nev))
