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
    """Adaptive Gauss-Kronrod integral of f over the finite interval (a, b).

    f is vectorized: it maps a 1D ndarray of nodes to an ndarray of the
    integrand's values there (a scalar result is broadcast).  The first
    panel costs one call on its 15 nodes; each subdivision then costs one
    call on the 30 nodes of both halves.  Panels are split worst-first.

    Raises AccuracyError (carrying the best estimate) if the relative
    tolerance is not reached within the subdivision budget, and
    DomainError for an infinite limit or if f produces non-finite values.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if not a < b:
        raise DomainError("empty or reversed integration interval")

    val, err = _gk15(_evaluate(f, _nodes(a, b), a, b), a, b)
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
        fx = _evaluate(f, np.concatenate([_nodes(lo, mid), _nodes(mid, hi)]), lo, hi)
        v1, e1 = _gk15(fx[:15], lo, mid)
        v2, e2 = _gk15(fx[15:], mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        total += v1 + v2 - v0
        toterr += e1 + e2 - e0
        abssum += abs(v1) + abs(v2) - abs(v0)
        nev += 30
        splits += 1


def angular_kernel_batch(d: float, um1, tol: float = 1e-11):
    """K_d(u) for an array of u-1; returns (values, errors, evals).

    K_d(u) = int over S^(d-1) of dw / (u - w.e)^((d+1)/2), reduced to the
    polar integral with weight |S^(d-2)| sin^(d-2).  Raises DomainError
    if a value or its error is not finite (u - 1 so small that the
    kernel overflows).
    """
    if not d > 1:
        raise DomainError("angular kernel needs d > 1")
    um1 = np.atleast_1d(np.asarray(um1, dtype=float))
    lo = um1.min() if um1.size else 1.0
    if lo < 0:
        raise DomainError("u must be >= 1")
    if lo == 0.0:
        raise SingularInputError("u = 1 is a non-integrable singularity")
    p = (d + 1) / 2.0
    # an overflowing kernel is reported below as a DomainError, not a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals, errs, nev = kernels.polar_batch(p, d - 2.0, 0, um1, tol=tol)
        c = sphere_surface(d - 2)
        vals, errs = c * vals, c * errs
    # the error bound is not finite wherever the value is not
    if not np.isfinite(errs).all():
        bad = ~(np.isfinite(vals) & np.isfinite(errs))
        raise DomainError("angular kernel is not finite at u - 1 = %g" % um1[bad][0])
    return vals, errs, nev
