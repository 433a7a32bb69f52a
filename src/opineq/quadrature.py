"""Adaptive Gauss-Kronrod quadrature of array integrands on finite intervals.

Everything here is deterministic: subdivision is worst-first with a
deterministic tie-break, so repeated runs give bit-identical results.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, OpineqError

SUBDIVISION_BUDGET = 10_000

# Gauss7/Kronrod15 nodes and weights on [-1, 1], to full double precision
# (tools/gk15_table.py computes them with mpmath); GIDX picks the Gauss
# nodes out of the Kronrod ones.
XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.20778495500789848, 0.0,
    0.20778495500789848, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993945, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
WK = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782,
    0.20443294007529889, 0.19035057806478542, 0.1690047266392679,
    0.14065325971552592, 0.10479001032225019, 0.06309209262997856,
    0.022935322010529224,
])
WG = np.array([
    0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.27970539148927664,
    0.1294849661688697,
])
GIDX = np.arange(1, 15, 2)

# Error estimates of resolved panels sit at a few ulps of the value, so
# no integral refines below this fraction of its abs-sum, whatever tol
# asks
ROUNDOFF_FLOOR = 1e-14

# An end half whose error estimate exceeds its sibling's DOMINANCE-fold
# marks a singular end, towards which the loop halves level after level
# (the ratio is 1e5 to 1e10 in 80% of the end splits of gamma_d's, the
# Mellin and the ridge-band integrands, and at most 300 where
# nonrel_form's smooth bump straddles the first midpoint).  Splitting
# such a half evaluates CHAIN levels in one call: gamma_d and Mellin
# tasks ran fastest with 8 to 10 of 1, 4, 6, ..., 16.
DOMINANCE = 1e4
CHAIN = 8


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


def _nodes(a, b):
    return 0.5 * (a + b) + 0.5 * (b - a) * XK


def _evaluate(f, x, a, b):
    """f on the node array x, checked for shape and finiteness on [a, b]."""
    try:
        fx = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    except DomainError:
        raise       # f's own, which names its cause
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


def _chain(f, lo, hi, a):
    """{(p, q): the (value, error) pairs of (p, mid) and (mid, q)} for
    (lo, hi), a panel at one end of (a, b), for its half at that end, and
    so on, CHAIN panels with the loop's own midpoints, from one call of f
    on all their halves' nodes."""
    panels, halves = [], []
    for _ in range(CHAIN):
        mid = 0.5 * (lo + hi)
        panels.append((lo, hi))
        halves += [_nodes(lo, mid), _nodes(mid, hi)]
        lo, hi = (lo, mid) if lo == a else (mid, hi)
    fx = _evaluate(f, np.concatenate(halves), *panels[0]).reshape(-1, 30)
    return {(p, q): _gk15(row[:15], p, 0.5 * (p + q)) + _gk15(row[15:], 0.5 * (p + q), q)
            for (p, q), row in zip(panels, fx)}


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10) -> QuadResult:
    """Adaptive Gauss-Kronrod integral of f over the finite interval (a, b).

    f is vectorized and elementwise: it maps a 1D ndarray of nodes to an
    ndarray of the integrand's values there (a scalar result is
    broadcast), each value independent of the other nodes.  Panels are
    split worst-first.  The first panel costs one call on its 15 nodes,
    and a split one call on the 30 nodes of both halves, except at a
    singular end (an end half with DOMINANCE times its sibling's error
    estimate): there one call evaluates the halves of CHAIN nested
    panels down to the end, which the next splits at that end take
    without a call.  The loop and the order of its sums do not depend on
    when a panel was evaluated, so value and error estimate are bitwise
    those of one call per split.  If such a call raises or meets a
    floating-point error, the split is made on its own 30 nodes, and
    nothing more is evaluated ahead.  evaluations counts every node
    passed to f.

    Raises AccuracyError (carrying the best estimate) if the relative
    tolerance is not reached within the subdivision budget, and
    DomainError for a tolerance that is not positive and finite (an inf
    one would accept the first panel), an infinite limit, or if f produces
    non-finite values.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tolerance must be positive and finite")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if not a < b:
        raise DomainError("empty or reversed integration interval")

    val, err = _gk15(_evaluate(f, _nodes(a, b), a, b), a, b)
    heap = [(-err, a, b, val, err)]
    total, toterr, abssum = val, err, abs(val)
    nev = 15
    splits = 0
    ahead = set()       # end halves of singular ends, split with CHAIN levels
    ready = {}          # (lo, hi) -> the halves' (v1, e1, v2, e2), evaluated ahead
    while True:
        # a cancelling integral stops at the roundoff floor
        if toterr <= max(tol * abs(total), ROUNDOFF_FLOOR * abssum, 1e-300):
            return QuadResult(total, toterr, nev)
        if splits >= SUBDIVISION_BUDGET:
            raise AccuracyError(
                "accuracy not reached after %d subdivisions" % splits,
                best=QuadResult(total, toterr, nev),
            )
        _, lo, hi, v0, e0 = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if ahead and (lo, hi) in ahead and (lo, hi) not in ready:
            nev += 30 * CHAIN
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    ready.update(_chain(f, lo, hi, a))
            except (OpineqError, ArithmeticError):
                # nodes this split never needs may fail: split it on its
                # own 30 nodes, which raise only what f raises there, and
                # evaluate nothing ahead from now on
                ahead = None
        if ready and (lo, hi) in ready:
            v1, e1, v2, e2 = ready.pop((lo, hi))
        else:
            fx = _evaluate(f, np.concatenate([_nodes(lo, mid), _nodes(mid, hi)]), lo, hi)
            v1, e1 = _gk15(fx[:15], lo, mid)
            v2, e2 = _gk15(fx[15:], mid, hi)
            nev += 30
        if ahead is not None:
            if lo == a and e1 > DOMINANCE * e2:
                ahead.add((lo, mid))
            if hi == b and e2 > DOMINANCE * e1:
                ahead.add((mid, hi))
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        total += v1 + v2 - v0
        toterr += e1 + e2 - e0
        abssum += abs(v1) + abs(v2) - abs(v0)
        splits += 1
