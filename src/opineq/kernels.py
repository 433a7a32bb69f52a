"""The hot quadrature kernel, vectorized in numpy, and the GK15 table.

The one primitive is the polar reduction integral

    I(um1) = int_0^pi  sin^w(t) * c(t) / (um1 + 2 sin^2(t/2))^p dt

with c = 1 for m = 0 and c = 1 - cos(m t) for m >= 1, evaluated for a
whole batch of um1 values at once.  um1 stands for u - 1 >= 0 so that
the near-singular regime u -> 1 keeps full relative precision.

Strategy: split at pi/2 and map each half to v in [0, 1] through
t = (pi/2) v^q (resp. pi - (pi/2) v^q).  q is the smallest exponent
>= max(2, 2/(w+1)) with q(w+1) an integer, so Jacobian times sin^w goes
as the integer power v^(q(w+1)-1) at both ends, which GK15 integrates
without refinement.  The u ~ 1 peak at t ~ sqrt(2 (u - 1)) lies in the
half at t = 0, and each chunk starts that half from a mesh graded
geometrically towards it: the dyadic panels [0, 2^-K], [2^-K, 2^-K+1],
..., [1/2, 1], with K the halvings from v = 1 down to the peak of the
chunk's smallest u - 1 (K = 0, the single panel [0, 1], once u - 1 is
about 1 or more).  Shared adaptive Gauss-Kronrod panels, refined where
any batch element still needs it, then only polish that start.
"""

import math

import numpy as np

from .errors import DomainError

backend_name = "python"

# Gauss7/Kronrod15 nodes and weights on [-1, 1], shared with the outer
# adaptive quadrature; GIDX picks the Gauss nodes out of the Kronrod ones.
XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
GIDX = np.arange(1, 15, 2)

_HALF_PI = 0.5 * np.pi

# Error estimates of resolved panels sit at a few ulps of the value (the
# integrand is never negative), so no element refines below this fraction
# of it, whatever tol asks; the outer quadrature applies the same floor.
ROUNDOFF_FLOOR = 1e-14
MAX_PANELS = 800
CHUNK = 2048
# cap on the dyadic levels of region 0's graded start (u - 1 ~ 0)
GRADED_LEVELS = 30


def _eval_panels(a, b, region, q, p, w, m, um1):
    """GK15 on panels [a_j, b_j]; returns (vals, errs) of shape (npanel, ne)."""
    a = a[:, None]
    b = b[:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    v = mid + half * XK[None, :]                      # (np, 15)
    x = _HALF_PI * v ** q
    jac = _HALF_PI * q * v ** (q - 1.0)
    theta = np.pi - x if region == 1 else x
    # x is the distance of t from the endpoint 0 (region 0) or pi (region 1).
    # sin t and 2 sin^2(t/2) are taken from x, because pi - x drops x's
    # relative precision and the sin^w factor is singular there for w < 0;
    # 1 - cos is taken as 2 sin^2 so it keeps its precision near t = 0.
    # integrand factors, broadcast to (np, 15, ne)
    s2 = 2.0 * (np.cos if region == 1 else np.sin)(0.5 * x) ** 2
    f = jac[:, :, None] / (um1[None, None, :] + s2[:, :, None]) ** p
    if w != 0.0:
        f = f * (np.sin(x) ** w)[:, :, None]
    if m != 0:
        f = f * (2.0 * np.sin(0.5 * m * theta) ** 2)[:, :, None]
    ik = np.einsum("k,pke->pe", WK, f)
    ig = np.einsum("k,pke->pe", WG, f[:, GIDX, :])
    vals = ik * half[:, 0:1]
    errs = np.abs(ik - ig) * half[:, 0:1]
    return vals, errs


def polar_batch(p, w, m, um1, *, tol=1e-11):
    """Batched polar integral; returns (values, abs_errors, n_evaluations).

    The weight is 1 for m = 0 and 1 - cos(m t) for m >= 1.  An element
    is converged once its error estimate is within max(tol,
    ROUNDOFF_FLOOR) of its value; the returned errors are the estimates
    either way.
    Elements are processed CHUNK at a time, and within a chunk panels
    are evaluated in blocks of at most CHUNK panel-elements, which
    bounds the size of every temporary array.  A chunk stops refining at
    MAX_PANELS panels.  A tolerance that is not positive raises
    DomainError: only the roundoff floor would end its refinement.  So
    does a nan or negative u - 1; u - 1 = inf is the far tail, an exact 0.
    `tol` is keyword-only.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    um1 = np.atleast_1d(np.asarray(um1, dtype=float))
    if not np.all(um1 >= 0):
        raise DomainError("u - 1 must be >= 0, not nan")
    ne = um1.size
    out_v = np.empty(ne)
    out_e = np.empty(ne)
    nev = 0
    q = _endpoint_exponent(w)
    for lo in range(0, ne, CHUNK):
        hi = min(lo + CHUNK, ne)
        v, e, n = _polar_chunk(p, w, m, um1[lo:hi], tol, q)
        out_v[lo:hi] = v
        out_e[lo:hi] = e
        nev += n
    return out_v, out_e, nev


def _endpoint_exponent(w):
    """The smallest q >= max(2, 2/(w+1)) with q(w+1) an integer.

    Jacobian times sin^w then goes as v^(q(w+1)-1), an integer power of
    v that GK15 integrates without refinement.  The 1e-12 absorbs the
    rounding of q(w+1) when 2/(w+1) is the larger bound.
    """
    wp1 = w + 1.0
    return math.ceil(max(2.0, 2.0 / wp1) * wp1 - 1e-12) / wp1


def _graded_levels(um1_min, q):
    """Halvings from v = 1 down to region 0's peak, at most GRADED_LEVELS.

    The peak t ~ sqrt(2 (u - 1)) sits at v_c = (t / (pi/2))^(1/q); a
    chunk whose u - 1 are all ~1 or more has its peak at v_c >= 1.
    """
    v_c = (math.sqrt(2.0 * um1_min) / _HALF_PI) ** (1.0 / q)
    if v_c >= 1.0:
        return 0
    if v_c <= 2.0 ** -GRADED_LEVELS:
        return GRADED_LEVELS
    return math.ceil(-math.log2(v_c))


def _polar_chunk(p, w, m, um1, tol, q):
    ne = um1.size
    block = max(1, CHUNK // ne)

    def evaluate(a, b, reg):
        vals = np.empty((a.size, ne))
        errs = np.empty((a.size, ne))
        for region in (0, 1):
            idx = np.flatnonzero(reg == region)
            for lo in range(0, idx.size, block):
                sel = idx[lo:lo + block]
                vals[sel], errs[sel] = _eval_panels(
                    a[sel], b[sel], region, q, p, w, m, um1)
        return vals, errs

    # region 0: 0, 2^-K, ..., 1/2, 1; region 1: the single panel [0, 1]
    edges = np.append(0.0, 2.0 ** np.arange(-_graded_levels(um1.min(), q), 1))
    a = np.append(edges[:-1], 0.0)
    b = np.append(edges[1:], 1.0)
    reg = np.append(np.zeros(edges.size - 1, dtype=int), 1)
    vals, errs = evaluate(a, b, reg)
    nev = 15 * a.size * ne

    while a.size < MAX_PANELS:
        err = errs.sum(axis=0)
        target = max(tol, ROUNDOFF_FLOOR) * np.abs(vals.sum(axis=0))
        live = err > target
        if not live.any():
            break
        # refine every panel holding more than its share of a live element's budget
        share = target[None, live] / (4.0 * a.size)
        split = (errs[:, live] > share).any(axis=1)
        if not split.any():
            split[np.argmax(errs[:, live].max(axis=1))] = True
        mid = 0.5 * (a[split] + b[split])
        na = np.concatenate([a[split], mid])
        nb = np.concatenate([mid, b[split]])
        nreg = np.concatenate([reg[split], reg[split]])
        newv, newe = evaluate(na, nb, nreg)
        nev += 15 * na.size * ne
        keep = ~split
        a = np.concatenate([a[keep], na])
        b = np.concatenate([b[keep], nb])
        reg = np.concatenate([reg[keep], nreg])
        vals = np.concatenate([vals[keep], newv], axis=0)
        errs = np.concatenate([errs[keep], newe], axis=0)

    return vals.sum(axis=0), errs.sum(axis=0), nev
