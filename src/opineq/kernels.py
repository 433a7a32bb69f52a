"""The polar kernel, vectorized in numpy, and the GK15 table.

The one primitive is the polar reduction integral

    I(um1) = int_0^pi  sin^w(t) * c(t) / (um1 + 2 sin^2(t/2))^p dt

with c = 1 for m = 0 and c = 1 - cos(m t) for m >= 1, evaluated for a
whole batch of um1 values at once.  um1 stands for u - 1 >= 0 so that
the near-singular regime u -> 1 keeps full relative precision.

m = 0 is a closed form.  With u = cosh x, u - cos t is
(e^x / 2) (1 - 2 a cos t + a^2), a = e^-x, and the Gegenbauer expansion
of its power gives

    I = B((w+1)/2, 1/2) (2a)^p 2F1(p, p - w/2; w/2 + 1; a^2).

Its c - a - b is -n, n = 2p - w - 1, so for n > 0 the series blows up
like (1 - a^2)^-n at u = 1; Euler's transformation (DLMF 15.8.1) takes
that factor out, and with 2a / (1 - a^2) = 1 / sinh x

    I = B (2a)^(p-n) sinh(x)^-n 2F1((1-n)/2, w + 1 - p; w/2 + 1; a^2),

whose series has c - a - b = n and is finite at a = 1.  The angular
kernel K_d has p = (d+1)/2, w = d - 2, so n = 2 exactly.

m >= 1 is an adaptive quadrature.  It splits at pi/2 and maps each half
to v in [0, 1] through
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

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import hyp2f1

from .errors import DomainError

backend_name = "python"

# Gauss7/Kronrod15 nodes and weights on [-1, 1], shared with the outer
# adaptive quadrature, to full double precision (tools/gk15_table.py
# computes them with mpmath); GIDX picks the Gauss nodes out of the
# Kronrod ones.
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

_HALF_PI = 0.5 * np.pi

# Error estimates of resolved panels sit at a few ulps of the value (the
# integrand is never negative), so no element refines below this fraction
# of it, whatever tol asks; the outer quadrature applies the same floor.
ROUNDOFF_FLOOR = 1e-14
MAX_PANELS = 800
CHUNK = 2048
# cap on the dyadic levels of region 0's graded start (u - 1 ~ 0)
GRADED_LEVELS = 30

_U = 2.0 ** -53  # unit roundoff
# allowances, in units of _U, for scipy's hyp2f1 with the rounding of its
# parameters, and for scipy's beta: measured against mpmath on the K_d
# family, d in (1.01, 20), at most 29 and 7 units
# (tests/test_kernels_backends.py holds the resulting bound)
HYP2F1_ULPS = 40.0
BETA_ULPS = 10.0


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

    The weight is 1 for m = 0 and 1 - cos(m t) for m >= 1.

    m = 0 is the closed form of the module docstring, one evaluation per
    element, whatever tol asks; w must exceed -1.  Its error is a bound
    (_polar_closed).  For K_d, d in (1, 20], the bound stays below
    ROUNDOFF_FLOOR of the value up to u - 1 = 1e130; farther out it may
    grow with ln(u - 1).
    For m >= 1 an element is converged once its error estimate is within
    max(tol, ROUNDOFF_FLOOR) of its value; the returned errors are the
    estimates either way.
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
    ne = um1.size
    lo = um1.min() if ne else 0.0
    if not lo >= 0:
        raise DomainError("u - 1 must be >= 0, not nan")
    if m == 0:
        return (*_polar_closed(p, w, um1, lo), ne)
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


class _ClosedForm(NamedTuple):
    """The scalars of the m = 0 closed form for one (p, w)."""

    a: float        # 2F1(a, b; c; e^-2x), and its slope's parameters
    b: float
    c: float
    a1: float
    b1: float
    c1: float
    slope: float    # f' = slope 2F1(a1, b1; c1; .)
    n: float        # 2p - w - 1, snapped to an integer within rounding
    beta: float     # B((w+1)/2, 1/2)
    e: float        # exponent of 2a: p - n for n > 0, else p
    de: float       # miss of e, and of e + n and n (far from u = 1)
    dpc: float
    dn: float
    far_from: float  # u - 1 beyond which (2a)^e and sinh^-n x may leave
                     # the normal range


@functools.lru_cache(maxsize=64)
def _closed_form(p, w):
    """_ClosedForm of (p, w).

    n = 2p - w - 1 is snapped to the nearest integer when it lies within
    the rounding of p and w of one.  For n > 0 the series is the Euler
    transform and p is taken as (w + 1 + n) / 2, so that p - n is
    (w + 1 - n) / 2 with no rounding of p in it.  b is formed as
    (c - a) - |n|, which makes scipy's c - a - b exactly the integer |n|
    (|n| - 1 for the slope): scipy's hyp2f1 near argument 1 is off by up
    to 9e-7 when c - a - b misses an integer by one ulp.  The misses of
    the prefactor's exponents are found exactly with fsum.
    """
    n = 2.0 * p - w - 1.0
    snapped = abs(n - round(n)) <= 4.0 * _U * (2.0 * abs(p) + abs(w) + 1.0)
    if snapped:
        n = float(round(n))
    c = 0.5 * w + 1.0
    if n > 0:
        a = 0.5 * (1.0 - n) if snapped else c - p
        e = 0.5 * (w + 1.0 - n)
    else:
        a = e = p
    b = (c - a) - abs(n)
    a1, c1 = a + 1.0, c + 1.0
    # n's own miss of 2p - w - 1 is 0 once n is snapped
    dn = 0.0 if snapped else abs(math.fsum([n, -2.0 * p, w, 1.0]))
    de = dpc = 0.0
    if n > 0:
        de = abs(math.fsum([e, -0.5 * w, -0.5, 0.5 * n])) + 0.5 * dn
        dpc = abs(math.fsum([e + n, -e, -n])) + de + dn
    # 2 / e^x >= 1 / (2 (u - 1)) and sinh x <= 2 (u - 1) for u - 1 >= 1,
    # so up to here both powers stay within e^+-600
    far_from = max(1.0, 0.25 * math.exp(600.0 / max(abs(e), abs(n), 1.0)))
    return _ClosedForm(a, b, c, a1, (c1 - a1) - (abs(n) - 1.0), c1, a * b / c,
                       n, float(beta_fn(0.5 * (w + 1.0), 0.5)), e, de, dpc, dn,
                       far_from)


def _polar_closed(p, w, um1, lo):
    """(values, error bounds) of the m = 0 integral in closed form.

    The bound is the rounding of every step carried to first order into
    the value, plus HYP2F1_ULPS and BETA_ULPS.  e^x = (1 + um1) + sinh x
    carries its own rounding and that of sinh x (1.5 ulps, 2.5 past
    u - 1 = 1e150, where the product under the square root would
    overflow) into 2a = 2 / e^x and a^2 = 1 / e^2x together, so it
    enters once, through d ln I / d ln e^x, in which the powers of 2a and
    the slope z f'/f of the series partly cancel.  Each further operation
    adds one ulp times the log-derivative of I in its result, and each
    power two ulps of its own.  An exponent that misses its intended
    value adds the miss times the log of its base (_euler_prefactor).
    """
    if not w > -1.0:
        raise DomainError("the sin^w weight needs w > -1")
    k = _closed_form(p, w)
    hi = um1.max() if um1.size else 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.sqrt(um1 * (um1 + 2.0))                  # sinh x
        ulp_q = 1.5
        if hi > 1e150:
            huge = um1 > 1e150
            q[huge] = np.sqrt(um1[huge]) * np.sqrt(um1[huge] + 2.0)
            ulp_q = np.where(huge, 2.5, 1.5)
        ex = (1.0 + um1) + q                            # e^x
        t = 2.0 / ex                                    # 2a = 2 e^-x
        z = 1.0 / (ex * ex)                             # a^2
        f = hyp2f1(k.a, k.b, k.c, z)
        cz = z * (k.slope * hyp2f1(k.a1, k.b1, k.c1, z)) / f  # d ln f / d ln z
        if lo == 0.0:
            cz[um1 == 0.0] = 0.0    # z = 1 is exact there, f' may be inf
        if k.n > 0:
            pref, t_exp, q_exp, z_exp, ops, miss = _euler_prefactor(
                k, um1, q, t, z, hi)
        else:
            pref, t_exp, q_exp, z_exp, ops, miss = t ** k.e, k.e, 0.0, 0.0, 2.0, 0.0
        v = k.beta * pref * f
        dz = cz + z_exp                                 # d ln I / d ln z
        d_ex = t_exp + 2.0 * dz                         # -d ln I / d ln e^x
        # e^x's weights q / e^x and (1 + um1) / e^x sum to 1, so sinh x's
        # rounding and that of 1 + um1 reach it as at most 1.5 ulps
        ulps = (np.abs(q_exp) * ulp_q + np.abs(d_ex) * (ulp_q + 1.0)
                + np.abs(t_exp) + 2.0 * np.abs(dz)
                + (ops + 2.0 + HYP2F1_ULPS + BETA_ULPS))
        # an infinite v carries an infinite bound; at u - 1 = inf, v = 0
        err = np.abs(v) * (_U * ulps + miss)
        if hi == np.inf:
            err[um1 == np.inf] = 0.0
    return v, err


def _euler_prefactor(k, um1, q, t, z, hi):
    """(2a)^p (1 - a^2)^-n for n > 0, with what _polar_closed's bound
    needs: its exponents of 2a and sinh x, its log-derivative in a^2, the
    ulps of its own operations, and the relative error of exponents that
    miss.

    Up to u - 1 = k.far_from it is the two powers (2a)^(p-n) sinh(x)^-n,
    whose exponents are exact for K_d; farther out, where those could
    leave the normal range on their own, (2a)^p (1 - a^2)^-n, with
    1 - a^2 accurate there (a^2 < 0.072).  An exponent that misses its
    intended value costs miss |ln base|, which grows with |ln(u - 1)|.
    """
    n, e = k.n, k.e
    if hi <= k.far_from:
        miss = 0.0
        if k.de or k.dn:
            miss = k.de * np.abs(np.log(t)) + k.dn * np.abs(np.log(q))
        return t ** e * q ** -n, e, -n, 0.0, 5.0, miss  # two powers, a product
    split = um1 <= k.far_from
    one_mz = 1.0 - z
    pref = np.where(split, t ** e * q ** -n, t ** (e + n) * one_mz ** -n)
    miss = 0.0
    if k.de or k.dn:
        lt = np.abs(np.log(t))
        miss = np.where(split, k.de * lt + k.dn * np.abs(np.log(q)),
                        k.dpc * lt + k.dn * np.abs(np.log(one_mz)))
    # far: the rounding of 1 - z too, raised to the power -n
    return (pref, np.where(split, e, e + n), np.where(split, -n, 0.0),
            np.where(split, 0.0, n * z / one_mz),
            np.where(split, 5.0, 5.0 + abs(n)), miss)


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
