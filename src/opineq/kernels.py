"""The polar kernel in closed form, vectorized in numpy.

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

m >= 1 is the 2D channel kernel (A_0 - A_m)(u), p = 3/2 and w = 0 only,
also a closed form (_polar_channel): the difference of two Gegenbauer
coefficients of the same expansion away from u = 1, and the complete
elliptic integrals with a recurrence in m near it.
"""

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import ellipe, ellipkm1, hyp2f1

from .errors import DomainError

backend_name = "python"

_U = 2.0 ** -53  # unit roundoff
# allowances, in units of _U, for scipy's hyp2f1 with the rounding of its
# parameters, and for scipy's beta: measured against mpmath on the K_d
# family, d in (1.01, 20), at most 29 and 7 units
# (tests/test_kernels_backends.py holds the resulting bound)
HYP2F1_ULPS = 40.0
BETA_ULPS = 10.0
# the channels m >= 1 that _polar_channel's allowance was measured on,
# and that allowance, in units of _U: against mpmath, m = 1..6 and
# u - 1 from 1e-14 to 1e8, at most 41 units
CHANNEL_M = range(1, 7)
CHANNEL_ULPS = 80.0


def polar_batch(p, w, m, um1, *, tol=1e-11):
    """Batched polar integral; returns (values, abs_errors, n_evaluations).

    The weight is 1 for m = 0 and 1 - cos(m t) for m >= 1.  Both are the
    closed forms of the module docstring, one evaluation per element, and
    each error is a bound: _polar_closed's rounding bound for m = 0, and
    CHANNEL_ULPS of the value for m >= 1.  m = 0 takes any p and any
    w > -1; for K_d, d in (1, 20], its bound stays below 1e-14 of the
    value up to u - 1 = 1e130, and farther out it may grow with
    ln(u - 1).  m >= 1 takes m in CHANNEL_M at p = 3/2, w = 0 only; any
    other m or (p, w) raises DomainError.  So does a nan or negative
    u - 1; u - 1 = inf is the far tail, an exact 0.

    `tol` changes no value.  It is keyword-only and must be positive,
    because perfbench's tracer reads its default through
    inspect.signature and counts the elements whose error exceeds it.
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
    if m not in CHANNEL_M or (p, w) != (1.5, 0.0):
        raise DomainError("the weight 1 - cos(m t) needs m in 1..%d at "
                          "p = 3/2, w = 0" % CHANNEL_M[-1])
    v = _polar_channel(int(m), um1, lo)
    return v, CHANNEL_ULPS * _U * np.abs(v), ne


def _polar_channel(m, um1, lo):
    """(A_0 - A_m)(u) = int_0^pi (1 - cos m t) (u - cos t)^(-3/2) dt.

    With a = e^-x = 1 / (u + sinh x), the Gegenbauer expansion of the
    module docstring at p = 3/2 gives every J_j = int cos(j t)
    (u - cos t)^(-3/2) dt as one Gauss series, so for a < m / (m + 1)

        I = pi (2a)^(3/2) [F(3/2, 3/2; 1; a^2)
                           - ((3/2)_m / m!) a^m F(3/2, m + 3/2; m + 1; a^2)].

    Closer to u = 1 the differences e_j = J_(j-1) - J_j carry the value
    (each J_j has the same (u - 1)^-1 pole, the e_j only a log): with
    K and E complete elliptic integrals of parameter a^2 and 2 / (u + 1),
    e_1 = 2 sqrt(2a) K - (u - 1) J_0, (u - 1) J_0 = 2 E / sqrt(u + 1),
    (j - 1/2) e_(j+1) = (j + 1/2) e_j - 2j (u - 1) J_j and I = sum e_j.
    The recurrence loses accuracy as m grows, the more so the farther
    from u = 1, and the series near u = 1, so the switch moves towards
    u = 1 as m grows: at m = 6 a switch at a = 1/2 cost 391 units of _U,
    this one at most 41.  u = 1 is +inf.
    """
    with np.errstate(invalid="ignore"):
        q = np.sqrt(um1) * np.sqrt(um1 + 2.0)           # sinh x
        ex = (1.0 + um1) + q                            # e^x
        a = 1.0 / ex
        v = np.empty_like(um1)
        far = a < m / (m + 1.0)
        z = a[far]
        coeff = math.prod((j + 1.5) / (j + 1.0) for j in range(m))
        v[far] = np.pi * (2.0 * z) * np.sqrt(2.0 * z) * (
            hyp2f1(1.5, 1.5, 1.0, z * z)
            - coeff * z ** m * hyp2f1(1.5, m + 1.5, m + 1.0, z * z))
        near = ~far
        w = um1[near]
        c = (w + q[near]) / ex[near]                    # 1 - a, no cancellation
        pole = 2.0 * ellipe(2.0 / (w + 2.0)) / np.sqrt(w + 2.0)  # (u - 1) J_0
        e = 2.0 * np.sqrt(2.0 * a[near]) * ellipkm1(c * (2.0 - c)) - pole
        s = e
        for j in range(1, m):
            e = ((j + 0.5) * e - 2.0 * j * (pole - w * s)) / (j - 0.5)
            s = s + e
        v[near] = s
        if lo == 0.0:
            v[um1 == 0.0] = np.inf      # 0 * inf in the recurrence there
    return v


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
