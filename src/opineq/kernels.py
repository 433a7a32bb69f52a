"""The angular kernels in closed form, vectorized in numpy.

polar_batch returns for a batch of um1 = u - 1 (which keeps full
relative precision as u -> 1) the position-space angular kernel of
Lieb and Yau

    K_d(u) = int over S^(d-1) of dw / (u - w.e)^((d+1)/2),

the sphere factor |S^(d-2)| times the polar integral

    I(um1) = int_0^pi  sin^(d-2)(t) / (u - cos t)^((d+1)/2) dt.

With u = cosh x, u - cos t is (e^x / 2) (1 - 2 a cos t + a^2), a = e^-x,
and the Gegenbauer expansion of its power gives

    I = B((d-1)/2, 1/2) (2a)^((d+1)/2) 2F1((d+1)/2, 3/2; d/2; a^2).

Its c - a - b is -2, so the series blows up like (1 - a^2)^-2 at u = 1;
Euler's transformation (DLMF 15.8.1) takes that factor out, and with
2a / (1 - a^2) = 1 / sinh x

    I = B((d-1)/2, 1/2) (2a)^((d-3)/2) sinh(x)^-2 2F1(-1/2, (d-3)/2; d/2; a^2),

whose series has c - a - b = 2 and is finite at a = 1.

coulomb_channel_kernel is the 2D Coulomb channel kernel k_m(t) behind
the Mellin multiplier and the momentum-space channel operator: a Laplace
coefficient of (1 - 2t cos t' + t^2)^-1/2 (_laplace) away from t = 1,
and near it an elliptic recurrence (_laplace_near_one).
"""

import functools
import math

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import ellipe, ellipkm1, hyp2f1
from scipy.special import gamma as gamma_fn

from .errors import DomainError, SingularInputError

backend_name = "python"

_U = 2.0 ** -53  # unit roundoff
# the largest relative error bound a kernel element of gamma_d or of the
# band moments may carry, and polar_batch's default tol
KTOL = 1e-11
# allowances, in units of _U, for scipy's hyp2f1 with the rounding of its
# parameters, for scipy's beta and for sphere_surface(d - 2): measured
# against mpmath on the K_d family, d in (1.01, 20), at most 29, 7 and 8.4
# units (tests/test_kernels_backends.py holds the resulting bounds)
HYP2F1_ULPS = 40.0
BETA_ULPS = 10.0
SPHERE_ULPS = 12.0


def sphere_surface(k: float) -> float:
    """Surface measure |S^k| = 2 pi^((k+1)/2) / Gamma((k+1)/2), continued in
    k; DomainError where that formula gives no positive finite double, as
    from k = 343 on, where Gamma((k+1)/2) overflows."""
    g = gamma_fn((k + 1) / 2.0)
    if not 0 < g < math.inf:
        raise DomainError("|S^%g| is not a positive finite double" % k)
    return 2.0 * math.pi ** ((k + 1) / 2.0) / g


def polar_batch(d, um1, *, tol=KTOL):
    """K_d of the module docstring for a batch of u - 1; returns (values,
    error bounds, n_evaluations), one evaluation per element.  u - 1 = inf
    is the far tail, an exact 0.

    The bound is |S^(d-2)| times _polar_closed's, plus SPHERE_ULPS + 1
    units of the value for the rounding of |S^(d-2)| and of the product:
    below 1.2e-14 of the value for d in (1, 20] up to u - 1 = 1e130,
    growing with ln(u - 1) beyond.  u - 1 = 0 raises SingularInputError,
    a value past the double range DomainError, and so do a d outside
    (1, inf) and a nan or negative u - 1.

    `tol` changes no value.  It is keyword-only and must be positive,
    because perfbench's tracer reads its default through
    inspect.signature and counts the elements whose error exceeds it.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    if not 1.0 < d < math.inf:
        raise DomainError("the polar kernel needs 1 < d < inf")
    um1 = np.atleast_1d(np.asarray(um1, dtype=float))
    ne = um1.size
    lo = um1.min() if ne else 1.0
    if not lo >= 0:
        raise DomainError("u - 1 must be >= 0, not nan")
    if lo == 0.0:
        raise SingularInputError("u = 1 is a non-integrable singularity")
    c = sphere_surface(d - 2)
    v, e = _polar_closed(d, um1)
    with np.errstate(over="ignore"):    # reported below, as DomainError
        v = c * v
        e = c * e + ((SPHERE_ULPS + 1.0) * _U) * np.abs(v)
    if not np.isfinite(e).all():        # wherever v is not, e is not
        raise DomainError("angular kernel is not finite at u - 1 = %g"
                          % um1[~np.isfinite(e)][0])
    return v, e, ne


# below t = 0.9 (or above 1/0.9) the Gauss series, which scipy's hyp2f1
# holds to 2e-15 there and not nearer t = 1; from there on the elliptic
# integrals, whose recurrence in m would grow rounding as t^-2m further out
SERIES_MAX = 0.9


def coulomb_channel_kernel(m: int, t):
    """k_m(t) = (2 pi)^-1 int_0^{2pi} cos(m theta) (1 + t^2 - 2 t cos theta)^{-1/2} dtheta.

    _laplace(m, t) below SERIES_MAX, _laplace_near_one from there to
    t = 1, and k_m(t) = k_m(1/t) / t past it; k_m(1) = +inf, the log
    singularity, in every channel.  Measured within 2.5e-15 relative of
    mpmath for m = 0..6 over t in [1e-12, 1e12].
    """
    if not float(m).is_integer():
        raise DomainError("the channel m must be an integer")
    m = abs(int(m))
    t = np.atleast_1d(np.asarray(t, float))
    if not np.all((t > 0) & (t < np.inf)):
        raise DomainError("t must be finite and positive")
    inv = t > 1.0
    r, c = t.copy(), 1.0 - t  # r = min(t, 1/t) and c = 1 - r, with no cancellation
    r[inv] = 1.0 / t[inv]
    c[inv] = (t[inv] - 1.0) / t[inv]
    k = np.full_like(t, np.inf)
    lo = r < SERIES_MAX
    k[lo] = _laplace(m, r[lo])
    near = ~lo & (c > 0.0)
    k[near] = _laplace_near_one(m, r[near], c[near])[m]
    k[inv] /= t[inv]
    return k


def _laplace(j, z):
    """((1/2)_j / j!) z^j 2F1(1/2, j + 1/2; j + 1; z^2), the Laplace
    coefficient of cos(j t) in (1 - 2 z cos t + z^2)^-1/2, halved for
    j >= 1: k_j(z)."""
    coeff = math.prod((i + 0.5) / (i + 1.0) for i in range(j))
    return coeff * z ** j * hyp2f1(0.5, j + 0.5, j + 1.0, z * z)


def _laplace_near_one(m, r, c):
    """[k_0, ..., k_m] at r, for r < 1 near 1; c = 1 - r.

    k_0 = (2/pi) K and k_1 = (2/(pi r)) (K - E), K and E of parameter
    r^2 (DLMF 19.5), then the three-term recurrence (j + 1/2) k_{j+1} =
    j (r + 1/r) k_j - (j - 1/2) k_{j-1}, carried as the differences
    d_j = k_j - k_{j-1}: (j + 1/2) d_{j+1} = (j - 1/2) d_j + j (c^2 / r) k_j.
    Near r = 1 every k_j carries the same log singularity, so the
    differences are the small part: rounding on them instead of on k_j
    keeps k_m within 2.5e-15 relative up to m = 6 from r = 0.9 (the plain
    form reaches 8e-15).
    """
    K = ellipkm1(c * (2.0 - c))  # 1 - r^2 without cancellation
    k = [2.0 / np.pi * K]
    if m == 0:
        return k
    d = 2.0 / (np.pi * r) * (c * K - ellipe(r * r))
    k.append(k[0] + d)
    x2 = c * c / r  # r + 1/r - 2
    for j in range(1, m):
        d = ((j - 0.5) * d + j * x2 * k[j]) / (j + 0.5)
        k.append(k[j] + d)
    return k


@functools.lru_cache(maxsize=64)
def _closed_form(d):
    """K_d's scalars: b, c, b1 and s of f = 2F1(-1/2, b; c; a^2) and
    f' = s 2F1(1/2, b1; c + 1; a^2), B((d-1)/2, 1/2), the exponent
    e = (d - 3)/2 of 2a, and the u - 1 past which (2a)^e and sinh^-2 x
    may leave the normal range.

    Every parameter is exact for 1 < d < 2^51.  b is formed as (c - a) - 2,
    which makes scipy's c - a - b exactly 2 (1 for the slope): scipy's
    hyp2f1 near argument 1 is off by up to 9e-7 when c - a - b misses an
    integer by one ulp.
    """
    c = 0.5 * d
    e = 0.5 * (d - 3.0)
    b = (c + 0.5) - 2.0
    # 2 / e^x >= 1 / (2 (u - 1)) and sinh x <= 2 (u - 1) for u - 1 >= 1,
    # so up to here both powers stay within e^+-600
    far_from = max(1.0, 0.25 * math.exp(600.0 / max(abs(e), 2.0)))
    return (b, c, ((c + 1.0) - 0.5) - 1.0, -0.5 * b / c,
            float(beta_fn(0.5 * (d - 1.0), 0.5)), e, far_from)


def _polar_closed(d, um1):
    """(values, error bounds) of the m = 0 polar integral in closed form,
    for u - 1 > 0.

    The bound is the rounding of every step carried to first order into
    the value, plus HYP2F1_ULPS and BETA_ULPS.  e^x = (1 + um1) + sinh x
    carries its own rounding and that of sinh x (1.5 ulps, 2.5 past
    u - 1 = 1e150, where the product under the square root would
    overflow) into 2a = 2 / e^x and a^2 = 1 / e^2x together, so it
    enters once, through d ln I / d ln e^x, in which the powers of 2a and
    the slope z f'/f of the series partly cancel.  Each further operation
    adds one ulp times the log-derivative of I in its result, and each
    power two ulps of its own.
    """
    b, c, b1, slope, beta, e, far_from = _closed_form(d)
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
        f = hyp2f1(-0.5, b, c, z)
        cz = z * (slope * hyp2f1(0.5, b1, c + 1.0, z)) / f  # d ln f / d ln z
        # (2a)^e sinh(x)^-2, its exponents of 2a and sinh x, its
        # log-derivative in a^2, and the ulps of its powers and product
        pref, t_exp, q_exp, z_exp, ops = t ** e * q ** -2.0, e, -2.0, 0.0, 5.0
        if hi > far_from:
            # past far_from, (2a)^(e+2) (1 - a^2)^-2, with 1 - a^2 accurate
            # there (a^2 < 0.072) and its rounding raised to the power -2
            near = um1 <= far_from
            one_mz = 1.0 - z
            pref = np.where(near, pref, t ** (e + 2.0) * one_mz ** -2.0)
            t_exp, q_exp = np.where(near, e, e + 2.0), np.where(near, -2.0, 0.0)
            z_exp = np.where(near, 0.0, 2.0 * z / one_mz)
            ops = np.where(near, 5.0, 7.0)
        v = beta * pref * f
        dz = cz + z_exp                                 # d ln I / d ln z
        d_ex = t_exp + 2.0 * dz                         # -d ln I / d ln e^x
        # e^x's weights q / e^x and (1 + um1) / e^x sum to 1, so sinh x's
        # rounding and that of 1 + um1 reach it as at most 1.5 ulps
        ulps = (np.abs(q_exp) * ulp_q + np.abs(d_ex) * (ulp_q + 1.0)
                + np.abs(t_exp) + 2.0 * np.abs(dz)
                + (ops + 2.0 + HYP2F1_ULPS + BETA_ULPS))
        # an infinite v carries an infinite bound; at u - 1 = inf, v = 0
        err = np.abs(v) * (_U * ulps)
        if hi == np.inf:
            err[um1 == np.inf] = 0.0
    return v, err
