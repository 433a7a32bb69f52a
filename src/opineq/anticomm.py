"""Quadratic form of |x||p| + |p||x| via the position-space double integral,
the constant gamma_d with its sign change at d = 2, and the non-relativistic
2D counterexample.

Radial trial functions reduce everything to integrals over log-radius
s = ln r.  The double integrals are evaluated on a uniform s-lattice with
exact per-offset band integration of the kernel, which keeps the
diagonal |x - y| -> 0 region accurate: the numerator vanishes
quadratically there, so each band carries the x^2-moment of the kernel
and the unregularized kernel is integrable band by band.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as gamma_fn

from . import kernels
from .errors import AccuracyError, DomainError
from .kernels import KTOL, sphere_surface
from .quadrature import QuadResult, integrate_adaptive

# lattice step; divides ln 2 so dilation by 2 is an exact lattice shift
H_STEP = math.log(2.0) / 9.0
NONREL_TOL = 1e-11  # relative tolerance of nonrel_form's quadrature
_EPS = np.finfo(float).eps


def _check_dimension(d):
    if not (isinstance(d, (int, float)) and 1 < d < math.inf):
        raise DomainError("dimension must be a finite real number > 1")
    return float(d)


def alpha(d: float) -> float:
    """Lieb-Yau prefactor Gamma((d+1)/2) / (2 pi^((d+1)/2)); DomainError
    where that is no finite double, as from d = 343 on, where
    Gamma((d+1)/2) overflows."""
    d = _check_dimension(d)
    g = gamma_fn((d + 1) / 2.0)
    if not g < math.inf:
        raise DomainError("alpha_%g is not a finite double" % d)
    return float(g / (2.0 * math.pi ** ((d + 1) / 2.0)))


def _bracket_log(d, s):
    """r^a + r^-a - r^(1/2) - r^(-1/2) at r = e^{-s}, a = (d-1)/2, as the
    cancellation-free 4 sinh((a+1/2)s/2) sinh((a-1/2)s/2); for s != 0 its
    sign is the sign of d - 2."""
    a = (d - 1.0) / 2.0
    return 4.0 * np.sinh((a + 0.5) * s / 2.0) * np.sinh((a - 0.5) * s / 2.0)


def gamma(d: float, tol: float = 1e-10) -> QuadResult:
    """gamma_d = 2^(-(d-1)/2) int_0^1 dr/r bracket(d,r) K_d((r+1/r)/2), with
    bracket(d,r) = r^((d-1)/2) + r^(-(d-1)/2) - r^(1/2) - r^(-1/2).

    Integrated in s = -ln r, where the bracket is _bracket_log(d, s) and
    (r+1/r)/2 = cosh s, out to an smax where the integrand is negligible,
    at most 1400/(d-1) (from d = 23 on): the bracket, about e^((d-1)s/2),
    overflows past 1419/(d-1).  Where a bound on the tail beyond smax
    exceeds tol of |gamma_d| = |d - 2| / (2 alpha_d) = |d - 2| |S^d| / 2
    (from d = 67 at tol = 1e-10), DomainError is raised before any kernel
    call.  A kernel element whose error bound exceeds KTOL of its value
    raises AccuracyError carrying the result.
    """
    d = _check_dimension(d)
    if not 0 < tol < math.inf:
        raise DomainError("tolerance must be positive and finite")
    if d == 2.0:
        return QuadResult(0.0, 0.0, 1)  # bracket vanishes identically
    nev_inner = [0]
    unconverged = [0]
    smax = min(40.0 / min(1.0, d / 2.0) + 25.0, 1400.0 / (d - 1.0))
    # beyond smax |bracket| <= e^(ks) min(1, |d - 2| s / 2) and
    # K_d(u) <= |S^(d-1)| (u - 1)^-p, u - 1 >= 2 sinh(smax/2)^2 e^(s - smax)
    k, p = max(d - 1.0, 1.0) / 2.0, (d + 1.0) / 2.0
    c = sphere_surface(d - 1) * 2.0 ** ((1.0 - d) / 2.0) / (p - k)
    log_tail = (math.log(c * min(1.0, abs(d - 2.0) / 2.0 * (smax + 1.0 / (p - k))))
                + k * smax - p * math.log(2.0 * math.sinh(smax / 2.0) ** 2))
    if log_tail > math.log(tol * abs(d - 2.0) * sphere_surface(d) / 2.0):
        raise DomainError("gamma_%g: the tail beyond s = %g may exceed tol %g"
                          % (d, smax, tol))

    def f(s):
        v, e, n = kernels.polar_batch(d, 2.0 * np.sinh(s / 2.0) ** 2)
        nev_inner[0] += n
        unconverged[0] += int(np.count_nonzero(e > KTOL * np.abs(v)))
        return _bracket_log(d, s) * v

    res = integrate_adaptive(f, 0.0, smax, tol)
    pref = 2.0 ** (-(d - 1.0) / 2.0)
    out = QuadResult(pref * res.value,
                     pref * res.abs_error_estimate + math.exp(log_tail),
                     res.evaluations + nev_inner[0])
    if unconverged[0]:
        raise AccuracyError("%d K_%g kernel elements missed tolerance %g"
                            % (unconverged[0], d, KTOL), best=out)
    return out


@dataclass(frozen=True)
class TrialFunction:
    """Radial trial profile, parameterized in log-radius s = ln r.

    Families: "log_gaussian" psi = exp(-(s - center)^2 / (2 sigma^2)) and
    "log_linear_cutoff" psi = exp(-|s - center| / (2 sigma)) (linear in
    log coordinates, strictly positive).
    """

    family: str = "log_gaussian"
    sigma: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.family not in ("log_gaussian", "log_linear_cutoff"):
            raise DomainError("unknown trial family %r" % self.family)
        if not math.sqrt(np.finfo(float).tiny) <= self.sigma < math.inf:  # sigma^2 normal
            raise DomainError("sigma must be finite, with a normal double square")
        if not math.isfinite(self.center):
            raise DomainError("center must be finite")

    def profile_log(self, s):
        """psi evaluated at r = e^s."""
        x = np.asarray(s, dtype=float) - self.center
        if self.family == "log_gaussian":
            return np.exp(-x * x / (2.0 * self.sigma ** 2))
        return np.exp(-np.abs(x) / (2.0 * self.sigma))

    def dprofile_log(self, s):
        """d psi(e^s) / ds."""
        x = np.asarray(s, dtype=float) - self.center
        if self.family == "log_gaussian":
            return -x / self.sigma ** 2 * self.profile_log(s)
        return -np.sign(x) / (2.0 * self.sigma) * self.profile_log(s)

    def scaled(self, lam: float) -> "TrialFunction":
        """psi_lambda(r) = psi(lambda r), for finite lambda > 0."""
        if not 0.0 < lam < math.inf:
            raise DomainError("scale lambda must be finite and > 0, got %r" % lam)
        return TrialFunction(self.family, self.sigma, self.center - math.log(lam))

    def s_extent(self, d: float) -> float:
        """Half-width of the s-lattice, past which the forms take psi = 0.

        The form engine counts the pairs that reach past the lattice in
        closed form, so the extent only has to hold the trial: log_gaussian
        |center| + d sigma^2 / 2 + 10 sigma, log_linear_cutoff
        |center| + 53 / rate.  Against the all-pairs sum on the lattice
        padded by 40 log-units, the form was within 2.7 eps * scale for
        log-Gaussians (d in [1.2, 6], sigma in [0.25, 4], |center| <= 6) and
        within 3.2 for log_linear_cutoff, which at 35 / rate was 1e4 off at
        d = 1.2.  DomainError where the extent is no finite double.
        """
        if self.family == "log_gaussian":
            try:
                extent = abs(self.center) + d * self.sigma ** 2 / 2.0 + 10.0 * self.sigma
            except OverflowError:  # sigma ** 2 past double range
                extent = math.inf
            if not extent < math.inf:
                raise DomainError("sigma=%g: no finite extent at d = %g" % (self.sigma, d))
            return extent
        rate = 1.0 / self.sigma - d
        if rate <= 0.5:
            raise DomainError("log_linear_cutoff with sigma=%g is too slowly "
                              "decaying for dimension %g" % (self.sigma, d))
        return abs(self.center) + 53.0 / rate

    def norm_sq(self, d: float) -> float:
        """||psi||^2 on R^d in closed form, log_gaussian only; DomainError
        for the other family and where the norm is no finite double."""
        d = _check_dimension(d)
        if self.family != "log_gaussian":
            raise DomainError("norm_sq has a closed form only for log_gaussian")
        try:
            norm = (sphere_surface(d - 1) * self.sigma * math.sqrt(math.pi)
                    * math.exp(d * d * self.sigma ** 2 / 4.0 + d * self.center))
        except OverflowError:
            norm = math.inf
        if not norm < math.inf:
            raise DomainError("||psi||^2 at d = %g is not a finite double" % d)
        return norm


@dataclass(frozen=True)
class FormValue:
    """Form value t[psi], its absolute scale and ||psi||^2.

    `scale` is the same sums over |terms|, the reference for
    roundoff-level negativity, taken over every pair through the offset
    cut of `_form_engine`, those with a node past the lattice included.
    Every term beyond the cut is >= 0, so it is at most the abs-sum over
    all pairs, and a gate `t >= -c scale` can only get stricter.  `value`
    is within eps * scale of the sum over all pairs.
    """

    value: float
    scale: float
    norm_sq: float


def _lattice(psi, d):
    # halve h (keeping ln2/h integer, so dilation by 2 stays an exact
    # lattice shift) until narrow trials are resolved
    h = H_STEP
    while h > psi.sigma / 3.0 and h > H_STEP / 64.0:
        h *= 0.5
    if h > psi.sigma / 3.0:
        raise DomainError("sigma=%g is narrower than the finest lattice resolves" % psi.sigma)
    half = psi.s_extent(d) / h
    try:
        return (np.arange(-math.ceil(half), math.ceil(half) + 1) * h), h
    except (OverflowError, ValueError, MemoryError) as exc:  # no int, or numpy refuses it
        raise DomainError("a lattice of 2 * %g + 1 nodes: %s" % (half, exc)) from exc


# elements (offsets x columns) per block of _offset_sums: below it numpy's
# per-call overhead dominates (4,096 took 1.6x as long on the forms
# workload's sums), and the three block temporaries stay at 384 KiB
_BLOCK_ELEMENTS = 16384


def _offset_blocks(n):
    """Row ranges (k0, k1) covering the offsets 1..n-1 in order: block rows
    k0..k1-1 span the n - k0 columns of offset k0's pairs, and (k1 - k0)
    times that width is at most _BLOCK_ELEMENTS, or the block is one row."""
    k0 = 1
    while k0 < n:
        k1 = min(n, k0 + max(1, _BLOCK_ELEMENTS // (n - k0)))
        yield k0, k1
        k0 = k1


def _offset_sums(d, h, a, G, H):
    """F_k = h sum_i a_i a_{i+k} (G_i-G_{i+k})(H_i-H_{i+k}) over every
    integer i, G = H = 0 past the lattice, and its |.| twin, for k = 1..K
    (at index k - 1).  K is the first offset with
    tail_k <= eps * sum_{j<=K} w_lo_j |F|_j (_offset_tail): all that is
    left out is below one ulp of the abs partial sum through K.

    With x = aG, y = aH and c = (d-1)h/2, a pair with one node past an end
    is h e^{-+ck} x_i y_i, so offset k starts from two prefix sums,
    h (e^{-ck} sum_{i<k} x_i y_i + e^{ck} sum_{i>=n-k} x_i y_i), and its
    |.| twin from |x_i y_i|; offsets past the lattice are that alone.  The
    pairs on the lattice come in the blocks of _offset_blocks, the
    partners i + k read from a sliding window over a, G and H zero-padded
    at the end.  Raises DomainError where the weighted lattice leaves
    double range, AccuracyError if no offset computed meets the cut.
    """
    n = a.size
    x, y = a * G, a * H
    xy = x * y
    sum_xy = float(np.sum(np.abs(xy)))
    norms = 2.0 * math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))

    def closed(k):  # tail, w_lo and the two sums past an end at offsets k
        m, e = np.minimum(k, n) - 1, np.exp(0.5 * (d - 1.0) * h * k)
        return (*_offset_tail(d, h, k, sum_xy, norms),
                *(h * (np.cumsum(v)[m] / e + e * np.cumsum(v[::-1])[m])
                  for v in (xy, np.abs(xy))))

    tail, w_lo, F, F_abs = closed(np.arange(1, n))
    _require_finite(d, "lattice weights", x, y, tail)
    pad = np.zeros(n)  # row k <= n - 1, and n columns from there
    part = [np.lib.stride_tricks.sliding_window_view(np.concatenate([v, pad]), n)
            for v in (a, G, H)]
    ah = h * a
    buf = np.empty((3, max(_BLOCK_ELEMENTS, n)))
    partial = 0.0
    for k0, k1 in _offset_blocks(n):
        m, r = n - k0, slice(k0 - 1, k1 - 1)
        w, dG, dH = (b[:(k1 - k0) * m].reshape(k1 - k0, m) for b in buf)
        pa, pG, pH = (v[k0:k1, :m] for v in part)
        np.multiply(ah[:m], pa, out=w)
        np.subtract(G[:m], pG, out=dG)
        np.subtract(H[:m], pH, out=dH)
        np.multiply(dG, dH, out=dG)
        F[r] += np.einsum("ji,ji->j", w, dG)
        np.abs(dG, out=dG)
        F_abs[r] += np.einsum("ji,ji->j", w, dG)
        cum = partial + np.cumsum(w_lo[r] * F_abs[r])
        # a NaN partial sum stops it too
        stop = np.flatnonzero(~(tail[r] > _EPS * cum))
        if stop.size:
            return F[:k0 + stop[0]], F_abs[:k0 + stop[0]]
        partial = cum[-1]
    # past the lattice tail_k <= tail_{n-1} e^{-(k-n+1)h} while the partial
    # sum only grows, so the cut comes within `reach` more offsets
    reach = int(math.ceil(math.log(tail[-1] / (_EPS * partial)) / h)) + 1
    tail, w_lo, F_out, F_out_abs = closed(np.arange(n, n + reach))
    stop = np.flatnonzero(~(tail > _EPS * (partial + np.cumsum(w_lo * F_out_abs))))
    if not stop.size:
        raise AccuracyError("the offset sums at d = %g met no cut within %d "
                            "offsets" % (d, n + reach - 1))
    K = stop[0] + 1
    return np.append(F, F_out[:K]), np.append(F_abs, F_out_abs[:K])


def _offset_tail(d, h, k, sum_xy, norms):
    """(tail, w_lo) at the offsets k >= 1, in closed form, for
    sum_xy = sum_i |x_i y_i| and norms = 2 ||x|| ||y||.

    tail_k bounds the weighted abs terms of all offsets beyond k, and
    w_lo_k <= w_k = phi2[k] / (kh)^2.  Jensen over the sphere (the mean of
    w.e is 0) and u - w.e >= u - 1 give
    |S^(d-1)| u^-p <= K_d(u) <= |S^(d-1)| (u - 1)^-p with p = (d+1)/2;
    across band k = [x_lo, x_hi] K_d(cosh x) falls and x^2 grows, so
    h x_lo^2 K_d(cosh x_hi) <= phi2[k] <= h x_hi^2 K_d(cosh x_lo).  With
    x = aG, y = aH (zero past the lattice) and a_{i+k} = a_i e^{ck},
    c = (d-1)h/2, the triangle inequality on |dG dH| and Cauchy-Schwarz on
    the cross terms bound offset k's abs term by
        b_k = h w_k [2 cosh(ck) sum_i |x_i y_i| + 2 ||x|| ||y||]
    for any d > 1 and any trial, H = G included.  The majorant of w_k falls
    by more than e^-ph per offset and cosh(ck) grows by at most e^c, so
    b_{k+1} <= e^-h b_k and tail_k = b_k / (e^h - 1).  The products are
    formed in logs (cosh x = e^x (1 + e^-2x) / 2, cosh x - 1 =
    e^x (1 - e^-x)^2 / 2), so cosh(ck) w_k is finite for any k.
    """
    x_lo, x_hi = (k - 0.5) * h, (k + 0.5) * h
    p = (d + 1.0) / 2.0
    log_hs = math.log(h * sphere_surface(d - 1)) + p * math.log(2.0)
    log_lo = (log_hs + 2.0 * np.log(x_lo / (k * h))
              - p * (x_hi + np.log1p(np.exp(-2.0 * x_hi))))
    log_hi = (log_hs + 2.0 * np.log(x_hi / (k * h))
              - p * (x_lo + 2.0 * np.log1p(-np.exp(-x_lo))))
    ck = 0.5 * (d - 1.0) * h * k
    b = h * (np.exp(log_hi + ck + np.log1p(np.exp(-2.0 * ck))) * sum_xy
             + np.exp(log_hi) * norms)
    return b / math.expm1(h), np.exp(log_lo)


def _require_finite(d, what, *values):
    if not all(np.all(np.isfinite(v)) for v in values):
        raise DomainError("non-finite %s at d = %g: the trial's weighted "
                          "lattice leaves double range" % (what, d))


def _diag_second_derivative(s, h, G, H, wexp):
    """F''(0) = 2 int e^{wexp s} G'(s) H'(s) ds via central differences at
    the nodes and one node past each end, with G = H = 0 at two ghost
    nodes past each end."""
    w = np.exp(wexp * np.concatenate(([s[0] - h], s, [s[-1] + h])))
    G, H = np.pad(G, 2), np.pad(H, 2)
    dG = (G[2:] - G[:-2]) / (2.0 * h)
    dH = (H[2:] - H[:-2]) / (2.0 * h)
    val = 2.0 * h * float(np.dot(w, dG * dH))
    val_abs = 2.0 * h * float(np.dot(w, np.abs(dG * dH)))
    return val, val_abs


_GL12 = np.polynomial.legendre.leggauss(12)
# bands 0.._RIDGE_BANDS-1 hold the Lieb-Yau kernels' ridge at x = 0
_RIDGE_BANDS = 4


def band_moments(f, h, n):
    """m[k] = int over band k of f(x) dx, k = 0..n-1, for a vectorized f.

    Band 0 is [0, h/2], band k >= 1 is [kh - h/2, kh + h/2].  Bands 0-3
    hold the singularity at x = 0 (the Lieb-Yau kernels' ridge, the
    Coulomb channel kernel's log) and are integrated adaptively, so f is
    never evaluated at x = 0; the rest use 12-point Gauss-Legendre in one
    call of f.
    """
    out = np.empty(n)
    for k in range(min(_RIDGE_BANDS, n)):
        out[k] = integrate_adaptive(f, max(0.0, k * h - h / 2.0),
                                    k * h + h / 2.0, 1e-10).value
    if n > _RIDGE_BANDS:
        xi, wi = _GL12
        x = np.arange(_RIDGE_BANDS, n)[:, None] * h + (h / 2.0) * xi[None, :]
        out[_RIDGE_BANDS:] = (h / 2.0) * f(x.ravel()).reshape(x.shape) @ wi
    return out


# size classes of the ridge-moment cache, in bands: the forms ask for at
# most about 500 bands per (d, h), so one class of 512 holds them
_RIDGE_BLOCK = 512


def ridge_moments(d, h, n):
    """phi2[k] = int over band k of K_d(cosh x) x^2 dx, as a read-only array.

    K_d(cosh x) is the kernel after the (2 r rho)^((d+1)/2) factor is
    pulled out of |x - y|^(d+1); it has a 1/x^2 ridge at x = 0, and the
    x^2 carries the numerator's quadratic vanishing across it.

    The bands are a slice of one band_moments call over the smallest
    whole multiple of _RIDGE_BLOCK = 512 bands that holds n, computed once
    per process and cached by (d, h, size) like the channel columns.
    The kernel is a closed form evaluated element by element, so every
    band comes out bit for bit the same whatever size it is computed in.
    """
    return _ridge_cache(d, h, -(-n // _RIDGE_BLOCK) * _RIDGE_BLOCK)[:n]


@lru_cache(maxsize=64)
def _ridge_cache(d, h, size):
    """Ridge moments bands 0..size-1 at dimension d, read-only.  A kernel
    element whose error bound exceeds KTOL of its value raises
    AccuracyError carrying the estimate, and nothing is cached; the
    closed form's bounds stay far below it.  Past x of about 710 u - 1
    overflows to inf, where the kernel is an exact 0."""
    unconverged = [0]

    def f(x):
        with np.errstate(over="ignore"):
            v, e, _ = kernels.polar_batch(d, 2.0 * np.sinh(x / 2.0) ** 2)
        unconverged[0] += int(np.count_nonzero(e > KTOL * np.abs(v)))
        return v * x * x

    out = band_moments(f, h, size)
    if unconverged[0]:
        raise AccuracyError("%d K_%g kernel elements missed tolerance %g"
                            % (unconverged[0], d, KTOL), best=out)
    out.flags.writeable = False
    return out


def _form_engine(d, s, h, G, H):
    """A * iint e^{(d-1)(s+t)/2} (G(s)-G(t))(H(s)-H(t)) K~(s-t) ds dt
    with A = |S^(d-1)| 2^(-(d+1)/2), over all s and t, G = H = 0 past the
    lattice; returns (value, abs_scale).

    The pair offsets are summed by _offset_sums, which counts the pairs
    with a node past the lattice in closed form, out to the first K where
    a bound on all offsets beyond K (_offset_tail: the triangle inequality
    and Cauchy-Schwarz, with the ridge moments majorized in closed form)
    is at most eps times the abs partial sum through K; only bands 0..K of
    the ridge moments are computed.  abs_scale is the abs-sum over every
    pair through the cut, and value is within eps * abs_scale of the sum
    over all pairs.  Raises DomainError when the weighted lattice or the
    result is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(0.5 * (d - 1.0) * s)
        Fk, Fk_abs = _offset_sums(d, h, a, G, H)
        D, D_abs = _diag_second_derivative(s, h, G, H, d - 1.0)
    _require_finite(d, "offset sums", Fk_abs, D_abs)
    K = Fk.size
    phi2 = ridge_moments(d, h, K + 1)
    w = phi2[1:] / (np.arange(1, K + 1) * h) ** 2
    A = sphere_surface(d - 1) * 2.0 ** (-(d + 1.0) / 2.0)
    val = A * (phi2[0] * D + 2.0 * float(np.dot(w, Fk)))
    sca = A * (phi2[0] * D_abs + 2.0 * float(np.dot(w, Fk_abs)))
    _require_finite(d, "form value", val, sca)
    return val, sca


def relativistic_form(psi: TrialFunction, d: float) -> FormValue:
    """t = Re iint (psi(x)-psi(y)) (|x|psi(x)-|y|psi(y)) / |x-y|^(d+1)

    for a radial trial, reduced to the (r_x, r_y) plane with the angular
    kernel and evaluated once on the log-radius lattice.  No regularizer
    is needed: the numerator vanishes quadratically on the diagonal, so
    the ridge moments are finite.  Multiply by alpha(d) for the full
    form value.
    """
    d = _check_dimension(d)
    s, h = _lattice(psi, d)
    G = psi.profile_log(s)
    with np.errstate(over="ignore", invalid="ignore"):
        H = np.exp(s) * G
    v, sc = _form_engine(d, s, h, G, H)
    # e^{ds} G^2 as e^s x^2 with the engine's finite x = e^{(d-1)s/2} G:
    # e^{ds} alone overflows at the lattice edge where the product is tiny
    x = np.exp(0.5 * (d - 1.0) * s) * G
    with np.errstate(over="ignore", invalid="ignore"):
        norm = sphere_surface(d - 1) * h * float(np.dot(np.exp(s), x * x))
    _require_finite(d, "norm_sq", norm)
    return FormValue(value=float(v), scale=float(sc), norm_sq=float(norm))


def relativistic_form_direct(psi: TrialFunction, d: float) -> float:
    """The value of relativistic_form as a float."""
    return relativistic_form(psi, d).value


def nonrel_form(psi: TrialFunction) -> float:
    """Q[psi] = Re <|x| psi, p^2 psi> in d = 2 for a real radial trial.

    Integration by parts gives the radial reduction
    Q = 2 pi ( int_0^inf r^2 psi'(r)^2 dr - 1/2 int_0^inf psi(r)^2 dr ),
    and in log-radius both pieces are plain 1D integrals.  DomainError
    where the integrand leaves double range.
    """
    S = psi.s_extent(2.0)

    def f(s):
        p = psi.profile_log(s)
        dp = psi.dprofile_log(s)
        return (dp * dp - 0.5 * p * p) * np.exp(s)

    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * math.pi * integrate_adaptive(f, -S, S, NONREL_TOL).value
