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
    if not tol > 0:
        raise DomainError("tolerance must be positive")
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
        v, e, n = kernels.polar_batch(d, 0, 2.0 * np.sinh(s / 2.0) ** 2)
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


def lower_bound(d: float, tol: float = 1e-10) -> float:
    """Lower bound 2 alpha_d gamma_d on the spectrum of |x||p| + |p||x|."""
    return 2.0 * alpha(d) * gamma(d, tol).value


@dataclass(frozen=True)
class TrialFunction:
    """Radial trial profile, parameterized in log-radius s = ln r.

    Families: "log_gaussian" psi = exp(-(s - center)^2 / (2 sigma^2)),
    "log_linear_cutoff" psi = exp(-|s - center| / (2 sigma)) (linear in
    log coordinates, strictly positive), and "sampled" (values on a
    uniform s-grid, linearly interpolated).
    """

    family: str = "log_gaussian"
    sigma: float = 1.0
    center: float = 0.0
    samples: tuple = None

    def __post_init__(self):
        if self.family not in ("log_gaussian", "log_linear_cutoff", "sampled"):
            raise DomainError("unknown trial family %r" % self.family)
        if self.family != "sampled" and not 0 < self.sigma < math.inf:
            raise DomainError("sigma must be finite and positive")
        if self.family == "sampled":
            if self.samples is None:
                raise DomainError("sampled trial needs (s_nodes, values)")
            s, v = self.samples
            if np.any(np.asarray(v) < 0):
                raise DomainError("sampled trial must be nonnegative")

    def profile_log(self, s):
        """psi evaluated at r = e^s."""
        s = np.asarray(s, dtype=float)
        x = s - self.center
        if self.family == "log_gaussian":
            return np.exp(-x * x / (2.0 * self.sigma ** 2))
        if self.family == "log_linear_cutoff":
            return np.exp(-np.abs(x) / (2.0 * self.sigma))
        sn, vn = self.samples
        return np.interp(s, np.asarray(sn, float), np.asarray(vn, float),
                         left=0.0, right=0.0)

    def dprofile_log(self, s):
        """d psi(e^s) / ds."""
        s = np.asarray(s, dtype=float)
        x = s - self.center
        if self.family == "log_gaussian":
            return -x / self.sigma ** 2 * self.profile_log(s)
        if self.family == "log_linear_cutoff":
            return -np.sign(x) / (2.0 * self.sigma) * self.profile_log(s)
        h = 1e-5
        return (self.profile_log(s + h) - self.profile_log(s - h)) / (2 * h)

    def scaled(self, lam: float) -> "TrialFunction":
        """psi_lambda(r) = psi(lambda r), for finite lambda > 0."""
        if not 0.0 < lam < math.inf:
            raise DomainError("scale lambda must be finite and > 0, got %r" % lam)
        return TrialFunction(self.family, self.sigma, self.center - math.log(lam),
                             self.samples)

    def s_extent(self, d: float) -> float:
        """Half-width of the s-lattice needed for ~1e-12 truncated mass.

        The +34 padding covers the e^{-x} pair-separation tail of the
        double-integral forms: the pairs between the trial's bulk and the
        far side of the lattice, which _form_engine sums out to its offset
        cut near x = 37.  Pairs of two nodes in the padding fall outside its
        core window and are dropped within a bound.
        """
        if self.family == "log_gaussian":
            return abs(self.center) + d * self.sigma ** 2 / 2.0 + 10.0 * self.sigma + 34.0
        if self.family == "log_linear_cutoff":
            rate = 1.0 / self.sigma - d
            if rate <= 0.5:
                raise DomainError(
                    "log_linear_cutoff with sigma=%g is too slowly decaying "
                    "for dimension %g" % (self.sigma, d))
            return abs(self.center) + 35.0 / rate + 34.0
        sn = np.asarray(self.samples[0], float)
        return float(np.max(np.abs(sn))) + 34.0

    def norm_sq(self, d: float) -> float:
        """||psi||^2 on R^d (closed form for the log-Gaussian family)."""
        d = _check_dimension(d)
        if self.family == "log_gaussian":
            return (sphere_surface(d - 1) * self.sigma * math.sqrt(math.pi)
                    * math.exp(d * d * self.sigma ** 2 / 4.0 + d * self.center))
        S = self.s_extent(d)
        res = integrate_adaptive(
            lambda s: np.exp(d * s) * self.profile_log(s) ** 2, -S, S, 1e-12)
        return sphere_surface(d - 1) * res.value


@dataclass(frozen=True)
class FormValue:
    """Form value t[psi], its absolute scale and ||psi||^2.

    `scale` is the same sums over |terms|, the reference for
    roundoff-level negativity, taken over the pairs that `_form_engine`
    keeps: offsets out to its cut, pairs with a node in its core window.
    Every dropped term is >= 0, so it is at most the abs-sum over all
    pairs, and a gate `t >= -c scale` can only get stricter.  `value` is
    within eps * scale of the sum over all pairs.
    """

    value: float
    scale: float
    norm_sq: float


def _lattice(psi, d):
    # halve h (keeping ln2/h integer, so dilation by 2 stays an exact
    # lattice shift) until narrow trials are resolved
    h = H_STEP
    sigma = getattr(psi, "sigma", 1.0) if psi.family != "sampled" else 1.0
    while h > sigma / 3.0 and h > H_STEP / 64.0:
        h *= 0.5
    S = psi.s_extent(d)
    half = int(math.ceil(S / h))
    return (np.arange(-half, half + 1) * h), h


# elements (offsets x columns) per block of _offset_sums: below it numpy's
# per-call overhead dominates (4,096 took 1.6x as long on the forms
# workload's sums), and the three block temporaries stay at 384 KiB
_BLOCK_ELEMENTS = 16384
# the pairs outside the core window may weigh at most this share of eps
# times offset 1's weighted abs term, a lower bound on the abs partial sum:
# far enough below the cut's one ulp that adding it leaves K where it was
_WINDOW_SHARE = 2.0 ** -10


def _offset_blocks(n, lo, hi):
    """Row ranges (k0, k1) covering the offsets 1..n-1 in order, for the
    core window [lo, hi): block rows k0..k1-1 span the columns
    max(0, lo - k1 + 1)..hi-1, and (k1 - k0) times that width is at most
    _BLOCK_ELEMENTS, or the block is one row."""
    k0 = 1
    while k0 < n:
        b = hi - lo + k0 - 1  # width of a block is at most b + rows
        rows = max(1, (math.isqrt(b * b + 4 * _BLOCK_ELEMENTS) - b) // 2,
                   _BLOCK_ELEMENTS // hi)
        k1 = min(n, k0 + rows)
        yield k0, k1
        k0 = k1


def _offset_sums(h, a, G, H, tail, w_lo, window):
    """F_k = h sum_i a_i a_{i+k} (G_i-G_{i+k})(H_i-H_{i+k}), plus the |.|
    version, for k = 0..K (F_0 = 0), over the pairs with a node in the core
    window [lo, hi) = window[:2]; window[2] bounds the weighted abs-sum of
    the other pairs over all offsets.  K is the first offset with
    tail[K] + window[2] <= eps * sum_{j<=K} w_lo[j] |F|_j: tail[K] bounds the
    weighted abs-sum over all offsets beyond K, and w_lo[j] bounds the
    weight of offset j from below, so all that is left out is below one ulp
    of the abs partial sum through K.

    The offsets come in the blocks of _offset_blocks, each a few 2-D numpy
    operations over rows k and columns i.  The partners i + k are rows of a
    sliding window over a, G and H zero-padded at the end, where a pair with
    a padded node is 0; the columns left of lo - k are real pairs too, of
    two nodes outside the window.
    """
    lo, hi, dropped = window
    n = a.size
    pad = np.zeros(n)  # row c0 + k <= n, and hi <= n columns from there
    part = [np.lib.stride_tricks.sliding_window_view(np.concatenate([v, pad]), hi)
            for v in (a, G, H)]
    ah = h * a
    F, F_abs = np.zeros(n), np.zeros(n)
    buf = np.empty((3, max(_BLOCK_ELEMENTS, hi)))
    partial = 0.0
    for k0, k1 in _offset_blocks(n, lo, hi):
        c0 = max(0, lo - k1 + 1)
        m = hi - c0
        w, dG, dH = (b[:(k1 - k0) * m].reshape(k1 - k0, m) for b in buf)
        pa, pG, pH = (v[c0 + k0:c0 + k1, :m] for v in part)
        np.multiply(ah[c0:hi], pa, out=w)
        np.subtract(G[c0:hi], pG, out=dG)
        np.subtract(H[c0:hi], pH, out=dH)
        np.multiply(dG, dH, out=dG)
        np.einsum("ji,ji->j", w, dG, out=F[k0:k1])
        np.abs(dG, out=dG)
        np.einsum("ji,ji->j", w, dG, out=F_abs[k0:k1])
        cum = w_lo[k0:k1] * F_abs[k0:k1]
        cum[0] += partial
        np.cumsum(cum, out=cum)
        # a NaN partial sum stops it too
        stop = np.flatnonzero(~(tail[k0:k1] + dropped > _EPS * cum))
        if stop.size:
            K = k0 + int(stop[0])
            return F[:K + 1], F_abs[:K + 1]
        partial = cum[-1]
    return F, F_abs


def _core_window(q, budget):
    """(lo, hi, dropped): the nodes [lo, hi) left after dropping from either
    end of the lattice as many nodes as a node weight sum of budget / 2
    allows, and dropped, the weight of the dropped nodes (<= budget).  With
    the weights q of _offset_tail, dropped bounds the weighted abs terms of
    all pairs of two dropped nodes."""
    left = np.cumsum(q)
    right = np.cumsum(q[::-1])
    lo = int(np.searchsorted(left, 0.5 * budget, side="right"))
    n_right = int(np.searchsorted(right, 0.5 * budget, side="right"))
    hi = max(lo, q.size - n_right)
    dropped = ((float(left[lo - 1]) if lo else 0.0)
               + (float(right[n_right - 1]) if n_right else 0.0))
    return lo, hi, dropped


def _offset_tail(d, h, x, y):
    """(tail, w_lo, q) for _offset_sums and _core_window; tail and w_lo are
    indexed by the offset k = 0..n-1, q by the lattice node.

    tail[k] bounds the weighted abs terms of all offsets beyond k, and
    w_lo[k] <= w_k = phi2[k] / (kh)^2 (w_lo[0] = 0).  Both are closed form.
    Jensen over the sphere (the mean of w.e is 0) and u - w.e >= u - 1 give
    |S^(d-1)| u^-p <= K_d(u) <= |S^(d-1)| (u - 1)^-p with p = (d+1)/2;
    across band k = [x_lo, x_hi] K_d(cosh x) falls and x^2 grows, so
    h x_lo^2 K_d(cosh x_hi) <= phi2[k] <= h x_hi^2 K_d(cosh x_lo).  With
    x = aG, y = aH and a_{i+k} = a_i e^{ck}, c = (d-1)h/2, the triangle
    inequality on |dG dH| and Cauchy-Schwarz on the cross terms bound
    offset k's abs term by
        b_k = h w_k [2 cosh(ck) sum_i |x_i y_i| + 2 ||x|| ||y||]
    for any d > 1 and any trial, H = G included.  The products are formed
    in logs (cosh x = e^x (1 + e^-2x) / 2, cosh x - 1 = e^x (1 - e^-x)^2
    / 2), so cosh(ck) w_k is finite for any k.

    The same bound over only the pairs of two nodes of a set S, all
    offsets together, is C1 sum_S |x_i y_i| + 2 C2 ||x_S|| ||y_S|| with
    C1 = sum_k h w_k 2 cosh(ck) and C2 = sum_k h w_k; by AM-GM it is at
    most the sum over S of the node weights
        q_i = C1 |x_i y_i| + C2 (x_i^2 + y_i^2).
    """
    n = x.size
    k = np.arange(1, n)
    x_lo, x_hi = (k - 0.5) * h, (k + 0.5) * h
    p = (d + 1.0) / 2.0
    log_hs = math.log(h * sphere_surface(d - 1)) + p * math.log(2.0)
    log_lo = (log_hs + 2.0 * np.log(x_lo / (k * h))
              - p * (x_hi + np.log1p(np.exp(-2.0 * x_hi))))
    log_hi = (log_hs + 2.0 * np.log(x_hi / (k * h))
              - p * (x_lo + 2.0 * np.log1p(-np.exp(-x_lo))))
    ck = 0.5 * (d - 1.0) * h * k
    sum_xy = float(np.sum(np.abs(x * y)))
    norms = 2.0 * math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
    w_cosh, w_hi = np.exp(log_hi + ck + np.log1p(np.exp(-2.0 * ck))), np.exp(log_hi)
    b = h * (w_cosh * sum_xy + w_hi * norms)
    tail = np.append(np.cumsum(b[::-1])[::-1], 0.0)
    q = h * (float(np.sum(w_cosh)) * np.abs(x * y) + float(np.sum(w_hi)) * (x * x + y * y))
    return tail, np.append(0.0, np.exp(log_lo)), q


def _require_finite(d, what, *values):
    if not all(np.all(np.isfinite(v)) for v in values):
        raise DomainError("non-finite %s at d = %g: the trial's weighted "
                          "lattice leaves double range" % (what, d))


def _diag_second_derivative(s, h, G, H, wexp):
    """F''(0) = 2 int e^{wexp s} G'(s) H'(s) ds via central differences."""
    w = np.exp(wexp * s[1:-1])
    dG = (G[2:] - G[:-2]) / (2.0 * h)
    dH = (H[2:] - H[:-2]) / (2.0 * h)
    val = 2.0 * h * float(np.dot(w, dG * dH))
    val_abs = 2.0 * h * float(np.dot(w, np.abs(dG * dH)))
    return val, val_abs


_GL12 = np.polynomial.legendre.leggauss(12)
# bands 0.._RIDGE_BANDS-1 hold the Lieb-Yau kernels' ridge at x = 0
_RIDGE_BANDS = 4


def _gl_bands(f, h, k0, k1):
    """Bands k0..k1-1 (k0 >= 1) by 12-point Gauss-Legendre in one call of f."""
    xi, wi = _GL12
    x = (np.arange(k0, k1)[:, None] * h + (h / 2.0) * xi[None, :]).ravel()
    return (h / 2.0) * f(x).reshape(k1 - k0, xi.size) @ wi


def band_moments(f, h, n):
    """m[k] = int over band k of f(x) dx, k = 0..n-1, for a vectorized f.

    Band 0 is [0, h/2], band k >= 1 is [kh - h/2, kh + h/2].  Bands 0-3
    hold the Lieb-Yau kernels' ridge at x = 0 and are integrated
    adaptively; the rest use 12-point Gauss-Legendre in one call of f.
    """
    out = np.empty(n)
    for k in range(min(_RIDGE_BANDS, n)):
        out[k] = integrate_adaptive(f, max(0.0, k * h - h / 2.0),
                                    k * h + h / 2.0, 1e-10).value
    if n > _RIDGE_BANDS:
        out[_RIDGE_BANDS:] = _gl_bands(f, h, _RIDGE_BANDS, n)
    return out


# Gauss-Legendre bands per cached block.  Both kernels are elementwise,
# so the block size only decides which bands are cached together; 512
# keeps the blocks the moment cache has always had
_RIDGE_BLOCK = 512


def _moments(kernel, arg, h, n):
    """Bands 0..n-1 of a kernel's moments, joined from its cached blocks."""
    blocks = 1 + max(0, n - _RIDGE_BANDS - 1) // _RIDGE_BLOCK
    out = np.concatenate([_moment_block(kernel, arg, h, j) for j in range(blocks)])
    out.flags.writeable = False
    return out[:n]


def ridge_moments(d, h, n):
    """phi2[k] = int over band k of K_d(cosh x) x^2 dx, as a read-only array.

    K_d(cosh x) is the kernel after the (2 r rho)^((d+1)/2) factor is
    pulled out of |x - y|^(d+1); it has a 1/x^2 ridge at x = 0, and the
    x^2 carries the numerator's quadratic vanishing across it.

    The bands come from fixed blocks, each computed once per process and
    cached by (kernel, d, h, block index) like the log-grid matrices:
    block 0 is the four ridge bands and the first _RIDGE_BLOCK = 512
    Gauss-Legendre bands, block j >= 1 the next 512.  Both kernels are
    closed forms evaluated element by element, so every band comes out
    bit for bit as one band_moments call over those bands gives it,
    whatever was computed before.
    """
    return _moments("ridge", d, h, n)


def channel_moments(m, h, n):
    """phi0[k] = int over band k of 2 (A_0 - A_m)(cosh x) dx, as a read-only
    array: the positive 2D channel-coupling kernel, with an integrable log
    singularity in band 0.  Served from the same block cache as
    ridge_moments."""
    return _moments("channel", m, h, n)


@lru_cache(maxsize=64)
def _moment_block(kernel, arg, h, j):
    """Block j of the band moments of kernel "ridge" (arg d) or "channel"
    (arg m), read-only.  A kernel element whose error bound exceeds KTOL
    of its value raises AccuracyError carrying the block's estimate, and
    the block is not cached; the closed forms' bounds stay far below it.
    Past x of about 710 u - 1 overflows to inf, where the kernel is an
    exact 0."""
    unconverged = [0]

    def f(x):
        with np.errstate(over="ignore"):
            um1 = 2.0 * np.sinh(x / 2.0) ** 2
            v, e, _ = kernels.polar_batch(*((arg, 0) if kernel == "ridge"
                                            else (2.0, arg)), um1)
        unconverged[0] += int(np.count_nonzero(e > KTOL * np.abs(v)))
        return v * x * x if kernel == "ridge" else v

    k1 = _RIDGE_BANDS + (j + 1) * _RIDGE_BLOCK
    if j == 0:
        out = band_moments(f, h, k1)
    else:
        out = _gl_bands(f, h, k1 - _RIDGE_BLOCK, k1)
    if unconverged[0]:
        raise AccuracyError("%d %s-%g kernel elements missed tolerance %g"
                            % (unconverged[0], kernel, arg, KTOL), best=out)
    out.flags.writeable = False
    return out


def _form_engine(d, s, h, G, H):
    """A * iint e^{(d-1)(s+t)/2} (G(s)-G(t))(H(s)-H(t)) K~(s-t) ds dt
    with A = |S^(d-1)| 2^(-(d+1)/2); returns (value, abs_scale).

    The pair offsets are summed out to the first K where a bound on all
    offsets beyond K (_offset_tail: the triangle inequality and
    Cauchy-Schwarz, with the ridge moments majorized in closed form), plus
    a bound on the pairs left out by the core window, is at most eps times
    the abs partial sum through K; only bands 0..K of the ridge moments are
    computed.  The core window (_core_window) is the lattice less the
    nodes at either end whose weights sum to at most _WINDOW_SHARE * eps
    times offset 1's weighted abs term; only pairs with a node in it are
    summed.  abs_scale is the abs-sum over the kept pairs: every dropped
    term is >= 0, so it is at most the full one, and value is within
    eps * abs_scale of the sum over all pairs.  Raises DomainError when the
    weighted lattice or the result is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.exp(0.5 * (d - 1.0) * s)
        x, y = a * G, a * H
        tail, w_lo, q = _offset_tail(d, h, x, y)
    _require_finite(d, "lattice weights", x, y, tail)
    with np.errstate(over="ignore", invalid="ignore"):
        # offset 1 over all pairs, a lower bound on the abs partial sum
        first = w_lo[1] * h * float(np.dot(a[:-1] * a[1:], np.abs(
            (G[:-1] - G[1:]) * (H[:-1] - H[1:]))))
        budget = _WINDOW_SHARE * _EPS * first
        # past the double range `first` is inf or NaN: no window then, and
        # the sums below raise
        window = _core_window(q, budget if budget < math.inf else 0.0)
        Fk, Fk_abs = _offset_sums(h, a, G, H, tail, w_lo, window)
        D, D_abs = _diag_second_derivative(s, h, G, H, d - 1.0)
    _require_finite(d, "offset sums", Fk_abs, D_abs)
    K = Fk.size - 1
    phi2 = ridge_moments(d, h, K + 1)
    w = phi2[1:] / (np.arange(1, K + 1) * h) ** 2
    A = sphere_surface(d - 1) * 2.0 ** (-(d + 1.0) / 2.0)
    val = A * (phi2[0] * D + 2.0 * float(np.dot(w, Fk[1:])))
    sca = A * (phi2[0] * D_abs + 2.0 * float(np.dot(w, Fk_abs[1:])))
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


def momentum_expectation(psi: TrialFunction, d: float) -> float:
    """<psi, |p| psi> through the position-space double integral."""
    d = _check_dimension(d)
    s, h = _lattice(psi, d)
    G = psi.profile_log(s)
    v, _ = _form_engine(d, s, h, G, G)
    return alpha(d) * v


def nonrel_form(psi: TrialFunction) -> float:
    """Q[psi] = Re <|x| psi, p^2 psi> in d = 2 for a real radial trial.

    Integration by parts gives the radial reduction
    Q = 2 pi ( int_0^inf r^2 psi'(r)^2 dr - 1/2 int_0^inf psi(r)^2 dr ),
    and in log-radius both pieces are plain 1D integrals.
    """
    S = psi.s_extent(2.0) + 10.0

    def f(s):
        p = psi.profile_log(s)
        dp = psi.dprofile_log(s)
        return (dp * dp - 0.5 * p * p) * np.exp(s)

    res = integrate_adaptive(f, -S, S, NONREL_TOL)
    return 2.0 * math.pi * res.value
