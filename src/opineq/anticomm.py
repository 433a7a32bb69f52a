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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import ConfigurationError, DomainError
from .quadrature import (QuadResult, angular_kernel_batch, integrate_adaptive,
                         sphere_surface)

# lattice step; divides ln 2 so dilation by 2 is an exact lattice shift
H_STEP = math.log(2.0) / 9.0


def _check_dimension(d):
    if not (isinstance(d, (int, float)) and d > 1):
        raise DomainError("dimension must be a real number > 1")
    return float(d)


def alpha(d: float) -> float:
    """Lieb-Yau prefactor Gamma((d+1)/2) / (2 pi^((d+1)/2))."""
    d = _check_dimension(d)
    return float(gamma_fn((d + 1) / 2.0) / (2.0 * math.pi ** ((d + 1) / 2.0)))


def bracket(d: float, r) -> float:
    """r^((d-1)/2) + r^(-(d-1)/2) - r^(1/2) - r^(-1/2), cancellation-free.

    Equals f((d-1)/2) - f(1/2) with f(a) = r^a + r^(-a); its sign is the
    sign of d - 2 for r != 1 because f is strictly increasing in a > 0.
    """
    d = _check_dimension(d)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("r must be positive")
    lr = np.log(r)
    e = (d - 2.0) / 2.0  # (d-1)/2 - 1/2
    out = np.sqrt(r) * np.expm1(e * lr) + np.expm1(-e * lr) / np.sqrt(r)
    return float(out) if out.ndim == 0 else out


def _bracket_log(d, s):
    # bracket(d, e^{-s}) = 4 sinh((a+1/2)s/2) sinh((a-1/2)s/2), a = (d-1)/2
    a = (d - 1.0) / 2.0
    return 4.0 * np.sinh((a + 0.5) * s / 2.0) * np.sinh((a - 0.5) * s / 2.0)


def gamma(d: float, tol: float = 1e-10, path: str = "log") -> QuadResult:
    """gamma_d = 2^(-(d-1)/2) int_0^1 dr/r bracket(d,r) K_d((r+1/r)/2).

    `path` selects the quadrature route: "log" substitutes r = e^{-s},
    "direct" integrates in r on (0, 1], "sqrt" substitutes r = t^2.  All
    three must agree; the tests hold them to 1e-6 relative.
    """
    d = _check_dimension(d)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if d == 2.0:
        return QuadResult(0.0, 0.0, 1)  # bracket vanishes identically
    ktol = min(1e-12, tol * 1e-2)
    nev_inner = [0]

    def kernel_um1(um1):
        v, _, n = angular_kernel_batch(d, um1, tol=ktol)
        nev_inner[0] += n
        return v

    if path == "log":
        smax = 40.0 / min(1.0, d / 2.0) + 25.0

        def f(s):
            return _bracket_log(d, s) * kernel_um1(2.0 * np.sinh(s / 2.0) ** 2)

        res = integrate_adaptive(f, 0.0, smax, tol)
    elif path == "direct":
        def f(r):
            um1 = (np.sqrt(r) - 1.0 / np.sqrt(r)) ** 2 / 2.0
            return bracket(d, r) * kernel_um1(um1) / r

        res = integrate_adaptive(f, 0.0, 1.0, tol)
    elif path == "sqrt":
        def f(t):
            um1 = (t - 1.0 / t) ** 2 / 2.0
            return 2.0 * bracket(d, t * t) * kernel_um1(um1) / t

        res = integrate_adaptive(f, 0.0, 1.0, tol)
    else:
        raise ConfigurationError("unknown gamma path %r" % path)
    pref = 2.0 ** (-(d - 1.0) / 2.0)
    return QuadResult(pref * res.value, pref * res.abs_error_estimate,
                      res.evaluations + nev_inner[0])


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
    m: int = 0
    samples: tuple = None

    def __post_init__(self):
        if self.family not in ("log_gaussian", "log_linear_cutoff", "sampled"):
            raise DomainError("unknown trial family %r" % self.family)
        if self.family != "sampled" and self.sigma <= 0:
            raise DomainError("sigma must be positive")
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

    def dprofile_dr(self, r):
        r = np.asarray(r, dtype=float)
        return self.dprofile_log(np.log(r)) / r

    def scaled(self, lam: float) -> "TrialFunction":
        """psi_lambda(r) = psi(lambda r)."""
        return TrialFunction(self.family, self.sigma, self.center - math.log(lam),
                             self.m, self.samples)

    def s_extent(self, d: float) -> float:
        """Half-width of the s-lattice needed for ~1e-12 truncated mass.

        The +34 padding covers the e^{-x} pair-separation tail of the
        double-integral forms (far side against the trial's bulk), not
        just the single-variable weighted mass.
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
    """Form value t[psi], its absolute scale (the same sums over |terms|,
    the reference for roundoff-level negativity) and ||psi||^2."""

    value: float
    scale: float
    norm_sq: float


def _lattice(psi, d, h=H_STEP):
    # halve h (keeping ln2/h integer, so dilation by 2 stays an exact
    # lattice shift) until narrow trials are resolved
    sigma = getattr(psi, "sigma", 1.0) if psi.family != "sampled" else 1.0
    while h > sigma / 3.0 and h > H_STEP / 64.0:
        h *= 0.5
    S = psi.s_extent(d)
    half = int(math.ceil(S / h))
    return (np.arange(-half, half + 1) * h), h


def _offset_sums(s, h, G, H, wexp):
    """F_k = h sum_i e^{wexp (s_i+s_{i+k})/2} (G_i-G_{i+k})(H_i-H_{i+k}), plus
    the |.| version; k = 0..n-1 (F_0 = 0)."""
    n = s.size
    half_w = np.exp(0.5 * wexp * s)
    Fk = np.zeros(n)
    Fk_abs = np.zeros(n)
    for k in range(1, n):
        w = half_w[:n - k] * half_w[k:]
        num = (G[:n - k] - G[k:]) * (H[:n - k] - H[k:])
        Fk[k] = h * float(np.dot(w, num))
        Fk_abs[k] = h * float(np.dot(w, np.abs(num)))
    return Fk, Fk_abs


def _diag_second_derivative(s, h, G, H, wexp):
    """F''(0) = 2 int e^{wexp s} G'(s) H'(s) ds via central differences."""
    w = np.exp(wexp * s[1:-1])
    dG = (G[2:] - G[:-2]) / (2.0 * h)
    dH = (H[2:] - H[:-2]) / (2.0 * h)
    val = 2.0 * h * float(np.dot(w, dG * dH))
    val_abs = 2.0 * h * float(np.dot(w, np.abs(dG * dH)))
    return val, val_abs


_GL12 = np.polynomial.legendre.leggauss(12)


def band_moments(f, h, n):
    """m[k] = int over band k of f(x) dx, k = 0..n-1, for a vectorized f.

    Band 0 is [0, h/2], band k >= 1 is [kh - h/2, kh + h/2].  Bands 0-3
    hold the Lieb-Yau kernels' ridge at x = 0 and are integrated
    adaptively; the rest use 12-point Gauss-Legendre in one call of f.
    """
    xi, wi = _GL12
    out = np.empty(n)
    for k in range(min(4, n)):
        out[k] = integrate_adaptive(f, max(0.0, k * h - h / 2.0),
                                    k * h + h / 2.0, 1e-10).value
    if n > 4:
        x = (np.arange(4, n)[:, None] * h + (h / 2.0) * xi[None, :]).ravel()
        out[4:] = (h / 2.0) * f(x).reshape(n - 4, xi.size) @ wi
    return out


def ridge_moments(d, h, n, ktol=1e-11):
    """phi2[k] = int over band k of K_d(cosh x) x^2 dx.

    K_d(cosh x) is the kernel after the (2 r rho)^((d+1)/2) factor is
    pulled out of |x - y|^(d+1); it has a 1/x^2 ridge at x = 0, and the
    x^2 carries the numerator's quadratic vanishing across it.
    """
    def f(x):
        um1 = 2.0 * np.sinh(x / 2.0) ** 2
        v, _, _ = angular_kernel_batch(d, um1, tol=ktol)
        return v * x * x

    return band_moments(f, h, n)


def _form_engine(d, s, h, G, H, ktol=1e-11):
    """A * iint e^{(d-1)(s+t)/2} (G(s)-G(t))(H(s)-H(t)) K~(s-t) ds dt
    with A = |S^(d-1)| 2^(-(d+1)/2); returns (value, abs_scale)."""
    Fk, Fk_abs = _offset_sums(s, h, G, H, d - 1.0)
    D, D_abs = _diag_second_derivative(s, h, G, H, d - 1.0)
    phi2 = ridge_moments(d, h, s.size, ktol)
    k = np.arange(1, s.size)
    w = phi2[1:] / (k * h) ** 2
    A = sphere_surface(d - 1) * 2.0 ** (-(d + 1.0) / 2.0)
    val = A * (phi2[0] * D + 2.0 * float(np.dot(w, Fk[1:])))
    sca = A * (phi2[0] * D_abs + 2.0 * float(np.dot(w, Fk_abs[1:])))
    return val, sca


def relativistic_form(psi: TrialFunction, d: float,
                      ktol: float = 1e-11) -> FormValue:
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
    H = np.exp(s) * G
    norm = sphere_surface(d - 1) * h * float(np.dot(np.exp(d * s), G * G))
    v, sc = _form_engine(d, s, h, G, H, ktol)
    return FormValue(value=float(v), scale=float(sc), norm_sq=float(norm))


def relativistic_form_direct(psi: TrialFunction, d: float,
                             ktol: float = 1e-11) -> float:
    """The value of relativistic_form as a float."""
    return relativistic_form(psi, d, ktol).value


def momentum_expectation(psi: TrialFunction, d: float,
                         ktol: float = 1e-11) -> float:
    """<psi, |p| psi> through the position-space double integral."""
    d = _check_dimension(d)
    s, h = _lattice(psi, d)
    G = psi.profile_log(s)
    v, _ = _form_engine(d, s, h, G, G, ktol)
    return alpha(d) * v


def nonrel_form(psi: TrialFunction, tol: float = 1e-11) -> float:
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

    res = integrate_adaptive(f, -S, S, tol)
    return 2.0 * math.pi * res.value


@dataclass(frozen=True)
class NonrelViolation:
    """Result of the negative-value scan of the non-relativistic form."""

    found: bool
    sigma: float
    value: float
    sigma_scanned: tuple = field(default=(), repr=False)


def find_nonrel_violation(sigma_lo: float, sigma_hi: float,
                          n_scan: int = 64) -> NonrelViolation:
    """Scan/minimize Q over log-Gaussians on [sigma_lo, sigma_hi].

    Returns found=False when the range holds no violation (that is not a
    failure: Q > 0 below sigma = sqrt(2)).
    """
    if not (0 < sigma_lo < sigma_hi):
        raise DomainError("need 0 < sigma_lo < sigma_hi")
    sigmas = np.linspace(sigma_lo, sigma_hi, n_scan)
    qs = np.array([nonrel_form(TrialFunction("log_gaussian", sig))
                   for sig in sigmas])
    j = int(np.argmin(qs))
    lo = sigmas[max(0, j - 1)]
    hi = sigmas[min(n_scan - 1, j + 1)]
    # golden-section refinement of the scan minimum
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    dd = a + invphi * (b - a)
    fc = nonrel_form(TrialFunction("log_gaussian", c))
    fd = nonrel_form(TrialFunction("log_gaussian", dd))
    for _ in range(40):
        if fc < fd:
            b, dd, fd = dd, c, fc
            c = b - invphi * (b - a)
            fc = nonrel_form(TrialFunction("log_gaussian", c))
        else:
            a, c, fc = c, dd, fd
            dd = a + invphi * (b - a)
            fd = nonrel_form(TrialFunction("log_gaussian", dd))
    sig = c if fc < fd else dd
    q = min(fc, fd)
    if q < min(qs[j], 0.0):
        best_sig, best_q = float(sig), float(q)
    else:
        best_sig, best_q = float(sigmas[j]), float(qs[j])
    return NonrelViolation(found=best_q < 0.0, sigma=best_sig, value=best_q,
                           sigma_scanned=tuple(sigmas))
