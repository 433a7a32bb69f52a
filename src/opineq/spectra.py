"""Radial angular-momentum-channel eigenproblems.

Two discrete operators live here.  The Chandrasekhar-Coulomb operator
|p| - nu/|x| of a 2D channel m is built in momentum space on a log grid,
where |p| is diagonal and 1/|x| is a Toeplitz matrix between two
diagonal factors (_momentum_log_grid); its critical coupling is an
extreme eigenvalue of that Toeplitz matrix.  lambda_min_anticomm builds
the position-space Lieb-Yau bands, in any dimension d > 1, into the
first column of the Toeplitz matrix of |x||p| + |p||x| on a
log-interval.  2D hydrogen is tridiagonal in each channel (hydrogen_channels).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from . import anticomm, kernels, lattice
from .errors import DomainError, RefinementNeededError
from .quadrature import integrate_adaptive


@dataclass(frozen=True)
class GridSpec:
    """Logarithmic radial grid: n log-spaced nodes on [r_min, r_max]."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max < math.inf:
            raise DomainError("need 0 < r_min < r_max < inf")
        if not isinstance(self.n, (int, np.integer)) or self.n < 16:
            raise DomainError("need an integer count of at least 16 nodes")
        if not (math.isfinite(self.log_step())
                and np.all(np.diff(self.nodes()) > 0)):
            raise DomainError("need a finite r_max / r_min and n distinct nodes")

    def __str__(self):
        return "%r,%r,%d" % (self.r_min, self.r_max, self.n)

    def nodes(self):
        # geomspace may overflow on its way to an r_max near the top of
        # double range; it then sets the end nodes to the bounds themselves
        with np.errstate(over="ignore"):
            return np.geomspace(self.r_min, self.r_max, self.n)

    def log_step(self):
        return math.log(self.r_max / self.r_min) / (self.n - 1)


@dataclass(frozen=True)
class SpectrumReport:
    """Assembled levels with their degeneracies, and the refinement trace."""

    levels: tuple            # (level index n, energy, degeneracy)
    refinement_trace: tuple  # (node count, channel-0 levels), half grid first


# ---------------------------------------------------------------------------
# |p| - nu/|x| in 2D channel m, on the momentum log grid

@lru_cache(maxsize=64)
def _momentum_log_grid(m: int, n: int, L: float):
    """1/|x| in 2D channel m on the momentum log grid q_i = e^{(n-1-i)h},
    i = 0..n-1, h = L/(n-1): (t, q), T_m's first column t and the nodes q,
    two read-only arrays of length n.  The channel operator is
    D^{1/2} T_m D^{1/2}, D = diag(q); callers form the n x n matrix they
    solve, so that the cache holds 16n bytes per key.

    On phi = q f, the L^2(du) form of a radial momentum function f with
    u = ln q, 1/|x| is the convolution by the even, positive
    kappa_m(x) = e^{-x/2} k_m(e^{-x}) between two factors e^{u/2}, with
    k_m kernels.coulomb_channel_kernel.  T_m is the symmetric Toeplitz
    matrix of kappa_m's band moments; kappa_m is even, so band 0 is
    [-h/2, h/2], twice band_moments' [0, h/2].  Its symbol is the Mellin
    multiplier M_m (Grenander-Szego), and its bands are positive and tile
    the line, so lambda_max(T_m) < sum_k t_k = M_m(0).  |p| is diag(q),
    and a physical grid [1/r_max, 1/r_min] rescales by 1/r_max.

    The nodes run from e^L down to 1, so that H(nu) = D^{1/2} (I - nu T_m)
    D^{1/2} is graded with its large entries first.  LAPACK's tridiagonal
    reduction of the lower triangle starts there and keeps the eigenvalues
    of size 1 next to entries of size e^L; in ascending order they drown
    in its roundoff, eps e^L, 3e3 at L = 44.
    """
    h = L / (n - 1)
    t = anticomm.band_moments(
        lambda x: np.exp(-0.5 * x) * kernels.coulomb_channel_kernel(m, np.exp(-x)), h, n)
    t[0] *= 2.0
    q = np.exp(h * np.arange(n - 1, -1, -1))
    t.flags.writeable = q.flags.writeable = False
    return t, q


_clear_grids = _momentum_log_grid.cache_clear


def _cold_start():
    """The library's one cold-start hook, installed as
    _momentum_log_grid.cache_clear: it clears the channel columns, the
    thresholds solved from them (_scan_threshold), anticomm's ridge-moment
    cache, kernels._closed_form and the Kato lattice's zero-field
    operators (lattice.kinetic_matrix), so that the next assembly is cold."""
    _clear_grids()
    _scan_threshold.cache_clear()
    anticomm._ridge_cache.cache_clear()
    kernels._closed_form.cache_clear()
    lattice._zero_field.cache_clear()


_momentum_log_grid.cache_clear = _cold_start


def _lowest_eigenvalue(assemble):
    """Lowest eigenvalue of the bitwise symmetric C-ordered H = assemble(),
    the one dense eigensolve of this module: chandrasekhar_lowest's whole
    H(nu) and its trailing blocks, -T_0 and the anticommutator blocks.
    An inf or NaN entry raises DomainError.

    The solve for that eigenvalue alone ends its bisection at an absolute
    width of eps ||H||.  Where it lands within 64 eps ||H||_F of 0, a solve
    of the whole spectrum replaces it: LAPACK's QR iteration keeps the
    small eigenvalues of a matrix graded with its large entries first to
    their relative accuracy (Demmel-Veselic), so the sign of the result is
    the sign of the eigenvalue.  Each solve overwrites H.T, the
    Fortran-order array LAPACK takes, instead of copying H into that order,
    so the fallback assembles its own H.
    """
    H = assemble()
    if not np.all(np.isfinite(H)):
        raise DomainError("matrix has entries that are not finite")
    with np.errstate(over="ignore"):  # an inf floor takes the fallback
        floor = 64.0 * np.finfo(float).eps * np.linalg.norm(H)
    lam = float(sla.eigvalsh(H.T, subset_by_index=[0, 0], overwrite_a=True,
                             check_finite=False)[0])
    if abs(lam) <= floor:
        lam = float(sla.eigvalsh(assemble().T, overwrite_a=True, check_finite=False)[0])
    return lam


def _toeplitz_view(t):
    """The symmetric Toeplitz matrix of first column t as a read-only
    strided view, T[i, j] = t[|i - j|], on 2n - 1 stored values."""
    return np.lib.stride_tricks.sliding_window_view(
        np.concatenate((t[::-1], t[1:])), t.size)[::-1]


# chandrasekhar_lowest's first trailing block, in rows, and the relative
# slack of the lower bound it certifies.  Measured on 54 stable solves over
# perfbench's draw ranges (m = 1, nu in [0.3, 0.5]; m = 2, nu in [0.3, 0.9];
# the three pool grids): a 128-row block is at most 5.4e-9 relative above
# lambda_min(H), 177 times inside the slack 2^-20 = 9.5e-7, which is still
# 20 times inside the whole H's bisection error there, 1.9e-5.  96 rows are
# 2.7e-7 above it and 64 fail 14 of the 54 certificates; with 128 rows every
# slack from 2^-26 up certifies all 54, and 2^-30 fails 5.
_TRAIL_ROWS = 128
_TRAIL_SLACK = 2.0 ** -20


def _bounded_below(nu, t, q, sigma):
    """Whether H(nu) - sigma I is positive definite, decided by one Cholesky
    factorization of the congruent A = D^{-1/2} (H(nu) - sigma I) D^{-1/2}
    = I - nu T_m - sigma D^{-1}, whose entries are of order 1 where H's
    reach e^L.  By Sylvester's law of inertia a success means
    lambda_min(H(nu)) > sigma, up to the rounding below.

    A factorization that runs to completion in floating point is exact for
    a positive definite A + E with |E_ij| <= gamma_{n+1} sqrt(a_ii a_jj),
    gamma_{n+1} = (n+1) eps / (1 - (n+1) eps) (Demmel, LAPACK Working Note
    14, 1989; Higham, Accuracy and Stability, Thm 10.5): entry by entry a
    perturbation of I - nu T_m of relative size (n+1) eps.  Forming A
    rounds each entry by a few eps of operands of order 1, which adds
    O(eps) to ||E||_2.  Congruence gives D^{1/2} (A + E) D^{1/2} =
    H - sigma I + D^{1/2} E D^{1/2} > 0, and D^{1/2} E D^{1/2} <= ||E||_2 D,
    so a success certifies lambda_min(H + delta D) > sigma with
    delta = ||E||_2 <= gamma_{n+1} tr A + O(eps).  For sigma >= 0 each
    a_ii <= 1, so delta is at most about n^2 eps, 6e-11 at n = 500: the
    normwise size of an (n+1) eps relative perturbation of I - nu T_m.
    On H's ground state x, delta D moves the bound by delta <x, D x>, of
    the order of delta where x lives at the small end of q, as a stable
    channel's does.
    """
    A = _toeplitz_view(t) * -nu
    A[np.diag_indices(q.size)] += 1.0 - sigma / q
    return sla.lapack.dpotrf(A.T, lower=1, clean=0, overwrite_a=1)[1] == 0


def chandrasekhar_lowest(nu: float, m: int, grid: GridSpec) -> float:
    """Lowest eigenvalue of |p| - nu/|x| in 2D channel m, on the momentum
    grid [1/r_max, 1/r_min] with grid.n log-spaced nodes.

    H(nu) = D^{1/2} (I - nu T_m) D^{1/2}, D = diag(q), is assembled on the
    grid scaled to [1, r_max/r_min] and its eigenvalue scaled back:
    |p| - nu/|x| has degree -1.

    A stable channel's ground state lives on the last rows, the small end
    of q, so the trailing k x k block of H is solved first, k =
    _TRAIL_ROWS.  Its lowest eigenvalue theta is an upper bound on
    lambda_min(H) by Cauchy interlacing.  A negative theta means the
    channel binds, and H is solved whole.  Otherwise _bounded_below
    certifies lambda_min(H) > sigma = theta - _TRAIL_SLACK |theta| with one
    Cholesky factorization, and theta is returned: it is within
    _TRAIL_SLACK |theta| of lambda_min(H), up to the block solve's
    bisection width eps ||H_k|| and the factorization's delta.  Where the
    certificate fails, k doubles while it is below n; then H is solved
    whole, bitwise as if no block had been tried.  Each matrix takes one
    allocation: H and its blocks are the outer product of sqrt(q), scaled
    in place by a view of T_m, and the solve overwrites them.

    On perfbench's pool grids (n = 300-500) a certified solve costs a
    0.6 ms block and a 0.7-1.9 ms factorization where the whole H took
    2.3-7.0 ms, and a binding channel pays one 128-row block before its
    whole solve (measured, 2 BLAS threads).
    """
    if not 0.0 <= nu < math.inf:
        raise DomainError("coupling nu must be finite and >= 0")
    L = math.log(grid.r_max / grid.r_min)
    t, q = _momentum_log_grid(abs(m), grid.n, L)
    r = np.sqrt(q)

    def assemble(k=grid.n):
        H = np.einsum("i,j->ij", r[-k:], r[-k:])
        H *= _toeplitz_view(t[:k])
        H *= -nu
        H[np.diag_indices(k)] += q[-k:]
        return H

    k = _TRAIL_ROWS
    # a top node e^L past double range leaves H non-finite: solved whole, it raises
    while k < grid.n and math.isfinite(q[0]):
        theta = _lowest_eigenvalue(lambda: assemble(k))
        if theta < 0.0:
            break
        if _bounded_below(nu, t, q, theta - _TRAIL_SLACK * theta):
            return theta / grid.r_max
        k *= 2
    return _lowest_eigenvalue(assemble) / grid.r_max


# ---------------------------------------------------------------------------
# critical coupling, method 1: the largest eigenvalue of the Toeplitz T_0

@dataclass(frozen=True)
class CriticalCouplingResult:
    nu_c: float
    uncertainty: float
    trace: tuple = field(repr=False, default=())


# h = 0.08 on a span of 44; the scan solves that span and half of it
SCAN_GRID = GridSpec(math.exp(-44.0), 1.0, 551)
SCAN_SPANS = (44.0, 22.0)


@lru_cache(maxsize=2)
def _scan_threshold(L: float):
    """nu_c(L) = 1 / lambda_max(T_0), solved as -lambda_min(-T_0), T_0 the
    Toeplitz matrix of the leading L/h + 1 entries of SCAN_GRID's channel-0
    column: no entry depends on the length, so this is span L at step h.

    H(nu) = D^{1/2} (I - nu T_0) D^{1/2}, so by Sylvester's law of inertia
    lambda_min(H(nu)) < 0 exactly when nu > nu_c(L).  Since
    lambda_max(T_0) < M_0(0), nu_c(L) lies above Herbst's 1/M_0(0) and
    falls towards it as the span grows.
    """
    t, _ = _momentum_log_grid(0, SCAN_GRID.n, math.log(SCAN_GRID.r_max / SCAN_GRID.r_min))
    t = t[:round(L / SCAN_GRID.log_step()) + 1]
    return -1.0 / _lowest_eigenvalue(lambda: np.negative(_toeplitz_view(t)))


def classify_coupling(nu: float):
    """('divergent' or 'stable', nu_c - nu): whether the channel-0 operator on
    SCAN_GRID has a negative eigenvalue at coupling nu, decided against its
    threshold nu_c = _scan_threshold(44.0).  The margin is negative exactly on
    the divergent side; no classification solves anything once nu_c is known."""
    if not 0.0 <= nu < math.inf:
        raise DomainError("coupling nu must be finite and >= 0")
    margin = _scan_threshold(SCAN_SPANS[0]) - nu
    return ("divergent" if margin < 0.0 else "stable"), margin


def critical_coupling_toeplitz() -> CriticalCouplingResult:
    """nu_c = 1 / lambda_max(T_0) on SCAN_GRID.  The uncertainty is nu_c on half
    the span at the same step minus nu_c: the approach is monotone from above, so
    where the span error falls at least as fast as 1/L this bounds the span error
    that remains.  The trace holds (span, nu_c) for both SCAN_SPANS."""
    nu_c, half = map(_scan_threshold, SCAN_SPANS)
    return CriticalCouplingResult(nu_c, half - nu_c, tuple(zip(SCAN_SPANS, (nu_c, half))))


# the name perfbench's coupling workload calls
critical_coupling_bisect = critical_coupling_toeplitz


# ---------------------------------------------------------------------------
# critical coupling, method 2: Mellin multiplier of the sandwiched kernel

def _mellin_quadrature(m: int, s: float):
    """M_m(s) as the QuadResult of its quadrature, error estimate included.

    The sandwiched kernel is homogeneous of degree -2, hence Mellin-
    diagonal per channel; M_m(s) = int_0^inf k_m(t) t^{-1/2+is} dt, folded
    onto (0,1) by the k_m(1/t) = t k_m(t) symmetry (so it is real and
    even in s), with t = y^2 flattening the endpoint.
    """
    def f(y):
        km = kernels.coulomb_channel_kernel(m, y * y)
        return 4.0 * km * np.cos(2.0 * s * np.log(y))

    return integrate_adaptive(f, 0.0, 1.0, 1e-9)


def mellin_multiplier(m: int, s: float = 0.0) -> float:
    """M_m(s): Mellin symbol of the channel-projected |x|^-1/2 |p|^-1 |x|^-1/2."""
    return _mellin_quadrature(m, s).value


def critical_coupling_mellin() -> CriticalCouplingResult:
    """nu_c = 1 / M_0(0), the sup of M_m(s) over m and s by DLMF 5.8.3, with
    the quadrature's error estimate carried through 1/M: err / M_0(0)^2."""
    q = _mellin_quadrature(0, 0.0)
    return CriticalCouplingResult(nu_c=1.0 / q.value,
                                  uncertainty=q.abs_error_estimate / q.value ** 2,
                                  trace=(q.value,))


# ---------------------------------------------------------------------------
# 2D hydrogen on the log grid

DEFAULT_HYDROGEN_GRID = GridSpec(1e-3, 120.0, 900)


def hydrogen_channels(Z: float, grid: GridSpec, m_max: int, n_levels: int):
    """The max(1, n_levels - m) lowest eigenvalues of -Laplacian/2 - Z/r in
    each channel m = 0..m_max, one ascending array per channel, on grid
    scaled by 1/Z (log-grid finite differences).

    The quadratic form in s = ln r with phi = f(e^s) is
    (1/2) int (phi'^2 + m^2 phi^2) ds + int V(e^s) e^{2s} phi^2 ds over
    int phi^2 e^{2s} ds; the diagonal weight is folded in symmetrically,
    so each channel's matrix is tridiagonal.  The scaled grid is built once
    and shared by the channels.  A bad Z, m_max or n_levels raises DomainError.
    """
    if not 0 < Z < math.inf:
        raise DomainError("Z must be finite and positive")
    if not (all(isinstance(c, (int, np.integer)) for c in (m_max, n_levels))
            and m_max >= 0 and 1 <= n_levels <= grid.n):
        raise DomainError("need integers m_max >= 0 and 1 <= n_levels <= %d nodes" % grid.n)
    grid = GridSpec(grid.r_min / Z, grid.r_max / Z, grid.n)
    n, h = grid.n, grid.log_step()
    s = np.log(grid.nodes())
    with np.errstate(over="ignore", invalid="ignore"):  # entries past double range raise
        d = np.exp(-s)  # B^{-1/2} for B = diag(e^{2s})
        off = np.full(n - 1, -0.5 / (h * h)) * d[:-1] * d[1:]
        chans = []
        for m in range(m_max + 1):
            # natural (free) ends: the log-coordinate eigenfunction tends to a
            # constant at the inner boundary, so Dirichlet ghosts would poison it
            main = np.full(n, 1.0 / (h * h) + 0.5 * m * m) - Z * np.exp(s)
            main[0] -= 0.5 / (h * h)
            main[-1] -= 0.5 / (h * h)
            if m == 0:
                # Robin term encoding the s-wave Coulomb cusp phi'(0)/phi(0) = -2Z;
                # without it the truncation error is O(r_min) instead of O(r_min^2)
                main[0] -= Z * grid.r_min / h
            diag = main * d * d
            if not (np.isfinite(diag).all() and np.isfinite(off).all()):
                raise DomainError("Z = %r scales the grid past double range" % Z)
            chans.append(sla.eigvalsh_tridiagonal(diag, off, select="i",
                                                  select_range=(0, max(1, n_levels - m) - 1)))
    return chans


def hydrogen2d(Z: float, m_max: int, grid: GridSpec = DEFAULT_HYDROGEN_GRID,
               n_levels: int = 3) -> SpectrumReport:
    """Non-relativistic 2D hydrogen: channels m = -m_max..m_max of
    -Laplacian/2 - Z/|x| (hbar = e = 1), assembled into levels with
    degeneracies.

    Level n lives in channels |m| <= n with multiplicity 2n + 1.  The
    refinement trace holds channel 0's levels on grid.n // 2 and on grid.n
    nodes, in that order.  Raises RefinementNeededError when the half grid
    moves any requested level by more than 0.5%, and DomainError for a bad
    Z, m_max or n_levels or a grid of fewer than 32 nodes, whose half grid
    could not hold 16.
    """
    if grid.n < 32:
        raise DomainError("the half-resolution check needs a grid of at least 32 nodes")
    chans = hydrogen_channels(Z, grid, m_max, n_levels)
    half = GridSpec(grid.r_min, grid.r_max, grid.n // 2)
    ref = hydrogen_channels(Z, half, 0, n_levels)[0]
    trace = tuple((k, tuple(float(x) for x in ev))
                  for k, ev in ((half.n, ref), (grid.n, chans[0])))
    shift = np.abs(ref - chans[0]) / np.abs(chans[0])
    if np.any(shift > 5e-3):
        raise RefinementNeededError(
            "grid too coarse: half-resolution levels move by up to %.2e"
            % float(np.max(shift)), trace=trace)
    levels = []
    for n in range(n_levels):
        e0 = float(chans[0][n])
        degeneracy = 1
        for m in range(1, min(n, m_max) + 1):
            if abs(chans[m][n - m] - e0) < 2e-2 * abs(e0):
                degeneracy += 2
        levels.append((n, e0, degeneracy))
    return SpectrumReport(levels=tuple(levels), refinement_trace=trace)


# ---------------------------------------------------------------------------
# anticommutator spectral estimate

ANTICOMM_SPANS = (20.0, 44.0, 76.0)
ANTICOMM_STEP = 0.08
# the degree terms fall off as e^{-kh}: a reach of 30 would leave the sum 1.7e-14 short
ANTICOMM_REACH = 40.0


def _anticomm_column(d):
    """First column of (r_i + r_j) P_ij, P the channel-0 |p| in dimension d on a
    log-interval, acting on v = G e^{ds/2}; no entry depends on the width, so span
    L's matrix is the leading L/h + 1 block of the longest span's.  With pair weights
    w_k = 2 c0 phi2[k] / (kh)^2, c0 = alpha(d) 2^{-(d+1)/2} and phi2 the ridge moments,
    offset k >= 1 is -2 cosh(kh/2) w_k, offset 2 adds the band's -b cosh(h) with
    b = c0 phi2[0] / h^2, and the diagonal is the full Laplacian degree, so that pairs
    reaching outside the interval count: 2 sum 2 cosh((d-1)kh/2) w_k + 2 b cosh((d-1)h),
    summed where w_k > 0, since w_k underflows to 0 where cosh overflows."""
    h = ANTICOMM_STEP
    n, K = round(ANTICOMM_SPANS[-1] / h) + 1, round(ANTICOMM_REACH / h)
    c0 = anticomm.alpha(d) * 2.0 ** (-(d + 1.0) / 2.0)
    phi2 = anticomm.ridge_moments(d, h, max(n, K + 1))
    w = np.zeros(phi2.size)
    w[1:] = 2.0 * c0 * phi2[1:] / (np.arange(1, phi2.size) * h) ** 2
    b = c0 * phi2[0] / (h * h)
    col = -2.0 * np.cosh(0.5 * h * np.arange(n)) * w[:n]
    col[2] -= b * math.cosh(h)
    k = np.flatnonzero(w[:K + 1] > 0.0)
    col[0] = (4.0 * np.dot(np.cosh(0.5 * (d - 1.0) * h * k), w[k])
              + 2.0 * b * math.cosh((d - 1.0) * h))
    return col


def lambda_min_anticomm(d: float):
    """inf spec of |x||p| + |p||x| in channel 0 (a pure number by scale
    invariance, exactly d - 2), with the trace of (L, lambda) pairs: the
    lowest eigenvalue of the leading L/h + 1 block of _anticomm_column(d)'s
    Toeplitz matrix.  Only d = 2 and 3 are gated against d - 2.  Past them
    the step error does not shrink with L: at L = 76 the excess is 0.015 at
    d = 8, 0.077 at d = 12, 0.613 at d = 20 and 11.03 at d = 40 (measured)."""
    col = _anticomm_column(d)
    trace = tuple((L, _lowest_eigenvalue(
        lambda: _toeplitz_view(col[:round(L / ANTICOMM_STEP) + 1]).copy()))
        for L in ANTICOMM_SPANS)
    return trace[-1][1], trace
