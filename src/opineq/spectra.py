"""Radial angular-momentum-channel eigenproblems.

One discrete realization of |p| lives here: the position-space Lieb-Yau
band assembly on the log grid, in any dimension d > 1.  The Chandrasekhar
scan uses its 2D channel matrices on their own grid, where the trial
support must span many decades; lambda_min_anticomm uses the interior
block of a padded grid, the operator restricted to a log-interval.

The log-grid matrix is a graph Laplacian in u = e^{-ds/2} v with weights
W_ij = e^{(d-1)(s_i+s_j)/2} w_|i-j| built from the same band moments
as the anticommutator forms (anticomm.band_moments), so it is positive
semi-definite by construction for m = 0 and is assembled in closed form.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from . import anticomm, kernels
from .errors import (DomainError, GridRejectionError, OpineqError,
                     RefinementNeededError)
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
        if self.n < 16:
            raise DomainError("need at least 16 nodes")
        if not (math.isfinite(self.log_step())
                and np.all(np.diff(self.nodes()) > 0)):
            raise DomainError("need a finite r_max / r_min and n distinct nodes")

    def nodes(self):
        # geomspace may overflow on its way to an r_max near the top of
        # double range; it then sets the end nodes to the bounds themselves
        with np.errstate(over="ignore"):
            return np.geomspace(self.r_min, self.r_max, self.n)

    def log_step(self):
        return math.log(self.r_max / self.r_min) / (self.n - 1)

    def scaled(self, factor: float) -> "GridSpec":
        return GridSpec(self.r_min * factor, self.r_max * factor, self.n)


@dataclass(frozen=True)
class ChannelOperator:
    """Dense symmetric realization of a radial operator in one channel.

    The matrix acts on weighted samples v_k = f(r_k) sqrt(w_k), where the
    weights make the Euclidean inner product equal the per-channel
    radial L^2 inner product (the 2 pi angular factor divided out).
    """

    m: int
    grid: GridSpec
    r: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        M = self.matrix
        asym = np.max(np.abs(M - M.T)) / max(np.max(np.abs(M)), 1e-300)
        if asym > 1e-12:
            raise GridRejectionError("assembled matrix asymmetric (%.2e)" % asym)

    def rayleigh(self, samples):
        v = np.asarray(samples, float) * np.sqrt(self.w)
        return float(v @ self.matrix @ v) / float(v @ v)


@dataclass(frozen=True)
class SpectrumReport:
    """Channel-resolved eigenvalues with assembled levels and degeneracies."""

    channel_eigenvalues: dict
    levels: tuple          # (level index n, energy, degeneracy)
    refinement_trace: tuple
    grid: GridSpec

    def __post_init__(self):
        for m, ev in self.channel_eigenvalues.items():
            if np.any(np.diff(ev) < 0):
                raise DomainError("channel %d eigenvalues not ascending" % m)
        for _, _, g in self.levels:
            if not (isinstance(g, int) and g > 0):
                raise DomainError("degeneracies must be positive integers")


# ---------------------------------------------------------------------------
# Lieb-Yau band assembly of |p| on the log grid (2D channel m)

@lru_cache(maxsize=64)
def _momentum_log_grid(m: int, n: int, L: float, d: float = 2.0):
    """|p| (channel m, dimension d) on the scaled log grid [1, e^L] with n nodes.

    The matrix acts on v = G e^{ds/2} sqrt(h), the weighted samples of a
    radial G.  With u = e^{-ds/2} v the position-space double integral is
    the graph Laplacian sum_{i<j} W_ij (u_i - u_j)^2 with weights
    W_ij = e^{(d-1)(s_i+s_j)/2} w_|i-j|, w_k = 2 c0 phi2[k] / (kh)^2 from
    the ridge moments, plus a central-difference band for the diagonal
    offset; PSD by construction for m = 0.  In v the off-diagonal part is
    the Toeplitz matrix -w scaled by e^{-(s_i+s_j)/2} in every dimension.
    Channel m != 0 (d = 2 only) adds the
    (A_0 - A_m) moments to every offset.  Returns (matrix, nodes).
    Physical grids [r_min, r_max] rescale by 1/r_min.
    """
    if m != 0 and d != 2.0:
        raise DomainError("channel m != 0 is implemented for d = 2 only")
    h = L / (n - 1)
    s = np.arange(n) * h
    c0 = anticomm.alpha(d) * 2.0 ** (-(d + 1.0) / 2.0)
    phi2 = anticomm.ridge_moments(d, h, n)
    w = np.zeros(n)
    w[1:] = 2.0 * c0 * phi2[1:] / (np.arange(1, n) * h) ** 2
    col = -w
    if m != 0:
        col += 2.0 * c0 * anticomm.channel_moments(abs(m), h, n)
    e = np.exp(-0.5 * s)
    P = sla.toeplitz(col)
    P *= np.outer(e, e)
    # Laplacian degrees e^{-ds_i} sum_j W_ij, summed over the offset
    # k = j - i so that no factor grows like e^{ds}; the weights underflow
    # to 0 far out, where the exponential alone would overflow
    k = np.arange(1 - n, n)
    wk = w[np.abs(k)]
    live = wk > 0.0
    wk[live] *= np.exp(-0.5 * (d - 1.0) * h * k[live])
    P[np.diag_indices(n)] += e * e * np.convolve(np.ones(n), wk, "valid")
    # diagonal band: quadratic-vanishing limit through central differences,
    # c e^{(d-1)s_i} (a_{i+1} v_{i+1} - a_{i-1} v_{i-1})^2 with a = e^{-ds/2};
    # the products of a reduce to e^{-ds_i} e^{-+dh}, so no factor grows
    i = np.arange(1, n - 1)
    b = c0 * phi2[0] / (2.0 * h * h) * e[i] * e[i]
    P[i + 1, i + 1] += b * math.exp(-d * h)
    P[i - 1, i - 1] += b * math.exp(d * h)
    P[i + 1, i - 1] -= b
    P[i - 1, i + 1] -= b
    return P, np.exp(s)


_clear_grids = _momentum_log_grid.cache_clear


def _clear_grids_and_moment_blocks():
    """The grids are assembled from anticomm's band-moment blocks, so
    clearing the grid cache clears those too: the next assembly is cold."""
    _clear_grids()
    anticomm._moment_block.cache_clear()


_momentum_log_grid.cache_clear = _clear_grids_and_moment_blocks


def momentum_channel_log(m: int, grid: GridSpec) -> ChannelOperator:
    """Log-grid Lieb-Yau realization of |p| in 2D channel m."""
    L = math.log(grid.r_max / grid.r_min)
    P, nodes = _momentum_log_grid(abs(m), grid.n, L)
    r = nodes * grid.r_min
    w = grid.log_step() * r * r  # v_k = f(r_k) r_k sqrt(h)
    return ChannelOperator(m=m, grid=grid, r=r, w=w,
                           matrix=P / grid.r_min)


def _lowest_eigenvalue(H):
    """Lowest eigenvalue of the symmetric H, solved on the leading block
    that double precision resolves.

    With tail[k] the sum of the squared entries of rows k..n-1, the block
    H11 is the leading k x k one for the smallest k with
    tail[k] <= eps^2 ||H||_F^2.  The dropped part E = H - diag(H11, 0)
    lies in those rows and their transposed columns, so
    ||E||_2 <= ||E||_F <= sqrt(2) eps ||H||_F, and by Weyl's inequality
    |lambda_1(H) - min(lambda_1(H11), 0)| <= sqrt(2) eps ||H||_F, while
    Cauchy interlacing gives lambda_1(H) <= lambda_1(H11).  The dense
    solver's own backward error is of the same size, so nothing it could
    resolve is lost.  Graded matrices, whose rows decay like e^{-s_i} on
    the log grid, deflate to the rows above the roundoff level; the
    others keep k = n and the full solve.  An inf or NaN entry raises
    DomainError.
    """
    tail = np.cumsum(np.einsum("ij,ij->i", H, H)[::-1])[::-1]
    if not np.isfinite(tail[0]):
        raise DomainError("matrix has entries that are not finite")
    k = int(np.count_nonzero(tail > np.finfo(float).eps ** 2 * tail[0]))
    return float(sla.eigvalsh(H[:k, :k], subset_by_index=[0, 0])[0])


def chandrasekhar_lowest(nu: float, m: int, grid: GridSpec) -> float:
    """Lowest eigenvalue of the channel matrix of |p| - nu/|x| in 2D.

    By degree -1 homogeneity the matrix is assembled on the rescaled
    grid [1, r_max/r_min] and the eigenvalue scaled back, which keeps
    small eigenvalues resolvable next to the 1/r_min Coulomb scale.
    """
    if nu < 0:
        raise DomainError("coupling nu must be >= 0")
    L = math.log(grid.r_max / grid.r_min)
    P, nodes = _momentum_log_grid(abs(m), grid.n, L)
    H = P.copy()  # P is cached: never write into it
    H[np.diag_indices(grid.n)] -= nu * (1.0 / nodes)
    return _lowest_eigenvalue(H) / grid.r_min


# ---------------------------------------------------------------------------
# critical coupling, method 1: bisection on the sign of the channel-0 scan

@dataclass(frozen=True)
class CriticalCouplingResult:
    nu_c: float
    uncertainty: float
    method: str
    trace: tuple = field(repr=False, default=())


# h = 0.08; _lowest_eigenvalue deflates it to its leading 452 rows
SCAN_GRID = GridSpec(math.exp(-44.0), 1.0, 551)
SCAN_NOISE_FLOOR = 1e-14  # bound only below -SCAN_NOISE_FLOOR / r_min
BISECT_BRACKET = (0.05, 0.6)
BISECT_HALF_WIDTH = 3e-4


def classify_coupling(nu: float):
    """('divergent' or 'stable', e): whether the lowest channel-0
    eigenvalue e on SCAN_GRID is negative beyond roundoff.

    By degree -1 homogeneity e r_min is the eigenvalue on the rescaled
    grid, a few 1e-16 on the stable side; when the deflated block's
    eigenvalue is positive, e is only an upper bound, which is all a
    sign test needs.
    """
    e = chandrasekhar_lowest(nu, 0, SCAN_GRID)
    divergent = e < -SCAN_NOISE_FLOOR / SCAN_GRID.r_min
    return ("divergent" if divergent else "stable"), e


def critical_coupling_bisect() -> CriticalCouplingResult:
    """Bisect BISECT_BRACKET down to BISECT_HALF_WIDTH for the coupling
    at which the channel-0 scan starts to bind."""
    lo, hi = BISECT_BRACKET
    trace = [(nu,) + classify_coupling(nu) for nu in (lo, hi)]
    if trace[0][1] != "stable" or trace[1][1] != "divergent":
        raise OpineqError(
            "no stable-to-divergent transition inside [%g, %g]; trace: %r"
            % (lo, hi, trace))
    while hi - lo > 2.0 * BISECT_HALF_WIDTH:
        mid = 0.5 * (lo + hi)
        c, e = classify_coupling(mid)
        trace.append((mid, c, e))
        if c == "stable":
            lo = mid
        else:
            hi = mid
    return CriticalCouplingResult(nu_c=0.5 * (lo + hi), uncertainty=0.5 * (hi - lo),
                                  method="bisect", trace=tuple(trace))


# ---------------------------------------------------------------------------
# critical coupling, method 2: Mellin multiplier of the sandwiched kernel

def coulomb_channel_kernel(m: int, t):
    """k_m(t) = (2 pi)^-1 int_0^{2pi} cos(m theta) (1 + t^2 - 2 t cos theta)^{-1/2} dtheta."""
    t = np.atleast_1d(np.asarray(t, float))
    if np.any(t <= 0):
        raise DomainError("t must be positive")
    um1 = (1.0 - t) ** 2 / (2.0 * t)
    v, _, _ = kernels.polar_batch(0.5, 0.0, abs(m), um1)
    return v / (np.pi * np.sqrt(2.0 * t))


def mellin_multiplier(m: int, s: float = 0.0) -> float:
    """M_m(s): Mellin symbol of the channel-projected |x|^-1/2 |p|^-1 |x|^-1/2.

    The sandwiched kernel is homogeneous of degree -2, hence Mellin-
    diagonal per channel; M_m(s) = int_0^inf k_m(t) t^{-1/2+is} dt, folded
    onto (0,1) by the k_m(1/t) = t k_m(t) symmetry (so it is real and
    even in s), with t = y^2 flattening the endpoint.
    """
    def f(y):
        km = coulomb_channel_kernel(m, y * y)
        return 4.0 * km * np.cos(2.0 * s * np.log(y))

    return integrate_adaptive(f, 0.0, 1.0, 1e-9).value


def critical_coupling_mellin(m_max: int = 2) -> CriticalCouplingResult:
    """nu_c = 1 / max_m sup_s M_m(s); the sup sits at m = 0, s = 0 (checked)."""
    if m_max < 0:
        raise DomainError("m_max must be >= 0")
    mult = [mellin_multiplier(m, 0.0) for m in range(m_max + 1)]
    if any(b >= a for a, b in zip(mult, mult[1:])):
        raise OpineqError("channel multipliers not decreasing: %r" % mult)
    for s in (0.25, 0.5):
        if mellin_multiplier(0, s) >= mult[0]:
            raise OpineqError("M_0 not maximized at s = 0")
    return CriticalCouplingResult(nu_c=1.0 / mult[0], uncertainty=1e-8,
                                  method="mellin", trace=tuple(mult))


# ---------------------------------------------------------------------------
# 2D hydrogen on the log grid

DEFAULT_HYDROGEN_GRID = GridSpec(1e-3, 120.0, 900)


def _hydrogen_channel(Z: float, m: int, grid: GridSpec, count: int):
    """Lowest eigenvalues of -Laplacian/2 - Z/r in channel m (log-grid FD).

    The quadratic form in s = ln r with phi = f(e^s) is
    (1/2) int (phi'^2 + m^2 phi^2) ds + int V(e^s) e^{2s} phi^2 ds over
    int phi^2 e^{2s} ds; the diagonal weight is folded in symmetrically.
    """
    n = grid.n
    h = grid.log_step()
    s = np.log(grid.nodes())
    # natural (free) ends: the log-coordinate eigenfunction tends to a
    # constant at the inner boundary, so Dirichlet ghosts would poison it
    main = np.full(n, 1.0 / (h * h) + 0.5 * m * m) - Z * np.exp(s)
    main[0] -= 0.5 / (h * h)
    main[-1] -= 0.5 / (h * h)
    if m == 0:
        # Robin term encoding the s-wave Coulomb cusp phi'(0)/phi(0) = -2Z;
        # without it the truncation error is O(r_min) instead of O(r_min^2)
        main[0] -= Z * grid.r_min / h
    off = np.full(n - 1, -0.5 / (h * h))
    d = np.exp(-s)  # B^{-1/2} for B = diag(e^{2s})
    # the symmetrized matrix is tridiagonal
    return sla.eigvalsh_tridiagonal(main * d * d, off * d[:-1] * d[1:],
                                    select="i", select_range=(0, count - 1))


def hydrogen2d(Z: float, m_max: int, grid: GridSpec = DEFAULT_HYDROGEN_GRID,
               n_levels: int = 3, check: bool = True) -> SpectrumReport:
    """Non-relativistic 2D hydrogen: channels m = -m_max..m_max of
    -Laplacian/2 - Z/|x| (hbar = e = 1), assembled into levels with
    degeneracies.

    Level n lives in channels |m| <= n with multiplicity 2n + 1.
    Raises RefinementNeededError when a half-resolution solve moves any
    requested level by more than 0.5%.
    """
    if not 0 < Z < math.inf:
        raise DomainError("Z must be finite and positive")
    if m_max < 0 or n_levels < 1:
        raise DomainError("need m_max >= 0 and n_levels >= 1")
    scaled = GridSpec(grid.r_min / Z, grid.r_max / Z, grid.n) if Z != 1 else grid
    chans = {}
    for m in range(0, m_max + 1):
        count = max(1, n_levels - m)
        chans[m] = _hydrogen_channel(Z, m, scaled, count)
    trace = [(scaled.n, tuple(float(x) for x in chans[0]))]
    if check:
        half = GridSpec(scaled.r_min, scaled.r_max, max(16, scaled.n // 2))
        ref = _hydrogen_channel(Z, 0, half, max(1, n_levels))
        trace.insert(0, (half.n, tuple(float(x) for x in ref)))
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
            k = n - m
            if k < len(chans[m]) and abs(chans[m][k] - e0) < 2e-2 * abs(e0):
                degeneracy += 2
        levels.append((n, e0, degeneracy))
    full = {m: chans[abs(m)] for m in range(-m_max, m_max + 1)}
    return SpectrumReport(channel_eigenvalues=full, levels=tuple(levels),
                          refinement_trace=tuple(trace), grid=scaled)


# ---------------------------------------------------------------------------
# anticommutator spectral estimate

ANTICOMM_SPANS = (20.0, 44.0, 76.0)
ANTICOMM_STEP = 0.08
# the pair weights fall off as e^{-|s_i - s_j|}: pads of 30 and 60 agree to 1e-15
ANTICOMM_PAD = 40.0


def _anticomm_lowest(d, L):
    n_pad = round(ANTICOMM_PAD / ANTICOMM_STEP)
    n = round(L / ANTICOMM_STEP) + 1
    # uncached: the padded matrices are large and used once; their ridge
    # moments come from anticomm's block cache, so the spans share them
    P, r = _momentum_log_grid.__wrapped__(0, n + 2 * n_pad,
                                          L + 2.0 * ANTICOMM_PAD, d)
    inner = slice(n_pad, n_pad + n)
    r = r[inner]
    H = (r[:, None] + r[None, :]) * P[inner, inner]
    return _lowest_eigenvalue(H)


def lambda_min_anticomm(d: float):
    """inf spec of |x||p| + |p||x| in channel 0 (a pure number by scale
    invariance, exactly d - 2), with the trace of (L, lambda) pairs.

    For each span L the matrix is (r_i + r_j) P_ij, the exact matrix
    anticommutator X P + P X, where P is |p| restricted to functions on
    a log-interval of width L: the interior block of the log grid padded
    by ANTICOMM_PAD on each side, so that the pairs reaching outside the
    interval count.  The estimate decreases towards d - 2 as L grows.
    """
    trace = tuple((L, _anticomm_lowest(d, L)) for L in ANTICOMM_SPANS)
    return trace[-1][1], trace
