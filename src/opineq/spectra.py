"""Radial angular-momentum-channel eigenproblems.

One discrete realization of |p| lives here: the position-space Lieb-Yau
band assembly on the log grid.  The Chandrasekhar scan uses its 2D
channel matrices on their own grid, where the trial support must span
many decades; lambda_min_anticomm builds the same bands, in any dimension
d > 1, into the Toeplitz matrix of the anticommutator restricted to a
log-interval.

The log-grid matrix is a graph Laplacian in u = e^{-s} v with weights
W_ij = e^{(s_i+s_j)/2} w_|i-j| built from the same band moments
as the anticommutator forms (anticomm.band_moments), so it is positive
semi-definite by construction for m = 0 and is assembled in closed form.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from . import anticomm, kernels, lattice
from .errors import DomainError, OpineqError, RefinementNeededError
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

    def nodes(self):
        # geomspace may overflow on its way to an r_max near the top of
        # double range; it then sets the end nodes to the bounds themselves
        with np.errstate(over="ignore"):
            return np.geomspace(self.r_min, self.r_max, self.n)

    def log_step(self):
        return math.log(self.r_max / self.r_min) / (self.n - 1)


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

def _pair_weights(d, h, n):
    """c0 = alpha(d) 2^{-(d+1)/2}, ridge moments phi2, w_k = 2 c0 phi2[k] / (kh)^2."""
    c0 = anticomm.alpha(d) * 2.0 ** (-(d + 1.0) / 2.0)
    phi2 = anticomm.ridge_moments(d, h, n)
    w = np.zeros(n)
    w[1:] = 2.0 * c0 * phi2[1:] / (np.arange(1, n) * h) ** 2
    return c0, phi2, w


@lru_cache(maxsize=64)
def _momentum_log_grid(m: int, n: int, L: float):
    """|p| (2D channel m) on the scaled log grid [1, e^L] with n nodes.

    The matrix acts on v = G e^{s} sqrt(h), the weighted samples of a
    radial G.  With u = e^{-s} v the position-space double integral is the
    graph Laplacian sum_{i<j} W_ij (u_i - u_j)^2, W_ij = e^{(s_i+s_j)/2}
    w_|i-j| (_pair_weights), plus a central-difference band for the
    diagonal offset; PSD by construction for m = 0.  Channel m != 0 adds
    the (A_0 - A_m) moments to every offset.  Returns (matrix, nodes).
    Physical grids [r_min, r_max] rescale by 1/r_min.
    """
    h = L / (n - 1)
    s = np.arange(n) * h
    c0, phi2, w = _pair_weights(2.0, h, n)
    col = -w
    if m != 0:
        col += 2.0 * c0 * anticomm.channel_moments(abs(m), h, n)
    e = np.exp(-0.5 * s)
    P = sla.toeplitz(col)
    P *= np.outer(e, e)
    # Laplacian degrees e^{-2s_i} sum_j W_ij, summed over the offset
    # k = j - i so that no factor grows like e^{2s}; the weights underflow
    # to 0 far out, where the exponential alone would overflow
    k = np.arange(1 - n, n)
    wk = w[np.abs(k)]
    live = wk > 0.0
    wk[live] *= np.exp(-0.5 * h * k[live])
    P[np.diag_indices(n)] += e * e * np.convolve(np.ones(n), wk, "valid")
    # diagonal band: quadratic-vanishing limit through central differences,
    # c e^{s_i} (a_{i+1} v_{i+1} - a_{i-1} v_{i-1})^2 with a = e^{-s};
    # the products of a reduce to e^{-2s_i} e^{-+2h}, so no factor grows
    i = np.arange(1, n - 1)
    b = c0 * phi2[0] / (2.0 * h * h) * e[i] * e[i]
    P[i + 1, i + 1] += b * math.exp(-2.0 * h)
    P[i - 1, i - 1] += b * math.exp(2.0 * h)
    P[i + 1, i - 1] -= b
    P[i - 1, i + 1] -= b
    return P, np.exp(s)


_clear_grids = _momentum_log_grid.cache_clear


def _cold_start():
    """The grids are assembled from anticomm's band-moment blocks, so
    clearing the grid cache clears those too: the next assembly is cold.
    This is the library's one cold-start hook, so it also clears the scan
    threshold solved on SCAN_GRID (_scan_threshold) and the Kato lattice's
    zero-field operators (lattice.kinetic_matrix)."""
    _clear_grids()
    _scan_threshold.cache_clear()
    anticomm._moment_block.cache_clear()
    lattice._zero_field.cache_clear()


_momentum_log_grid.cache_clear = _cold_start


def _lowest_eigenvalue(H):
    """Lowest eigenvalue of the symmetric H from one dense solve of the
    whole matrix.  An inf or NaN entry raises DomainError."""
    if not np.all(np.isfinite(H)):
        raise DomainError("matrix has entries that are not finite")
    return float(sla.eigvalsh(H, subset_by_index=[0, 0])[0])


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


# h = 0.08; one solve of its congruent 551-row matrix (_scan_threshold)
# answers every classification
SCAN_GRID = GridSpec(math.exp(-44.0), 1.0, 551)
SCAN_NOISE_FLOOR = 1e-14  # bound only below -SCAN_NOISE_FLOOR / r_min
BISECT_BRACKET = (0.05, 0.6)
BISECT_HALF_WIDTH = 3e-4


@lru_cache(maxsize=1)
def _scan_threshold():
    """mu = lambda_min(C (P + f I) C), C = diag(sqrt(nodes)), for the
    rescaled channel-0 matrix P on SCAN_GRID and f = SCAN_NOISE_FLOOR.

    H(nu) = P - nu diag(1/nodes) gives
    H(nu) + f I = C^{-1} (C (P + f I) C - nu I) C^{-1}, so by Sylvester's
    law of inertia lambda_min(H(nu)) < -f exactly when nu > mu.
    """
    g = SCAN_GRID
    P, nodes = _momentum_log_grid(0, g.n, math.log(g.r_max / g.r_min))
    c = np.sqrt(nodes)
    A = P.copy()  # P is cached: never write into it
    A[np.diag_indices(g.n)] += SCAN_NOISE_FLOOR
    A *= c[:, None]
    A *= c[None, :]
    return _lowest_eigenvalue(A)


def classify_coupling(nu: float):
    """('divergent' or 'stable', mu - nu): whether the lowest channel-0
    eigenvalue on SCAN_GRID, rescaled to [1, r_max/r_min], lies below
    -SCAN_NOISE_FLOOR, decided against the inertia threshold mu of
    _scan_threshold.  The margin mu - nu is negative exactly on the
    divergent side; no classification solves anything once mu is known.
    """
    if not 0.0 <= nu < math.inf:
        raise DomainError("coupling nu must be finite and >= 0")
    margin = _scan_threshold() - nu
    return ("divergent" if margin < 0.0 else "stable"), margin


def critical_coupling_bisect() -> CriticalCouplingResult:
    """Bisect BISECT_BRACKET down to BISECT_HALF_WIDTH for the coupling
    at which the channel-0 scan starts to bind.  Each step is a
    comparison with the scan threshold, and nu_c is the dyadic midpoint
    of the final bracket, which contains the threshold; the trace holds
    (nu, side, threshold - nu) per classification."""
    lo, hi = BISECT_BRACKET
    trace = [(nu,) + classify_coupling(nu) for nu in (lo, hi)]
    if trace[0][1] != "stable" or trace[1][1] != "divergent":
        raise OpineqError(
            "no stable-to-divergent transition inside [%g, %g]; trace: %r"
            % (lo, hi, trace))
    while hi - lo > 2.0 * BISECT_HALF_WIDTH:
        mid = 0.5 * (lo + hi)
        c, margin = classify_coupling(mid)
        trace.append((mid, c, margin))
        if c == "stable":
            lo = mid
        else:
            hi = mid
    return CriticalCouplingResult(nu_c=0.5 * (lo + hi), uncertainty=0.5 * (hi - lo),
                                  method="bisect", trace=tuple(trace))


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
                                  method="mellin", trace=(q.value,))


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
    requested level by more than 0.5%, and with check, DomainError for a
    grid of fewer than 32 nodes, whose half grid could not hold 16.
    """
    if not 0 < Z < math.inf:
        raise DomainError("Z must be finite and positive")
    if not (all(isinstance(c, (int, np.integer)) for c in (m_max, n_levels))
            and m_max >= 0 and n_levels >= 1):
        raise DomainError("need integers m_max >= 0 and n_levels >= 1")
    if check and grid.n < 32:
        raise DomainError("the half-resolution check needs a grid of at least 32 nodes")
    scaled = GridSpec(grid.r_min / Z, grid.r_max / Z, grid.n) if Z != 1 else grid
    chans = {}
    for m in range(0, m_max + 1):
        count = max(1, n_levels - m)
        chans[m] = _hydrogen_channel(Z, m, scaled, count)
    trace = [(scaled.n, tuple(float(x) for x in chans[0]))]
    if check:
        half = GridSpec(scaled.r_min, scaled.r_max, scaled.n // 2)
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
# the degree terms fall off as e^{-kh}: a reach of 30 would leave the sum 1.7e-14 short
ANTICOMM_REACH = 40.0


def _anticomm_matrix(d, L):
    """(r_i + r_j) P_ij, P the channel-0 |p| in dimension d restricted to a log-interval
    of width L: the symmetric Toeplitz matrix on L/h + 1 nodes acting on v = G e^{ds/2}.
    Offset k >= 1 is -2 cosh(kh/2) w_k, offset 2 adds the band's -b cosh(h) with
    b = c0 phi2[0] / h^2, and the diagonal is the full Laplacian degree, so that pairs
    reaching outside the interval count: 2 sum 2 cosh((d-1)kh/2) w_k + 2 b cosh((d-1)h),
    summed where w_k > 0, since w_k underflows to 0 where cosh overflows."""
    h = ANTICOMM_STEP
    n, K = round(L / h) + 1, round(ANTICOMM_REACH / h)
    c0, phi2, w = _pair_weights(d, h, max(n, K + 1))
    b = c0 * phi2[0] / (h * h)
    col = -2.0 * np.cosh(0.5 * h * np.arange(n)) * w[:n]
    col[2] -= b * math.cosh(h)
    k = np.flatnonzero(w[:K + 1] > 0.0)
    col[0] = (4.0 * np.dot(np.cosh(0.5 * (d - 1.0) * h * k), w[k])
              + 2.0 * b * math.cosh((d - 1.0) * h))
    return sla.toeplitz(col)


def lambda_min_anticomm(d: float):
    """inf spec of |x||p| + |p||x| in channel 0 (a pure number by scale
    invariance, exactly d - 2), with the trace of (L, lambda) pairs: the
    lowest eigenvalue of _anticomm_matrix(d, L), decreasing towards d - 2."""
    trace = tuple((L, _lowest_eigenvalue(_anticomm_matrix(d, L))) for L in ANTICOMM_SPANS)
    return trace[-1][1], trace
