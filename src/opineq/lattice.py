"""2D lattice realization of magnetic kinetic operators T_m = sqrt((p+A)^2+m^2) - m
and the quantum-dot field configuration; numerical verification of Kato's
diamagnetic inequality.

The covariant derivative uses centered differences with trapezoid-rule
link phases exp(-i h (A(n)+A(n'))/2 . e).  That choice makes the discrete
inequality exact: (p+A)^2 has the same hopping magnitudes as p^2 with
unimodular phases, so the heat semigroup of the free operator dominates
the magnetic one entrywise, and any Bernstein function of the pair (the
relativistic kinetic energy is one) inherits the domination.  It also
gives machine-exact gauge covariance for quadratic gauge functions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import flux_delta
from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class SquareGrid:
    """n x n nodes at cell centers of a square of side `extent`; the
    half-cell offset keeps the origin off the grid."""

    extent: float
    n: int

    def __post_init__(self):
        if self.extent <= 0 or self.n < 2:
            raise DomainError("need positive extent and n >= 2")

    @property
    def h(self):
        return self.extent / self.n

    def coordinates(self):
        c = (np.arange(self.n) + 0.5) * self.h - self.extent / 2.0
        X, Y = np.meshgrid(c, c, indexing="ij")
        return X, Y


def _background(B, X, Y):
    return -0.5 * B * Y, 0.5 * B * X


def _cavity(B, R, X, Y):
    r2 = X * X + Y * Y
    factor = 1.0 / np.maximum(r2, R * R)  # quadratic inside, 1/|x|^2 tail
    ax = 0.5 * B * R * R * factor * Y
    ay = -0.5 * B * R * R * factor * X
    return ax, ay


@dataclass(frozen=True)
class LatticeField:
    """Sampled vector potentials of the quantum-dot configuration.

    background = homogeneous field B; cavity = the potential that removes
    the field inside |x| < R and leaves it untouched outside.
    """

    grid: SquareGrid
    B: float
    R: float
    A_background: np.ndarray = field(repr=False)  # (2, n, n)
    A_cavity: np.ndarray = field(repr=False)

    def __post_init__(self):
        X, Y = self.grid.coordinates()
        if np.any(np.hypot(X, Y) < 1e-12):
            raise ConfigurationError("origin must not be a grid node")
        if not (np.all(np.isfinite(self.A_background))
                and np.all(np.isfinite(self.A_cavity))):
            raise DomainError("vector potential not finite on the grid")
        if self.B > 0:
            r = np.hypot(X, Y)
            bound = np.abs(np.hypot(self.A_cavity[0], self.A_cavity[1])) * r
            if np.max(bound) > 0.5 * self.B * self.R ** 2 + 1e-12:
                raise DomainError("cavity potential violates |A0||x| <= B R^2 / 2")

    def component(self, which: str):
        if which == "none":
            return np.zeros_like(self.A_background)
        if which == "background":
            return self.A_background
        if which == "cavity":
            return self.A_cavity
        if which == "total":
            return self.A_background + self.A_cavity
        raise ConfigurationError("unknown field component %r" % which)


def make_fields(B: float, R: float, grid: SquareGrid) -> LatticeField:
    """Sample the homogeneous background (B/2)(-y, x) and the cavity
    potential (quadratic inside |x| <= R, 1/|x| tail outside)."""
    if B < 0 or R <= 0:
        raise DomainError("need B >= 0 and R > 0")
    X, Y = grid.coordinates()
    bg = np.stack(_background(B, X, Y))
    cav = np.stack(_cavity(B, R, X, Y))
    return LatticeField(grid=grid, B=B, R=R, A_background=bg, A_cavity=cav)


def field_bound_check(fld: LatticeField) -> float:
    """max over nodes of |A0(x)| |x| / (B R^2 / 2); <= 1, attained for |x| >= R."""
    if fld.B <= 0:
        raise DomainError("field bound check needs B > 0")
    X, Y = fld.grid.coordinates()
    r = np.hypot(X, Y)
    mag = np.hypot(fld.A_cavity[0], fld.A_cavity[1])
    return float(np.max(mag * r / flux_delta(fld.B, fld.R)))


def discrete_curl(A, h):
    """Centered-difference curl dA2/dx - dA1/dy on interior nodes."""
    ax, ay = A
    return ((ay[2:, 1:-1] - ay[:-2, 1:-1]) - (ax[1:-1, 2:] - ax[1:-1, :-2])) / (2 * h)


def _hop_matrices(A, grid, boundary):
    """Covariant centered-difference momenta P_x, P_y as dense complex
    matrices over flattened (i, j) node indices."""
    n = grid.n
    h = grid.h
    N = n * n
    Px = np.zeros((N, N), dtype=complex)
    Py = np.zeros((N, N), dtype=complex)
    idx = lambda i, j: i * n + j
    for i in range(n):
        for j in range(n):
            a = idx(i, j)
            for P, di, dj, comp in ((Px, 1, 0, 0), (Py, 0, 1, 1)):
                i2, j2 = i + di, j + dj
                if boundary == "periodic":
                    i2w, j2w = i2 % n, j2 % n
                elif 0 <= i2 < n and 0 <= j2 < n:
                    i2w, j2w = i2, j2
                else:
                    continue
                b = idx(i2w, j2w)
                theta = 0.5 * h * (A[comp][i, j] + A[comp][i2w, j2w])
                u = np.exp(-1j * theta)
                # centered difference: hop of length h forward/backward
                P[a, b] += -1j * u / (2.0 * h)
                P[b, a] += 1j * np.conj(u) / (2.0 * h)
    return Px, Py


@dataclass(frozen=True)
class KineticMatrix:
    """Dense Hermitian T_m = sqrt((p+A)^2 + m^2) - m over grid nodes."""

    matrix: np.ndarray = field(repr=False)
    mass: float
    component: str
    boundary: str
    grid: SquareGrid
    norm: float

    def apply(self, v):
        return self.matrix @ np.asarray(v).ravel()


MAX_DENSE_GRID = 48


def kinetic_matrix(fld: LatticeField, mass: float, component: str = "total",
                   boundary: str = "open", extra_potential=None) -> KineticMatrix:
    """Build (p+A) by centered differences with trapezoid link phases,
    square (p+A)^2 + m^2, take the operator square root spectrally, and
    subtract m.

    extra_potential, if given, is a (2, n, n) sample added to the chosen
    component (used e.g. for gauge shifts A -> A + grad chi).
    """
    if mass < 0:
        raise DomainError("mass must be >= 0")
    if fld.grid.n > MAX_DENSE_GRID:
        raise DomainError(
            "grid beyond the %dx%d dense budget" % (MAX_DENSE_GRID, MAX_DENSE_GRID))
    A = fld.component(component)
    if extra_potential is not None:
        A = A + np.asarray(extra_potential, dtype=float)
    if boundary == "periodic" and np.any(A != 0.0):
        # linearly growing vector potentials are incompatible with wrap
        raise ConfigurationError("periodic boundary requires zero vector potential")
    Px, Py = _hop_matrices(A, fld.grid, boundary)
    H = Px @ Px + Py @ Py
    herm = np.max(np.abs(H - H.conj().T))
    if herm > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise DomainError("kinetic square lost hermiticity (%.2e)" % herm)
    w, V = np.linalg.eigh(H)
    if w[0] < -1e-10 * max(1.0, w[-1]):
        raise DomainError("(p+A)^2 not PSD: min eig %.3e" % w[0])
    # zero out eigenvalues at the roundoff floor: sqrt would amplify
    # O(eps ||H||) noise on an exact kernel mode to O(sqrt(eps))
    w = np.where(w < 1e-13 * max(w[-1], 1.0), 0.0, w)
    f = np.sqrt(w + mass * mass) - mass
    T = (V * f[None, :]) @ V.conj().T
    T = 0.5 * (T + T.conj().T)
    return KineticMatrix(matrix=T, mass=mass, component=component,
                         boundary=boundary, grid=fld.grid, norm=float(f[-1]))


def kato_test(eta, phi, T_free: KineticMatrix, T_mag: KineticMatrix):
    """lhs = <eta, T_m(p)|phi|>, rhs = Re <eta, sgn(phi) T_m(p+A) phi>,
    with sgn(phi) = phi/|phi| where phi != 0 and 0 otherwise.

    Returns (lhs, rhs); the diamagnetic inequality asserts lhs <= rhs.
    """
    eta = np.asarray(eta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=complex).ravel()
    if np.any(eta < 0):
        raise DomainError("eta must be nonnegative")
    h2 = T_free.grid.h ** 2
    absphi = np.abs(phi)
    sgn = np.zeros_like(phi)
    nz = absphi > 0
    sgn[nz] = phi[nz] / absphi[nz]
    lhs = h2 * float(eta @ (T_free.matrix @ absphi).real)
    rhs = h2 * float((eta * sgn.conj() * (T_mag.matrix @ phi)).sum().real)
    return lhs, rhs


@dataclass(frozen=True)
class KatoRun:
    """Seeded random-sample verification of the diamagnetic inequality."""

    field_kind: str
    mass: float
    samples: int
    seed: int
    max_violation: float
    tol_violation: float
    histogram_edges: tuple
    histogram_counts: tuple

    @property
    def passed(self):
        return self.max_violation <= self.tol_violation


def kato_random_run(fld: LatticeField, mass: float, component: str,
                    samples: int = 200, seed: int = 1234,
                    nonneg_phi: bool = False) -> KatoRun:
    """Draw (eta, phi) pairs and histogram lhs - rhs against the
    1e-10 * ||eta|| ||phi|| ||T|| relative tolerance.

    nonneg_phi draws phi >= 0 real; with zero field that is the exact
    equality case of the inequality.
    """
    T_free = kinetic_matrix(fld, mass, component="none")
    T_mag = T_free if component == "none" else kinetic_matrix(fld, mass, component)
    rng = np.random.default_rng(seed)
    N = fld.grid.n ** 2
    h2 = fld.grid.h ** 2
    gaps = np.empty(samples)
    tols = np.empty(samples)
    for k in range(samples):
        eta = np.abs(rng.standard_normal(N))
        if nonneg_phi:
            phi = np.abs(rng.standard_normal(N)).astype(complex)
        else:
            phi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        lhs, rhs = kato_test(eta, phi, T_free, T_mag)
        gaps[k] = lhs - rhs
        tols[k] = 1e-10 * h2 * np.linalg.norm(eta) * np.linalg.norm(phi) * T_mag.norm
    rel = gaps / tols
    edges = np.array([-np.inf, -1e3, -1e0, -1e-3, 0.0, 1e-3, 1e0, np.inf])
    counts = np.histogram(rel, bins=edges)[0]
    return KatoRun(field_kind=component, mass=mass, samples=samples, seed=seed,
                   max_violation=float(np.max(gaps)),
                   tol_violation=float(np.min(tols)),
                   histogram_edges=tuple(edges.tolist()),
                   histogram_counts=tuple(int(c) for c in counts))
