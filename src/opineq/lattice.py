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

The centered difference hops a distance h, so (p+A)^2 links node (i, j)
only to (i+-2, j) and (i, j+-2).  It splits into four decoupled parity
sublattices (i mod 2, j mod 2), each a 5-point magnetic Laplacian at
spacing 2h, and T_m is block-diagonal over them: one eigensolve of size
N/4 per block replaces one of size N.  T_m is kept as those four blocks
and applied block by block; with zero field every link phase is 1, so the
blocks are real and so is their arithmetic.
"""

from dataclasses import dataclass, field

import numpy as np

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


def discrete_curl(A, h):
    """Centered-difference curl dA2/dx - dA1/dy on interior nodes."""
    ax, ay = A
    return ((ay[2:, 1:-1] - ay[:-2, 1:-1]) - (ax[1:-1, 2:] - ax[1:-1, :-2])) / (2 * h)


def _kinetic_square(A, grid, boundary):
    """(p+A)^2 as a dense complex matrix over flattened (i, j) node indices.

    Per axis, P = (-i/2h)(U - U^H) with U the forward links u_ab =
    exp(-i h (A_a + A_b)/2), so P^2 = (U U^H + U^H U - U^2 - U^H^2)/4h^2:
    a diagonal link count and the two-hop entries -u_ab u_bc/4h^2 plus
    their conjugates.
    """
    n, h = grid.n, grid.h
    N = n * n
    node = np.arange(N).reshape(n, n)
    H = np.zeros((N, N), dtype=complex)
    links = np.zeros((n, n))
    for axis in (0, 1):
        u = np.exp(-0.5j * h * (A[axis] + np.roll(A[axis], -1, axis)))
        if boundary != "periodic":
            u[(slice(None),) * axis + (-1,)] = 0.0  # no link leaves the edge
        w = np.abs(u) ** 2
        links += w + np.roll(w, 1, axis)  # links leaving and entering a node
        a, c = node.ravel(), np.roll(node, -2, axis).ravel()
        hop = (-u * np.roll(u, -1, axis)).ravel() / (4.0 * h * h)
        # add.at accumulates: at n = 2 periodic both links join the same
        # pair of nodes and the two-hop entries land on the diagonal
        np.add.at(H, (a, c), hop)
        np.add.at(H, (c, a), hop.conj())
    H[np.diag_indices(N)] += links.ravel() / (4.0 * h * h)
    return H


def _parity_classes(n):
    """Flattened node indices of the four classes (i mod 2, j mod 2).

    The two-hop stencil of (p+A)^2 never leaves a class (n is even, since
    LatticeField keeps the origin off the grid, so periodic wrap keeps
    parity too); each class is a 5-point magnetic Laplacian at spacing 2h.
    """
    node = np.arange(n * n).reshape(n, n)
    return [node[p::2, q::2].ravel() for p in (0, 1) for q in (0, 1)]


@dataclass(frozen=True)
class KineticMatrix:
    """Hermitian T_m = sqrt((p+A)^2 + m^2) - m over grid nodes, held as its
    four parity blocks in _parity_classes order (real when A = 0)."""

    blocks: tuple = field(repr=False)
    mass: float
    component: str
    boundary: str
    grid: SquareGrid
    norm: float

    @property
    def matrix(self):
        """The dense N x N T_m, assembled anew on each access."""
        N = self.grid.n ** 2
        T = np.zeros((N, N), dtype=np.result_type(*self.blocks))
        for c, B in zip(_parity_classes(self.grid.n), self.blocks):
            T[np.ix_(c, c)] = B
        return T


MAX_DENSE_GRID = 48


def kinetic_matrix(fld: LatticeField, mass: float, component: str = "total",
                   boundary: str = "open") -> KineticMatrix:
    """Assemble (p+A)^2 of the centered-difference (p+A) with trapezoid
    link phases, take sqrt((p+A)^2 + m^2) spectrally on each of the four
    parity blocks, and subtract m.
    """
    if not 0 <= mass < np.inf:
        raise DomainError("mass must be finite and >= 0")
    if fld.grid.n > MAX_DENSE_GRID:
        raise DomainError(
            "grid beyond the %dx%d dense budget" % (MAX_DENSE_GRID, MAX_DENSE_GRID))
    if boundary not in ("open", "periodic"):
        raise ConfigurationError("unknown boundary %r" % boundary)
    A = fld.component(component)
    if boundary == "periodic" and np.any(A != 0.0):
        # linearly growing vector potentials are incompatible with wrap
        raise ConfigurationError("periodic boundary requires zero vector potential")
    H = _kinetic_square(A, fld.grid, boundary)
    real = not np.any(A)  # every link phase is exactly 1
    eig = []
    for c in _parity_classes(fld.grid.n):
        # the blocks are what eigh reads; entries across classes are 0
        B = H[np.ix_(c, c)]
        if real:
            B = B.real
        herm = np.max(np.abs(B - B.conj().T))
        if herm > 1e-12 * max(1.0, np.max(np.abs(B))):
            raise DomainError("kinetic square lost hermiticity (%.2e)" % herm)
        eig.append(np.linalg.eigh(B))
    top = max(w[-1] for w, _ in eig)
    low = min(w[0] for w, _ in eig)
    if low < -1e-10 * max(1.0, top):
        raise DomainError("(p+A)^2 not PSD: min eig %.3e" % low)
    blocks = []
    norm = 0.0
    for w, V in eig:
        # zero out eigenvalues at the roundoff floor: sqrt would amplify
        # O(eps ||H||) noise on an exact kernel mode to O(sqrt(eps))
        w = np.where(w < 1e-13 * max(top, 1.0), 0.0, w)
        f = np.sqrt(w + mass * mass) - mass
        norm = max(norm, f[-1])
        Tc = (V * f[None, :]) @ V.conj().T
        blocks.append(0.5 * (Tc + Tc.conj().T))
    return KineticMatrix(blocks=tuple(blocks), mass=mass, component=component,
                         boundary=boundary, grid=fld.grid, norm=float(norm))


def _apply(T, rows):
    """T_m applied to each of the (S, N) rows, i.e. rows @ T^T, as one
    (S, N/4) x (N/4, N/4) product per parity block."""
    out = np.empty(rows.shape, dtype=np.result_type(rows, *T.blocks))
    for c, B in zip(_parity_classes(T.grid.n), T.blocks):
        x = rows[:, c]
        if np.iscomplexobj(x) and not np.iscomplexobj(B):
            # two real products: real rows get the bits of a real call
            out.real[:, c] = x.real @ B.T
            out.imag[:, c] = x.imag @ B.T
        else:
            out[:, c] = x @ B.T
    return out


def kato_test(eta, phi, T_free: KineticMatrix, T_mag: KineticMatrix):
    """lhs = <eta, T_m(p)|phi|>, rhs = Re <eta, sgn(phi) T_m(p+A) phi>,
    with sgn(phi) = phi/|phi| where phi != 0 and 0 otherwise.

    Returns (lhs, rhs); the diamagnetic inequality asserts lhs <= rhs.
    Stacked (S, N) rows of eta and phi give arrays of S values each.
    """
    N = T_free.grid.n ** 2
    stacked = np.ndim(eta) == 2 and np.shape(eta)[1] == N
    eta = np.asarray(eta, dtype=float).reshape(-1, N)
    phi = np.asarray(phi, dtype=complex).reshape(-1, N)
    if np.any(eta < 0):
        raise DomainError("eta must be nonnegative")
    h2 = T_free.grid.h ** 2
    absphi = np.abs(phi)
    sgn = np.zeros_like(phi)
    nz = absphi > 0
    # parts divided separately: complex division leaves phi/|phi| off 1
    # by an ulp for real phi, and the zero-field equality case needs it exact
    sgn.real[nz] = phi.real[nz] / absphi[nz]
    sgn.imag[nz] = phi.imag[nz] / absphi[nz]
    lhs = h2 * np.einsum("sa,sa->s", eta, _apply(T_free, absphi).real)
    Y = _apply(T_mag, phi)
    # Re(conj(sgn) Y) as one contiguous array: with A = 0 and phi >= 0 it
    # is bitwise the lhs operand
    rhs = h2 * np.einsum("sa,sa->s", eta, sgn.real * Y.real + sgn.imag * Y.imag)
    if stacked:
        return lhs, rhs
    return float(lhs[0]), float(rhs[0])


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
    if samples < 1:
        raise DomainError("need samples >= 1")
    T_free = kinetic_matrix(fld, mass, component="none")
    T_mag = T_free if component == "none" else kinetic_matrix(fld, mass, component)
    rng = np.random.default_rng(seed)
    N = fld.grid.n ** 2
    h2 = fld.grid.h ** 2
    # one draw in the per-sample order eta, then phi (real, imaginary)
    z = rng.standard_normal((samples, 2 if nonneg_phi else 3, N))
    eta = np.abs(z[:, 0])
    phi = np.abs(z[:, 1]) if nonneg_phi else z[:, 1] + 1j * z[:, 2]
    lhs, rhs = kato_test(eta, phi, T_free, T_mag)
    gaps = lhs - rhs
    tols = (1e-10 * h2 * np.linalg.norm(eta, axis=1) * np.linalg.norm(phi, axis=1)
            * T_mag.norm)
    rel = gaps / tols
    edges = np.array([-np.inf, -1e3, -1e0, -1e-3, 0.0, 1e-3, 1e0, np.inf])
    counts = np.histogram(rel, bins=edges)[0]
    return KatoRun(field_kind=component, mass=mass, samples=samples, seed=seed,
                   max_violation=float(np.max(gaps)),
                   tol_violation=float(np.min(tols)),
                   histogram_edges=tuple(edges.tolist()),
                   histogram_counts=tuple(int(c) for c in counts))
