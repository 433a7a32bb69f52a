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
spacing 2h, and T_m is block-diagonal over them.  A quarter turn of the
grid about its centre permutes the four classes in one orbit, and every
field make_fields builds is symmetric under it, so the four blocks are one
block re-indexed: a single eigensolve of size N/4 replaces one of size N.
A block that is not the turned previous one (a gauge-shifted field, say)
gets its own solve.  The x <-> y mirror composed with complex conjugation
is a symmetry of every field make_fields builds too; it maps classes
(0, 0) and (1, 1) onto themselves, and with S the swap of a class's
node (a, b) with (b, a), the unitary (I + iS)/sqrt2 takes such a class's
block to a real symmetric one, so its solve is a real eigensolve.
(p+A)^2 is assembled block by block from the stencil, and T_m is kept as
the four blocks and applied block by block, each class a strided view of
the rows on the grid, so no N x N array is formed; with zero field every
link phase is 1, so the blocks are real and so is their arithmetic.
kato_random_run draws and tests its samples in slabs of a fixed number of
elements.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class SquareGrid:
    """n x n nodes at cell centers of a square of side `extent`.  For
    even n the nodes nearest the origin are at +-h/2; for odd n the middle
    node is the origin up to rounding, and LatticeField refuses the grid.
    kato_test refuses a cell whose square h * h overflows."""

    extent: float
    n: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2
                and 0 < self.extent < np.inf):
            raise DomainError("need a finite extent > 0 and an integer n >= 2")

    @property
    def h(self):
        return self.extent / self.n

    def coordinates(self):
        c = (np.arange(self.n) + 0.5) * self.h - self.extent / 2.0
        X, Y = np.meshgrid(c, c, indexing="ij")
        return X, Y


# a field past double range comes out inf or nan, without a warning, and
# LatticeField refuses it with DomainError
def _background(B, X, Y):
    with np.errstate(over="ignore"):
        return -0.5 * B * Y, 0.5 * B * X


def _cavity(B, R, X, Y):
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = X * X + Y * Y
        factor = 1.0 / np.maximum(r2, R * R)  # quadratic inside, 1/|x|^2 tail
        ax = 0.5 * B * R * R * factor * Y
        ay = -0.5 * B * R * R * factor * X
    return ax, ay


@dataclass(frozen=True)
class LatticeField:
    """Sampled vector potentials of the quantum-dot configuration.

    background = homogeneous field B; cavity = the potential that removes
    the field inside |x| < R and leaves it untouched outside.  A grid of
    odd n raises ConfigurationError.  The cavity bound |A_cav||x| <=
    B R^2 / 2, on which make_fields puts the potential outside R, is
    tested to 8 eps relative: 15,006 fields (B in [1e-3, 1e100], R in
    [1e-3, 1e5], n = 10 to 48) needed 3.
    """

    grid: SquareGrid
    B: float
    R: float
    A_background: np.ndarray = field(repr=False)  # (2, n, n)
    A_cavity: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.grid.n % 2:
            raise ConfigurationError("origin must not be a grid node")
        if not (np.all(np.isfinite(self.A_background))
                and np.all(np.isfinite(self.A_cavity))):
            raise DomainError("vector potential not finite on the grid")
        if self.B > 0:
            r = np.hypot(*self.grid.coordinates())
            bound = np.abs(np.hypot(self.A_cavity[0], self.A_cavity[1])) * r
            slack = 1 + 8 * np.finfo(float).eps
            if np.max(bound) > 0.5 * self.B * self.R * self.R * slack:
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


def _stencil(A, grid, boundary):
    """The entries of (p+A)^2 on the n x n grid, as (hops, diagonal): per
    axis the two-hop entry from each node, and each node's link count, all
    over 4h^2; real when A is identically zero.

    Per axis, P = (-i/2h)(U - U^H) with U the forward links u_ab =
    exp(-i h (A_a + A_b)/2), so P^2 = (U U^H + U^H U - U^2 - U^H^2)/4h^2:
    a diagonal link count and the two-hop entries -u_ab u_bc/4h^2 plus
    their conjugates.  A phase h A past double range comes out nan, and
    on a cell so narrow that 1/4h^2 overflows the entries come out inf or
    nan, without a warning, and _solve refuses the block with DomainError.
    """
    n, h = grid.n, grid.h
    real = not np.any(A)
    hops = []
    links = np.zeros((n, n))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for axis in (0, 1):
            u = np.exp(-0.5j * h * (A[axis] + np.roll(A[axis], -1, axis)))
            if boundary != "periodic":
                u[(slice(None),) * axis + (-1,)] = 0.0  # no link leaves the edge
            w = np.abs(u) ** 2
            links += w + np.roll(w, 1, axis)  # links leaving and entering a node
            hop = (-u * np.roll(u, -1, axis)) / (4.0 * h * h)
            hops.append(hop.real if real else hop)  # every link phase is exactly 1
        return hops, links / (4.0 * h * h)


def _kinetic_square(stencil, k):
    """Parity class k's (N/4, N/4) block of (p+A)^2 from its _stencil,
    over the class's nodes in _parity_classes order.

    A two-hop is one step on the class's own n/2 x n/2 grid.  Each entry
    sums its terms in the order of the N x N matrix's entry (axis 0, then
    1, then the diagonal), so the block is bitwise that matrix's class
    block, also where a periodic two-hop wraps onto a node's own entry
    (n = 2) or its partner's (n = 4).  Each x at (a, c) comes with conj(x)
    at (c, a) and the diagonal is real, so the block is exactly Hermitian.
    """
    hops, diagonal = stencil
    p, q = divmod(k, 2)
    half = diagonal.shape[0] // 2
    node = np.arange(half * half).reshape(half, half)
    H = np.zeros((half * half, half * half), dtype=hops[0].dtype)
    for axis, hop in enumerate(hops):
        a, c = node.ravel(), np.roll(node, -1, axis).ravel()
        x = hop[p::2, q::2].ravel()
        H[a, c] += x
        H[c, a] += x.conj()
    H[np.diag_indices(half * half)] += diagonal[p::2, q::2].ravel()
    return H


def _parity_classes(n):
    """Flattened node indices of the four classes (i mod 2, j mod 2).

    The two-hop stencil of (p+A)^2 never leaves a class (n is even, since
    LatticeField refuses odd n, so periodic wrap keeps parity too); each
    class is a 5-point magnetic Laplacian at spacing 2h.
    """
    node = np.arange(n * n).reshape(n, n)
    return [node[p::2, q::2].ravel() for p in (0, 1) for q in (0, 1)]


@dataclass(frozen=True)
class KineticMatrix:
    """Hermitian T_m = sqrt((p+A)^2 + m^2) - m over grid nodes, held as its
    four parity blocks in _parity_classes order (real when A = 0)."""

    blocks: tuple = field(repr=False)
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
# sqrt((p+A)^2 + m^2) needs a finite m^2
_MASS_CAP = float(np.sqrt(np.finfo(float).max))

# _parity_classes indices in the order a quarter turn of the grid visits them
_ORBIT = (0, 1, 3, 2)


def kinetic_matrix(fld: LatticeField, mass: float, component: str = "total",
                   boundary: str = "open") -> KineticMatrix:
    """Assemble (p+A)^2 of the centered-difference (p+A) with trapezoid
    link phases, take sqrt((p+A)^2 + m^2) spectrally on each of the four
    parity blocks, and subtract m.

    With component "none" the vector potential is zero whatever fld
    holds, so T_m depends only on (fld.grid, mass, boundary): it is built
    once per such key and kept in a cache of 8 entries, with read-only
    blocks.  An entry is at most 4 (N/4)^2 doubles, 10.6 MB at n = 48.
    spectra._momentum_log_grid.cache_clear() clears it.  A negative mass,
    or one whose square overflows (from 1.3e154), raises DomainError.
    """
    if not 0 <= mass < _MASS_CAP:
        raise DomainError("mass must be finite and >= 0, with a finite square")
    if fld.grid.n > MAX_DENSE_GRID:
        raise DomainError(
            "grid beyond the %dx%d dense budget" % (MAX_DENSE_GRID, MAX_DENSE_GRID))
    if boundary not in ("open", "periodic"):
        raise ConfigurationError("unknown boundary %r" % boundary)
    A = fld.component(component)
    if boundary == "periodic" and np.any(A != 0.0):
        # linearly growing vector potentials are incompatible with wrap
        raise ConfigurationError("periodic boundary requires zero vector potential")
    if component == "none":
        return _zero_field(fld.grid, float(mass), boundary)
    return _solve(A, fld.grid, mass, boundary)


@functools.lru_cache(maxsize=8)
def _zero_field(grid, mass, boundary):
    """The cached T_m of A = 0; see kinetic_matrix."""
    T = _solve(np.zeros((2, grid.n, grid.n)), grid, mass, boundary)
    for B in T.blocks:
        B.flags.writeable = False
    return T


def _turned(X, half):
    """P^T X P for the quarter turn P of _solve, as a (half,) * 4 view of
    the (half^2, half^2) X: row and column node each turned clockwise."""
    return np.rot90(np.rot90(X.reshape((half,) * 4), -1, (0, 1)), -1, (2, 3))


def _spectral(H, mass):
    """(sqrt(H + m^2) - m, its largest eigenvalue) of the Hermitian H by
    one eigensolve, real when H is; at m > 0 it is formed as
    H / (sqrt(H + m^2) + m), which does not cancel at large m.  H must be
    semidefinite, and its eigenvalues at the roundoff floor are zeroed,
    both relative to its top eigenvalue (about 1/h^2, whatever h is)."""
    w, V = np.linalg.eigh(H)
    if w[0] < -1e-10 * w[-1]:
        raise DomainError("(p+A)^2 not PSD: min eig %.3e" % w[0])
    # zero out eigenvalues at the roundoff floor: sqrt would amplify
    # O(eps ||B||) noise on an exact kernel mode to O(sqrt(eps))
    w = np.where(w < 1e-13 * w[-1], 0.0, w)
    f = np.sqrt(w) if mass == 0 else w / (np.sqrt(w + mass * mass) + mass)
    F = (V * f[None, :]) @ V.conj().T
    return 0.5 * (F + F.conj().T), f[-1]


def _mirror_solve(B, half, mass):
    """_spectral of the complex block B of a self-mirror class whose
    mirror S, (a, b) -> (b, a), gives S B S = conj(B), by a real solve.

    W = (I + iS)/sqrt2 is unitary and takes B to the real symmetric
        M = W^H B W = Re B + (S Im B - Im B S)/2,
    and f(B) = W F W^H = (F + S F S)/2 + i (S F - F S)/2 with F = f(M).
    On the (half,) * 4 view of a block, S X is X.transpose(1, 0, 2, 3)
    and X S is X.transpose(0, 1, 3, 2), so M and f(B) are sums of
    transposed views.  f(B) is exactly Hermitian since F is exactly
    symmetric.
    """
    shape = (half,) * 4
    J = B.imag.reshape(shape)
    M = np.subtract(J.transpose(1, 0, 2, 3), J.transpose(0, 1, 3, 2))
    M *= 0.5
    M += B.real.reshape(shape)
    F, f_top = _spectral(M.reshape(B.shape), mass)
    F = F.reshape(shape)
    F *= 0.5
    T = np.empty(shape, dtype=complex)
    np.add(F, F.transpose(1, 0, 3, 2), out=T.real)
    np.subtract(F.transpose(1, 0, 2, 3), F.transpose(0, 1, 3, 2), out=T.imag)
    return T.reshape(B.shape), f_top


def _solve(A, grid, mass, boundary):
    """T_m of the vector potential A, one eigensolve per quarter-turn orbit,
    real wherever the block allows.

    Each class's block of (p+A)^2 is built when the walk reaches it, so
    no N x N array is formed.  The quarter turn of the grid that maps
    class (p, q) to (q, 1 - p) walks the classes in _ORBIT order and maps
    each class's n/2 x n/2 sub-array onto the next one's by a clockwise
    quarter turn, a permutation P.  When a block B' agrees with the turned
    previous block P^T B P to 4 eps max|B|, its T block is the turned
    previous T block, since f(P^T B P) = P^T f(B) P.  The difference E
    has the 5-point pattern, at most five entries per row and column, so
    ||E||_2 <= 5 max|E| <= 20 eps ||B||_2, and three steps add at most
    60 eps ||B||_2.
    That is inside the backward error eigh's own bound allows, p(N/4) eps
    ||B||_2 with p growing with the block size, so the copy loses nothing
    a solve would resolve (the argument of spectra._lowest_eigenvalue).
    Any other block is solved.  A complex block of a class the x <-> y
    mirror maps to itself (p = q) that agrees with its mirrored conjugate
    S conj(B) S to 4 eps max|B| is solved as the real M of _mirror_solve,
    which is W^H B W up to such an E, by the same argument; every field
    make_fields builds is mirrored bitwise, so its solve is real.  Each
    solved block, exactly Hermitian as built, is checked for finiteness
    and semidefiniteness and has its roundoff-floor eigenvalues zeroed,
    and the norm is the largest of their top values.
    """
    stencil = _stencil(A, grid, boundary)
    half = grid.n // 2
    K = half * half
    tol = 4 * np.finfo(float).eps
    blocks = [None] * 4
    norm = 0.0
    prev = None
    for k in _ORBIT:
        B = _kinetic_square(stencil, k)
        B4 = B.reshape((half,) * 4)
        if prev is not None and (np.max(np.abs(B4 - _turned(prev, half)))
                                 <= tol * np.max(np.abs(prev))):
            Tc = _turned(Tc, half).reshape(K, K)
        else:
            bmax = np.max(np.abs(B))
            if not np.isfinite(bmax):
                raise DomainError(
                    "kinetic square not finite: h |A| or 1/h^2 past double range")
            if (np.iscomplexobj(B) and k in (0, 3) and np.max(np.abs(
                    B4.transpose(1, 0, 3, 2) - B4.conj())) <= tol * bmax):
                Tc, f_top = _mirror_solve(B, half, mass)
            else:
                Tc, f_top = _spectral(B, mass)
            norm = max(norm, f_top)
        blocks[k] = Tc
        prev = B
    return KineticMatrix(blocks=tuple(blocks), grid=grid, norm=float(norm))


def _apply(T, rows):
    """T_m applied to each of the (S, N) rows, i.e. rows @ T^T, as one
    (S, N/4) x (N/4, N/4) product per parity block, each class read and
    written as the strided (S, n/2, n/2) view [:, p::2, q::2] of the rows
    on the n x n grid, which is _parity_classes order.

    A class is copied out column-major, the layout numpy gives the index
    gather rows[:, c]: BLAS rounds differently for the other layout, and
    the products are bitwise the gathered ones (tests keep that reference).
    """
    n, half = T.grid.n, T.grid.n // 2
    S = rows.shape[0]
    out = np.empty(rows.shape, dtype=np.result_type(rows, *T.blocks))
    on_grid, out_grid = rows.reshape(S, n, n), out.reshape(S, n, n)
    for k, B in enumerate(T.blocks):
        p, q = divmod(k, 2)
        x = on_grid[:, p::2, q::2].transpose(1, 2, 0).reshape(half * half, S).T
        y = out_grid[:, p::2, q::2]
        if np.iscomplexobj(x) and not np.iscomplexobj(B):
            # two real products: real rows get the bits of a real call
            y.real[...] = (x.real @ B.T).reshape(S, half, half)
            y.imag[...] = (x.imag @ B.T).reshape(S, half, half)
        else:
            y[...] = (x @ B.T).reshape(S, half, half)
    return out


def kato_test(eta, phi, T_free: KineticMatrix, T_mag: KineticMatrix):
    """lhs = <eta, T_m(p)|phi|>, rhs = Re <eta, sgn(phi) T_m(p+A) phi>,
    with sgn(phi) = phi/|phi| where phi != 0 and 0 otherwise.

    Returns (lhs, rhs); the diamagnetic inequality asserts lhs <= rhs.
    Stacked (S, N) rows of eta and phi give arrays of S values each.  The
    two operators must share one grid whose cell square h^2 is finite, eta
    must be real, eta and phi must have as many rows of N nodes each, and
    lhs and rhs must come out finite.
    """
    if T_free.grid != T_mag.grid:
        raise ConfigurationError("T_free and T_mag are on different grids")
    N = T_free.grid.n ** 2
    if not all(np.ndim(x) in (1, 2) and np.shape(x)[-1] == N for x in (eta, phi)):
        raise DomainError("eta and phi need rows of the grid's %d nodes" % N)
    if np.iscomplexobj(eta):
        raise DomainError("eta must be real")
    stacked = np.ndim(eta) == 2
    eta = np.asarray(eta, dtype=float).reshape(-1, N)
    phi = np.asarray(phi, dtype=complex).reshape(-1, N)
    if len(eta) != len(phi):
        raise DomainError("%d rows of eta against %d of phi" % (len(eta), len(phi)))
    if np.any(eta < 0):
        raise DomainError("eta must be nonnegative")
    h2 = T_free.grid.h * T_free.grid.h
    if not np.isfinite(h2):
        raise DomainError("cell square h^2 not finite: extent past double range")
    absphi = np.abs(phi)
    sgn = np.zeros_like(phi)
    nz = absphi > 0
    # a nan or inf in eta or phi is not warned of on its way: it leaves
    # lhs or rhs not finite, which is refused below
    with np.errstate(invalid="ignore", over="ignore"):
        # parts divided separately: complex division leaves phi/|phi| off 1
        # by an ulp for real phi, and the zero-field equality case needs it
        # exact
        np.divide(phi.real, absphi, out=sgn.real, where=nz)
        np.divide(phi.imag, absphi, out=sgn.imag, where=nz)
        lhs = h2 * np.einsum("sa,sa->s", eta, _apply(T_free, absphi).real)
        Y = _apply(T_mag, phi)
        # Re(conj(sgn) Y) as one contiguous array: with A = 0 and phi >= 0
        # it is bitwise the lhs operand
        rhs = h2 * np.einsum("sa,sa->s", eta, sgn.real * Y.real + sgn.imag * Y.imag)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise DomainError("lhs or rhs not finite: eta and phi must be")
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


# samples x N elements per slab of kato_random_run.  On perfbench's kato
# workload (1 BLAS thread, 2 cores, medians of 10 runs) 16,384 ran 72.5
# tasks/s with a median task of 9.34 ms, 32,768 ran 70.5 and 9.93 ms, and
# 8,192 ran 67.2 (6 runs); the draws and kato_test temporaries of a run
# peak at 1.8 to 2.6 MB traced for n = 16 to 48
_SLAB_ELEMENTS = 16384


def kato_random_run(fld: LatticeField, mass: float, component: str,
                    samples: int = 200, seed: int = 1234,
                    nonneg_phi: bool = False) -> KatoRun:
    """Draw (eta, phi) pairs and histogram lhs - rhs against the
    1e-10 * ||eta|| ||phi|| ||T|| relative tolerance.

    nonneg_phi draws phi >= 0 real; with zero field that is the exact
    equality case of the inequality.  The samples are drawn and tested in
    slabs of max(1, _SLAB_ELEMENTS // N) rows, so the draws and kato_test's
    temporaries stay bounded whatever the sample count.
    """
    if not (all(isinstance(k, (int, np.integer)) for k in (samples, seed))
            and samples >= 1 and seed >= 0):
        raise DomainError("need integers samples >= 1 and seed >= 0")
    T_free = kinetic_matrix(fld, mass, component="none")
    T_mag = T_free if component == "none" else kinetic_matrix(fld, mass, component)
    rng = np.random.default_rng(seed)
    N = fld.grid.n ** 2
    h2 = fld.grid.h * fld.grid.h
    rows = max(1, _SLAB_ELEMENTS // N)
    gaps, tols = np.empty(samples), np.empty(samples)
    for s0 in range(0, samples, rows):
        s1 = min(samples, s0 + rows)
        # one draw in the per-sample order eta, then phi (real, imaginary):
        # slab by slab, the generator's stream is the same
        z = rng.standard_normal((s1 - s0, 2 if nonneg_phi else 3, N))
        eta = np.abs(z[:, 0])
        if nonneg_phi:
            phi = np.abs(z[:, 1])
        else:
            phi = np.empty((s1 - s0, N), dtype=complex)
            phi.real, phi.imag = z[:, 1], z[:, 2]
        lhs, rhs = kato_test(eta, phi, T_free, T_mag)
        gaps[s0:s1] = lhs - rhs
        tols[s0:s1] = (1e-10 * h2 * np.linalg.norm(eta, axis=1)
                       * np.linalg.norm(phi, axis=1) * T_mag.norm)
    rel = gaps / tols
    edges = np.array([-np.inf, -1e3, -1e0, -1e-3, 0.0, 1e-3, 1e0, np.inf])
    counts = np.histogram(rel, bins=edges)[0]
    return KatoRun(field_kind=component, mass=mass, samples=samples, seed=seed,
                   max_violation=float(np.max(gaps)),
                   tol_violation=float(np.min(tols)),
                   histogram_edges=tuple(edges.tolist()),
                   histogram_counts=tuple(int(c) for c in counts))
