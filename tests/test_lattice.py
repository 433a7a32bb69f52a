import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import lattice, spectra
from opineq.bounds import flux_delta
from opineq.errors import ConfigurationError, DomainError
from opineq.lattice import (LatticeField, SquareGrid, kato_random_run,
                            kato_test, kinetic_matrix,
                            make_fields, _apply, _background, _cavity,
                            _kinetic_square, _parity_classes, _stencil)


def _hop_matrices(A, grid, boundary):
    """Reference: covariant centered-difference momenta P_x, P_y as dense
    complex matrices, one link at a time."""
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


def _reference_square(fld, component, boundary="open"):
    Px, Py = _hop_matrices(fld.component(component), fld.grid, boundary)
    return Px @ Px + Py @ Py


def _dense_square(A, grid, boundary):
    """Reference: (p+A)^2 as one dense N x N complex matrix, the link count
    on the diagonal and -u_ab u_bc/4h^2 plus its conjugate on the two-hop
    entries, each entry summed in _kinetic_square's order."""
    n, h = grid.n, grid.h
    N = n * n
    node = np.arange(N).reshape(n, n)
    H = np.zeros((N, N), dtype=complex)
    links = np.zeros((n, n))
    for axis in (0, 1):
        u = np.exp(-0.5j * h * (A[axis] + np.roll(A[axis], -1, axis)))
        if boundary != "periodic":
            u[(slice(None),) * axis + (-1,)] = 0.0
        w = np.abs(u) ** 2
        links += w + np.roll(w, 1, axis)
        a, c = node.ravel(), np.roll(node, -2, axis).ravel()
        hop = (-u * np.roll(u, -1, axis)).ravel() / (4.0 * h * h)
        H[a, c] += hop
        H[c, a] += hop.conj()
    H[np.diag_indices(N)] += links.ravel() / (4.0 * h * h)
    return H


def _square_blocks(fld, component, boundary="open"):
    """The four parity blocks of (p+A)^2, in _parity_classes order."""
    stencil = _stencil(fld.component(component), fld.grid, boundary)
    return [_kinetic_square(stencil, k) for k in range(4)]


def _cross_class(M, n):
    """M with every entry inside a parity class set to 0."""
    out = M.copy()
    for c in _parity_classes(n):
        out[np.ix_(c, c)] = 0.0
    return out


def _gauge_shifted(fld):
    """fld with the gradient of the quadratic chi = 0.3 x + 0.7 y + 0.1 x^2
    - 0.25 x y + 0.05 y^2 added to the background.  chi is not invariant
    under the grid's quarter turn, so the field is not either."""
    X, Y = fld.grid.coordinates()
    grad = np.stack([0.3 + 0.2 * X - 0.25 * Y, 0.7 - 0.25 * X + 0.1 * Y])
    return dataclasses.replace(fld, A_background=fld.A_background + grad)


def _mirror_only(fld):
    """fld with the gradient of chi = 0.4 (x - y) added to the background.
    The field stays mirrored under x <-> y with conjugation but is no
    longer symmetric under the quarter turn."""
    return dataclasses.replace(
        fld, A_background=fld.A_background + np.array([0.4, -0.4])[:, None, None])


def test_background_formula():
    ax, ay = _background(2.0, np.array([1.0]), np.array([0.0]))
    assert ax[0] == 0.0 and ay[0] == 1.0  # (B/2)(-y, x) at (1, 0)


def test_cavity_continuity_at_rim():
    B, R = 1.3, 2.0
    for r in (R * (1 - 1e-9), R * (1 + 1e-9)):
        ax, ay = _cavity(B, R, np.array([r]), np.array([0.0]))
        assert np.hypot(ax, ay)[0] == pytest.approx(B * R / 2.0, rel=1e-8)


def test_cavity_bound_ratio():
    grid = SquareGrid(12.0, 32)
    fld = make_fields(1.0, 1.0, grid)
    X, Y = grid.coordinates()
    r = np.hypot(X, Y)
    ratio = np.hypot(fld.A_cavity[0], fld.A_cavity[1]) * r / flux_delta(1.0, 1.0)
    # tail branch is exactly delta/|x|; interior scales like (|x|/R)^2
    assert np.max(np.abs(ratio[r >= 2.0] - 1.0)) < 1e-12
    inner = np.argmin(np.abs(r - 0.5))
    assert ratio.ravel()[inner] == pytest.approx((r.ravel()[inner]) ** 2, rel=1e-12)


def _discrete_curl(A, h):
    """Centered-difference curl dA2/dx - dA1/dy on interior nodes."""
    ax, ay = A
    return ((ay[2:, 1:-1] - ay[:-2, 1:-1]) - (ax[1:-1, 2:] - ax[1:-1, :-2])) / (2 * h)


def test_discrete_curls():
    grid = SquareGrid(8.0, 32)
    fld = make_fields(1.0, 1.0, grid)
    curl_bg = _discrete_curl(fld.A_background, grid.h)
    assert np.max(np.abs(curl_bg - 1.0)) < 1e-12  # exact for linear fields
    X, Y = grid.coordinates()
    curl_tot = _discrete_curl(fld.A_background + fld.A_cavity, grid.h)
    rin = np.hypot(X, Y)[1:-1, 1:-1]
    inside = rin < 1.0 - 2.0 * grid.h
    assert np.max(np.abs(curl_tot[inside])) < 1e-2


def test_origin_on_node_rejected():
    # odd n puts a node at 0, up to rounding: at extent 16000 it is 1.3e-12
    # off, which a radius scan against 1e-12 let through, and kinetic_matrix
    # then met shapes of (49,) against (64,)
    for extent in (8.0, 16000.0):
        with pytest.raises(ConfigurationError):
            make_fields(1.0, 1.0, SquareGrid(extent, 15))


@pytest.mark.parametrize("extent", [1e-12, 1e8, 1e20, 1e100])
def test_kato_random_run_at_rescaled_extents(extent):
    # at 1e-12 the nodes nearest the origin are at +-h/2 = 1.25e-13, which
    # a radius scan against 1e-12 refused; on the wide cells every
    # eigenvalue of (p+A)^2 is about 1/h^2, and an absolute roundoff floor
    # zeroed them all, and with them the norm and every tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = kato_random_run(make_fields(1.0, 1.0, SquareGrid(extent, 4)), 0.0,
                              "total", samples=20, seed=3)
    assert 0 < run.tol_violation < np.inf
    assert run.passed and sum(run.histogram_counts) == 20


@pytest.mark.parametrize("B, R", [(1e4, 2.0), (1e6, 1.0), (1e-300, 1e160)])
def test_strong_cavity_fields_accepted(B, R):
    # make_fields puts |A_cav||x| on B R^2 / 2 outside R to a few eps
    # relative, past an absolute slack of 1e-12 once B R^2 is a few 1e4;
    # R ** 2 raised OverflowError at R = 1e160 where B R^2 = 1e20 is finite
    fld = make_fields(B, R, SquareGrid(12.0, 24))
    run = kato_random_run(fld, 0.0, "total", samples=20, seed=3)
    assert 0 < run.tol_violation < np.inf
    assert run.passed and sum(run.histogram_counts) == 20


def test_zero_field_cell_past_double_range_raises_domain_error():
    # h * h overflows to inf at h = 2.5e154 (h ** 2 raised OverflowError);
    # the zero-field blocks are finite (all 0), so kato_test refuses the cell
    fld = make_fields(1.0, 1.0, SquareGrid(1e155, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="cell square"):
            kato_random_run(fld, 0.0, "none", samples=4)


def test_make_fields_validation():
    # a negative B or a radius that is not positive; an unknown component
    grid = SquareGrid(8.0, 16)
    for B, R in ((-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)):
        with pytest.raises(DomainError):
            make_fields(B, R, grid)
    with pytest.raises(ConfigurationError):
        make_fields(1.0, 1.0, grid).component("bogus")


def test_square_grid_validation():
    # extents that are not finite and positive, and node counts that are
    # not integers >= 2: SquareGrid(12.0, 24.0) once reached kinetic_matrix
    for extent, n in ((0.0, 12), (-1.0, 12), (np.nan, 12), (np.inf, 12),
                      (12.0, 1), (12.0, 24.0), (12.0, 2.5)):
        with pytest.raises(DomainError):
            SquareGrid(extent, n)
    assert SquareGrid(12, np.int64(24)).h == 0.5


def test_fields_past_double_range_raise_domain_error_without_warning():
    # B or R at 1e308 overflows the sampled field: LatticeField refuses it,
    # and no RuntimeWarning comes first
    grid = SquareGrid(12.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for B, R in ((1e308, 1.0), (1.0, 1e308)):
            with pytest.raises(DomainError, match="vector potential not finite"):
                make_fields(B, R, grid)


def test_link_phases_past_double_range_raise_before_eigh(monkeypatch):
    # on a 1e308 square the field is finite but h A is not: the link phases
    # are nan, and the block is refused before numpy's eigh sees it
    fld = make_fields(1.0, 1.0, SquareGrid(1e308, 4))

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on a non-finite block")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="kinetic square not finite"):
            kinetic_matrix(fld, 0.0)


@pytest.mark.parametrize("mass", [1e155, 1e308, np.inf, -1.0])
def test_kinetic_matrix_needs_a_mass_with_a_finite_square(mass):
    # sqrt((p+A)^2 + m^2) - m is inf where m^2 overflows
    fld = make_fields(1.0, 1.0, SquareGrid(12.0, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for component in ("none", "total"):
            with pytest.raises(DomainError, match="mass must be"):
                kinetic_matrix(fld, mass, component)


def test_fft_dispersion_oracle():
    grid = SquareGrid(2 * np.pi, 12)
    fld = make_fields(0.0, 1.0, grid)
    T = kinetic_matrix(fld, 0.0, component="none", boundary="periodic")
    k = 2 * np.pi * np.fft.fftfreq(12, d=grid.h)
    KX, KY = np.meshgrid(k, k, indexing="ij")
    disp = np.sqrt(np.sin(KX * grid.h) ** 2 + np.sin(KY * grid.h) ** 2) / grid.h
    got = np.linalg.eigvalsh(T.matrix)
    assert np.max(np.abs(np.sort(got) - np.sort(disp.ravel()))) < 1e-10


def test_large_mass_nonrelativistic_limit():
    fld = make_fields(1.0, 1.0, SquareGrid(6.0, 12))
    T0 = kinetic_matrix(fld, 0.0, component="total")
    ev_sq = np.linalg.eigvalsh(T0.matrix @ T0.matrix)  # (p+A)^2 spectrum
    # at 1e10 / h, sqrt(w + m^2) - m cancelled to an error of 1.0
    for factor in (100.0, 1e10):
        mass = factor / fld.grid.h
        low_rel = np.linalg.eigvalsh(kinetic_matrix(fld, mass, component="total").matrix)[:5]
        low_nr = (ev_sq / (2.0 * mass))[:5]
        assert np.max(np.abs(low_rel - low_nr) / np.abs(low_nr)) < 0.05


def test_gauge_covariance_exact_for_quadratic_chi():
    fld = make_fields(1.0, 1.0, SquareGrid(6.0, 10))
    e1 = np.linalg.eigvalsh(kinetic_matrix(fld, 0.0, "background").matrix)
    e2 = np.linalg.eigvalsh(kinetic_matrix(_gauge_shifted(fld), 0.0,
                                           "background").matrix)
    assert np.max(np.abs(e1 - e2)) < 1e-8


def test_kinetic_matrix_psd_and_budget():
    fld = make_fields(1.0, 1.0, SquareGrid(6.0, 10))
    for comp in ("none", "background", "total"):
        for mass in (0.0, 1.0):
            T = kinetic_matrix(fld, mass, comp)
            ev = np.linalg.eigvalsh(T.matrix)
            assert ev[0] >= -1e-12 * max(1.0, ev[-1])
    for mass in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            kinetic_matrix(fld, mass)
    with pytest.raises(DomainError):
        kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(10.0, 50)), 0.0)
    with pytest.raises(ConfigurationError):
        kinetic_matrix(fld, 0.0, component="background", boundary="periodic")
    with pytest.raises(ConfigurationError):
        kinetic_matrix(fld, 0.0, component="none", boundary="periodc")


def test_kato_equality_case():
    # A = 0 and phi >= 0 real: lhs = rhs exactly (same matrix, sgn = 1)
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 16))
    T = kinetic_matrix(fld, 0.0, component="none")
    rng = np.random.default_rng(5)
    eta = np.abs(rng.standard_normal(16 * 16))
    phi = np.abs(rng.standard_normal(16 * 16))
    lhs, rhs = kato_test(eta, phi, T, T)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    with pytest.raises(DomainError):
        kato_test(-eta, phi, T, T)


def test_kato_zero_field_equality_is_exact():
    # sgn(phi) = 1 exactly for real positive phi, so every gap is 0
    run = kato_random_run(make_fields(1, 1, SquareGrid(12, 12)), 0.0, "none",
                          200, 12, nonneg_phi=True)
    assert run.max_violation == 0.0
    assert run.histogram_counts == (0, 0, 0, 0, 200, 0, 0)


def test_kato_random_runs_no_violation():
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 12))
    for comp in ("none", "background", "total"):
        for mass in (0.0, 1.0):
            run = kato_random_run(fld, mass, comp, samples=40, seed=99)
            assert run.passed
            assert sum(run.histogram_counts) == 40


def test_lattice_field_invariant_guard():
    grid = SquareGrid(8.0, 16)
    fld = make_fields(1.0, 1.0, grid)
    bad = fld.A_cavity * 1.5
    with pytest.raises(DomainError):
        LatticeField(grid=grid, B=1.0, R=1.0,
                     A_background=fld.A_background, A_cavity=bad)
    # a potential that is not finite
    for value in (np.nan, np.inf):
        A = fld.A_background.copy()
        A[0, 3, 3] = value
        with pytest.raises(DomainError):
            LatticeField(grid=grid, B=1.0, R=1.0, A_background=A,
                         A_cavity=fld.A_cavity)


_ASSEMBLY_CASES = [(n, "open", comp) for n in (2, 4, 10, 16)
                   for comp in ("none", "background", "total")]
_ASSEMBLY_CASES += [(n, "periodic", "none") for n in (2, 4, 10, 16)]


@pytest.mark.parametrize("n,boundary,component", _ASSEMBLY_CASES)
def test_direct_assembly_matches_loop(n, boundary, component):
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    ref = _reference_square(fld, component, boundary)
    assert not np.any(_cross_class(ref, n))
    for c, B in zip(_parity_classes(n), _square_blocks(fld, component, boundary)):
        assert np.max(np.abs(B - ref[np.ix_(c, c)])) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", range(2, 17, 2))
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("component",
                         ["none", "background", "cavity", "total", "gauge-shifted"])
def test_class_blocks_are_the_dense_blocks_bitwise(n, boundary, component):
    # at n = 2 and 4 periodic a two-hop wraps onto a node's own entry or
    # its partner's, and the terms must still be summed in the same order
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    if component == "gauge-shifted":
        fld, component = _gauge_shifted(fld), "background"
    A = fld.component(component)
    H = _dense_square(A, fld.grid, boundary)
    for c, B in zip(_parity_classes(n), _square_blocks(fld, component, boundary)):
        want = H[np.ix_(c, c)]
        if component == "none":
            assert B.dtype == np.float64
            want = want.real
        assert B.shape == want.shape and B.dtype == want.dtype
        assert B.tobytes() == np.ascontiguousarray(want).tobytes()
        # built Hermitian, so _solve does not re-test it
        assert np.array_equal(B, B.conj().T)


@pytest.mark.parametrize("n,boundary,component",
                         [(10, "open", "none"), (10, "open", "background"),
                          (10, "open", "cavity"), (16, "open", "total"),
                          (16, "periodic", "none"), (10, "open", "gauge-shifted"),
                          (16, "open", "gauge-shifted")])
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_block_structure(n, boundary, component, mass):
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    if component == "gauge-shifted":
        fld, component = _gauge_shifted(fld), "background"
    T = kinetic_matrix(fld, mass, component, boundary)
    H = _reference_square(fld, component, boundary)
    assert not np.any(_cross_class(H, n))
    assert not np.any(_cross_class(T.matrix, n))
    # the full N x N construction, as one eigensolve of the reference square
    w, V = np.linalg.eigh(H)
    w = np.where(w < 1e-13 * max(w[-1], 1.0), 0.0, w)
    f = np.sqrt(w + mass * mass) - mass
    ref = (V * f) @ V.conj().T
    assert np.max(np.abs(T.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert T.norm == pytest.approx(f[-1], rel=1e-14)


@pytest.mark.parametrize("n", [10, 16])
@pytest.mark.parametrize("component", ["background", "total"])
def test_heat_kernel_domination(n, component):
    # |exp(-t H_A)| <= exp(-t H_0) entrywise: the reason the discrete
    # diamagnetic inequality holds exactly.  Checked block by block, since
    # entries across classes are 0 on both sides
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    pairs = list(zip(_square_blocks(fld, "none"), _square_blocks(fld, component)))
    for t in (0.05, 0.5, 2.0):
        K = [(scipy.linalg.expm(-t * H0).real, np.abs(scipy.linalg.expm(-t * HA)))
             for H0, HA in pairs]
        top = max(np.max(K0) for K0, _ in K)
        for K0, KA in K:
            assert np.all(KA <= K0 + 1e-12 * top)


def _cold():
    """Clear the library's caches, the zero-field operators among them, so
    that the next kinetic_matrix solves whatever the tests before it built."""
    spectra._momentum_log_grid.cache_clear()


def _eigh_solves(monkeypatch):
    """The (shape, dtype) of each np.linalg.eigh call from here on, with
    the caches cleared first."""
    _cold()
    solves = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        solves.append((np.shape(a), np.asarray(a).dtype))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return solves


REAL, COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)


def test_kinetic_matrix_eigensolve_count(monkeypatch):
    # one solve per quarter-turn orbit of the parity blocks, real since
    # the field is mirrored under x <-> y with conjugation
    solves = _eigh_solves(monkeypatch)
    kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(8.0, 16)), 0.5, "total")
    assert solves == [((64, 64), REAL)]


def test_gauge_shifted_field_is_solved_per_block(monkeypatch):
    fld = _gauge_shifted(make_fields(1.0, 1.0, SquareGrid(8.0, 16)))
    solves = _eigh_solves(monkeypatch)
    kinetic_matrix(fld, 0.5, "background")
    assert solves == [((64, 64), COMPLEX)] * 4


def test_mirror_only_field_is_solved_real_on_the_self_mirror_classes(monkeypatch):
    # no class is the turned previous one; classes 0 and 3 (solved first
    # and third in _ORBIT order) are mapped to themselves by the mirror
    fld = _mirror_only(make_fields(1.0, 1.0, SquareGrid(8.0, 16)))
    solves = _eigh_solves(monkeypatch)
    T = kinetic_matrix(fld, 0.5, "background")
    assert solves == [((64, 64), REAL), ((64, 64), COMPLEX)] * 2
    _assert_blocks_match_complex_solves(T, fld, "background", 0.5)


def test_zero_field_eigensolves_are_real(monkeypatch):
    solves = _eigh_solves(monkeypatch)
    kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(8.0, 16)), 0.5, "none")
    assert solves == [((64, 64), REAL)]


def _complex_solve(H, mass):
    """Reference: the T block of the Hermitian H by one eigh of H as it
    is, with _solve's roundoff floor; and its largest eigenvalue."""
    w, V = np.linalg.eigh(H)
    w = np.where(w < 1e-13 * max(w[-1], 1.0), 0.0, w)
    f = np.sqrt(w + mass * mass) - mass
    return (V * f) @ V.conj().T, f[-1]


def _assert_blocks_match_complex_solves(T, fld, component, mass):
    solved = [_complex_solve(B, mass) for B in _square_blocks(fld, component)]
    top = max(np.max(np.abs(F)) for F, _ in solved)
    for Tc, (F, _) in zip(T.blocks, solved):
        assert Tc.dtype == COMPLEX
        assert np.array_equal(Tc, Tc.conj().T)
        assert np.max(np.abs(Tc - F)) <= 1e-13 * top
    assert T.norm == pytest.approx(max(f for _, f in solved), rel=1e-14)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(1, 8), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.sampled_from([0.0, 1.0]), st.sampled_from(["background", "cavity", "total"]))
def test_real_solve_matches_complex_solve_property(half_n, B, R, mass, component):
    fld = make_fields(B, R, SquareGrid(6.0, 2 * half_n))
    _assert_blocks_match_complex_solves(kinetic_matrix(fld, mass, component),
                                        fld, component, mass)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("component", ["background", "total"])
def test_real_solve_with_no_or_one_mirror_pair(monkeypatch, n, component):
    # the mirror S swaps a class's nodes (a, b) and (b, a) and fixes the
    # n/2 diagonal ones: at n = 2 it has no 2-cycle, at n = 4 one
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    solves = _eigh_solves(monkeypatch)
    T = kinetic_matrix(fld, 1.0, component)
    assert solves == [((n * n // 4,) * 2, REAL)]
    _assert_blocks_match_complex_solves(T, fld, component, 1.0)


@pytest.mark.parametrize("component", ["none", "total", "gauge-shifted"])
def test_solved_blocks_keep_the_psd_test_and_the_roundoff_floor(monkeypatch, component):
    # every block shifted down by class 0's lowest eigenvalue: the turn and
    # the mirror still hold, the shifted lowest eigenvalue sits at the
    # roundoff floor, and sqrt of it unfloored would be far off or nan.
    # Shifted further, the block is indefinite
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 16))
    if component == "gauge-shifted":
        fld, component = _gauge_shifted(fld), "background"
    lowest = np.linalg.eigvalsh(_square_blocks(fld, component)[0])[0]

    def shifted(by):
        def square(stencil, k):
            H = _kinetic_square(stencil, k)
            H[np.diag_indices(len(H))] -= by
            return H
        return square

    monkeypatch.setattr("opineq.lattice._kinetic_square", shifted(lowest))
    _cold()
    T = kinetic_matrix(fld, 0.0, component)
    for Tc, H in zip(T.blocks, _square_blocks(fld, component)):
        H[np.diag_indices(len(H))] -= lowest
        assert np.max(np.abs(Tc - _complex_solve(H, 0.0)[0])) <= 1e-13 * np.max(np.abs(Tc))
    monkeypatch.setattr("opineq.lattice._kinetic_square", shifted(lowest + 1e-3))
    _cold()
    with pytest.raises(DomainError, match="PSD"):
        kinetic_matrix(fld, 0.0, component)


def test_stacked_kato_test_matches_single_calls():
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 16))
    T_free = kinetic_matrix(fld, 0.5, "none")
    T_mag = kinetic_matrix(fld, 0.5, "total")
    rng = np.random.default_rng(3)
    eta = np.abs(rng.standard_normal((20, 256)))
    phi = rng.standard_normal((20, 256)) + 1j * rng.standard_normal((20, 256))
    lhs, rhs = kato_test(eta, phi, T_free, T_mag)
    assert lhs.shape == rhs.shape == (20,)
    single = [kato_test(e, p, T_free, T_mag) for e, p in zip(eta, phi)]
    assert all(type(x) is float for pair in single for x in pair)
    np.testing.assert_allclose(lhs, [l for l, _ in single], rtol=1e-13)
    np.testing.assert_allclose(rhs, [r for _, r in single], rtol=1e-13)
    eta[7, 100] = -1e-3
    with pytest.raises(DomainError):
        kato_test(eta, phi, T_free, T_mag)


@pytest.mark.parametrize("nonneg_phi", [False, True])
def test_kato_random_run_matches_per_sample_loop(nonneg_phi):
    # the seeded draws keep their per-sample order: eta, then phi
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 12))
    run = kato_random_run(fld, 1.0, "total", samples=30, seed=11,
                          nonneg_phi=nonneg_phi)
    T_free = kinetic_matrix(fld, 1.0, "none")
    T_mag = kinetic_matrix(fld, 1.0, "total")
    rng = np.random.default_rng(11)
    gaps, tols = [], []
    for _ in range(30):
        eta = np.abs(rng.standard_normal(144))
        if nonneg_phi:
            phi = np.abs(rng.standard_normal(144)).astype(complex)
        else:
            phi = rng.standard_normal(144) + 1j * rng.standard_normal(144)
        lhs, rhs = kato_test(eta, phi, T_free, T_mag)
        gaps.append(lhs - rhs)
        tols.append(1e-10 * fld.grid.h ** 2 * np.linalg.norm(eta)
                    * np.linalg.norm(phi) * T_mag.norm)
    assert run.tol_violation == pytest.approx(min(tols), rel=1e-13)
    assert abs(run.max_violation - max(gaps)) <= 1e-4 * run.tol_violation


@pytest.mark.parametrize("nonneg_phi", [False, True])
def test_kato_random_run_in_slabs_matches_one_stacked_call(nonneg_phi):
    # 200 samples at n = 32 span several slabs; the slabs draw from the same
    # stream, so every field is bitwise that of one stacked kato_test
    n, samples, seed = 32, 200, 23
    N = n * n
    assert lattice._SLAB_ELEMENTS // N < samples // 2
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, n))
    run = kato_random_run(fld, 1.0, "total", samples=samples, seed=seed,
                          nonneg_phi=nonneg_phi)
    T_free = kinetic_matrix(fld, 1.0, "none")
    T_mag = kinetic_matrix(fld, 1.0, "total")
    z = np.random.default_rng(seed).standard_normal((samples, 2 if nonneg_phi else 3, N))
    eta = np.abs(z[:, 0])
    phi = np.abs(z[:, 1]) if nonneg_phi else z[:, 1] + 1j * z[:, 2]
    lhs, rhs = kato_test(eta, phi, T_free, T_mag)
    gaps = lhs - rhs
    tols = (1e-10 * fld.grid.h ** 2 * np.linalg.norm(eta, axis=1)
            * np.linalg.norm(phi, axis=1) * T_mag.norm)
    edges = np.array([-np.inf, -1e3, -1e0, -1e-3, 0.0, 1e-3, 1e0, np.inf])
    want = lattice.KatoRun(
        field_kind="total", mass=1.0, samples=samples, seed=seed,
        max_violation=float(np.max(gaps)), tol_violation=float(np.min(tols)),
        histogram_edges=tuple(edges.tolist()),
        histogram_counts=tuple(int(c) for c in np.histogram(gaps / tols, bins=edges)[0]))
    for f in dataclasses.fields(run):
        assert getattr(run, f.name) == getattr(want, f.name), f.name


def test_cold_kato_run_allocates_no_dense_matrix():
    # a cold run at n = 32 with a field: two kinetic operators, held as
    # blocks, and the samples in slabs, all below one N x N complex array
    n = 32
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, n))
    _cold()
    tracemalloc.start()
    try:
        kato_random_run(fld, 1.0, "total")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n ** 4


def _scatter(T):
    N = T.grid.n ** 2
    M = np.zeros((N, N), dtype=T.blocks[0].dtype)
    for c, B in zip(_parity_classes(T.grid.n), T.blocks):
        M[np.ix_(c, c)] = B
    return M


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.integers(2, 8), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.sampled_from([0.0, 1.0]), st.sampled_from(["none", "background", "total"]),
       st.integers(0, 2 ** 32 - 1))
def test_blockwise_kato_test_matches_dense_property(half_n, B, R, mass, component, seed):
    n = 2 * half_n
    fld = make_fields(B, R, SquareGrid(6.0, n))
    T_free = kinetic_matrix(fld, mass, "none")
    T_mag = kinetic_matrix(fld, mass, component)
    assert all(b.dtype == np.float64 for b in T_free.blocks)
    want = np.float64 if component == "none" else np.complex128
    assert all(b.dtype == want for b in T_mag.blocks)
    for T in (T_free, T_mag):
        assert np.array_equal(T.matrix, _scatter(T))
    rng = np.random.default_rng(seed)
    N = n * n
    eta = np.abs(rng.standard_normal((6, N)))
    phi = rng.standard_normal((6, N)) + 1j * rng.standard_normal((6, N))
    lhs, rhs = kato_test(eta, phi, T_free, T_mag)
    h2 = fld.grid.h ** 2
    sgn = phi / np.abs(phi)
    lhs_ref = h2 * np.sum(eta * (np.abs(phi) @ T_free.matrix.T).real, axis=1)
    rhs_ref = h2 * np.sum(eta * (sgn.conj() * (phi @ T_mag.matrix.T)).real, axis=1)
    scale = (h2 * np.linalg.norm(eta, axis=1) * np.linalg.norm(phi, axis=1)
             * max(T_free.norm, T_mag.norm))
    assert np.all(np.abs(lhs - lhs_ref) <= 1e-13 * scale)
    assert np.all(np.abs(rhs - rhs_ref) <= 1e-13 * scale)


@pytest.mark.parametrize("samples", [0, -3, 2.5, 3.0])
def test_kato_random_run_needs_a_sample(samples):
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 12))
    with pytest.raises(DomainError):
        kato_random_run(fld, 0.0, "none", samples=samples)


@pytest.mark.parametrize("seed", [-1, np.int64(-1), 2.5])
def test_kato_random_run_needs_a_seed(seed):
    # numpy's generator takes only a whole seed >= 0
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 12))
    with pytest.raises(DomainError):
        kato_random_run(fld, 0.0, "none", samples=10, seed=seed)


def test_zero_field_operator_is_shared_per_grid_mass_and_boundary():
    _cold()
    grid = SquareGrid(8.0, 16)
    T = kinetic_matrix(make_fields(1.0, 1.0, grid), 0.5, "none")
    # the field's B and R do not enter A = 0
    assert kinetic_matrix(make_fields(1.7, 0.6, grid), 0.5, "none") is T
    others = [kinetic_matrix(make_fields(1.0, 1.0, grid), 1.0, "none"),
              kinetic_matrix(make_fields(1.0, 1.0, grid), 0.5, "none", "periodic"),
              kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(8.0, 12)), 0.5, "none"),
              kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(9.0, 16)), 0.5, "none")]
    assert all(U is not T for U in others)
    assert len({id(U) for U in others}) == len(others)
    # a field operator is built per call
    fld = make_fields(1.0, 1.0, grid)
    assert kinetic_matrix(fld, 0.5, "total") is not kinetic_matrix(fld, 0.5, "total")


def test_cached_blocks_are_read_only():
    T = kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(8.0, 12)), 0.5, "none")
    for B in T.blocks:
        with pytest.raises(ValueError):
            B[0, 0] = 1.0
        with pytest.raises(ValueError):
            B *= 2.0


@pytest.mark.parametrize("nonneg_phi", [False, True])
@pytest.mark.parametrize("mass", [0.0, 1.0])
@pytest.mark.parametrize("component", ["none", "background", "total"])
def test_warm_kato_run_equals_cold_run(component, mass, nonneg_phi):
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 12))
    _cold()
    assert lattice._zero_field.cache_info().currsize == 0
    cold = kato_random_run(fld, mass, component, samples=40, seed=17,
                           nonneg_phi=nonneg_phi)
    hits = lattice._zero_field.cache_info().hits
    warm = kato_random_run(fld, mass, component, samples=40, seed=17,
                           nonneg_phi=nonneg_phi)
    assert lattice._zero_field.cache_info().hits == hits + 1
    for f in dataclasses.fields(cold):
        assert getattr(warm, f.name) == getattr(cold, f.name), f.name


def test_kato_test_refuses_operators_on_different_grids():
    # the same N nodes at two spacings
    T_free = kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(8.0, 8)), 0.5, "none")
    T_mag = kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(16.0, 8)), 0.5, "total")
    rng = np.random.default_rng(31)
    eta = np.abs(rng.standard_normal(64))
    phi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    with pytest.raises(ConfigurationError):
        kato_test(eta, phi, T_free, T_mag)


@pytest.mark.parametrize("where,value", [("eta", np.nan), ("eta", np.inf),
                                         ("phi", np.nan), ("phi", np.inf),
                                         ("phi", complex(1.0, -np.inf))])
@pytest.mark.parametrize("component", ["none", "total"])
def test_kato_test_refuses_non_finite_input(where, value, component):
    # a typed error, also with every warning an error
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 8))
    T_free = kinetic_matrix(fld, 0.5, "none")
    T_mag = kinetic_matrix(fld, 0.5, component)
    rng = np.random.default_rng(37)
    eta = np.abs(rng.standard_normal((3, 64)))
    phi = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    (eta if where == "eta" else phi)[1, 9] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            kato_test(eta, phi, T_free, T_mag)
        with pytest.raises(DomainError, match="not finite"):
            kato_test(eta[1], phi[1], T_free, T_mag)


def test_kato_test_refuses_complex_eta():
    # a typed error, not a ComplexWarning and a cast to the real part
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 4))
    T = kinetic_matrix(fld, 0.5, "total")
    for eta in (np.ones(16) + 1j, np.ones((2, 16), dtype=complex)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="real"):
                kato_test(eta, np.ones(eta.shape), T, T)


def test_kato_test_refuses_rows_of_another_length():
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 8))
    T = kinetic_matrix(fld, 0.5, "total")
    rng = np.random.default_rng(41)
    eta = np.abs(rng.standard_normal((3, 64)))
    phi = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    # rows one node short, a grid-shaped row, a third axis, unequal row counts
    for e, p in ((eta[:, :-1], phi), (eta, phi[:, :-1]), (eta[0, :-1], phi[0, :-1]),
                 (eta[0].reshape(8, 8), phi[0]), (eta[None], phi[None]),
                 (eta, phi[:2]), (eta[:2], phi[0]), (eta[0], phi)):
        with pytest.raises(DomainError):
            kato_test(e, p, T, T)


def _apply_by_gathers(T, rows):
    """Reference: T applied to the rows as one product per class, each
    class gathered and scattered by its _parity_classes indices."""
    out = np.empty(rows.shape, dtype=np.result_type(rows, *T.blocks))
    for c, B in zip(_parity_classes(T.grid.n), T.blocks):
        x = rows[:, c]
        if np.iscomplexobj(x) and not np.iscomplexobj(B):
            out.real[:, c] = x.real @ B.T
            out.imag[:, c] = x.imag @ B.T
        else:
            out[:, c] = x @ B.T
    return out


@pytest.mark.parametrize("n", range(2, 25, 2))
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_apply_is_the_gathered_product_bitwise(n, boundary):
    # real blocks on both boundaries, complex ones where a field is allowed
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    operators = [kinetic_matrix(fld, 1.0, "none", boundary)]
    if boundary == "open":
        operators.append(kinetic_matrix(fld, 1.0, "total"))
    rng = np.random.default_rng(n)
    real = rng.standard_normal((5, n * n))
    cplx = real + 1j * rng.standard_normal((5, n * n))
    for T in operators:
        for rows in (real, cplx):
            got, want = _apply(T, rows), _apply_by_gathers(T, rows)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_kato_test_sign_is_zero_where_phi_is():
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 12))
    T_free = kinetic_matrix(fld, 0.5, "none")
    T_total = kinetic_matrix(fld, 0.5, "total")
    N, h2 = 144, fld.grid.h ** 2
    rng = np.random.default_rng(29)
    eta = np.abs(rng.standard_normal((3, N)))
    phi = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
    phi[1] = rng.standard_normal(N)              # real, both signs
    phi[2] = np.abs(rng.standard_normal(N))      # real, phi >= 0
    phi[:, [0, 5, 77, 143]] = 0.0
    phi[1, 6] = -0.0                             # a signed zero is a zero
    absphi = np.abs(phi)
    sgn = np.zeros_like(phi)
    nz = absphi > 0
    sgn[nz] = phi[nz] / absphi[nz]
    sgn[~nz] = 0.0
    assert np.array_equal(nz.sum(axis=1), [N - 4, N - 5, N - 4])
    # at a zero of phi, lhs keeps eta_a (T|phi|)_a and rhs drops it, so the
    # real phi >= 0 row is an equality case only where eta vanishes there
    eta[2, ~nz[2]] = 0.0
    for T_mag in (T_free, T_total):
        Y = phi @ T_mag.matrix.T
        lhs, rhs = kato_test(eta, phi, T_free, T_mag)
        lhs_ref = h2 * np.sum(eta * (absphi @ T_free.matrix.T).real, axis=1)
        rhs_ref = h2 * np.sum(eta * (sgn.conj() * Y).real, axis=1)
        scale = (h2 * np.linalg.norm(eta, axis=1) * np.linalg.norm(phi, axis=1)
                 * max(T_free.norm, T_mag.norm))
        assert np.all(np.abs(lhs - lhs_ref) <= 1e-13 * scale)
        assert np.all(np.abs(rhs - rhs_ref) <= 1e-13 * scale)
        # eta on the zeros of phi alone: sgn = 0 there, so rhs is exactly
        # 0 although T phi is not
        assert np.all(np.abs(Y[~nz]) > 0)
        on_zeros = (~nz).astype(float)
        assert np.all(kato_test(on_zeros, phi, T_free, T_mag)[1] == 0.0)
    # A = 0 and real phi >= 0 with zeros: sgn is exactly 1 or 0, and the
    # equality case holds exactly
    lhs, rhs = kato_test(eta, phi, T_free, T_free)
    assert lhs[2] - rhs[2] == 0.0
