import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq.bounds import flux_delta
from opineq.errors import ConfigurationError, DomainError
from opineq.lattice import (LatticeField, SquareGrid, discrete_curl,
                            kato_random_run, kato_test, kinetic_matrix,
                            make_fields, _background, _cavity, _kinetic_square,
                            _parity_classes)


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


def _cross_class(M, n):
    """M with every entry inside a parity class set to 0."""
    out = M.copy()
    for c in _parity_classes(n):
        out[np.ix_(c, c)] = 0.0
    return out


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


def test_discrete_curls():
    grid = SquareGrid(8.0, 32)
    fld = make_fields(1.0, 1.0, grid)
    curl_bg = discrete_curl(fld.A_background, grid.h)
    assert np.max(np.abs(curl_bg - 1.0)) < 1e-12  # exact for linear fields
    X, Y = grid.coordinates()
    curl_tot = discrete_curl(fld.A_background + fld.A_cavity, grid.h)
    rin = np.hypot(X, Y)[1:-1, 1:-1]
    inside = rin < 1.0 - 2.0 * grid.h
    assert np.max(np.abs(curl_tot[inside])) < 1e-2


def test_origin_on_node_rejected():
    with pytest.raises(ConfigurationError):
        make_fields(1.0, 1.0, SquareGrid(8.0, 15))  # odd n puts a node at 0


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
    mass = 100.0 / fld.grid.h
    Tm = kinetic_matrix(fld, mass, component="total")
    T0 = kinetic_matrix(fld, 0.0, component="total")
    ev_sq = np.linalg.eigvalsh(T0.matrix @ T0.matrix)  # (p+A)^2 spectrum
    low_rel = np.linalg.eigvalsh(Tm.matrix)[:5]
    low_nr = (ev_sq / (2.0 * mass))[:5]
    assert np.max(np.abs(low_rel - low_nr) / np.abs(low_nr)) < 0.05


def test_gauge_covariance_exact_for_quadratic_chi():
    grid = SquareGrid(6.0, 10)
    fld = make_fields(1.0, 1.0, grid)
    X, Y = grid.coordinates()
    # grad of chi = 0.3 x + 0.7 y + 0.1 x^2 - 0.25 x y + 0.05 y^2
    grad = np.stack([0.3 + 0.2 * X - 0.25 * Y, 0.7 - 0.25 * X + 0.1 * Y])
    e1 = np.linalg.eigvalsh(kinetic_matrix(fld, 0.0, "background").matrix)
    shifted = dataclasses.replace(fld, A_background=fld.A_background + grad)
    e2 = np.linalg.eigvalsh(kinetic_matrix(shifted, 0.0, "background").matrix)
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


_ASSEMBLY_CASES = [(n, "open", comp) for n in (2, 4, 10, 16)
                   for comp in ("none", "background", "total")]
_ASSEMBLY_CASES += [(n, "periodic", "none") for n in (2, 4, 10, 16)]


@pytest.mark.parametrize("n,boundary,component", _ASSEMBLY_CASES)
def test_direct_assembly_matches_loop(n, boundary, component):
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    ref = _reference_square(fld, component, boundary)
    H = _kinetic_square(fld.component(component), fld.grid, boundary)
    assert np.max(np.abs(H - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("n,boundary,component",
                         [(10, "open", "none"), (10, "open", "background"),
                          (16, "open", "total"), (16, "periodic", "none")])
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_block_structure(n, boundary, component, mass):
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    H = _kinetic_square(fld.component(component), fld.grid, boundary)
    T = kinetic_matrix(fld, mass, component, boundary)
    assert not np.any(_cross_class(H, n))
    assert not np.any(_cross_class(T.matrix, n))
    # the full N x N construction, as one eigensolve of the reference square
    w, V = np.linalg.eigh(_reference_square(fld, component, boundary))
    w = np.where(w < 1e-13 * max(w[-1], 1.0), 0.0, w)
    f = np.sqrt(w + mass * mass) - mass
    ref = (V * f) @ V.conj().T
    assert np.max(np.abs(T.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert T.norm == pytest.approx(f[-1], rel=1e-14)


@pytest.mark.parametrize("n", [10, 16])
@pytest.mark.parametrize("component", ["background", "total"])
def test_heat_kernel_domination(n, component):
    # |exp(-t H_A)| <= exp(-t H_0) entrywise: the reason the discrete
    # diamagnetic inequality holds exactly
    fld = make_fields(1.3, 0.9, SquareGrid(6.0, n))
    H0 = _kinetic_square(fld.component("none"), fld.grid, "open")
    HA = _kinetic_square(fld.component(component), fld.grid, "open")
    for t in (0.05, 0.5, 2.0):
        K0 = scipy.linalg.expm(-t * H0).real
        KA = np.abs(scipy.linalg.expm(-t * HA))
        assert np.all(KA <= K0 + 1e-12 * np.max(K0))


def test_kinetic_matrix_eigensolve_count(monkeypatch):
    sizes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(8.0, 16)), 0.5, "total")
    assert sizes == [(64, 64)] * 4


def test_zero_field_eigensolves_are_real(monkeypatch):
    dtypes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        dtypes.append((np.shape(a), np.asarray(a).dtype))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(8.0, 16)), 0.5, "none")
    assert dtypes == [((64, 64), np.dtype(np.float64))] * 4


def test_kinetic_matrix_rejects_non_hermitian_block(monkeypatch):
    def broken(A, grid, boundary):
        H = _kinetic_square(A, grid, boundary)
        c = _parity_classes(grid.n)[3]
        H[c[0], c[1]] += 1e-3  # one block, one triangle only
        return H

    monkeypatch.setattr("opineq.lattice._kinetic_square", broken)
    with pytest.raises(DomainError, match="hermiticity"):
        kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(8.0, 16)), 0.5, "total")


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


@pytest.mark.parametrize("samples", [0, -3])
def test_kato_random_run_needs_a_sample(samples):
    fld = make_fields(1.0, 1.0, SquareGrid(8.0, 12))
    with pytest.raises(DomainError):
        kato_random_run(fld, 0.0, "none", samples=samples)
