import numpy as np
import pytest

from opineq.bounds import flux_delta
from opineq.errors import ConfigurationError, DomainError
from opineq.lattice import (LatticeField, SquareGrid, discrete_curl,
                            field_bound_check, kato_random_run, kato_test,
                            kinetic_matrix, make_fields, _background, _cavity)


def test_background_formula():
    ax, ay = _background(2.0, np.array([1.0]), np.array([0.0]))
    assert ax[0] == 0.0 and ay[0] == 1.0  # (B/2)(-y, x) at (1, 0)


def test_cavity_continuity_at_rim():
    B, R = 1.3, 2.0
    for r in (R * (1 - 1e-9), R * (1 + 1e-9)):
        ax, ay = _cavity(B, R, np.array([r]), np.array([0.0]))
        assert np.hypot(ax, ay)[0] == pytest.approx(B * R / 2.0, rel=1e-8)


def test_field_bound_check():
    grid = SquareGrid(12.0, 32)
    fld = make_fields(1.0, 1.0, grid)
    X, Y = grid.coordinates()
    r = np.hypot(X, Y)
    ratio = np.hypot(fld.A_cavity[0], fld.A_cavity[1]) * r / flux_delta(1.0, 1.0)
    # tail branch is exactly delta/|x|; interior scales like (|x|/R)^2
    assert np.max(np.abs(ratio[r >= 2.0] - 1.0)) < 1e-12
    inner = np.argmin(np.abs(r - 0.5))
    assert ratio.ravel()[inner] == pytest.approx((r.ravel()[inner]) ** 2, rel=1e-12)
    assert field_bound_check(fld) <= 1.0 + 1e-12
    assert field_bound_check(fld) == pytest.approx(1.0, abs=1e-12)


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
    e2 = np.linalg.eigvalsh(
        kinetic_matrix(fld, 0.0, "background", extra_potential=grad).matrix)
    assert np.max(np.abs(e1 - e2)) < 1e-8


def test_kinetic_matrix_psd_and_budget():
    fld = make_fields(1.0, 1.0, SquareGrid(6.0, 10))
    for comp in ("none", "background", "total"):
        for mass in (0.0, 1.0):
            T = kinetic_matrix(fld, mass, comp)
            ev = np.linalg.eigvalsh(T.matrix)
            assert ev[0] >= -1e-12 * max(1.0, ev[-1])
    with pytest.raises(DomainError):
        kinetic_matrix(fld, -1.0)
    with pytest.raises(DomainError):
        kinetic_matrix(make_fields(1.0, 1.0, SquareGrid(10.0, 50)), 0.0)
    with pytest.raises(ConfigurationError):
        kinetic_matrix(fld, 0.0, component="background", boundary="periodic")


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
