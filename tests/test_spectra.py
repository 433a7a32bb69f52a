import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opineq import anticomm, kernels, lattice
from opineq.anticomm import TrialFunction, momentum_expectation, ridge_moments
from opineq.bounds import CRITICAL_CONSTANT_FOURTH_POWER
from opineq.errors import DomainError, RefinementNeededError
from opineq.kernels import coulomb_channel_kernel
from opineq.quadrature import integrate_adaptive
from opineq.spectra import (ANTICOMM_SPANS, ANTICOMM_STEP, DEFAULT_HYDROGEN_GRID,
                            SCAN_GRID, SCAN_SPANS, GridSpec,
                            _anticomm_column, _lowest_eigenvalue, _momentum_log_grid,
                            _scan_threshold,
                            chandrasekhar_lowest, classify_coupling,
                            critical_coupling_mellin, critical_coupling_toeplitz,
                            hydrogen2d, hydrogen_channels, lambda_min_anticomm,
                            mellin_multiplier)

HERBST_2D = 0.228473290522232  # 2 Gamma(3/4)^2 / Gamma(1/4)^2, sanity anchor only
POOL_GRIDS = ((20.0, 300), (23.0, 400), (26.0, 500))  # perfbench's (span, n) pool


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 64)
    with pytest.raises(DomainError):
        GridSpec(1.0, 0.5, 64)
    with pytest.raises(DomainError):
        GridSpec(0.1, 1.0, 8)
    # bounds one ulp apart, and a ratio past double range
    for r_min, r_max in ((1.0, np.nextafter(1.0, 2.0)), (1e-200, 1e200)):
        with pytest.raises(DomainError):
            GridSpec(r_min, r_max, 64)
    top = GridSpec(1.0, sys.float_info.max, 64).nodes()
    assert np.all(np.diff(top) > 0) and top[-1] == sys.float_info.max
    g = GridSpec(0.1, 10.0, 64)
    nodes = g.nodes()
    assert nodes[0] == pytest.approx(0.1) and nodes[-1] == pytest.approx(10.0)
    assert np.all(np.diff(nodes) > 0)


# any float, inf and nan included, and often a moderate positive one
BOUNDS = st.floats() | st.floats(1e-12, 1e12)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(BOUNDS, BOUNDS)
def test_gridspec_validation_property(r_min, r_max):
    # a non-finite, non-positive or non-increasing bound pair raises; an
    # accepted one gives finite, strictly increasing nodes from r_min to
    # r_max
    if not 0.0 < r_min < r_max < math.inf:
        with pytest.raises(DomainError):
            GridSpec(r_min, r_max, 64)
        return
    try:
        g = GridSpec(r_min, r_max, 64)
    except DomainError:
        # only bounds too close, too far apart or too near the ends of
        # double range for 64 finite, distinct log-spaced nodes
        assert not 1e-150 < r_min * (1.0 + 1e-9) < r_max < 1e150
        return
    nodes = g.nodes()
    assert np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)
    assert nodes[0] == r_min and nodes[-1] == r_max
    assert math.isfinite(g.log_step()) and g.log_step() > 0


def test_momentum_channel_symmetric_psd():
    # 1/|x| is a positive operator with a positive kernel: T_m's column is
    # positive, and T_m positive definite (measured lambda_min 0.0186 at
    # n = 400)
    for m in (0, 1, 2):
        t, q = _momentum_log_grid(m, 400, 20.0)
        assert np.all(t > 0.0)
        assert np.all(np.diff(q) < 0.0) and q[-1] == 1.0
        ev = np.linalg.eigvalsh(sla.toeplitz(t))
        assert ev[0] > 1e-3 * ev[-1]


def test_momentum_log_grid_entries_are_read_only_columns():
    # every cache entry is T_m's column and the nodes, 16n bytes, and
    # every caller gets the same two arrays: an in-place write into either
    # raises.  No n x n array outlives a solve: after the 10 cold keys of
    # the pool grids and the scan, 0.089 MB stays allocated (measured),
    # against 0.61 MB for the smallest matrix solved and 14.4 MB with the
    # 10 dense matrices cached
    _momentum_log_grid.cache_clear()
    grids = [GridSpec(math.exp(-span), 1.0, n) for span, n in POOL_GRIDS]
    tracemalloc.start()
    try:
        for g in grids:
            for m in (0, 1, 2):
                chandrasekhar_lowest(0.3, m, g)
        critical_coupling_toeplitz()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2e5
    keys = [(m, g) for g in grids for m in (0, 1, 2)] + [(0, SCAN_GRID)]
    info = _momentum_log_grid.cache_info()
    assert info.currsize == len(keys)
    for m, g in keys:
        t, q = _momentum_log_grid(m, g.n, math.log(g.r_max / g.r_min))
        assert t.shape == q.shape == (g.n,) and t.nbytes + q.nbytes == 16 * g.n
        for a in (t, q):
            with pytest.raises(ValueError):
                a[0] = 0.0
            with pytest.raises(ValueError):
                a *= 2.0
    assert _momentum_log_grid.cache_info().hits == info.hits + len(keys)


def test_anticomm_matrix_rayleigh_vs_lieb_yau():
    # the restricted anticommutator in dimension d against the double-integral
    # form 2 alpha_d t it discretizes, on s in [-22, 22]; measured within 2.9e-5
    L = 44.0
    n = round(L / ANTICOMM_STEP) + 1
    for d in (1.5, 2.0, 2.5, 3.0):
        H = sla.toeplitz(_anticomm_column(d)[:n])
        s = np.arange(n) * ANTICOMM_STEP - L / 2.0
        for sigma in (0.5, 1.0, 2.0):
            psi = TrialFunction("log_gaussian", sigma)
            v = psi.profile_log(s) * np.exp(0.5 * d * s)
            fv = anticomm.relativistic_form(psi, d)
            assert float(v @ H @ v) / float(v @ v) == pytest.approx(
                2.0 * anticomm.alpha(d) * fv.value / fv.norm_sq, rel=1e-4)


def _channel_0(grid):
    """|p| in 2D channel 0 on a physical grid: _pairwise_log_grid's
    rescaled matrix over r_min, with its nodes r and the weights w of
    v = f(r) sqrt(w)."""
    P = _pairwise_log_grid(grid.n, math.log(grid.r_max / grid.r_min))
    r = grid.nodes()
    return P / grid.r_min, r, grid.log_step() * r * r


def test_momentum_channel_log_agrees():
    psi = TrialFunction("log_gaussian", 1.0)
    P, r, w = _channel_0(GridSpec(1e-4, 1e4, 800))
    v = psi.profile_log(np.log(r)) * np.sqrt(w)
    q_log = float(v @ P @ v) / float(v @ v)
    q_ly = momentum_expectation(psi, 2.0) / psi.norm_sq(2.0)
    assert q_log == pytest.approx(q_ly, rel=1e-3)
    ev = np.linalg.eigvalsh(P)
    assert ev[0] >= -1e-10 * ev[-1]  # PSD by pairwise-square construction


def _pairwise_log_grid(n, L):
    """|p| in 2D channel 0 on the position log grid [1, e^L]: the
    Lieb-Yau form assembled one offset and one central difference at a
    time from the ridge moments, keeping only the pairs inside the grid.
    It acts on v = G e^{s} sqrt(h), the weighted samples of a radial G."""
    h = L / (n - 1)
    s = np.arange(n) * h
    a = np.exp(-s)
    ehalf = np.exp(0.5 * s)
    c0 = 2.0 ** -2.5 / (2.0 * math.pi)
    phi2 = ridge_moments(2.0, h, n)
    P = np.zeros((n, n))
    for k in range(1, n):
        g = 2.0 * c0 * phi2[k] / (k * h) ** 2 * ehalf[:n - k] * ehalf[k:]
        idx = np.arange(n - k)
        P[idx, idx] += g * a[:n - k] ** 2
        P[idx + k, idx + k] += g * a[k:] ** 2
        P[idx, idx + k] -= g * a[:n - k] * a[k:]
        P[idx + k, idx] -= g * a[:n - k] * a[k:]
    for i in range(1, n - 1):
        q = c0 * phi2[0] * np.exp(s[i]) / (2.0 * h * h)
        P[i + 1, i + 1] += q * a[i + 1] ** 2
        P[i - 1, i - 1] += q * a[i - 1] ** 2
        P[i + 1, i - 1] -= q * a[i + 1] * a[i - 1]
        P[i - 1, i + 1] -= q * a[i + 1] * a[i - 1]
    return P


@pytest.mark.parametrize("m", [0, 1])
def test_log_grid_matches_pairwise_form(m):
    # T_m's column against its bands built one at a time, each band of
    # kappa_m(x) = e^{-x/2} k_m(e^{-x}) by its own adaptive quadrature,
    # band 0 as both halves of [-h/2, h/2].  band_moments integrates the
    # first bands to 1e-10; measured up to 1.7e-11 off in band 0, the log
    # singularity's, and 1.3e-14 elsewhere
    n, L = 64, 20.0
    h = L / (n - 1)

    def kappa(x):
        return np.exp(-0.5 * x) * coulomb_channel_kernel(m, np.exp(-x))

    ref = [2.0 * integrate_adaptive(kappa, 0.0, h / 2.0, 1e-13).value]
    ref += [integrate_adaptive(kappa, (k - 0.5) * h, (k + 0.5) * h, 1e-13).value
            for k in range(1, n)]
    q = np.exp(h * np.arange(n - 1, -1, -1))
    t, nodes = _momentum_log_grid(m, n, L)
    assert np.max(np.abs(t / np.array(ref) - 1.0)) <= 1e-10
    assert np.allclose(nodes, q, rtol=1e-15)


def test_anticomm_matrix_matches_padded_pairwise_form():
    # the interior block of the pairwise form on a grid padded by 500 nodes
    # (40 log-units) on each side; measured within 4.5e-15 of max|H|
    n, pad = round(20.0 / ANTICOMM_STEP) + 1, 500
    N = n + 2 * pad
    P = _pairwise_log_grid(N, (N - 1) * ANTICOMM_STEP)[pad:pad + n, pad:pad + n]
    r = np.exp(np.arange(pad, pad + n) * ANTICOMM_STEP)
    ref = (r[:, None] + r[None, :]) * P
    H = sla.toeplitz(_anticomm_column(2.0)[:n])
    assert H.shape == (n, n) and np.array_equal(H, H.T)
    assert np.max(np.abs(H - ref)) <= 2e-14 * np.max(np.abs(ref))


# h = ln 2 / 9, so the dilation psi -> psi(2r) is a shift by 9 nodes
SHIFT_GRID = GridSpec(2.0 ** -20, 2.0 ** 20, 361)


def test_momentum_channel_homogeneity():
    # |p| - nu/|x| has degree -1: dilating the grid by a divides the
    # eigenvalue by a, exactly for a power of 2, which leaves the scaled
    # matrix as it is
    g = SHIFT_GRID
    for nu, m in ((0.1, 0), (0.4, 0), (0.9, 1), (0.9, 2)):
        e = chandrasekhar_lowest(nu, m, g)
        for a in (0.25, 2.0, 1024.0):
            dilated = GridSpec(a * g.r_min, a * g.r_max, g.n)
            assert chandrasekhar_lowest(nu, m, dilated) == e / a


def test_hydrogen_levels_and_degeneracies():
    rep = hydrogen2d(1.0, 2)
    for n, e, g in rep.levels:
        ref = -0.5 / (n + 0.5) ** 2
        assert abs(e - ref) / abs(ref) < 5e-3
        assert g == 2 * n + 1
    assert len(rep.refinement_trace) == 2


def test_hydrogen_z_scaling():
    rep = hydrogen2d(2.0, 0, n_levels=1)
    assert rep.levels[0][1] == pytest.approx(-8.0, rel=5e-3)


def test_hydrogen_refinement_monotone():
    refs = [-0.5 / (k + 0.5) ** 2 for k in range(3)]
    errs = []
    for n in (300, 600, 1200):
        ev = hydrogen_channels(1.0, GridSpec(1e-3, 120.0, n), 0, 3)[0]
        errs.append([abs(e - r) / abs(r) for e, r in zip(ev, refs)])
    for a, b in zip(errs, errs[1:]):
        assert all(y < x for x, y in zip(a, b))


def _dense_hydrogen_channel(Z, m, grid, count):
    """The log-grid finite-difference matrix of hydrogen_channels assembled
    densely and solved with the general symmetric solver."""
    n, h = grid.n, grid.log_step()
    s = np.log(grid.nodes())
    main = np.full(n, 1.0 / (h * h) + 0.5 * m * m) - Z * np.exp(s)
    main[0] -= 0.5 / (h * h)
    main[-1] -= 0.5 / (h * h)
    if m == 0:
        main[0] -= Z * grid.r_min / h
    d = np.exp(-s)
    A = np.diag(main * d * d)
    idx = np.arange(n - 1)
    A[idx, idx + 1] = A[idx + 1, idx] = -0.5 / (h * h) * d[:-1] * d[1:]
    return sla.eigvalsh(A, subset_by_index=[0, count - 1])


@pytest.mark.parametrize("Z", [1.0, 1.7])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_hydrogen_channel_tridiagonal_matches_dense(Z, m):
    g = DEFAULT_HYDROGEN_GRID
    # channel m of hydrogen_channels holds n_levels - m = 3 levels
    ev = hydrogen_channels(Z, g, m, m + 3)[m]
    ref = _dense_hydrogen_channel(Z, m, GridSpec(g.r_min / Z, g.r_max / Z, g.n), 3)
    assert np.all(np.abs(ev - ref) <= 1e-13 * np.abs(ref))


def test_hydrogen_too_coarse_raises_with_trace():
    with pytest.raises(RefinementNeededError) as exc:
        hydrogen2d(1.0, 0, GridSpec(1e-3, 120.0, 40))
    assert len(exc.value.trace) >= 1
    for Z, m_max, levels in ((-1.0, 0, 3), (math.nan, 0, 3), (math.inf, 0, 3),
                             (1.0, -1, 3), (1.0, 0, 0)):
        with pytest.raises(DomainError):
            hydrogen2d(Z, m_max, n_levels=levels)


@pytest.mark.parametrize("Z, m_max, n_levels", [
    (0.0, 0, 3), (-1.0, 0, 3), (math.nan, 0, 3), (math.inf, 0, 3),
    (1.0, 2.5, 3), (1.0, -1, 3), (1.0, 0, 1.5), (1.0, 0, 0),
    (1.0, 0, 901), (1e308, 0, 3)])
def test_hydrogen_channels_rejects_bad_input(Z, m_max, n_levels):
    # the channel solve checks its own inputs, so that Z = 0 raises no
    # ZeroDivisionError, m_max = -1 returns no empty list, more levels than
    # the 900 grid nodes reach no scipy range error, and a Z that scales
    # r_min to 1e-311, where e^{-s} overflows, no scipy non-finite error
    with pytest.raises(DomainError):
        hydrogen_channels(Z, DEFAULT_HYDROGEN_GRID, m_max, n_levels)


def test_hydrogen_check_needs_a_32_node_grid():
    # the half-resolution grid of n < 32 nodes would have fewer than 16; at
    # n = 16 a floor of 16 compared the grid with itself and let level 2
    # through 28% off (-0.1022 against -0.08)
    for n in (16, 31):
        with pytest.raises(DomainError):
            hydrogen2d(1.0, 0, GridSpec(1e-3, 120.0, n))
    with pytest.raises(RefinementNeededError) as exc:
        hydrogen2d(1.0, 0, GridSpec(1e-3, 120.0, 32))
    assert exc.value.trace[0][0] == 16


def test_chandrasekhar_zero_coupling_psd():
    g = GridSpec(1e-6, 1.0, 400)
    e = chandrasekhar_lowest(0.0, 0, g)
    assert e >= -1e-10 / g.r_min
    for nu in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite and >= 0"):
            chandrasekhar_lowest(nu, 0, g)


def test_chandrasekhar_subcritical_stable():
    evs = [chandrasekhar_lowest(0.1, 0, GridSpec(10.0 ** -k, 1.0, 300))
           for k in (6, 8, 10)]
    ratios = [b / a for a, b in zip(evs, evs[1:])]
    assert all(r < 2.0 for r in ratios)


def test_chandrasekhar_supercritical_divergent():
    evs = [chandrasekhar_lowest(0.4, 0, GridSpec(10.0 ** -k, 1.0, 300))
           for k in (6, 8, 10)]
    assert all(e < 0 for e in evs)
    ratios = [b / a for a, b in zip(evs, evs[1:])]
    assert all(r > 2.0 for r in ratios)


def test_chandrasekhar_higher_channel_harder_to_bind():
    # m = 1 stays stable at a coupling that diverges in the s channel
    g = GridSpec(1e-10, 1.0, 400)
    e0 = chandrasekhar_lowest(0.4, 0, g)
    e1 = chandrasekhar_lowest(0.4, 1, g)
    assert e0 < e1
    assert e1 > -1e-3


@pytest.fixture
def solved_orders(monkeypatch):
    """The order of every matrix handed to the dense solver."""
    orders, solve = [], sla.eigvalsh

    def recorder(a, *args, **kwargs):
        orders.append(a.shape[0])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(sla, "eigvalsh", recorder)
    return orders


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_lowest_eigenvalue_rejects_non_finite(bad):
    H = np.eye(4)
    H[3, 3] = bad
    with pytest.raises(DomainError):
        _lowest_eigenvalue(lambda: H)


def test_lowest_eigenvalue_falls_back_to_a_fresh_matrix(solved_orders):
    # a graded graph Laplacian has lowest eigenvalue 0: the single-index
    # solve lands within 64 eps ||H||_F of it, and the full-spectrum solve
    # takes a matrix of its own, since the first solve overwrote H
    n = 40
    r = np.exp(-0.15 * np.arange(n))
    built = []

    def assemble():
        H = -np.einsum("i,j->ij", r, r)
        H[np.diag_indices(n)] = 0.0
        H[np.diag_indices(n)] = -H.sum(axis=1)
        built.append(H)
        return H

    lam = _lowest_eigenvalue(assemble)
    assert len(built) == 2 and solved_orders == [n, n]
    assert not np.array_equal(built[0], assemble())
    assert lam == sla.eigvalsh(assemble())[0]
    assert abs(lam) <= 64.0 * np.finfo(float).eps * np.linalg.norm(assemble())


def test_lowest_eigenvalue_past_the_norm_range():
    # at span 400 the entries of H reach 4.6e173 and ||H||_F overflows: the
    # floor is inf, which takes the whole-spectrum solve, with no warning.
    # chandrasekhar_lowest certifies this stable channel on a trailing block,
    # whose value lies within its slack of that solve
    g = GridSpec(math.exp(-200.0), math.exp(200.0), 400)
    t, q = _momentum_log_grid(0, g.n, 400.0)
    H = np.einsum("i,j->ij", np.sqrt(q), np.sqrt(q))
    H *= sla.toeplitz(t)
    H *= -0.1
    H[np.diag_indices(g.n)] += q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = _lowest_eigenvalue(H.copy)
        block = chandrasekhar_lowest(0.1, 0, g) * g.r_max
    assert lam == sla.eigvalsh(H)[0]
    assert abs(block - lam) <= 2.0 ** -20 * block


def test_deflation_sizes(solved_orders):
    # at nu = 0.3 channels 1 and 2 are certified on their first 128-row
    # trailing block.  Channel 0 binds: its first block is negative at n =
    # 300 and 400; at n = 500 it is positive, fails the certificate, and the
    # 256-row block is negative.  Each binding channel is then solved whole,
    # as are the anticommutator blocks
    for span, n in POOL_GRIDS:
        for m in (0, 1, 2):
            chandrasekhar_lowest(0.3, m, GridSpec(math.exp(-span), 1.0, n))
    assert solved_orders == [128, 300, 128, 128,
                             128, 400, 128, 128,
                             128, 256, 500, 128, 128]
    solved_orders.clear()
    for d in (2, 3):
        lambda_min_anticomm(d)
    assert solved_orders == 2 * [round(L / 0.08) + 1 for L in ANTICOMM_SPANS]


def _channel_matrix(nu, m, span, n):
    """H(nu) as chandrasekhar_lowest assembled it whole before it solved
    trailing blocks, bitwise."""
    t, q = _momentum_log_grid(m, n, span)
    H = np.einsum("i,j->ij", np.sqrt(q), np.sqrt(q))
    H *= sla.toeplitz(t)
    H *= -nu
    H[np.diag_indices(n)] += q
    return H


def _trail_bracket(theta, H, k):
    """Whether the full-spectrum lambda_min(H) lies in the bracket a
    certified trailing-block value theta carries: at most the slack 2^-20
    below it, and above it by no more than the block solve's bisection
    width, taken as 4 eps ||H_k||_F."""
    full = sla.eigvalsh(H)[0]
    width = 4.0 * np.finfo(float).eps * np.linalg.norm(H[-k:, -k:])
    return theta - 2.0 ** -20 * theta <= full <= theta + width


def test_stable_channels_certified_on_the_first_block(solved_orders):
    # perfbench's draw ranges: m = 1 over [0.3, 0.5], m = 2 over [0.3, 0.9]
    for span, n in POOL_GRIDS:
        g = GridSpec(math.exp(-span), 1.0, n)
        for m, hi in ((1, 0.5), (2, 0.9)):
            for nu in np.linspace(0.3, hi, 5):
                solved_orders.clear()
                lam = chandrasekhar_lowest(nu, m, g)
                assert solved_orders == [128]
                assert _trail_bracket(lam, _channel_matrix(nu, m, span, n), 128)


def test_binding_channel_zero_solved_whole_bitwise():
    # a negative trailing block leaves the whole solve as it was
    for span, n in POOL_GRIDS:
        g = GridSpec(math.exp(-span), 1.0, n)
        for nu in np.linspace(0.3, 0.9, 4):
            want = _lowest_eigenvalue(lambda: _channel_matrix(nu, 0, span, n))
            assert chandrasekhar_lowest(nu, 0, g) == want / g.r_max < 0.0


def test_failed_certificate_takes_the_next_block(solved_orders):
    # channel 0 at nu = 0.1 is stable, but its ground state reaches past
    # 128 rows of the n = 500 grid: the 256-row block is certified
    g = GridSpec(math.exp(-26.0), 1.0, 500)
    lam = chandrasekhar_lowest(0.1, 0, g)
    assert solved_orders == [128, 256]
    assert _trail_bracket(lam, _channel_matrix(0.1, 0, 26.0, 500), 256)


def test_chandrasekhar_non_finite_matrix_raises_domain_error():
    # entries of H past double range raise, whether the trailing block is
    # finite (nu = 1e300) or the top node e^L rounds past it (n = 133)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for nu, g in ((1e300, GridSpec(math.exp(-26.0), 1.0, 500)),
                      (0.1, GridSpec(1.0, sys.float_info.max, 133))):
            with pytest.raises(DomainError, match="not finite"):
                chandrasekhar_lowest(nu, 1, g)


def test_lowest_eigenvalue_within_its_bisection_width():
    # a single-index solve of the whole H stops at an absolute width of
    # about eps ||H||: a binding channel 0 here differs from a full-spectrum
    # solve of the same H(nu) by up to 4.1 eps ||H||_F on 2 BLAS threads
    # (1.9 on one).  The stable channels' certified blocks are at most 0.51
    # eps ||H||_F, 6.8e-7 relative, off it (channel 0 at nu = 0.05, n = 500;
    # measured)
    eps = np.finfo(float).eps
    for span, n in POOL_GRIDS:
        g = GridSpec(math.exp(-span), 1.0, n)
        for m in (0, 1, 2):
            t, q = _momentum_log_grid(m, n, span)
            for nu in np.linspace(0.05, 0.95, 4):
                H = np.outer(np.sqrt(q), np.sqrt(q)) * sla.toeplitz(t) * -nu + np.diag(q)
                full = sla.eigvalsh(H)[0]
                lam = chandrasekhar_lowest(nu, m, g)
                assert abs(lam - full) <= 16.0 * eps * np.linalg.norm(H)


def test_scan_threshold_solves_t0_in_place():
    # T_0 is symmetric, so its transpose is the Fortran-order array LAPACK
    # takes and the solve overwrites it: a cold solve on SCAN_GRID peaks at
    # 1.13 T_0.nbytes (measured), where a copy in Fortran order took 2.07
    _momentum_log_grid.cache_clear()
    tracemalloc.start()
    try:
        _scan_threshold(44.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * SCAN_GRID.n ** 2


def test_lowest_eigenvalue_solves_h_in_place():
    # H(nu) is bitwise symmetric, so its transpose is the Fortran-order
    # array LAPACK takes: a warm solve at n = 500 peaks at 1.13 H.nbytes
    # (measured), where a copy in Fortran order took 2.08
    g = GridSpec(math.exp(-26.0), 1.0, 500)
    chandrasekhar_lowest(0.3, 0, g)
    tracemalloc.start()
    try:
        chandrasekhar_lowest(0.3, 0, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * g.n ** 2


def test_classify_endpoints():
    cls_lo, _ = classify_coupling(0.05)
    cls_hi, _ = classify_coupling(0.6)
    assert cls_lo == "stable" and cls_hi == "divergent"


def _scan_matrix(nu):
    """H(nu) = D^{1/2} (I - nu T_0) D^{1/2}, D = diag(q), the scaled
    channel-0 matrix on SCAN_GRID."""
    g = SCAN_GRID
    t, q = _momentum_log_grid(0, g.n, math.log(g.r_max / g.r_min))
    r = np.sqrt(q)
    return np.diag(q) - nu * sla.toeplitz(t) * np.outer(r, r)


def test_scan_threshold_is_the_largest_eigenvalue_of_t0():
    # the threshold solves -T_0 for its lowest eigenvalue; that is exactly
    # the solve of T_0 for its largest.  Span 22 solves the leading block of
    # SCAN_GRID's column, which is bitwise the column of the span-22 grid
    for L, g in zip(SCAN_SPANS, (SCAN_GRID, GridSpec(math.exp(-22.0), 1.0, 276))):
        t, _ = _momentum_log_grid(0, g.n, math.log(g.r_max / g.r_min))
        top = sla.eigvalsh(sla.toeplitz(t), subset_by_index=[g.n - 1, g.n - 1])[0]
        assert _scan_threshold(L) == 1.0 / top


def test_scan_threshold_against_cholesky():
    # H(nu) is positive definite below the threshold and indefinite above
    # it, checked by a factorization that solves no eigenproblem
    nu_c = _scan_threshold(44.0)
    assert nu_c == pytest.approx(0.2320495, abs=1e-7)
    sla.cholesky(_scan_matrix(nu_c * (1.0 - 1e-3)))
    with pytest.raises(sla.LinAlgError):
        sla.cholesky(_scan_matrix(nu_c * (1.0 + 1e-3)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(0.05, 0.6))
def test_classify_matches_eigenvalue_test_property(nu):
    # Sylvester: H(nu) = D^{1/2} (I - nu T_0) D^{1/2}, so away from the
    # threshold the side is the sign of the lowest eigenvalue that
    # chandrasekhar_lowest computes, with no noise floor
    assume(abs(nu / _scan_threshold(44.0) - 1.0) >= 1e-3)
    divergent = chandrasekhar_lowest(nu, 0, SCAN_GRID) < 0.0
    side, margin = classify_coupling(nu)
    assert side == ("divergent" if divergent else "stable")
    assert (margin < 0.0) == divergent


def test_scan_solves_once(solved_orders):
    # one solve of T_0 per scan span and cold start, from one channel-0
    # column; every later classification compares with the cached threshold
    _momentum_log_grid.cache_clear()
    first = critical_coupling_toeplitz()
    assert solved_orders == [round(L / 0.08) + 1 for L in SCAN_SPANS] == [551, 276]
    assert _momentum_log_grid.cache_info().currsize == 1
    solved_orders.clear()
    assert critical_coupling_toeplitz() == first
    for nu in (0.05, 0.2, 0.3, 0.6):
        classify_coupling(nu)
    assert solved_orders == []


@pytest.mark.parametrize("nu", [-1.0, math.nan, math.inf, -math.inf])
def test_classify_coupling_rejects_bad_coupling(nu):
    with pytest.raises(DomainError):
        classify_coupling(nu)


def test_mellin_multiplier_properties():
    m0 = mellin_multiplier(0, 0.0)
    assert m0 == pytest.approx(1.0 / HERBST_2D, rel=1e-6)
    # even in s, maximized at s = 0
    for s in (0.3, 0.7):
        plus, minus = mellin_multiplier(0, s), mellin_multiplier(0, -s)
        assert plus == pytest.approx(minus, rel=1e-9)
        assert plus < m0
    m1, m2 = mellin_multiplier(1, 0.0), mellin_multiplier(2, 0.0)
    assert m0 > m1 > m2 > 0


def test_coulomb_channel_kernel_symmetry():
    # k_m(1/t) = t k_m(t); t = 1e3 sets the t > 1 form against the t < 1 one
    t = np.array([0.2, 0.5, 0.8, 1e3])
    for m in (0, 1, 3):
        a = coulomb_channel_kernel(m, t)
        b = coulomb_channel_kernel(m, 1.0 / t)
        assert np.allclose(b, t * a, rtol=1e-9)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_coulomb_channel_kernel_at_huge_t(m):
    # u - 1 ~ t / 2 would overflow as (1 - t)^2 / 2t from t ~ 1.3e154 on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = coulomb_channel_kernel(m, [1e154, 1e200, 1e308])
    assert np.all(np.isfinite(k)) and np.all(k >= 0.0)
    if m == 0:
        np.testing.assert_allclose(k, [1e-154, 1e-200, 1e-308], rtol=1e-13)


@pytest.mark.parametrize("t", [np.nan, np.inf, 0.0, -0.5])
def test_coulomb_channel_kernel_needs_finite_positive_t(t):
    # nan would pass through the kernel as nan, and inf gives inf / inf
    with pytest.raises(DomainError):
        coulomb_channel_kernel(1, [0.5, t])


# t over [1e-12, 1e12], both sides of the series / elliptic switch at 0.9
# and 1/0.9, and points within 1e-15 of the log singularity at t = 1
# (t = 1 itself is in the grid, where both sides are +inf)
KERNEL_TS = np.unique(np.concatenate([
    np.logspace(-12.0, 12.0, 97), np.linspace(0.5, 2.0, 61),
    [0.9, np.nextafter(0.9, 0.0), 1.0 / 0.9, np.nextafter(1.0 / 0.9, 2.0)],
    [1.0 + sign * d for d in (1e-15, 3e-15, 1e-12, 1e-8, 1e-4) for sign in (-1, 1)],
]))


def _channel_kernel_series(m, t):
    """((1/2)_m / m!) r^m 2F1(1/2, m + 1/2; m + 1; r^2), r = min(t, 1/t), over t past 1."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        r = min(t, 1 / t)
        v = (mpmath.rf(0.5, m) / mpmath.factorial(m) * r ** m
             * mpmath.hyp2f1(0.5, m + 0.5, m + 1, r * r))
        return float(v / t if t > 1 else v)


@pytest.mark.parametrize("m", range(7))
def test_coulomb_channel_kernel_matches_gauss_series(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = coulomb_channel_kernel(m, KERNEL_TS)
    ref = np.array([_channel_kernel_series(m, t) for t in KERNEL_TS])
    live = ref > 0.0  # t^m underflows for m >= 3 at the far ends
    np.testing.assert_allclose(k[live], ref[live], rtol=1e-14, atol=0.0)
    assert np.all(k[~live] == 0.0)


def test_coulomb_channel_kernel_is_infinite_at_one():
    # the log singularity, in every channel, without a divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in range(7):
            k = coulomb_channel_kernel(m, [0.5, 1.0, 2.0])
            assert k[1] == np.inf and np.all(np.isfinite(k[[0, 2]]))


@pytest.mark.parametrize("m", [0.5, -1.5, np.nan, np.inf])
def test_coulomb_channel_kernel_needs_integer_channel(m):
    with pytest.raises(DomainError):
        coulomb_channel_kernel(m, [0.3])


def _mellin_gamma_ratio(m, s):
    """M_m(s) = |G((m + 1/2 + is)/2)|^2 / (2 |G((m + 3/2 + is)/2)|^2)."""
    with mpmath.workdps(30):
        z = mpmath.mpc(m, s)
        return float(abs(mpmath.gamma((z + 0.5) / 2)) ** 2
                     / (2 * abs(mpmath.gamma((z + 1.5) / 2)) ** 2))


@pytest.mark.parametrize("m", range(7))
def test_mellin_multiplier_matches_gamma_ratio(m):
    # measured within 1.4e-9; on the computed values M_m is largest at s = 0
    # and M_m(0) decreases in m, the two facts critical_coupling_mellin rests on
    grid = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 7.0)
    vals = [mellin_multiplier(m, s) for s in grid]
    for s, v in zip(grid, vals):
        assert v == pytest.approx(_mellin_gamma_ratio(m, s), rel=1e-8)
    assert all(vals[0] > v for v in vals[1:])
    if m < 6:
        assert vals[0] > mellin_multiplier(m + 1, 0.0)


def test_projected_constant_from_channel_multipliers():
    # 2 / (M_0(0) + M_1(0)) is the fourth-power variant of the printed constant
    pair = 2.0 / (mellin_multiplier(0, 0.0) + mellin_multiplier(1, 0.0))
    assert pair == pytest.approx(CRITICAL_CONSTANT_FOURTH_POWER, rel=1e-9)


def test_mellin_uncertainty_covers_herbst_constant():
    # nu_c = 1 / M_0(0) = 2 Gamma(3/4)^2 / Gamma(1/4)^2 (Herbst); measured
    # error 2.7e-11 against an uncertainty of 1.5e-10
    with mpmath.workdps(30):
        exact = float(2 * mpmath.gamma(0.75) ** 2 / mpmath.gamma(0.25) ** 2)
    mel = critical_coupling_mellin()
    assert mel.trace == (mellin_multiplier(0, 0.0),)
    assert mel.nu_c == 1.0 / mel.trace[0]
    assert abs(mel.nu_c - exact) <= mel.uncertainty < 1e-8


def test_critical_coupling_cross_validation():
    mel = critical_coupling_mellin()
    top = critical_coupling_toeplitz()
    assert [L for L, _ in top.trace] == [44.0, 22.0]
    assert top.nu_c == top.trace[0][1] == pytest.approx(0.2320494590, rel=1e-9)
    assert top.uncertainty == top.trace[1][1] - top.nu_c
    # from above, and within its uncertainty of 1/M_0(0): measured gap
    # 0.00358 against an uncertainty of 0.0086
    assert 0.0 < top.nu_c - mel.nu_c <= top.uncertainty
    assert top.nu_c - mel.nu_c == pytest.approx(0.00358, abs=1e-5)
    # classification examples relative to the threshold
    assert classify_coupling(top.nu_c / 2.0)[0] == "stable"
    assert classify_coupling(2.0 * top.nu_c)[0] == "divergent"


def _gamma_symbol(m):
    """M_m(0) = Gamma(a)^2 / (2 Gamma(a + 1/2)^2), a = (2m + 1)/4."""
    with mpmath.workdps(30):
        a = mpmath.mpf(2 * m + 1) / 4
        return float(mpmath.gamma(a) ** 2 / (2 * mpmath.gamma(a + 0.5) ** 2))


def _nu_c(m, L, h=0.1):
    """1 / lambda_max(T_m) on a span L with step h."""
    n = round(L / h) + 1
    T = sla.toeplitz(_momentum_log_grid(m, n, L)[0])
    return 1.0 / float(sla.eigvalsh(T, subset_by_index=[n - 1, n - 1])[0])


@pytest.mark.parametrize("m", [0, 1, 2])
def test_channel_band_total_matches_closed_form(m):
    # t_0 + 2 sum_{k>=1} t_k = int kappa_m = M_m(0); the bands past a span
    # of 60 add below 1e-12 (measured within 3.3e-12 relative)
    t, _ = _momentum_log_grid(m, 601, 60.0)
    assert t[0] + 2.0 * np.sum(t[1:]) == pytest.approx(_gamma_symbol(m), rel=1e-10)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_toeplitz_threshold_approaches_from_above(m):
    # the symbol bounds lambda_max(T_m) < M_m(0), so nu_c(m, L) lies above
    # 1/M_m(0) and falls towards it as the span grows; the paper's 1%
    # holds in channels 1 and 2 from L = 20 (channel 0: L = 80, in
    # tests/test_acceptance.py)
    exact = 1.0 / _gamma_symbol(m)
    vals = [_nu_c(m, L) for L in (20.0, 40.0, 80.0)]
    assert all(exact < b < a for a, b in zip(vals, vals[1:]))
    if m:
        assert vals[0] <= 1.01 * exact
    # ROADMAP item 1's route A table, h = 0.1
    table = {0: (0.2427539, 0.2296419), 1: (1.1021557, 1.0947685),
             2: (2.0613299, 2.0565971)}
    assert (vals[0], vals[2]) == pytest.approx(table[m], abs=5e-8)


@pytest.mark.parametrize("span,n", [(20.0, 300), (23.0, 400), (26.0, 500)])
def test_channel_one_stays_stable_on_pool_grids(span, n):
    # channel 1 is subcritical below 1/M_1(0) = 1.094; the position-space
    # assembly bound it from nu = 0.55 (-0.57 at 0.9); measured +0.650 to
    # +0.655 at nu = 0.9, while channel 0 binds
    g = GridSpec(math.exp(-span), 1.0, n)
    for nu in (0.3, 0.6, 0.9):
        assert chandrasekhar_lowest(nu, 1, g) >= 0.0
        assert chandrasekhar_lowest(nu, 0, g) < 0.0
    assert chandrasekhar_lowest(0.9, 1, g) == pytest.approx(0.65, abs=0.01)


@pytest.mark.parametrize("call", [
    lambda: hydrogen2d(1.0, 1.5),
    lambda: hydrogen2d(1.0, 1, n_levels=2.5),
    lambda: GridSpec(1e-3, 1.0, 16.5),
    lambda: GridSpec(1e-3, 1.0, 16.0),
    lambda: GridSpec(1e-3, 1.0, "16"),
], ids=["hydrogen-m_max", "hydrogen-n_levels", "gridspec-n=16.5", "gridspec-n=16.0",
        "gridspec-n=str"])
def test_non_integer_counts_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def _kappa(d):
    """Half the curvature at s = 0 of the channel-0 symbol 2 Re c_0(s) of
    |x||p| + |p||x|, whose minimum d - 2 sits at s = 0; Gamma((d-beta-1)/2)
    has its pole at d = 2, s = 0, hence rgamma."""
    d = mpmath.mpf(d)

    def symbol(s):
        b = d / 2 - 1j * s
        return 4 * mpmath.re(mpmath.gamma((d - b) / 2) * mpmath.gamma((b + 1) / 2)
                             * mpmath.rgamma(b / 2) * mpmath.rgamma((d - b - 1) / 2))

    assert abs(symbol(0) - (d - 2)) < 1e-14
    return float(mpmath.diff(symbol, 0, 2) / 2)


def test_lambda_min_anticommutator():
    # on a log-interval of width L the lowest mode sits near s = pi/L, so
    # lambda(L) - (d - 2) ~ kappa_d pi^2 / L^2; measured ratios to that
    # are 0.86-0.96 (d = 2) and 0.92-1.03 (d = 3)
    assert _kappa(2) == pytest.approx(4.0 * math.log(2.0), rel=1e-12)
    for d in (2, 3):
        lam, trace = lambda_min_anticomm(d)
        assert [L for L, _ in trace] == list(ANTICOMM_SPANS)
        assert lam == trace[-1][1]
        vals = [v for _, v in trace]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        for L, v in trace:
            assert 0.0 < v - (d - 2) <= 1.1 * _kappa(d) * math.pi ** 2 / L ** 2
    with pytest.raises(DomainError):
        lambda_min_anticomm(1)


def test_lambda_min_anticomm_repeat_makes_no_kernel_call(monkeypatch):
    # the second call finds every ridge band in anticomm's ridge-moment cache
    first = lambda_min_anticomm(3)

    def fail(*args, **kwargs):
        raise AssertionError("unexpected kernel call")

    monkeypatch.setattr(kernels, "polar_batch", fail)
    assert lambda_min_anticomm(3) == first


def test_grid_cache_clear_clears_ridge_blocks():
    # the cold-start hook clears the channel columns, the scan thresholds,
    # the ridge-moment cache, the kernel's closed-form scalars and the Kato
    # lattice's zero-field operators; from a cold start every one refills
    _momentum_log_grid.cache_clear()
    critical_coupling_toeplitz()
    lambda_min_anticomm(3)
    lattice.kinetic_matrix(lattice.make_fields(1.0, 1.0, lattice.SquareGrid(12.0, 16)),
                           0.0, "none")
    caches = (_momentum_log_grid, _scan_threshold, anticomm._ridge_cache,
              kernels._closed_form, lattice._zero_field)
    assert all(c.cache_info().currsize > 0 for c in caches)
    _momentum_log_grid.cache_clear()
    assert all(c.cache_info().currsize == 0 for c in caches)


def test_lambda_min_anticomm_large_dimension():
    # at d = 12 the degree weights underflow to 0 where their exponential
    # factor overflows; the excess over d - 2 stays near 0.077 as L grows,
    # a step-size error, so the kappa_d pi^2 / L^2 gate does not apply
    lam, trace = lambda_min_anticomm(12)
    vals = [v for _, v in trace]
    assert np.all(np.isfinite(vals))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert lam > 10.0


def test_anticommutator_scale_invariance():
    # <psi,(XP+PX)psi>/||psi||^2 is dimensionless, so psi -> psi(2r) leaves
    # it unchanged up to the own-grid form's missing exterior (measured 1.8e-6)
    psi = TrialFunction("log_gaussian", 0.8)
    P, r, w = _channel_0(SHIFT_GRID)
    H = (r[:, None] + r[None, :]) * P
    qs = []
    for p in (psi, psi.scaled(2.0)):
        v = p.profile_log(np.log(r)) * np.sqrt(w)
        qs.append(float(v @ H @ v) / float(v @ v))
    assert qs[1] == pytest.approx(qs[0], rel=1e-5)
