import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import anticomm, kernels
from opineq.anticomm import (TrialFunction, channel_moments,
                             momentum_expectation, ridge_moments)
from opineq.bounds import critical_constant_printed
from opineq.errors import AccuracyError, DomainError, RefinementNeededError
from opineq.spectra import (ANTICOMM_SPANS, DEFAULT_HYDROGEN_GRID,
                            SCAN_GRID, GridSpec,
                            _hydrogen_channel, _lowest_eigenvalue,
                            _momentum_log_grid,
                            chandrasekhar_lowest, classify_coupling,
                            coulomb_channel_kernel, critical_coupling_bisect,
                            critical_coupling_mellin, hydrogen2d,
                            lambda_min_anticomm, mellin_multiplier)

HERBST_2D = 0.228473290522232  # 2 Gamma(3/4)^2 / Gamma(1/4)^2, sanity anchor only


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
    for m, d in ((0, 1.5), (0, 3.0), (1, 2.0), (2, 2.0)):
        P, _ = _momentum_log_grid(m, 400, 20.0, d)
        assert np.array_equal(P, P.T)
        ev = np.linalg.eigvalsh(P)
        assert ev[0] >= -1e-10 * ev[-1]


def test_momentum_channel_rayleigh_vs_lieb_yau():
    # the log-grid matrix in dimension d against the double-integral form
    # it discretizes; measured within 5e-5 on s in [-20, 20]
    psi = TrialFunction("log_gaussian", 1.0)
    for d in (1.5, 3.0):
        P, nodes = _momentum_log_grid(0, 1000, 40.0, d)
        s = np.log(nodes) - 20.0
        v = psi.profile_log(s) * np.exp(0.5 * d * s)
        q_log = float(v @ P @ v) / float(v @ v) * math.exp(20.0)
        q_ly = momentum_expectation(psi, d) / psi.norm_sq(d)
        assert q_log == pytest.approx(q_ly, rel=2e-4)


def _channel_0(grid):
    """|p| in 2D channel 0 on a physical grid: the rescaled matrix over
    r_min, with its nodes r and the weights w of v = f(r) sqrt(w)."""
    L = math.log(grid.r_max / grid.r_min)
    P, nodes = _momentum_log_grid(0, grid.n, L)
    r = nodes * grid.r_min
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


def _pairwise_log_grid(m, n, L):
    """Reference assembly of the log-grid form one offset and one central
    difference at a time, from the same band moments."""
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
    if m != 0:
        d0 = 2.0 * c0 * channel_moments(m, h, n)
        for k in range(1, n):
            g = d0[k] * ehalf[:n - k] * ehalf[k:] * a[:n - k] * a[k:]
            idx = np.arange(n - k)
            P[idx, idx + k] += g
            P[idx + k, idx] += g
        P[np.arange(n), np.arange(n)] += d0[0] * a
    return P


@pytest.mark.parametrize("m", [0, 1])
def test_log_grid_matches_pairwise_form(m):
    P, nodes = _momentum_log_grid(m, 64, 20.0)
    ref = _pairwise_log_grid(m, 64, 20.0)
    assert np.array_equal(P, P.T)
    assert np.max(np.abs(P - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.allclose(nodes, np.exp(np.arange(64) * 20.0 / 63))


def test_channel_moment_kernel_miss_raises_accuracy_error(monkeypatch):
    # an element of (A_0 - A_m) whose error bound exceeds KTOL of its value
    # is reported with the moments of the whole block, not dropped.  An
    # inflated allowance stands in for the miss, so the reported moments
    # are the true ones
    h, n = 0.08, 40
    anticomm._moment_block.cache_clear()
    monkeypatch.setattr(kernels, "CHANNEL_ULPS", 1e6)
    with pytest.raises(AccuracyError) as info:
        channel_moments(1, h, n)
    best = info.value.best
    assert best.shape == (anticomm._RIDGE_BANDS + anticomm._RIDGE_BLOCK,)
    assert np.all(np.isfinite(best))
    assert anticomm._moment_block.cache_info().currsize == 0
    monkeypatch.undo()
    assert np.array_equal(channel_moments(1, h, n), best[:n])
    anticomm._moment_block.cache_clear()


def test_channel_moments_past_double_range_are_finite():
    # the kernel falls like e^(-3x/2) and underflows past x of about 497
    # (band 994 at h = 0.5); from x of about 710 u - 1 overflows to inf,
    # where the kernel is an exact 0, and the suite turns an overflow
    # warning into an error
    phi0 = channel_moments(1, 0.5, 1500)
    assert np.all(np.isfinite(phi0)) and np.all(phi0 >= 0.0)
    assert np.all(phi0[:990] > 0.0) and np.all(phi0[1000:] == 0.0)
    k = np.arange(900, 960)
    assert np.allclose(phi0[k + 1] / phi0[k], math.exp(-0.75), rtol=1e-9)


# h = ln 2 / 9, so the dilation psi -> psi(2r) is a shift by 9 nodes
SHIFT_GRID = GridSpec(2.0 ** -20, 2.0 ** 20, 361)


def test_momentum_channel_homogeneity():
    # |p| has degree -1: the quotient doubles under psi -> psi(2r), up to
    # the own-grid form's missing exterior pairs (measured 8.7e-7)
    psi = TrialFunction("log_gaussian", 0.7)
    P, r, w = _channel_0(SHIFT_GRID)
    q1, q2 = ((v @ P @ v) / (v @ v)
              for v in (p.profile_log(np.log(r)) * np.sqrt(w)
                        for p in (psi, psi.scaled(2.0))))
    assert q2 == pytest.approx(2.0 * q1, rel=1e-5)


def test_momentum_channel_rejections():
    with pytest.raises(DomainError):
        _momentum_log_grid(1, 64, 20.0, 3.0)


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
        rep = hydrogen2d(1.0, 0, GridSpec(1e-3, 120.0, n), check=False)
        errs.append([abs(e - r) / abs(r) for (_, e, _), r in zip(rep.levels, refs)])
    for a, b in zip(errs, errs[1:]):
        assert all(y < x for x, y in zip(a, b))


def _dense_hydrogen_channel(Z, m, grid, count):
    """The log-grid finite-difference matrix of _hydrogen_channel assembled
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
    grid = DEFAULT_HYDROGEN_GRID.scaled(1.0 / Z)
    ev = _hydrogen_channel(Z, m, grid, 3)
    ref = _dense_hydrogen_channel(Z, m, grid, 3)
    assert np.all(np.abs(ev - ref) <= 1e-13 * np.abs(ref))


def test_hydrogen_too_coarse_raises_with_trace():
    with pytest.raises(RefinementNeededError) as exc:
        hydrogen2d(1.0, 0, GridSpec(1e-3, 120.0, 40))
    assert len(exc.value.trace) >= 1
    for Z, m_max, levels in ((-1.0, 0, 3), (math.nan, 0, 3), (math.inf, 0, 3),
                             (1.0, -1, 3), (1.0, 0, 0)):
        with pytest.raises(DomainError):
            hydrogen2d(Z, m_max, n_levels=levels)


def test_chandrasekhar_zero_coupling_psd():
    g = GridSpec(1e-6, 1.0, 400)
    e = chandrasekhar_lowest(0.0, 0, g)
    assert e >= -1e-10 / g.r_min
    with pytest.raises(DomainError):
        chandrasekhar_lowest(-0.1, 0, g)


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


@pytest.mark.parametrize("nu", [0.05, 0.2, 0.3, 0.6])
def test_deflated_lowest_eigenvalue_within_bound(nu):
    # Weyl: lambda_1(H) >= min(lambda_1(H11), 0) - sqrt(2) eps ||H||_F;
    # interlacing: lambda_1(H) <= lambda_1(H11); plus eps ||H||_2 for each
    # of the two backward-stable solves
    eps = np.finfo(float).eps
    g = SCAN_GRID
    P, nodes = _momentum_log_grid(0, g.n, math.log(g.r_max / g.r_min))
    H = P - nu * np.diag(1.0 / nodes)
    full = sla.eigvalsh(H, subset_by_index=[0, 0])[0]
    lam = _lowest_eigenvalue(H)
    solves = 2.0 * eps * np.linalg.norm(H, 2)
    assert full <= lam + solves
    assert full >= min(lam, 0.0) - math.sqrt(2.0) * eps * np.linalg.norm(H) - solves


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_lowest_eigenvalue_rejects_non_finite(bad):
    H = np.eye(4)
    H[3, 3] = bad
    with pytest.raises(DomainError):
        _lowest_eigenvalue(H)


def test_deflation_sizes(solved_orders):
    # the scan grid (h = 0.08) keeps the rows with s below ~36; the pool
    # grids and the anticommutator blocks are solved whole
    chandrasekhar_lowest(0.3, 0, SCAN_GRID)
    assert solved_orders == [452]
    assert SCAN_GRID.n > 452
    solved_orders.clear()
    pool = ((20.0, 300), (23.0, 400), (26.0, 500))
    for span, n in pool:
        for m in (0, 1, 2):
            chandrasekhar_lowest(0.3, m, GridSpec(math.exp(-span), 1.0, n))
    assert solved_orders == [n for _, n in pool for _ in range(3)]
    solved_orders.clear()
    for d in (2, 3):
        lambda_min_anticomm(d)
    assert solved_orders == 2 * [round(L / 0.08) + 1 for L in ANTICOMM_SPANS]


def test_classify_endpoints():
    cls_lo, _ = classify_coupling(0.05)
    cls_hi, _ = classify_coupling(0.6)
    assert cls_lo == "stable" and cls_hi == "divergent"


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


@pytest.mark.parametrize("m", range(4))
def test_mellin_multiplier_matches_gamma_ratio(m):
    for s in (0.0, 0.3, 0.6, 1.5):
        assert mellin_multiplier(m, s) == pytest.approx(_mellin_gamma_ratio(m, s), rel=1e-8)


def test_projected_constant_from_channel_multipliers():
    # 2 / (M_0(0) + M_1(0)) is the fourth-power variant of the printed constant
    pair = 2.0 / (mellin_multiplier(0, 0.0) + mellin_multiplier(1, 0.0))
    assert pair == pytest.approx(critical_constant_printed("fourth-power"), rel=1e-9)


def test_critical_coupling_cross_validation():
    mel = critical_coupling_mellin(2)
    bis = critical_coupling_bisect()
    assert 0.15 < mel.nu_c < 0.30
    assert 0.15 < bis.nu_c < 0.30
    assert abs(bis.nu_c - mel.nu_c) <= 0.01
    # bisection midpoints are dyadic, so nu_c is exact given the
    # sequence of classifications
    assert bis.nu_c == 0.23610839843749998
    assert [c for _, c, _ in bis.trace] == [
        "stable", "divergent", "divergent", "stable", "divergent", "stable",
        "divergent", "stable", "stable", "divergent", "stable", "divergent"]
    # classification examples relative to the measured transition
    assert classify_coupling(bis.nu_c / 2.0)[0] == "stable"
    assert classify_coupling(2.0 * bis.nu_c)[0] == "divergent"


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
    # the second call finds every ridge band in anticomm's block cache
    first = lambda_min_anticomm(3)

    def fail(*args, **kwargs):
        raise AssertionError("unexpected kernel call")

    monkeypatch.setattr(kernels, "polar_batch", fail)
    assert lambda_min_anticomm(3) == first


def test_grid_cache_clear_clears_ridge_blocks():
    # a cleared grid cache means a cold assembly, ridge and channel
    # moments included
    _momentum_log_grid.cache_clear()
    _momentum_log_grid(1, 64, 20.0)
    assert anticomm._moment_block.cache_info().currsize == 2
    _momentum_log_grid.cache_clear()
    assert _momentum_log_grid.cache_info().currsize == 0
    assert anticomm._moment_block.cache_info().currsize == 0


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
