import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import anticomm, kernels
from opineq.anticomm import (TrialFunction, _bracket_log, alpha, band_moments,
                             gamma, nonrel_form,
                             relativistic_form, relativistic_form_direct,
                             ridge_moments)
from opineq.errors import AccuracyError, DomainError
from opineq.kernels import sphere_surface

# mpmath references (30-digit quadrature, two independent substitutions)
GAMMA_15 = -2.30720541054060085
GAMMA_25 = 4.03308358400775607
GAMMA_201 = 0.0631802461365732294

# the points at which the lattice form is checked against the Mellin oracle
MELLIN_POINTS = ((2.0, 0.25), (2.0, 0.5), (2.0, 1.0), (2.0, 2.0), (2.0, 4.0),
                 (2.5, 1.0), (3.0, 1.0))


@functools.lru_cache(maxsize=None)
def mellin_t(d, sigma):
    """t[psi]/||psi||^2 for psi = exp(-(ln r)^2 / (2 sigma^2)) in dimension d.

    |x||p| + |p||x| acts on r^-beta, beta = d/2 - i xi, by the symbol
    2 Re c_0(xi) with
        c_0 = 2 G((d-beta)/2) G((beta+1)/2) / [G(beta/2) G((d-beta-1)/2)]
    (G = Gamma), and the trial's Mellin weight is e^{-sigma^2 xi^2}, so
        t/||psi||^2 = int e^{-sigma^2 xi^2} Re c_0 dxi
                      / (alpha_d int e^{-sigma^2 xi^2} dxi).
    """
    with mpmath.workdps(20):
        d, sigma = mpmath.mpf(d), mpmath.mpf(sigma)

        def re_c0(xi):
            b = d / 2 - 1j * xi
            return mpmath.re(2 * mpmath.gamma((d - b) / 2) * mpmath.gamma((b + 1) / 2)
                             / (mpmath.gamma(b / 2) * mpmath.gamma((d - b - 1) / 2)))

        num = mpmath.quad(lambda xi: mpmath.exp(-(sigma * xi) ** 2) * re_c0(xi),
                          [0, mpmath.inf])
        a = mpmath.gamma((d + 1) / 2) / (2 * mpmath.pi ** ((d + 1) / 2))
        return float(num / (a * mpmath.sqrt(mpmath.pi) / (2 * sigma)))


@pytest.fixture
def cold_ridge_cache():
    anticomm._ridge_cache.cache_clear()
    yield
    anticomm._ridge_cache.cache_clear()


def _forbid_kernel_calls(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("unexpected kernel call")

    monkeypatch.setattr(kernels, "polar_batch", fail)


def nonrel_gaussian_scale(sigma):
    return 2.0 * math.pi * math.sqrt(math.pi) * sigma * math.exp(sigma ** 2 / 4.0)


def test_alpha_values():
    assert alpha(3.0) == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-14)
    assert alpha(2.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    with pytest.raises(DomainError):
        alpha(1.0)
    # Gamma((d+1)/2) overflows from d = 343, and pi^((d+1)/2) raises
    # OverflowError from about d = 1240; finite values keep their formula
    assert alpha(342.0) == float(scipy.special.gamma(171.5) / (2.0 * math.pi ** 171.5))
    for d in (343.0, 400.0, 2000.0):
        with pytest.raises(DomainError):
            alpha(d)


def bracket(d, r):
    # r^((d-1)/2) + r^(-(d-1)/2) - r^(1/2) - r^(-1/2) at r = e^{-s}
    return _bracket_log(d, -math.log(r))


def test_bracket_values():
    for r in (0.1, 0.5, 2.0, 7.0):
        assert bracket(2.0, r) == 0.0
    assert bracket(3.0, 4.0) == pytest.approx(1.75, abs=1e-13)
    for d in (1.3, 2.7, 3.0):
        assert bracket(d, 1.0) == pytest.approx(0.0, abs=1e-14)
    # sign equals sign(d - 2) for r != 1
    for d, s in ((1.5, -1), (1.99, -1), (2.01, 1), (3.5, 1)):
        assert math.copysign(1, bracket(d, 0.3)) == s
        assert math.copysign(1, bracket(d, 3.0)) == s


def test_gamma_vanishes_at_two():
    g = gamma(2.0)
    assert g.value == 0.0


def test_gamma_frozen_references():
    assert gamma(1.5, 1e-9).value == pytest.approx(GAMMA_15, rel=1e-7)
    assert gamma(2.5, 1e-10).value == pytest.approx(GAMMA_25, rel=1e-8)
    assert gamma(3.0, 1e-10).value == pytest.approx(math.pi ** 2, rel=1e-8)
    assert gamma(2.01, 1e-10).value == pytest.approx(GAMMA_201, rel=1e-7)


@pytest.mark.parametrize("d", [1.2, 1.5, 1.9, 2.1, 2.5, 3.0, 4.0, 6.0,
                               23.0, 30.0, 40.0])
def test_gamma_closed_form(d):
    # 2 alpha_d gamma_d = d - 2, the minimum of the Mellin symbol of
    # |x||p| + |p||x|: the lower bound is sharp (measured within 1.5e-14).
    # From d = 23 the bracket e^((d-1)s/2) would overflow before s = 65,
    # and smax is capped at 1400/(d-1)
    assert 2.0 * alpha(d) * gamma(d, 1e-10).value == pytest.approx(d - 2.0, rel=1e-12)


@pytest.mark.parametrize("d", [23.0, 30.0, 40.0, 50.0, 60.0, 66.0])
def test_gamma_error_estimate_covers_the_identity(d):
    # the estimate carries the bound on the tail beyond smax: at d = 66 the
    # value is 1.7e-28 off (d - 2) / (2 alpha_d), and the quadrature's
    # estimate alone is 1.06e-28
    g = gamma(d, 1e-10)
    assert abs(g.value - (d - 2.0) / (2.0 * alpha(d))) <= g.abs_error_estimate


def test_gamma_tail_beyond_tol_is_domain_error(monkeypatch):
    # at d = 60 the tail beyond smax = 1400/59 is 1.1e-11 of gamma_d, so
    # tol = 1e-10 is met (the result 1.05e-11 off) and tol = 1e-12 is
    # refused; at d = 80 the tail is 3.7e-9.  Refused before any kernel
    # call, so before any RuntimeWarning.  Next to d = 2 the bound carries
    # the bracket's factor d - 2, as gamma_d does
    assert 2.0 * alpha(60.0) * gamma(60.0).value == pytest.approx(58.0, rel=1e-10)
    d = 2.0 + 2.0 ** -51
    assert 2.0 * alpha(d) * gamma(d, 1e-13).value == pytest.approx(d - 2.0, rel=1e-10)
    _forbid_kernel_calls(monkeypatch)
    for d, tol in ((60.0, 1e-12), (80.0, 1e-10)):
        with pytest.raises(DomainError):
            gamma(d, tol)


def test_gamma_sign_law():
    for d in (1.2, 1.5, 1.8):
        assert gamma(d, 1e-6).value < 0
    for d in (2.2, 2.5, 3.0, 3.5):
        assert gamma(d, 1e-6).value > 0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_gamma_rejects_bad_tolerance(tol, monkeypatch):
    # checked before any kernel call: a NaN tolerance would otherwise run
    # the outer quadrature to its subdivision budget, and an inf one stop
    # it after one panel (gamma(3) = 9.8932 against 9.8696)
    _forbid_kernel_calls(monkeypatch)
    with pytest.raises(DomainError):
        gamma(3.0, tol)


def test_trial_function_families():
    psi = TrialFunction("log_gaussian", 1.0)
    s = np.array([-1.0, 0.0, 2.0])
    assert np.all(psi.profile_log(s) > 0)
    cut = TrialFunction("log_linear_cutoff", 0.1)
    assert np.all(cut.profile_log(s) > 0)
    for family in ("log_gaussian", "log_linear_cutoff"):
        # sigma = 1e-300 has a square that underflows
        for sigma in (-1.0, 0.0, 1e-300, math.nan, math.inf):
            with pytest.raises(DomainError):
                TrialFunction(family, sigma)
    with pytest.raises(DomainError):
        TrialFunction("unknown")
    with pytest.raises(DomainError):
        TrialFunction("sampled")
    for center in (math.nan, math.inf):
        with pytest.raises(DomainError):
            TrialFunction("log_gaussian", 1.0, center)
    with pytest.raises(DomainError):
        # decays too slowly against the |x|^(d+1) weights
        TrialFunction("log_linear_cutoff", 2.0).s_extent(2.0)
    for lam in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            psi.scaled(lam)


def test_trial_norm_closed_form():
    psi = TrialFunction("log_gaussian", 1.3)
    d = 2.0
    from opineq.quadrature import integrate_adaptive
    num = integrate_adaptive(
        lambda s: np.exp(d * s) * psi.profile_log(s) ** 2, -40, 40, 1e-12)
    assert psi.norm_sq(d) == pytest.approx(sphere_surface(d - 1) * num.value,
                                           rel=1e-10)
    # e^(d center) past double range, and a family with no closed form
    for trial in (TrialFunction("log_gaussian", 1.0, 400.0),
                  TrialFunction("log_linear_cutoff", 0.2)):
        with pytest.raises(DomainError):
            trial.norm_sq(d)


def test_band_moments_polynomial():
    # adaptive bands 0-3 and Gauss-Legendre bands 4+ against int x^2 dx
    h, n = 0.3, 10
    got = band_moments(lambda x: x * x, h, n)
    k = np.arange(n)
    exact = h ** 3 * (k * k + 1.0 / 12.0)
    exact[0] = h ** 3 / 24.0
    assert np.all(np.abs(got - exact) <= 1e-14 * exact)


def test_mellin_generator_reproduces_d2_table():
    # the digits frozen before the generator existed; at d = 2.5 and 3 the
    # frozen digits were off by 4.9e-13 and 7.5e-13 relative
    frozen = {0.25: 27.2281824175103, 0.5: 12.5730791194058,
              1.0: 5.17087598976948, 2.0: 1.77240054301193,
              4.0: 0.510732043003011}
    for sigma, ref in frozen.items():
        assert mellin_t(2.0, sigma) == pytest.approx(ref, rel=2e-15)


def test_relativistic_form_matches_mellin_oracle():
    for d, sig in MELLIN_POINTS:
        psi = TrialFunction("log_gaussian", sig)
        fv = relativistic_form(psi, d)
        assert fv.value / fv.norm_sq == pytest.approx(mellin_t(d, sig), rel=5e-3)
        assert fv.value == relativistic_form_direct(psi, d)


def test_relativistic_form_refuses_trials_narrower_than_its_lattice():
    # below sigma = 3 H_STEP / 64 the lattice stops halving: sigma = 1e-3
    # returned a form 7.7% low against mellin_t, and said nothing
    for family in ("log_gaussian", "log_linear_cutoff"):
        with pytest.raises(DomainError):
            relativistic_form(TrialFunction(family, 1e-3), 2.0)


def _ridge_integrand(d):
    def f(x):
        v, _, _ = kernels.polar_batch(d, 2.0 * np.sinh(x / 2.0) ** 2)
        return v * x * x
    return f


def test_ridge_block_prefixes_agree(cold_ridge_cache):
    # a cold fill at either end of a size class and a cold fill of the
    # 2,048 class, in both orders, agree bit for bit on their common bands
    d, h, n_big = 2.5, 0.1, 4 * anticomm._RIDGE_BLOCK
    for n in (1, 512, 513, 1024, 1025):
        anticomm._ridge_cache.cache_clear()
        small = ridge_moments(d, h, n).copy()
        big = ridge_moments(d, h, n_big).copy()
        anticomm._ridge_cache.cache_clear()
        assert np.array_equal(ridge_moments(d, h, n_big), big)
        assert np.array_equal(ridge_moments(d, h, n), small)
        assert small.shape == (n,) and np.array_equal(small, big[:n])
    assert np.array_equal(ridge_moments(d, h, 700), big[:700])


def test_ridge_blocks_match_one_band_moments_call(cold_ridge_cache):
    h = 0.08
    n = anticomm._RIDGE_BANDS + 2 * anticomm._RIDGE_BLOCK
    for k in (3, 10, anticomm._RIDGE_BLOCK + 7, n):
        got = ridge_moments(3.0, h, k)
    assert np.array_equal(got, band_moments(_ridge_integrand(3.0), h, n))


def test_ridge_moments_read_only(cold_ridge_cache):
    phi = ridge_moments(2.0, 0.1, 20)
    with pytest.raises(ValueError):
        phi[3] = 0.0


def test_repeated_form_makes_no_kernel_call(cold_ridge_cache, monkeypatch):
    psi = TrialFunction("log_gaussian", 1.0)
    first = relativistic_form(psi, 2.0)
    _forbid_kernel_calls(monkeypatch)
    assert relativistic_form(psi, 2.0) == first
    # the dilated trial needs 18 more bands, inside the size class already filled
    assert relativistic_form(psi.scaled(2.0), 2.0).value > 0


def test_ridge_blocks_bounded_and_clean_on_error(cold_ridge_cache):
    assert anticomm._ridge_cache.cache_info().maxsize == 64
    with pytest.raises(DomainError):
        ridge_moments(1.0, 0.1, 8)
    assert anticomm._ridge_cache.cache_info().currsize == 0


def test_ridge_bands_past_double_range_are_zero(cold_ridge_cache):
    # K_2 is a closed form that falls like e^(-3x/2): the ridge bands fall
    # like x^2 e^(-3x/2) until they underflow past x of about 497 (bands
    # 994-995 at h = 0.5); from x of about 710, where u - 1 overflows to
    # inf, the kernel is an exact 0.  The suite turns an overflow warning
    # into an error
    k = np.arange(900, 960)
    big = ridge_moments(2.0, 0.5, 1500).copy()
    assert np.all(np.isfinite(big)) and np.all(big >= 0.0)
    assert np.all(big[:990] > 0.0) and np.all(big[1000:] == 0.0)
    assert np.allclose(big[k + 1] / big[k], np.exp(-0.75) * ((k + 1.0) / k) ** 2,
                       rtol=1e-3)
    anticomm._ridge_cache.cache_clear()
    assert np.array_equal(ridge_moments(2.0, 0.5, 900), big[:900])


def test_ridge_kernel_miss_raises_accuracy_error(cold_ridge_cache, monkeypatch):
    # an element of the ridge kernel whose error bound exceeds KTOL of its
    # value is reported with the moments of its whole size class, and
    # nothing is cached.  An inflated allowance stands in for the miss, so
    # the reported moments are the true ones
    monkeypatch.setattr(kernels, "HYP2F1_ULPS", 1e6)
    with pytest.raises(AccuracyError) as info:
        ridge_moments(2.0, 0.1, 30)
    best = info.value.best
    assert best.shape == (anticomm._RIDGE_BLOCK,)
    assert anticomm._ridge_cache.cache_info().currsize == 0
    monkeypatch.undo()
    assert np.array_equal(ridge_moments(2.0, 0.1, 30), best[:30])


def test_gamma_kernel_miss_raises_accuracy_error(monkeypatch):
    # an element of gamma_d's kernel whose error bound exceeds KTOL of its
    # value is reported with the result; gamma_2 calls no kernel
    monkeypatch.setattr(kernels, "HYP2F1_ULPS", 1e6)
    with pytest.raises(AccuracyError) as info:
        gamma(3.0)
    assert info.value.best.value == pytest.approx(math.pi ** 2, rel=1e-8)
    assert gamma(2.0).value == 0.0


def test_relativistic_form_is_one_band_evaluation(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return ridge_moments(*args, **kwargs)

    monkeypatch.setattr(anticomm, "ridge_moments", counting)
    relativistic_form(TrialFunction("log_gaussian", 1.0), 2.0)
    assert len(calls) == 1


def _form_all_offsets(d, s, h, G, H):
    """_form_engine's sums over all n - 1 pair offsets: the O(n^2) loop
    without the cut, kept as the oracle for it."""
    n = s.size
    a = np.exp(0.5 * (d - 1.0) * s)
    F, F_abs = np.zeros(n), np.zeros(n)
    for k in range(1, n):
        w = a[:n - k] * a[k:]
        num = (G[:n - k] - G[k:]) * (H[:n - k] - H[k:])
        F[k] = h * np.dot(w, num)
        F_abs[k] = h * np.dot(w, np.abs(num))
    D, D_abs = anticomm._diag_second_derivative(s, h, G, H, d - 1.0)
    phi2 = ridge_moments(d, h, n)
    w = phi2[1:] / (np.arange(1, n) * h) ** 2
    A = sphere_surface(d - 1) * 2.0 ** (-(d + 1.0) / 2.0)
    return (A * (phi2[0] * D + 2.0 * np.dot(w, F[1:])),
            A * (phi2[0] * D_abs + 2.0 * np.dot(w, F_abs[1:])))


def _two_bumps(s):
    # bumps 20 apart in s: the offset sums have a second hump near k h = 20,
    # and the cross terms between the bumps decay only like e^{-d 20 / 2}.
    # 561 samples on [-14, 14], linearly interpolated and 0 past them
    nodes = np.linspace(-14.0, 14.0, 561)
    v = np.exp(-(nodes - 10.0) ** 2 / 2.0) + np.exp(-(nodes + 10.0) ** 2 / 2.0)
    return np.interp(s, nodes, v, left=0.0, right=0.0)


# the lattice of step H_STEP that holds the samples, out to 182 h > 14
TWO_BUMPS_LATTICE = np.arange(-182, 183) * anticomm.H_STEP, anticomm.H_STEP


def _record_cuts(monkeypatch):
    """A list that collects the offset cut K of each _form_engine call."""
    cuts = []
    offset_sums = anticomm._offset_sums

    def recording_offsets(*args):
        F, F_abs = offset_sums(*args)
        cuts.append(F.size)
        return F, F_abs

    monkeypatch.setattr(anticomm, "_offset_sums", recording_offsets)
    return cuts


def _padded_form(d, profile, s, h, same):
    """_form_all_offsets on the lattice s padded by 40 log-units on each
    side, with the profile sampled on the padding too; H = G when `same`,
    else e^s G."""
    pad = int(math.ceil(40.0 / h))
    s = np.concatenate([s[0] - h * np.arange(pad, 0, -1), s,
                        s[-1] + h * np.arange(1, pad + 1)])
    G = profile(s)
    return _form_all_offsets(d, s, h, G, G if same else np.exp(s) * G)


def _assert_within_cut_bound(d, psi):
    return _assert_profile_within_cut_bound(d, psi.profile_log,
                                            *anticomm._lattice(psi, d))


def _assert_profile_within_cut_bound(d, profile, s, h):
    # on its own lattice the engine counts the pairs that reach past it in
    # closed form, with G = H = 0 there; against every pair of a lattice
    # padded by 40 log-units the cut moves the value by at most eps * scale
    # and can only lower the scale, and the trial's mass past its extent
    # is below roundoff.  The two sums are also added in a different
    # order, so each side carries a few ulps of summation roundoff on top
    eps = np.finfo(float).eps
    G = profile(s)
    for same in (False, True):
        value, scale = anticomm._form_engine(d, s, h, G, G if same else np.exp(s) * G)
        full_value, full_scale = _padded_form(d, profile, s, h, same)
        assert abs(value - full_value) <= 5.0 * eps * scale
        assert scale <= full_scale * (1.0 + 4.0 * eps)
    return h


@pytest.mark.parametrize("d", [1.2, 2.0, 2.5, 3.0, 6.0])
def test_offset_cut_within_its_bound(d, monkeypatch):
    requested = []

    def counting_moments(*args):
        requested.append(args[2])
        return ridge_moments(*args)

    monkeypatch.setattr(anticomm, "ridge_moments", counting_moments)
    cuts = _record_cuts(monkeypatch)
    trials = [TrialFunction("log_gaussian", sigma) for sigma in (0.25, 1.0, 4.0)]
    trials += [TrialFunction("log_gaussian", sigma, center)
               for sigma in (0.25, 4.0) for center in (-6.0, 6.0)]
    trials.append(TrialFunction("log_linear_cutoff", 1.0 / (d + 2.0)))
    profiles = [(psi.profile_log, *anticomm._lattice(psi, d)) for psi in trials]
    for profile, s, h in profiles + [(_two_bumps, *TWO_BUMPS_LATTICE)]:
        _assert_profile_within_cut_bound(d, profile, s, h)
        for K in cuts[-2:]:
            # bands 0..K, and the cut sits where e^{-Kh} ~ eps, inside the
            # lattice or past it
            assert 30.0 < K * h < 42.0
        assert requested[-2:] == [K + 1 for K in cuts[-2:]]


def test_far_offset_cut_within_its_bound(monkeypatch):
    # a slowly decaying trial at d = 1.2: with H = e^s G the tail bound
    # stops the sums only near Kh = 51 (with H = G near 37), past the
    # cuts of the log-Gaussians
    cuts = _record_cuts(monkeypatch)
    h = _assert_within_cut_bound(1.2, TrialFunction("log_linear_cutoff", 0.556))
    assert cuts[0] * h > 45.0


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.floats(1.2, 6.0), st.floats(0.25, 4.0), st.floats(-6.0, 6.0))
def test_offset_cut_within_its_bound_property(d, sigma, center):
    _assert_within_cut_bound(d, TrialFunction("log_gaussian", sigma, center))


def test_block_budget_changes_nothing(monkeypatch):
    # the element budget only groups offsets into blocks: one offset per
    # block, and budgets that put K on the last or the first row of a
    # block, give the same K and the same sums up to summation order.  The
    # trials are wide enough that K lies inside the lattice
    eps = np.finfo(float).eps
    cuts = _record_cuts(monkeypatch)
    default = anticomm._BLOCK_ELEMENTS

    def blocks(budget, n):
        monkeypatch.setattr(anticomm, "_BLOCK_ELEMENTS", budget)
        return list(anticomm._offset_blocks(n))

    for psi in (TrialFunction("log_gaussian", 4.0),
                TrialFunction("log_gaussian", 4.0, 6.0)):
        s, h = anticomm._lattice(psi, 2.0)
        G = psi.profile_log(s)
        H = np.exp(s) * G
        value, scale = anticomm._form_engine(2.0, s, h, G, H)
        n, K = s.size, cuts[-1]
        assert K < n - 1
        assert all(k1 - k0 == 1 for k0, k1 in blocks(1, n))
        last = next(b for b in range(default // 2, 2 * default)
                    if any(k1 - 1 == K for _, k1 in blocks(b, n)))
        first = next(b for b in range(default // 2, 2 * default)
                     if any(k0 == K for k0, _ in blocks(b, n)))
        for budget in (1, last, first):
            monkeypatch.setattr(anticomm, "_BLOCK_ELEMENTS", budget)
            v, sc = anticomm._form_engine(2.0, s, h, G, H)
            assert cuts[-1] == K
            assert abs(v - value) <= 2.0 * eps * scale
            assert abs(sc - scale) <= 2.0 * eps * scale
        monkeypatch.setattr(anticomm, "_BLOCK_ELEMENTS", default)


def test_warm_form_memory_bound():
    # three block temporaries of _BLOCK_ELEMENTS doubles (384 KiB) and the
    # zero-padded lattice arrays: a peak of 0.75 MB measured; 2 MB keeps
    # perfbench's peak RSS bound
    psi = TrialFunction("log_gaussian", 4.0)
    relativistic_form(psi, 3.0)
    tracemalloc.start()
    try:
        relativistic_form(psi, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_non_finite_form_raises_domain_error():
    # the weighted lattice leaves double range; pytest turns every
    # RuntimeWarning into an error, so none may be emitted on the way
    for d, sigma in ((6.0, 8.0), (4.0, 10.0), (3.0, 14.0)):
        psi = TrialFunction("log_gaussian", sigma)
        with pytest.raises(DomainError):
            relativistic_form(psi, d)
        s, h = anticomm._lattice(psi, d)
        G = psi.profile_log(s)
        with pytest.raises(DomainError):
            anticomm._form_engine(d, s, h, G, G)  # <psi, |p| psi>, H = G
    # sigma ** 2 past double range, in both forms
    with pytest.raises(DomainError, match="no finite extent"):
        nonrel_form(TrialFunction("log_gaussian", 1e200))
    # the same in relativistic_form, then lattices that cannot be built:
    # 2.6e13 nodes (189 TiB), a node count past numpy's maximal size, and
    # an extent / h past double range
    for d, sigma in ((2.0, 1e200), (2.0, 1e6), (1e308, 0.25), (1e308, 1.0)):
        with pytest.raises(DomainError):
            relativistic_form(TrialFunction("log_gaussian", sigma), d)


def test_wide_trials_finite_on_their_own_lattice():
    # the lattice is no longer padded past the trial's extent, so these
    # stay in double range; they are off the Mellin value by the lattice's
    # O(h^2), as (6, 4) is (measured 2.7e-4 and 9.0e-4)
    for d, sigma in ((4.0, 8.0), (6.0, 5.0)):
        fv = relativistic_form(TrialFunction("log_gaussian", sigma), d)
        assert fv.value / fv.norm_sq == pytest.approx(mellin_t(d, sigma), rel=5e-3)


def test_norm_sq_finite_where_exp_ds_overflows():
    # at (d, sigma) = (6, 5) e^{ds} overflows at the lattice edge, where
    # the weighted profile is tiny; the closed form is the reference
    psi = TrialFunction("log_gaussian", 5.0)
    assert 6.0 * psi.s_extent(6.0) > 710.0
    fv = relativistic_form(psi, 6.0)
    assert fv.norm_sq == pytest.approx(psi.norm_sq(6.0), rel=1e-13)
    # where the lattice itself leaves double range, the engine says so
    for d, sigma in ((6.0, 8.0), (4.0, 10.0), (3.0, 14.0)):
        with pytest.raises(DomainError, match="lattice weights|offset sums"):
            relativistic_form(TrialFunction("log_gaussian", sigma), d)


def test_relativistic_form_positivity_d2():
    for sigma in (0.25, 0.5, 1.0, 2.0, 4.0):
        fv = relativistic_form(TrialFunction("log_gaussian", sigma), 2.0)
        assert fv.value >= -1e-6 * fv.scale


def test_relativistic_form_scaling_covariance():
    # t[psi_lambda] = lambda^-d t[psi]; lattice shift makes it near-exact
    for d in (2.0, 3.0):
        psi = TrialFunction("log_gaussian", 1.0)
        t1 = relativistic_form(psi, d).value
        t2 = relativistic_form(psi.scaled(2.0), d).value
        assert t2 / t1 == pytest.approx(2.0 ** -d, rel=1e-6)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(1, 3), st.floats(1.5, 4.0), st.floats(0.25, 4.0),
       st.floats(-4.0, 4.0))
def test_dilation_by_power_of_two_property(k, d, sigma, center):
    # ln 2 / h is an integer, so psi(2^k r) is the same samples shifted by
    # a whole number of lattice steps, and t scales by exactly 2^-kd.  Only
    # the lattice's extent, which follows |center|, and with it the offset
    # cut, can move.  Over 588 (d, sigma, center)
    # points and k = 1..3 the largest |t[psi_2^k] - 2^-kd t[psi]| measured
    # was 8.7e-15 of 2^-kd scale (value relative: 4.9e-14); the bound
    # allows about 6 times that.
    psi = TrialFunction("log_gaussian", sigma, center)
    fv = relativistic_form(psi, d)
    lam = 2.0 ** -(k * d)
    got = relativistic_form(psi.scaled(2.0 ** k), d).value
    assert abs(got - lam * fv.value) <= 5e-14 * lam * fv.scale


def test_chain_consistency_with_lower_bound():
    # <psi,(|x||p|+|p||x|)psi> = 2 alpha_d t >= 2 alpha_d gamma_d ||psi||^2
    for d in (2.5, 3.0):
        lb = 2.0 * alpha(d) * gamma(d, 1e-9).value
        for sigma in (0.25, 1.0, 4.0):
            fv = relativistic_form(TrialFunction("log_gaussian", sigma), d)
            lhs = lb * fv.norm_sq
            rhs = 2.0 * alpha(d) * fv.value
            assert lhs <= rhs + 1e-6 * fv.scale


def test_momentum_expectation_positive():
    # <psi, |p| psi> = alpha_d times the form with H = G
    psi = TrialFunction("log_gaussian", 1.0)
    s, h = anticomm._lattice(psi, 2.0)
    G = psi.profile_log(s)
    assert alpha(2.0) * anticomm._form_engine(2.0, s, h, G, G)[0] > 0


def test_nonrel_closed_form():
    for sigma in (1.0, math.sqrt(2.0), 2.0):
        q = nonrel_form(TrialFunction("log_gaussian", sigma))
        got = q / nonrel_gaussian_scale(sigma)
        want = 1.0 / (2.0 * sigma ** 2) - 0.25
        # relative to the natural magnitude (want = 0 exactly at sqrt(2))
        mag = 1.0 / (2.0 * sigma ** 2) + 0.25
        assert abs(got - want) <= 1e-6 * mag


@pytest.mark.parametrize("sigma", [0.2, 0.3])
def test_nonrel_closed_form_log_linear_cutoff(sigma):
    # psi = e^{-|s|/(2 sigma)} has psi'^2 = psi^2 / (4 sigma^2), so
    # Q = 2 pi (1/(4 sigma^2) - 1/2) int e^{s - |s|/sigma} ds
    #   = 2 pi (1/(4 sigma^2) - 1/2) 2 sigma / (1 - sigma^2),
    # 15.0534648 at sigma = 0.2; the kink at s = 0 is a panel end, and
    # the quadrature's tolerance is 1e-11 relative (NONREL_TOL)
    want = (2.0 * math.pi * (0.25 / sigma ** 2 - 0.5)
            * 2.0 * sigma / (1.0 - sigma ** 2))
    q = nonrel_form(TrialFunction("log_linear_cutoff", sigma))
    assert q == pytest.approx(want, rel=1e-10)


def test_nonrel_form_outside_double_range_is_domain_error():
    # at sigma = 40 the extent is 2,000 log-units and e^s overflows: the
    # quadrature raises its typed error, with no RuntimeWarning before it
    with pytest.raises(DomainError):
        nonrel_form(TrialFunction("log_gaussian", 40.0))
