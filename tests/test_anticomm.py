import functools
import math

import mpmath
import numpy as np
import pytest

from opineq import anticomm, kernels
from opineq.anticomm import (TrialFunction, _bracket_log, alpha, band_moments,
                             channel_moments, gamma, lower_bound,
                             momentum_expectation, nonrel_form,
                             relativistic_form, relativistic_form_direct,
                             ridge_moments)
from opineq.errors import AccuracyError, DomainError
from opineq.quadrature import angular_kernel_batch, sphere_surface

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
def cold_moment_blocks():
    anticomm._moment_block.cache_clear()
    yield
    anticomm._moment_block.cache_clear()


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


@pytest.mark.parametrize("d", [1.2, 1.5, 1.9, 2.1, 2.5, 3.0, 4.0, 6.0])
def test_gamma_closed_form(d):
    # 2 alpha_d gamma_d = d - 2, the minimum of the Mellin symbol of
    # |x||p| + |p||x|: the lower bound is sharp (measured within 1.5e-14)
    assert 2.0 * alpha(d) * gamma(d, 1e-10).value == pytest.approx(d - 2.0, rel=1e-12)


def test_gamma_sign_law():
    for d in (1.2, 1.5, 1.8):
        assert gamma(d, 1e-6).value < 0
    for d in (2.2, 2.5, 3.0, 3.5):
        assert gamma(d, 1e-6).value > 0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_gamma_rejects_bad_tolerance(tol, monkeypatch):
    # checked before any kernel call: a NaN tolerance would otherwise run
    # the outer quadrature to its subdivision budget
    _forbid_kernel_calls(monkeypatch)
    with pytest.raises(DomainError):
        gamma(3.0, tol)


def test_lower_bound():
    assert lower_bound(2.0) == 0.0
    lb = lower_bound(2.01, 1e-9)
    assert 0 < lb < 0.1
    assert lower_bound(3.0, 1e-9) == pytest.approx(1.0, rel=1e-7)
    assert lower_bound(1.5, 1e-8) == pytest.approx(-0.5, rel=1e-6)


def test_trial_function_families():
    psi = TrialFunction("log_gaussian", 1.0)
    s = np.array([-1.0, 0.0, 2.0])
    assert np.all(psi.profile_log(s) > 0)
    cut = TrialFunction("log_linear_cutoff", 0.1)
    assert np.all(cut.profile_log(s) > 0)
    for family in ("log_gaussian", "log_linear_cutoff"):
        for sigma in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                TrialFunction(family, sigma)
    with pytest.raises(DomainError):
        TrialFunction("unknown")
    with pytest.raises(DomainError):
        TrialFunction("sampled")
    with pytest.raises(DomainError):
        # decays too slowly against the |x|^(d+1) weights
        TrialFunction("log_linear_cutoff", 2.0).s_extent(2.0)
    for lam in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            psi.scaled(lam)


def test_trial_norm_closed_form():
    psi = TrialFunction("log_gaussian", 1.3)
    d = 2.0
    from opineq.quadrature import integrate_adaptive, sphere_surface
    num = integrate_adaptive(
        lambda s: np.exp(d * s) * psi.profile_log(s) ** 2, -40, 40, 1e-12)
    assert psi.norm_sq(d) == pytest.approx(sphere_surface(d - 1) * num.value,
                                           rel=1e-10)


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


def _ridge_integrand(d):
    def f(x):
        v, _, _ = angular_kernel_batch(d, 2.0 * np.sinh(x / 2.0) ** 2)
        return v * x * x
    return f


def _channel_integrand(m):
    def f(x):
        v, _, _ = kernels.polar_batch(1.5, 0.0, m, 2.0 * np.sinh(x / 2.0) ** 2)
        return 2.0 * v
    return f


def test_ridge_block_prefixes_agree(cold_moment_blocks):
    # a slice of a large fill and a fresh small fill, in both orders
    d, h = 2.5, 0.1
    big = ridge_moments(d, h, 700).copy()
    anticomm._moment_block.cache_clear()
    small = ridge_moments(d, h, 40).copy()
    assert np.array_equal(big[:40], small)
    assert np.array_equal(ridge_moments(d, h, 700), big)


def test_ridge_blocks_match_one_band_moments_call(cold_moment_blocks):
    h = 0.08
    n = anticomm._RIDGE_BANDS + 2 * anticomm._RIDGE_BLOCK
    for moments, arg, f in ((ridge_moments, 3.0, _ridge_integrand(3.0)),
                            (channel_moments, 1, _channel_integrand(1))):
        for k in (3, 10, anticomm._RIDGE_BLOCK + 7, n):
            got = moments(arg, h, k)
        assert np.array_equal(got, band_moments(f, h, n))


def test_ridge_moments_read_only(cold_moment_blocks):
    for phi in (ridge_moments(2.0, 0.1, 20), channel_moments(1, 0.1, 20)):
        with pytest.raises(ValueError):
            phi[3] = 0.0


def test_repeated_form_makes_no_kernel_call(cold_moment_blocks, monkeypatch):
    psi = TrialFunction("log_gaussian", 1.0)
    first = relativistic_form(psi, 2.0)
    _forbid_kernel_calls(monkeypatch)
    assert relativistic_form(psi, 2.0) == first
    # the dilated trial needs 18 more bands, inside the block already filled
    assert relativistic_form(psi.scaled(2.0), 2.0).value > 0


def test_ridge_blocks_bounded_and_clean_on_error(cold_moment_blocks):
    assert anticomm._moment_block.cache_info().maxsize == 64
    with pytest.raises(DomainError):
        ridge_moments(1.0, 0.1, 8)
    with pytest.raises(DomainError):
        channel_moments(1, math.nan, 8)
    assert anticomm._moment_block.cache_info().currsize == 0


def test_ridge_bands_past_double_range_are_zero(cold_moment_blocks):
    # both kernels are closed forms that fall like e^(-3x/2) at d = 2: the
    # ridge bands like x^2 e^(-3x/2), the channel bands like e^(-3x/2),
    # until they underflow past x of about 497 (bands 994-995 at
    # h = 0.5); from x of about 710, where u - 1 overflows to inf, the
    # kernels are an exact 0.  The suite turns an overflow warning into an
    # error
    k = np.arange(900, 960)
    for moments, arg, decay, rtol in (
            (ridge_moments, 2.0, np.exp(-0.75) * ((k + 1.0) / k) ** 2, 1e-3),
            (channel_moments, 1, np.exp(-0.75), 1e-9)):
        anticomm._moment_block.cache_clear()
        big = moments(arg, 0.5, 1500).copy()
        assert np.all(np.isfinite(big)) and np.all(big >= 0.0)
        assert np.all(big[:990] > 0.0) and np.all(big[1000:] == 0.0)
        assert np.allclose(big[k + 1] / big[k], decay, rtol=rtol)
        anticomm._moment_block.cache_clear()
        assert np.array_equal(moments(arg, 0.5, 900), big[:900])


def test_ridge_kernel_miss_raises_accuracy_error(cold_moment_blocks, monkeypatch):
    # an element of the ridge kernel whose error bound exceeds KTOL of its
    # value is reported with the moments of the whole block, and the block
    # is not cached.  An inflated allowance stands in for the miss, so the
    # reported moments are the true ones
    monkeypatch.setattr(kernels, "HYP2F1_ULPS", 1e6)
    with pytest.raises(AccuracyError) as info:
        ridge_moments(2.0, 0.1, 30)
    best = info.value.best
    assert best.shape == (anticomm._RIDGE_BANDS + anticomm._RIDGE_BLOCK,)
    assert anticomm._moment_block.cache_info().currsize == 0
    monkeypatch.undo()
    assert np.array_equal(ridge_moments(2.0, 0.1, 30), best[:30])


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


def _two_bumps():
    # bumps 20 apart in s: the offset sums have a second hump near k h = 20,
    # and the cross terms between the bumps decay only like e^{-d 20 / 2}
    s = np.linspace(-14.0, 14.0, 561)
    v = np.exp(-(s - 10.0) ** 2 / 2.0) + np.exp(-(s + 10.0) ** 2 / 2.0)
    return TrialFunction("sampled", samples=(tuple(s), tuple(v)))


@pytest.mark.parametrize("d", [1.2, 2.0, 2.5, 3.0, 6.0])
def test_offset_cut_within_its_bound(d, monkeypatch):
    # the cut moves the value by at most eps * scale and can only lower the
    # scale; the two sums are also added in a different order, so each side
    # carries a few ulps of summation roundoff on top
    eps = np.finfo(float).eps
    requested, kept = [], []
    offset_sums = anticomm._offset_sums

    def counting_moments(*args):
        requested.append(args[2])
        return ridge_moments(*args)

    def recording_offsets(*args):
        F, F_abs = offset_sums(*args)
        kept.append(F.size)
        return F, F_abs

    monkeypatch.setattr(anticomm, "ridge_moments", counting_moments)
    monkeypatch.setattr(anticomm, "_offset_sums", recording_offsets)
    trials = [TrialFunction("log_gaussian", sigma) for sigma in (0.25, 1.0, 4.0)]
    trials += [TrialFunction("log_linear_cutoff", 1.0 / (d + 2.0)), _two_bumps()]
    for psi in trials:
        s, h = anticomm._lattice(psi, d)
        G = psi.profile_log(s)
        for H in (np.exp(s) * G, G):
            value, scale = anticomm._form_engine(d, s, h, G, H)
            full_value, full_scale = _form_all_offsets(d, s, h, G, H)
            assert abs(value - full_value) <= 5.0 * eps * scale
            assert scale <= full_scale * (1.0 + 4.0 * eps)
            # bands 0..K, not all n, and the cut sits where e^{-Kh} ~ eps
            assert requested[-1] == kept[-1] < s.size
            assert 30.0 < (kept[-1] - 1) * h < 42.0


def test_non_finite_form_raises_domain_error():
    # the weighted lattice leaves double range; pytest turns every
    # RuntimeWarning into an error, so none may be emitted on the way
    for d, sigma in ((6.0, 8.0), (4.0, 8.0), (3.0, 12.0)):
        psi = TrialFunction("log_gaussian", sigma)
        with pytest.raises(DomainError):
            relativistic_form(psi, d)
        with pytest.raises(DomainError):
            momentum_expectation(psi, d)


def test_norm_sq_finite_where_exp_ds_overflows():
    # at (d, sigma) = (6, 4) e^{ds} overflows at the lattice edge, where
    # the weighted profile is tiny; the closed form is the reference
    psi = TrialFunction("log_gaussian", 4.0)
    assert 6.0 * psi.s_extent(6.0) > 710.0
    fv = relativistic_form(psi, 6.0)
    assert fv.norm_sq == pytest.approx(psi.norm_sq(6.0), rel=1e-13)
    # where the lattice itself leaves double range, the engine says so
    for d, sigma in ((6.0, 8.0), (4.0, 8.0), (3.0, 12.0)):
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


def test_chain_consistency_with_lower_bound():
    # <psi,(|x||p|+|p||x|)psi> = 2 alpha_d t >= lower_bound ||psi||^2
    for d in (2.5, 3.0):
        lb = lower_bound(d, 1e-9)
        for sigma in (0.25, 1.0, 4.0):
            fv = relativistic_form(TrialFunction("log_gaussian", sigma), d)
            lhs = lb * fv.norm_sq
            rhs = 2.0 * alpha(d) * fv.value
            assert lhs <= rhs + 1e-6 * fv.scale


def test_momentum_expectation_positive():
    psi = TrialFunction("log_gaussian", 1.0)
    val = momentum_expectation(psi, 2.0)
    assert val > 0


def test_nonrel_closed_form():
    for sigma in (1.0, math.sqrt(2.0), 2.0):
        q = nonrel_form(TrialFunction("log_gaussian", sigma))
        got = q / nonrel_gaussian_scale(sigma)
        want = 1.0 / (2.0 * sigma ** 2) - 0.25
        # relative to the natural magnitude (want = 0 exactly at sqrt(2))
        mag = 1.0 / (2.0 * sigma ** 2) + 0.25
        assert abs(got - want) <= 1e-6 * mag


def test_sampled_trial_function():
    s = np.linspace(-6, 6, 301)
    vals = np.exp(-s ** 2 / 2.0)
    psi = TrialFunction("sampled", samples=(tuple(s), tuple(vals)))
    ref = TrialFunction("log_gaussian", 1.0)
    fv = relativistic_form(psi, 2.0)
    fr = relativistic_form(ref, 2.0)
    assert fv.value / fv.norm_sq == pytest.approx(fr.value / fr.norm_sq, rel=1e-2)
