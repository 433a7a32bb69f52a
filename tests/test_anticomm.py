import math

import numpy as np
import pytest

from opineq import anticomm
from opineq.anticomm import (TrialFunction, alpha, band_moments, bracket,
                             find_nonrel_violation, gamma, lower_bound,
                             momentum_expectation, nonrel_form, relativistic_form,
                             relativistic_form_direct, ridge_moments)
from opineq.errors import ConfigurationError, DomainError

# mpmath references (30-digit quadrature, two independent substitutions)
GAMMA_15 = -2.30720541054060085
GAMMA_25 = 4.03308358400775607
GAMMA_201 = 0.0631802461365732294

# t[psi]/||psi||^2 for log-Gaussians from the closed-form Mellin symbol
# of the anticommutator (Gamma-function multiplier, Plancherel in log space)
MELLIN_T = {
    (2.0, 0.25): 27.2281824175103,
    (2.0, 0.5): 12.5730791194058,
    (2.0, 1.0): 5.17087598976948,
    (2.0, 2.0): 1.77240054301193,
    (2.0, 4.0): 0.510732043003011,
    (2.5, 1.0): 9.20894758210052,
    (3.0, 1.0): 14.9855499045004,
}


def nonrel_gaussian_scale(sigma):
    return 2.0 * math.pi * math.sqrt(math.pi) * sigma * math.exp(sigma ** 2 / 4.0)


def test_alpha_values():
    assert alpha(3.0) == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-14)
    assert alpha(2.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    with pytest.raises(DomainError):
        alpha(1.0)


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


def test_gamma_path_independence():
    for d in (1.7, 2.6):
        ref = gamma(d, 1e-9, path="log").value
        for path in ("direct", "sqrt"):
            alt = gamma(d, 1e-8, path=path).value
            assert alt == pytest.approx(ref, rel=1e-6)
    with pytest.raises(ConfigurationError):
        gamma(2.5, 1e-8, path="bogus")


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
    with pytest.raises(DomainError):
        TrialFunction("log_gaussian", -1.0)
    with pytest.raises(DomainError):
        TrialFunction("unknown")
    with pytest.raises(DomainError):
        TrialFunction("sampled")
    with pytest.raises(DomainError):
        # decays too slowly against the |x|^(d+1) weights
        TrialFunction("log_linear_cutoff", 2.0).s_extent(2.0)


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


def test_relativistic_form_matches_mellin_oracle():
    for (d, sig), ref in MELLIN_T.items():
        psi = TrialFunction("log_gaussian", sig)
        fv = relativistic_form(psi, d)
        assert fv.value / fv.norm_sq == pytest.approx(ref, rel=5e-3)
        assert fv.value == relativistic_form_direct(psi, d)


def test_relativistic_form_is_one_band_evaluation(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return ridge_moments(*args, **kwargs)

    monkeypatch.setattr(anticomm, "ridge_moments", counting)
    relativistic_form(TrialFunction("log_gaussian", 1.0), 2.0)
    assert len(calls) == 1


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


def test_nonrel_violation_scan():
    res = find_nonrel_violation(0.5, 4.0)
    assert res.found and res.sigma > math.sqrt(2.0) and res.value < 0
    want = (1.0 / (2.0 * res.sigma ** 2) - 0.25) * nonrel_gaussian_scale(res.sigma)
    assert res.value == pytest.approx(want, rel=1e-6)

    res2 = find_nonrel_violation(0.5, 1.2)
    assert not res2.found and res2.value > 0

    res3 = find_nonrel_violation(1.9, 2.1)
    assert res3.found and res3.value < 0
    want3 = (1.0 / (2.0 * res3.sigma ** 2) - 0.25) * nonrel_gaussian_scale(res3.sigma)
    assert res3.value == pytest.approx(want3, rel=1e-6)
    with pytest.raises(DomainError):
        find_nonrel_violation(2.0, 1.0)


def test_sampled_trial_function():
    s = np.linspace(-6, 6, 301)
    vals = np.exp(-s ** 2 / 2.0)
    psi = TrialFunction("sampled", samples=(tuple(s), tuple(vals)))
    ref = TrialFunction("log_gaussian", 1.0)
    fv = relativistic_form(psi, 2.0)
    fr = relativistic_form(ref, 2.0)
    assert fv.value / fv.norm_sq == pytest.approx(fr.value / fr.norm_sq, rel=1e-2)
