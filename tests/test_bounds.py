import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq.bounds import (CRITICAL_CONSTANT_AS_PRINTED, CRITICAL_CONSTANT_FOURTH_POWER,
                           BoundReport, Configuration, excess_charge_nonrel_2d,
                           excess_charge_relativistic, expectation_bound, flux_delta,
                           max_bindable, pair_sum)
from opineq.errors import DomainError

# mpmath 25-digit references computed from Gamma(1/4) = 3.6256099082219083...
PRINTED_AS_IS = 0.0417258278867959034
PRINTED_FOURTH = 0.378016639464455749
PRINTED_COMPONENT = 2.18843961522647664


def test_relativistic_examples():
    assert excess_charge_relativistic(0.0, 1.0) == 3.0
    assert excess_charge_relativistic(2.0, 0.0) == 5.0
    assert excess_charge_relativistic(0.0, 0.0) == 1.0
    with pytest.raises(DomainError):
        excess_charge_relativistic(-0.5, 1.0)


def test_relativistic_affine_in_delta():
    # slope exactly 2 in the flux parameter (dyadic grid: exact arithmetic)
    deltas = np.arange(13) * 0.5
    vals = [excess_charge_relativistic(d, 1.5) for d in deltas]
    slopes = np.diff(vals) / np.diff(deltas)
    assert np.all(slopes == 2.0)


def test_nonrel_2d_examples():
    assert excess_charge_nonrel_2d(1.0) == 5.5
    assert excess_charge_nonrel_2d(math.e ** 2) == pytest.approx(
        2.0 * math.e ** 2 + 4.5, rel=1e-14)
    assert excess_charge_nonrel_2d(100.0) == pytest.approx(205.8025850929940, rel=1e-14)


def test_expectation_bound_examples():
    assert expectation_bound(1.0) == 10.0
    assert expectation_bound(math.e ** 2) == pytest.approx(14.0, rel=1e-14)
    assert expectation_bound(math.e ** 4) == pytest.approx(18.0, rel=1e-14)


def test_flux_delta_examples():
    assert flux_delta(1.0, 2.0) == 2.0
    assert flux_delta(0.0, 3.0) == 0.0
    assert flux_delta(2.0, 1.0) == 1.0


def test_pair_sum_examples():
    assert pair_sum(Configuration(((1, 0), (-1, 0)))) == pytest.approx(1.0, abs=1e-14)
    assert pair_sum(Configuration(((1, 0), (2, 0)))) == pytest.approx(3.0, abs=1e-14)


def test_pair_sum_property_random():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        pts = rng.uniform(-5.0, 5.0, size=(n, 2))
        r = np.hypot(pts[:, 0], pts[:, 1])
        pts[r < 1e-9] += 1.0
        S = pair_sum(Configuration(tuple(map(tuple, pts))))
        assert S >= n * (n - 1) / 2.0 - 1e-12


# N = 2..12 and one angle per antipodal pair, the last pair cut to one
# point when N is odd
NESTED_PAIRS = st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.floats(0.0, 2.0 * math.pi),
                         min_size=(n + 1) // 2, max_size=(n + 1) // 2)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(NESTED_PAIRS, st.floats(1e2, 1e6))
def test_pair_sum_nearly_sharp_on_nested_antipodal_pairs(case, R):
    # pair k is +-R^k (cos t_k, sin t_k): each pair meets the triangle
    # inequality with equality, and the cross terms add O(1/R) (measured
    # up to 0.67/R), so the bound S >= N(N-1)/2 is sharp for every N
    n, angles = case
    pts = []
    for k, t in enumerate(angles):
        x = (R ** k * math.cos(t), R ** k * math.sin(t))
        pts += [x, (-x[0], -x[1])]
    excess = pair_sum(Configuration(tuple(pts[:n]))) / (n * (n - 1) / 2.0) - 1.0
    assert 0.0 <= excess <= 2.0 / R


def test_configuration_validation():
    with pytest.raises(DomainError):
        Configuration(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(DomainError):
        Configuration(((1.0, 1.0), (1.0, 1.0)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            Configuration(((0.0, bad), (1.0, 1.0)))
    # not N x 2 with N >= 1
    for points in ((), (1.0, 2.0), ((1.0, 2.0, 3.0),), (((1.0, 2.0),),)):
        with pytest.raises(DomainError):
            Configuration(points)
    assert pair_sum(Configuration(((1.0, 2.0),))) == 0.0


def test_max_bindable_examples():
    assert max_bindable(0.0, 1.0) == 2
    assert max_bindable(2.0, 0.0) == 4
    assert max_bindable(0.25, 0.25) == 1
    assert max_bindable(0.0, 0.0) == 0


def test_max_bindable_vs_threshold():
    rng = np.random.default_rng(7)
    for _ in range(200):
        delta, Z = rng.uniform(0, 4), rng.uniform(0, 4)
        nmax = max_bindable(delta, Z)
        thr = excess_charge_relativistic(delta, Z)
        assert nmax < thr
        t = 2.0 * (delta + Z)
        if t != math.floor(t):
            assert nmax == math.ceil(thr) - 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_max_bindable_matches_integer_search_property(delta, Z):
    # the largest N >= 0 with -(delta+Z) N + N(N-1)/2 < 0, or 0, searched
    # in exact arithmetic on the float delta + Z
    s = Fraction(delta + Z)
    want = max(n for n in range(2 * math.ceil(s) + 3)
               if n == 0 or -s * n + Fraction(n * (n - 1), 2) < 0)
    assert max_bindable(delta, Z) == want


BAD = st.one_of(st.just(math.nan), st.just(math.inf),
                st.floats(max_value=-math.ulp(0.0)))     # -0.0 is 0
GOOD = st.floats(0.0, 1e300)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(BAD, st.one_of(GOOD, BAD), st.sampled_from(["delta", "Z", "B", "R"]))
def test_bounds_refuse_nonfinite_or_negative_property(bad, other, role):
    # `role` is bad, the other input drawn good or bad.  NaN passed every
    # `< 0` check and came back as max_bindable 0 and NaN bounds; infinity
    # raised OverflowError from int(ceil(inf))
    calls = {"delta": [lambda: max_bindable(bad, other),
                       lambda: excess_charge_relativistic(bad, other),
                       lambda: BoundReport.build(Z=other, delta=bad)],
             "Z": [lambda: max_bindable(other, bad),
                   lambda: excess_charge_relativistic(other, bad),
                   lambda: BoundReport.build(Z=bad, delta=other)],
             "B": [lambda: flux_delta(bad, other),
                   lambda: BoundReport.build(Z=1.0, B=bad, R=other)],
             "R": [lambda: flux_delta(other, bad),
                   lambda: BoundReport.build(Z=1.0, B=other, R=bad)]}[role]
    if role == "Z":
        calls += [lambda: excess_charge_nonrel_2d(bad), lambda: expectation_bound(bad)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("call", [
    lambda: max_bindable(1e308, 1e308),
    lambda: excess_charge_relativistic(1e308, 0.0),
    lambda: excess_charge_nonrel_2d(1.7e308),
    lambda: flux_delta(1e200, 1e200),
    lambda: BoundReport.build(Z=1e308, delta=1e308),
    lambda: BoundReport.build(Z=1.0, B=1e300, R=1e10),
], ids=["max_bindable", "relativistic", "nonrel_2d", "flux_delta", "report", "report-flux"])
def test_overflowing_sums_are_domain_errors(call):
    with pytest.raises(DomainError, match="overflows"):
        call()


def test_printed_critical_constants():
    assert CRITICAL_CONSTANT_AS_PRINTED == pytest.approx(PRINTED_AS_IS, rel=5e-15)
    assert CRITICAL_CONSTANT_FOURTH_POWER == pytest.approx(PRINTED_FOURTH, rel=5e-15)
    g = 3.6256099082219083
    assert g ** 4 / (8 * math.pi ** 2) == pytest.approx(PRINTED_COMPONENT, rel=5e-15)


def test_bound_report():
    rep = BoundReport.build(Z=1.0, delta=0.0)
    vals = {k: v for k, v, _ in rep.values}
    assert vals["excess_charge_relativistic"] == 3.0
    assert vals["excess_charge_nonrel_2d"] == 5.5
    assert vals["expectation_bound"] == 10.0
    assert vals["max_bindable"] == 2.0
    assert rep.threshold_premise_assumed
    rep2 = BoundReport.build(Z=0.5, B=1.0, R=2.0)
    assert rep2.delta == 2.0
    with pytest.raises(DomainError):
        BoundReport.build(Z=1.0)


def test_nonrel_bounds_refuse_values_outside_their_domain():
    # one electron binds to every Z > 0, so a bindable-number bound below 1,
    # or a <1/|x_1|> bound <= 0, is no bound.  The thresholds come from the
    # values: 2 Z + log(sqrt(Z)) + 7/2 = 1 near Z = 0.0065634, and
    # 4 log(sqrt(Z)) + 10 = 0 at Z = e^-5
    z_nonrel = scipy.optimize.brentq(
        lambda z: 2.0 * z + math.log(math.sqrt(z)) + 2.5, 1e-3, 1e-2, xtol=1e-300)
    z_expect = math.exp(-5.0)
    for Z, bound, floor in ((z_nonrel, excess_charge_nonrel_2d, 1.0),
                            (z_expect, expectation_bound, 0.0)):
        assert 0.0 <= bound(Z * (1.0 + 1e-9)) - floor < 1e-7
        with pytest.raises(DomainError, match="at Z ="):
            bound(Z * (1.0 - 1e-9))
    assert 0.0065633 < z_nonrel < 0.0065635
    # the report keeps each row only where it is defined
    for Z, want in ((0.005, set()), (0.0067, {"excess_charge_nonrel_2d"}),
                    (0.0068, {"excess_charge_nonrel_2d", "expectation_bound"})):
        rows = {k for k, _, _ in BoundReport.build(Z=Z, delta=0.0).values}
        assert rows & {"excess_charge_nonrel_2d", "expectation_bound"} == want
        assert "excess_charge_relativistic" in rows
    rows = {k: v for k, v, _ in BoundReport.build(Z=0.0, delta=0.0).values}
    assert "expectation_bound" not in rows and rows["max_bindable"] == 0.0
