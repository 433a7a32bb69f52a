import heapq
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from opineq import anticomm, quadrature, spectra
from opineq.errors import AccuracyError, DomainError
from opineq.quadrature import CHAIN, GIDX, WG, WK, XK, QuadResult, integrate_adaptive


def test_constant_integrand():
    res = integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-10)
    assert abs(res.value - 1.0) < 1e-12
    assert res.evaluations >= 1


def test_inverse_sqrt_endpoint_singularity():
    res = integrate_adaptive(lambda x: x ** -0.5, 0.0, 1.0, 1e-10)
    assert abs(res.value - 2.0) < 1e-9


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0),
                                 (-math.inf, math.inf)])
def test_infinite_limit_rejected(a, b):
    # rejected before any node is formed: the suite turns the
    # RuntimeWarning of a NaN node into an error of its own
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: np.exp(-x * x), a, b)


def test_nonconvergence_carries_best_estimate():
    # oscillation far beyond what the subdivision budget can resolve
    with pytest.raises(AccuracyError) as exc:
        integrate_adaptive(lambda x: np.cos(3e7 * x * x), 0.0, 1.0, 1e-10)
    assert exc.value.best is not None
    assert exc.value.best.evaluations > 1000


def _one_call_per_split(f, a, b, tol=1e-10):
    """The adaptive scheme with one integrand call on the 30 nodes of both
    halves per split and nothing evaluated ahead."""
    def panel(fx, lo, hi):
        half = 0.5 * (hi - lo)
        ik = float(WK @ fx) * half
        return ik, abs(ik - float(WG @ fx[GIDX]) * half)

    def nodes(lo, hi):
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * XK

    val, err = panel(np.broadcast_to(f(nodes(a, b)), (15,)), a, b)
    heap = [(-err, a, b, val, err)]
    total, toterr, abssum, nev = val, err, abs(val), 15
    while toterr > max(tol * abs(total), 1e-14 * abssum, 1e-300):
        _, lo, hi, v0, e0 = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        fx = np.broadcast_to(f(np.concatenate([nodes(lo, mid), nodes(mid, hi)])), (30,))
        (v1, e1), (v2, e2) = panel(fx[:15], lo, mid), panel(fx[15:], mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        total += v1 + v2 - v0
        toterr += e1 + e2 - e0
        abssum += abs(v1) + abs(v2) - abs(v0)
        nev += 30
    return QuadResult(total, toterr, nev)


def _bits(res):
    return (res.value.hex(), res.abs_error_estimate.hex())


@pytest.mark.parametrize("f,a,b", [
    (lambda x: np.exp(x) * np.cos(3.0 * x), 0.0, 2.0),     # smooth
    (lambda x: np.log(x) / np.sqrt(x), 0.0, 1.0),          # singular at a
    pytest.param(lambda x: np.log(-x) / np.sqrt(-x), -1.0, 0.0, id="singular_at_b"),
    pytest.param(lambda x: np.log(x) * np.log(1.0 - x), 0.0, 1.0, id="singular_at_both"),
])
def test_array_integrand_contract(f, a, b):
    sizes = []

    def counted(x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        sizes.append(x.size)
        return f(x)

    res = integrate_adaptive(counted, a, b, 1e-11)
    assert sizes[0] == 15 and len(sizes) > 1
    assert all(n % 30 == 0 for n in sizes[1:])
    assert res.evaluations == sum(sizes)
    ref = _one_call_per_split(f, a, b, 1e-11)
    assert _bits(res) == _bits(ref)
    assert len(sizes) <= 1 + (ref.evaluations - 15) // 30   # at most one per split
    # at most one chain of levels evaluated ahead and never split, per end
    assert ref.evaluations <= res.evaluations <= ref.evaluations + 60 * (CHAIN - 1)


def test_levels_ahead_only_at_a_singular_end():
    def chained(f, a, b):
        sizes = []
        integrate_adaptive(lambda x: sizes.append(x.size) or f(x), a, b, 1e-11)
        return 30 * CHAIN in sizes

    assert chained(lambda x: np.log(x) / np.sqrt(x), 0.0, 1.0)
    assert chained(lambda x: np.log(-x) / np.sqrt(-x), -1.0, 0.0)
    assert not chained(lambda x: np.exp(x) * np.cos(3.0 * x), 0.0, 2.0)
    # a bump across the first midpoint, negligible at both ends
    assert not chained(lambda x: np.exp(-(x - 0.3) ** 2), -40.0, 40.0)


def _domain_error_at_one(x):
    if np.any(x == 1.0):
        raise DomainError("x = 1")
    return np.log(1.0 - x)


@pytest.mark.parametrize("f", [
    pytest.param(_domain_error_at_one, id="domain_error"),
    pytest.param(lambda x: np.log(1.0 - x), id="inf_with_divide_flag"),
    pytest.param(lambda x: np.log(np.where(x < 1.0, 1.0 - x, np.nan)), id="nan_without_flag"),
])
def test_nonfinite_at_end_falls_back(f, monkeypatch):
    # levels deep enough that nodes round to b = 1, where f is not finite;
    # the loop never comes near them, so the integral must not raise
    monkeypatch.setattr(quadrature, "CHAIN", 60)
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    res = integrate_adaptive(counted, 0.0, 1.0, 1e-10)
    ref = _one_call_per_split(f, 0.0, 1.0, 1e-10)
    assert _bits(res) == _bits(ref)
    assert 30 * 60 in sizes                 # the failed call, counted
    assert res.evaluations == sum(sizes)
    assert abs(res.value + 1.0) < 1e-9


@pytest.mark.parametrize("d", [1.2, 1.5, 2.01, 2.5, 3.0, 6.0, 12.0])
def test_gamma_bitwise_one_call_per_split(d, monkeypatch):
    new = anticomm.gamma(d)
    monkeypatch.setattr(anticomm, "integrate_adaptive", _one_call_per_split)
    assert _bits(new) == _bits(anticomm.gamma(d))


@pytest.mark.parametrize("m", range(7))
def test_mellin_bitwise_one_call_per_split(m, monkeypatch):
    s_grid = (0.0, 0.25, 1.0, 2.5, 4.0, 7.0)
    new = [spectra._mellin_quadrature(m, s) for s in s_grid]
    monkeypatch.setattr(spectra, "integrate_adaptive", _one_call_per_split)
    assert [_bits(r) for r in new] == [_bits(spectra._mellin_quadrature(m, s))
                                       for s in s_grid]


def test_nonrel_form_bitwise_one_call_per_split(monkeypatch):
    psis = [anticomm.TrialFunction("log_gaussian", sigma) for sigma in (0.25, 0.5, 1.0, 2.0, 4.0)]
    new = [anticomm.nonrel_form(psi) for psi in psis]
    monkeypatch.setattr(anticomm, "integrate_adaptive", _one_call_per_split)
    assert [v.hex() for v in new] == [anticomm.nonrel_form(psi).hex() for psi in psis]


def test_integrand_shape_mismatch_is_domain_error():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x[:3], 0.0, 1.0)


def test_nan_integrand_is_domain_error():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: float("nan"), 0.0, 1.0, 1e-8)


def test_bad_interval_and_tolerance():
    for a, b in ((1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, a, b)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, tol=tol)


def test_quadresult_invariants():
    with pytest.raises(DomainError):
        QuadResult(float("inf"), 0.0, 1)
    with pytest.raises(DomainError):
        QuadResult(1.0, -1.0, 1)
    with pytest.raises(DomainError):
        QuadResult(1.0, 0.0, 0)


def _load_gk15_generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "gk15_table.py"
    spec = importlib.util.spec_from_file_location("gk15_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gk15_tables_are_full_precision():
    # regenerated from the Legendre and Stieltjes roots at 30 digits: every
    # stored node and weight within an ulp, and each weight set summing to
    # 2 within an ulp (15-digit tables left the Kronrod sum 6e-15 short)
    for stored, exact in zip((XK, WK, WG), _load_gk15_generator().gk15()):
        exact = np.array([float(v) for v in exact])
        assert np.all(np.abs(stored - exact) <= np.spacing(np.abs(exact)))
    for w in (WK, WG):
        assert abs(math.fsum(w) - 2.0) <= np.spacing(2.0)
