import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from opineq.anticomm import TrialFunction, momentum_expectation, ridge_moments
from opineq.errors import DomainError, GridRejectionError, RefinementNeededError
from opineq.spectra import (GridSpec, _channel_moments, _momentum_log_grid,
                            chandrasekhar_lowest, classify_coupling,
                            coulomb_channel_kernel, critical_coupling_bisect,
                            critical_coupling_mellin, hydrogen2d,
                            lambda_min_anticomm, mellin_multiplier,
                            momentum_channel, momentum_channel_log)

HERBST_2D = 0.228473290522232  # 2 Gamma(3/4)^2 / Gamma(1/4)^2, sanity anchor only


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 64)
    with pytest.raises(DomainError):
        GridSpec(1.0, 0.5, 64)
    with pytest.raises(DomainError):
        GridSpec(0.1, 1.0, 8)
    g = GridSpec(0.1, 10.0, 64)
    nodes = g.nodes()
    assert nodes[0] == pytest.approx(0.1) and nodes[-1] == pytest.approx(10.0)
    assert np.all(np.diff(nodes) > 0)


def test_momentum_channel_symmetric_psd():
    op = momentum_channel(0, GridSpec(1e-4, 12.0, 128))
    P = op.matrix
    assert np.max(np.abs(P - P.T)) <= 1e-12 * np.max(np.abs(P))
    ev = np.linalg.eigvalsh(P)
    assert ev[0] >= -1e-10 * ev[-1]


def test_momentum_channel_gaussian_hankel_oracle():
    op = momentum_channel(0, GridSpec(1e-4, 32.0, 1024))
    f = np.exp(-op.r ** 2 / 2.0)
    got = op.matrix @ (f * np.sqrt(op.w)) / np.sqrt(op.w)
    sel = op.r < 10.0
    oracle = np.array([quad(lambda k: k * np.exp(-k * k / 2) * j0(k * r) * k,
                            0, 40, limit=400)[0] for r in op.r[sel]])
    rel = np.linalg.norm(got[sel] - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-4


def test_momentum_channel_rayleigh_vs_lieb_yau():
    psi = TrialFunction("log_gaussian", 1.0)
    op = momentum_channel(0, GridSpec(1e-4, 60.0, 480))
    q_spec = op.rayleigh(psi.profile_log(np.log(op.r)))
    q_ly = momentum_expectation(psi, 2.0) / psi.norm_sq(2.0)
    assert q_spec == pytest.approx(q_ly, rel=1e-3)


def test_momentum_channel_log_agrees():
    psi = TrialFunction("log_gaussian", 1.0)
    op = momentum_channel_log(0, GridSpec(1e-4, 1e4, 800))
    q_log = op.rayleigh(psi.profile_log(np.log(op.r)))
    q_ly = momentum_expectation(psi, 2.0) / psi.norm_sq(2.0)
    assert q_log == pytest.approx(q_ly, rel=1e-3)
    ev = np.linalg.eigvalsh(op.matrix)
    assert ev[0] >= -1e-10 * ev[-1]  # PSD by pairwise-square construction


def _pairwise_log_grid(m, n, L):
    """Reference assembly of the log-grid form one offset and one central
    difference at a time, from the same band moments."""
    h = L / (n - 1)
    s = np.arange(n) * h
    a = np.exp(-s)
    ehalf = np.exp(0.5 * s)
    c0 = 2.0 ** -2.5 / (2.0 * math.pi)
    phi2 = ridge_moments(2.0, h, n, 0.0)
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
        d0 = 2.0 * c0 * _channel_moments(m, h, n)
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


def test_momentum_channel_homogeneity():
    # quotient scales like lambda under r -> r/lambda (degree -1 operator)
    psi = TrialFunction("log_gaussian", 0.7)
    qs = []
    for R in (40.0, 20.0):
        op = momentum_channel(0, GridSpec(1e-4, R, 256))
        lam = 40.0 / R
        qs.append(op.rayleigh(psi.profile_log(np.log(lam * op.r))))
    assert qs[1] == pytest.approx(2.0 * qs[0], rel=1e-12)


def test_momentum_channel_rejections():
    with pytest.raises(DomainError):
        momentum_channel(65, GridSpec(1e-3, 10.0, 64))
    with pytest.raises(GridRejectionError):
        momentum_channel(0, GridSpec(1e-3, 10.0, 64), cond_threshold=1e-16)


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


def test_hydrogen_too_coarse_raises_with_trace():
    with pytest.raises(RefinementNeededError) as exc:
        hydrogen2d(1.0, 0, GridSpec(1e-3, 120.0, 40))
    assert len(exc.value.trace) >= 1
    with pytest.raises(DomainError):
        hydrogen2d(-1.0, 0)


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
    # k_m(1/t) = t k_m(t)
    t = np.array([0.2, 0.5, 0.8])
    for m in (0, 1, 3):
        a = coulomb_channel_kernel(m, t)
        b = coulomb_channel_kernel(m, 1.0 / t)
        assert np.allclose(b, t * a, rtol=1e-9)


def test_critical_coupling_cross_validation():
    mel = critical_coupling_mellin(2)
    bis = critical_coupling_bisect()
    assert 0.15 < mel.nu_c < 0.30
    assert 0.15 < bis.nu_c < 0.30
    assert abs(bis.nu_c - mel.nu_c) <= 0.01
    # classification examples relative to the measured transition
    assert classify_coupling(bis.nu_c / 2.0)[0] == "stable"
    assert classify_coupling(2.0 * bis.nu_c)[0] == "divergent"


def test_lambda_min_anticommutator():
    lam2, tr2 = lambda_min_anticomm(2)
    assert lam2 >= -1e-3
    lam3, tr3 = lambda_min_anticomm(3)
    assert lam3 >= 0.95
    vals = [v for _, v in tr3]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        lambda_min_anticomm(4)


def test_anticommutator_scale_invariance():
    # <psi,(XP+PX)psi>/||psi||^2 under the grid-realized dilation psi -> psi(2r):
    # the anticommutator is dimensionless, so the quotient is unchanged
    psi = TrialFunction("log_gaussian", 0.8)
    qs = []
    for R in (30.0, 15.0):
        op = momentum_channel(0, GridSpec(1e-4, R, 300))
        v = psi.profile_log(np.log((30.0 / R) * op.r)) * np.sqrt(op.w)
        H = (op.r[:, None] + op.r[None, :]) * op.matrix
        qs.append(float(v @ H @ v) / float(v @ v))
    assert qs[0] == pytest.approx(qs[1], rel=1e-3)
