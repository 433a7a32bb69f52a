"""Independent oracles for the benchmark tasks, each with its tolerance and the
reason for that tolerance.

A check compares one number a task produced against its oracle and keeps
err, tol and reason; margin = 1 - err/tol is 1 for an exact result, 0 at the
tolerance and negative beyond it.  Pass/fail checks (a side of a threshold,
an exact count) use err = 0 when they hold and err = 2 tol when they do not.
"""

import math
from dataclasses import dataclass

import mpmath

# gamma_d references copied by value from tests/test_anticomm.py, where they
# are recorded as 30-digit mpmath quadratures along two independent
# substitutions.  gamma_3 = pi^2 is exact (2 alpha_3 gamma_3 = 1).
GAMMA_REF = {
    1.5: -2.30720541054060085,
    2.01: 0.0631802461365732294,
    2.5: 4.03308358400775607,
    3.0: math.pi ** 2,
}

# t[psi]/||psi||^2 for log-Gaussians (d, sigma), copied by value from
# MELLIN_T in tests/test_anticomm.py: the closed-form Gamma-function Mellin
# symbol of the anticommutator, Plancherel in log-radius.
MELLIN_T = {
    (2.0, 0.25): 27.2281824175103,
    (2.0, 0.5): 12.5730791194058,
    (2.0, 1.0): 5.17087598976948,
    (2.0, 2.0): 1.77240054301193,
    (2.0, 4.0): 0.510732043003011,
    (2.5, 1.0): 9.20894758210052,
    (3.0, 1.0): 14.9855499045004,
}

TOL = {
    "gamma": (1e-6, "relative; the loosest outer tolerance requested is 1e-7 "
                    "and the kernel runs 100x tighter, so 1e-6 leaves 10x for "
                    "an error estimate that is only an estimate"),
    "mellin": (1e-8, "relative; mellin_multiplier integrates at tol 1e-9 with "
                     "a 1e-11 kernel, so 1e-8 leaves 10x headroom"),
    "dilation": (1e-6, "relative; H_STEP divides ln 2, so dilation by 2 is an "
                       "exact lattice shift and only 1e-12 truncated mass and "
                       "roundoff separate t[psi_2] from 2^-d t[psi]"),
    "positivity": (1e-6, "times the form's absolute scale; at d = 2 the form "
                         "is >= 0 (the paper's claim) and cancellation among "
                         "lattice terms of size `scale` sets the floor"),
    "mellin_table_extrapolated": (5e-2, "relative; the eps -> 0 extrapolation "
                                        "converges at a fractional power of eps "
                                        "(the suite's own tolerance)"),
    "mellin_table_direct": (5e-3, "relative; the unregularized lattice "
                                  "evaluation carries O(h^2) band error, up to "
                                  "2e-3 at sigma = 0.25"),
    "nonrel": (1e-6, "times 1/(2 sigma^2) + 1/4; the closed form crosses zero "
                     "at sigma = sqrt(2), so error is measured on the natural "
                     "magnitude; the 1D quadrature runs at tol 1e-11"),
    "herbst": (1e-2, "absolute; criterion 7 as the ROADMAP reads it: the "
                     "refinement-divergence bisection lands 3.3% high because "
                     "of the eigensolver noise floor"),
    "channel_m": (1e-3, "absolute, lower bound on e_m for m >= 1; the channel "
                        "is subcritical for nu < 1/M_m(0), so only "
                        "discretization noise can push it below zero"),
    "hydrogen": (5e-3, "relative; the same 0.5% gate hydrogen2d applies "
                       "between its full and half-resolution solves"),
    "kato": (1.0, "ratio max_violation / tol_violation; the library's own "
                  "1e-10 ||eta|| ||phi|| ||T|| roundoff tolerance"),
    "equality": (1e-12, "relative; A = 0 and phi >= 0 make lhs and rhs the "
                        "same sum with sgn(phi) = 1, so only summation order "
                        "differs"),
    "dispersion": (1e-10, "absolute, on eigenvalues of size <= 2/h; periodic "
                          "centered differences are diagonalized exactly by "
                          "the FFT, leaving eigensolver roundoff"),
    "exact": (1.0, "exact condition: a sign, a side of a threshold or an "
                   "integer count"),
}


@dataclass(frozen=True)
class Check:
    name: str
    err: float
    tol: float

    @property
    def passed(self):
        return self.err <= self.tol

    @property
    def margin(self):
        return 1.0 - self.err / self.tol


def rel(name, got, want):
    tol = TOL[name][0]
    return Check(name, abs(got - want) / abs(want), tol)


def scaled(name, got, want, scale):
    tol = TOL[name][0]
    return Check(name, abs(got - want) / scale, tol)


def at_least(name, got, floor, scale=1.0):
    """One-sided: got >= floor - tol * scale."""
    tol = TOL[name][0]
    return Check(name, max(0.0, floor - got) / scale, tol)


def exact(name, holds):
    return Check("exact:" + name, 0.0 if holds else 2.0, TOL["exact"][0])


def mellin_closed_form(m, s):
    """M_m(s) = G((|m|+1/2+is)/2) G((|m|+1/2-is)/2) / (2 G((|m|+3/2+is)/2) G((|m|+3/2-is)/2)).

    The two factors of each pair are complex conjugates, so the ratio is real.
    """
    with mpmath.workdps(30):
        a = abs(m)
        z = mpmath.mpc(0, s)
        num = mpmath.gamma((a + 0.5 + z) / 2) * mpmath.gamma((a + 0.5 - z) / 2)
        den = 2 * mpmath.gamma((a + 1.5 + z) / 2) * mpmath.gamma((a + 1.5 - z) / 2)
        return float(mpmath.re(num / den))


def herbst_2d():
    """Critical coupling of |p| - nu/|x| in 2D: 2 Gamma(3/4)^2 / Gamma(1/4)^2
    (Herbst, Commun. Math. Phys. 53, 1977)."""
    with mpmath.workdps(30):
        return float(2 * mpmath.gamma(0.75) ** 2 / mpmath.gamma(0.25) ** 2)
