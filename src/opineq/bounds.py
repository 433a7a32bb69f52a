"""Closed-form excess-charge calculators and configuration-level checks.

Everything here is exact arithmetic on floats (no quadrature); units are
hbar = e = 1 throughout.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

GAMMA_QUARTER = 3.6256099082219083

# the projected operator's coupling constant, equal to 2 / (M_0(0) + M_1(0))
# (spectra.mellin_multiplier), and as printed, with Gamma(1/4) for Gamma(1/4)^4
CRITICAL_CONSTANT_FOURTH_POWER = 1.0 / (GAMMA_QUARTER ** 4 / (8.0 * math.pi ** 2)
                                        + 8.0 * math.pi ** 2 / GAMMA_QUARTER ** 4)
CRITICAL_CONSTANT_AS_PRINTED = 1.0 / (GAMMA_QUARTER ** 4 / (8.0 * math.pi ** 2)
                                      + 8.0 * math.pi ** 2 / GAMMA_QUARTER)
FOURTH_POWER_PROVENANCE = "projected-operator constant = 2/(M_0(0)+M_1(0)) (tested to 1e-9)"
AS_PRINTED_PROVENANCE = ("projected-operator constant as printed: Gamma(1/4) "
                         "in its second term where Gamma(1/4)^4 belongs")


def _nonnegative(**values):
    """DomainError unless every value is finite and >= 0 (NaN is not)."""
    for name, v in values.items():
        if not 0 <= v < math.inf:
            raise DomainError("%s must be finite and >= 0, not %r" % (name, v))


def _positive(Z):
    if not 0 < Z < math.inf:
        raise DomainError("Z must be finite and positive, not %r" % Z)


def _finite(x, what):
    """x, or DomainError where finite inputs overflowed."""
    if not math.isfinite(x):
        raise DomainError("%s overflows" % what)
    return x


def excess_charge_relativistic(delta: float, Z: float) -> float:
    """Upper bound 2 (delta + Z) + 1 on the bindable electron number of the
    relativistic 2D dot with missing flux delta and charge Z."""
    _nonnegative(delta=delta, Z=Z)
    return _finite(2.0 * (delta + Z) + 1.0, "2 (delta + Z) + 1")


def excess_charge_nonrel_2d(Z: float) -> float:
    """Non-relativistic 2D bound N <= 2 Z + log(sqrt(Z)) + 7/2.

    One electron binds to every Z > 0 (2D hydrogen, E = -2 Z^2), so a
    value below 1, as for Z < 0.0065634, is no bound: DomainError there."""
    _positive(Z)
    N = _finite(2.0 * Z + math.log(math.sqrt(Z)) + 3.5, "2 Z + log(sqrt(Z)) + 7/2")
    if N < 1.0:
        raise DomainError("2 Z + log(sqrt(Z)) + 7/2 = %r < 1 at Z = %r: below "
                          "the one electron every Z > 0 binds" % (N, Z))
    return N


def expectation_bound(Z: float) -> float:
    """Ground-state Coulomb-expectation bound 4 log(sqrt(Z)) + 10.

    <1/|x_1|> is positive, so a value <= 0, as for Z <= e^-5, is no
    bound: DomainError there."""
    _positive(Z)
    b = 4.0 * math.log(math.sqrt(Z)) + 10.0
    if not b > 0.0:
        raise DomainError("4 log(sqrt(Z)) + 10 = %r <= 0 at Z = %r: no bound "
                          "on the positive <1/|x_1|>" % (b, Z))
    return b


def flux_delta(B: float, R: float) -> float:
    """Missing magnetic flux parameter delta = R^2 B / 2 (e = 1)."""
    _nonnegative(B=B, R=R)
    return _finite(0.5 * B * R * R, "R^2 B / 2")


@dataclass(frozen=True)
class Configuration:
    """N distinct points in R^2 away from the origin."""

    points: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise DomainError("configuration must be N x 2")
        if not np.all(np.isfinite(pts)):
            raise DomainError("coordinates must be finite")
        if np.any(np.hypot(pts[:, 0], pts[:, 1]) == 0.0):
            raise DomainError("no point may sit at the origin")
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        n = pts.shape[0]
        if n > 1 and np.min(dist[~np.eye(n, dtype=bool)]) == 0.0:
            raise DomainError("points must be pairwise distinct")


def pair_sum(config: Configuration) -> float:
    """S = (1/2) sum over m != n of (|x_m| + |x_n|) / |x_m - x_n|.

    The triangle inequality |x_m - x_n| <= |x_m| + |x_n| gives
    S >= N (N - 1) / 2, with equality for antipodal pairs.
    """
    pts = np.asarray(config.points, dtype=float)
    n = pts.shape[0]
    if n < 2:
        return 0.0
    r = np.hypot(pts[:, 0], pts[:, 1])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    iu = np.triu_indices(n, 1)
    return float(np.sum((r[iu[0]] + r[iu[1]]) / dist[iu]))


def max_bindable(delta: float, Z: float) -> int:
    """Largest integer N with -(delta+Z) N + N(N-1)/2 < 0 (0 when none is),
    delta + Z rounded to a float."""
    _nonnegative(delta=delta, Z=Z)
    t = _finite(2.0 * (delta + Z), "2 (delta + Z)")
    # N - 1 < t for N = ceil(t) and fails for ceil(t) + 1, integer t included
    return int(math.ceil(t)) if t > 0.0 else 0


@dataclass(frozen=True)
class BoundReport:
    """All closed-form charge/flux bounds for one (delta, Z) input, with
    per-value provenance labels.

    The saturation-threshold premise E_N < E_{N-1} behind the excess-
    charge bound is assumed, never computed here, and
    threshold_premise_assumed records that.
    """

    delta: float
    Z: float
    threshold_premise_assumed: bool = True
    values: tuple = field(default=())

    @staticmethod
    def build(Z: float, delta: float = None, B: float = None,
              R: float = None) -> "BoundReport":
        if delta is None:
            if B is None or R is None:
                raise DomainError("need either delta or both B and R")
            delta = flux_delta(B, R)
        rows = [
            ("excess_charge_relativistic", excess_charge_relativistic(delta, Z),
             "bound: N < 2(delta+Z)+1"),
            ("max_bindable", float(max_bindable(delta, Z)),
             "largest N consistent with the pair-sum contradiction"),
        ]
        # each only where it is defined: Z > 0, and not so small that the
        # value contradicts the one electron every Z > 0 binds
        for name, bound, label in (
                ("excess_charge_nonrel_2d", excess_charge_nonrel_2d,
                 "nonrelativistic 2D bound"),
                ("expectation_bound", expectation_bound, "ground-state <1/|x_1|> bound")):
            with contextlib.suppress(DomainError):
                rows.append((name, bound(Z), label))
        rows.append(("critical_constant_as_printed", CRITICAL_CONSTANT_AS_PRINTED,
                     AS_PRINTED_PROVENANCE))
        rows.append(("critical_constant_fourth_power", CRITICAL_CONSTANT_FOURTH_POWER,
                     FOURTH_POWER_PROVENANCE))
        rep = BoundReport(delta=delta, Z=Z, values=tuple(rows))
        for _, v, _ in rep.values:
            if not math.isfinite(v):
                raise DomainError("non-finite bound value")
        return rep
