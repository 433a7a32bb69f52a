"""Closed-form excess-charge calculators and configuration-level checks.

Everything here is exact arithmetic on floats (no quadrature); units are
hbar = e = 1 throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

GAMMA_QUARTER = 3.6256099082219083


def excess_charge_relativistic(delta: float, Z: float) -> float:
    """Upper bound 2 (delta + Z) + 1 on the bindable electron number of the
    relativistic 2D dot with missing flux delta and charge Z."""
    if delta < 0 or Z < 0:
        raise DomainError("delta and Z must be >= 0")
    return 2.0 * (delta + Z) + 1.0


def excess_charge_nonrel_2d(Z: float) -> float:
    """Non-relativistic 2D bound N <= 2 Z + log(sqrt(Z)) + 7/2."""
    if Z <= 0:
        raise DomainError("Z must be positive")
    return 2.0 * Z + math.log(math.sqrt(Z)) + 3.5


def expectation_bound(Z: float) -> float:
    """Ground-state Coulomb-expectation bound 4 log(sqrt(Z)) + 10."""
    if Z <= 0:
        raise DomainError("Z must be positive")
    return 4.0 * math.log(math.sqrt(Z)) + 10.0


def flux_delta(B: float, R: float) -> float:
    """Missing magnetic flux parameter delta = R^2 B / 2 (e = 1)."""
    if B < 0 or R < 0:
        raise DomainError("B and R must be >= 0")
    return 0.5 * B * R * R


@dataclass(frozen=True)
class Configuration:
    """N distinct points in R^2 away from the origin."""

    points: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise DomainError("configuration must be N x 2")
        if np.any(np.hypot(pts[:, 0], pts[:, 1]) == 0.0):
            raise DomainError("no point may sit at the origin")
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        n = pts.shape[0]
        if n > 1 and np.min(dist[~np.eye(n, dtype=bool)]) == 0.0:
            raise DomainError("points must be pairwise distinct")

    def __len__(self):
        return len(self.points)


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
    """Largest integer N with -(delta+Z) N + N(N-1)/2 < 0 (0 when none is)."""
    if delta < 0 or Z < 0:
        raise DomainError("delta and Z must be >= 0")
    t = 2.0 * (delta + Z)
    # N - 1 < t for N = ceil(t) and fails for ceil(t) + 1, integer t included
    return int(math.ceil(t)) if t > 0.0 else 0


def critical_constant_printed(variant: str = "as-printed") -> float:
    """The coupling constant printed for the projected operator, in both the
    as-printed form (Gamma(1/4)^4/(8 pi^2) + 8 pi^2/Gamma(1/4))^-1 and the
    dimensionally symmetric fourth-power variant.

    The two are exposed side by side; the printed form is dimensionally
    asymmetric and is never silently preferred.
    """
    g = GAMMA_QUARTER
    first = g ** 4 / (8.0 * math.pi ** 2)
    if variant == "as-printed":
        return 1.0 / (first + 8.0 * math.pi ** 2 / g)
    if variant == "fourth-power":
        return 1.0 / (first + 8.0 * math.pi ** 2 / g ** 4)
    raise DomainError("variant must be 'as-printed' or 'fourth-power'")


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
        if Z > 0:
            rows.append(("excess_charge_nonrel_2d", excess_charge_nonrel_2d(Z),
                         "nonrelativistic 2D bound"))
            rows.append(("expectation_bound", expectation_bound(Z),
                         "ground-state <1/|x_1|> bound"))
        rows.append(("critical_constant_as_printed",
                     critical_constant_printed("as-printed"),
                     "printed projected-operator constant (asymmetric form)"))
        rows.append(("critical_constant_fourth_power",
                     critical_constant_printed("fourth-power"),
                     "fourth-power variant of the printed constant"))
        rep = BoundReport(delta=delta, Z=Z, values=tuple(rows))
        for _, v, _ in rep.values:
            if not math.isfinite(v):
                raise DomainError("non-finite bound value")
        return rep
