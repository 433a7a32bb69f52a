"""The hot quadrature kernel, vectorized in numpy, and the GK15 table.

The one primitive is the polar reduction integral

    I(um1, eta) = int_0^pi  sin^w(t) * c(m t) / ((um1 + 2 sin^2(t/2))^p + eta) dt

with c = cos or (1 - cos), evaluated for a whole batch of (um1, eta)
pairs at once.  um1 stands for u - 1 >= 0 so that the near-singular
regime u -> 1 keeps full relative precision.

Strategy: split at pi/2 and map each half to v in [0, 1] through
t = (pi/2) v^q (resp. pi - (pi/2) v^q).  The exponent q flattens the
sin^w endpoint factor; the u ~ 1 peak is resolved by shared adaptive
Gauss-Kronrod panels refined where any batch element still needs it.
"""

import numpy as np

from .errors import DomainError

backend_name = "python"

# Gauss7/Kronrod15 nodes and weights on [-1, 1], shared with the outer
# adaptive quadrature; GIDX picks the Gauss nodes out of the Kronrod ones.
XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
GIDX = np.arange(1, 15, 2)

_HALF_PI = 0.5 * np.pi

# Error estimates of resolved panels sit at a few ulps of the absolute mass,
# so an integral that cancels stops refining at this fraction of it; the
# outer quadrature applies the same floor.
ROUNDOFF_FLOOR = 1e-14
MAX_PANELS = 800
CHUNK = 2048


def _eval_panels(a, b, region, q, p, w, m, omc, um1, eta):
    """GK15 on panels [a_j, b_j]; returns (vals, errs) of shape (npanel, ne)."""
    a = a[:, None]
    b = b[:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    v = mid + half * XK[None, :]                      # (np, 15)
    x = _HALF_PI * v ** q
    jac = _HALF_PI * q * v ** (q - 1.0)
    theta = np.pi - x if region == 1 else x
    # x is the distance of t from the endpoint 0 (region 0) or pi (region 1).
    # sin t and 2 sin^2(t/2) are taken from x, because pi - x drops x's
    # relative precision and the sin^w factor is singular there for w < 0;
    # 1 - cos is taken as 2 sin^2 so it keeps its precision near t = 0.
    # integrand factors, broadcast to (np, 15, ne)
    s2 = 2.0 * (np.cos if region == 1 else np.sin)(0.5 * x) ** 2
    den = (um1[None, None, :] + s2[:, :, None]) ** p + eta[None, None, :]
    f = jac[:, :, None] / den
    if w != 0.0:
        f = f * (np.sin(x) ** w)[:, :, None]
    if m != 0:
        c = 2.0 * np.sin(0.5 * m * theta) ** 2 if omc else np.cos(m * theta)
        f = f * c[:, :, None]
    elif omc:
        f = np.zeros_like(f)
    ik = np.einsum("k,pke->pe", WK, f)
    ig = np.einsum("k,pke->pe", WG, f[:, GIDX, :])
    vals = ik * half[:, 0:1]
    errs = np.abs(ik - ig) * half[:, 0:1]
    return vals, errs


def polar_batch(p, w, m, um1, eta, tol=1e-11, one_minus_cos=False):
    """Batched polar integral; returns (values, abs_errors, n_evaluations).

    An element is converged once its error estimate is within `tol` of
    its value, or within ROUNDOFF_FLOOR of its absolute mass when the
    integral cancels; the returned errors are the estimates either way.
    Elements are processed CHUNK at a time, and within a chunk panels
    are evaluated in blocks of at most CHUNK panel-elements, which
    bounds the size of every temporary array.  A chunk stops refining at
    MAX_PANELS panels.  A tolerance that is not positive raises
    DomainError: only the roundoff floor would end its refinement.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    um1 = np.atleast_1d(np.asarray(um1, dtype=float))
    eta = np.broadcast_to(np.asarray(eta, dtype=float), um1.shape).copy()
    ne = um1.size
    out_v = np.empty(ne)
    out_e = np.empty(ne)
    nev = 0
    q = max(2.0, 2.0 / (w + 1.0))
    for lo in range(0, ne, CHUNK):
        hi = min(lo + CHUNK, ne)
        v, e, n = _polar_chunk(p, w, m, um1[lo:hi], eta[lo:hi], tol,
                               one_minus_cos, q)
        out_v[lo:hi] = v
        out_e[lo:hi] = e
        nev += n
    return out_v, out_e, nev


def _polar_chunk(p, w, m, um1, eta, tol, omc, q):
    ne = um1.size
    block = max(1, CHUNK // ne)

    def evaluate(a, b, reg):
        vals = np.empty((a.size, ne))
        errs = np.empty((a.size, ne))
        for region in (0, 1):
            idx = np.flatnonzero(reg == region)
            for lo in range(0, idx.size, block):
                sel = idx[lo:lo + block]
                vals[sel], errs[sel] = _eval_panels(
                    a[sel], b[sel], region, q, p, w, m, omc, um1, eta)
        return vals, errs

    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    reg = np.array([0, 1])
    vals, errs = evaluate(a, b, reg)
    nev = 15 * a.size * ne

    while a.size < MAX_PANELS:
        err = errs.sum(axis=0)
        target = np.maximum(tol * np.abs(vals.sum(axis=0)),
                            ROUNDOFF_FLOOR * np.abs(vals).sum(axis=0))
        live = err > target
        if not live.any():
            break
        # refine every panel holding more than its share of a live element's budget
        share = target[None, live] / (4.0 * a.size)
        split = (errs[:, live] > share).any(axis=1)
        if not split.any():
            split[np.argmax(errs[:, live].max(axis=1))] = True
        mid = 0.5 * (a[split] + b[split])
        na = np.concatenate([a[split], mid])
        nb = np.concatenate([mid, b[split]])
        nreg = np.concatenate([reg[split], reg[split]])
        newv, newe = evaluate(na, nb, nreg)
        nev += 15 * na.size * ne
        keep = ~split
        a = np.concatenate([a[keep], na])
        b = np.concatenate([b[keep], nb])
        reg = np.concatenate([reg[keep], nreg])
        vals = np.concatenate([vals[keep], newv], axis=0)
        errs = np.concatenate([errs[keep], newe], axis=0)

    return vals.sum(axis=0), errs.sum(axis=0), nev
