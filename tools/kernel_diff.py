"""Bitwise comparison of the angular kernels, of what is built from them,
and of the Kato lattice operators against BASE_REV.

    python3 tools/kernel_diff.py BASE_REV

BASE_REV is exported with `git archive` (bench_pair.export) into a
temporary directory, and this working tree is copied into another
(bench_pair.snapshot).  On each tree this script runs itself as
`kernel_diff.py --probe FILE` with that tree's `src` on PYTHONPATH, and
the probe pickles into FILE, by name:

- the angular kernel K_d (`kernels.polar_batch(d, um1)`, sphere factor
  included) values and bounds at seven dimensions, on u - 1 from 1e-14 to
  1e200 and inf;
- `anticomm.gamma`'s value and error estimate, and apart from them its
  evaluation count, at eight dimensions from 1.2 to 12; a change to the
  work alone shows the first SAME and the second DIFFERS;
- the ridge moments at d = 2, 2.5, 3, 1,500 bands at each of three step
  sizes;
- the (L, lambda) trace of `spectra.lambda_min_anticomm` at d = 2, 2.5, 3,
  12 and 40; at d = 40 the far pair weights underflow to 0 where their
  cosh factor in the Laplacian degree would overflow;
- `anticomm.relativistic_form`'s (value, scale, norm_sq) for the
  log-Gaussians at the seven (d, sigma) points of perfbench's MELLIN_T,
  for the log_linear_cutoff trials with sigma = 1/(d+2) at d = 1.2, 2, 3
  and 6 and with sigma = 0.556 at d = 1.2 (its offset cut near Kh = 51);
  `anticomm._form_engine`'s (value, scale) with H = e^s G for the
  two-bump profile of tests/test_anticomm.py (561 samples interpolated
  onto the lattice of step H_STEP out to |s| = 182 H_STEP) at d = 1.2, 2
  and 3; and <psi, |p| psi> at the MELLIN_T points, alpha(d) times
  `anticomm._form_engine`'s value with H = G on the trial's own lattice,
  so that a change to the forms shows for every trial family and both H;
- the 2D Coulomb channel kernel `coulomb_channel_kernel(m, t)` for
  m = 0..6 on the `KERNEL_TS` grid of tests/test_spectra.py;
- `spectra._mellin_quadrature(m, s)`, the quadrature behind
  `mellin_multiplier`, for m = 0..6 on the s grid of
  `test_mellin_multiplier_matches_gamma_ratio`: values, error estimates
  and evaluation counts, each apart;
- `anticomm.nonrel_form` of the log-Gaussians at five sigma from 0.25 to 4
  and of the log_linear_cutoff trials at sigma = 0.2 and 0.3;
- the Toeplitz column of the channel operator, the `t` of
  `spectra._momentum_log_grid(m, n, L)`'s `(t, q)`, for m = 0, 1, 2 on
  `spectra.SCAN_GRID` and on perfbench's three coupling pool grids;
- `spectra.critical_coupling_toeplitz`'s nu_c and uncertainty; the sides of
  `spectra.classify_coupling` at nu = 0.05, 0.075, ..., 0.6; and
  `spectra.chandrasekhar_lowest` on the three pool grids for m = 0, 1, 2
  at nu = 0.3, 0.5, 0.7, and on `spectra.SCAN_GRID` for m = 0 at
  nu = 0.3;
- `spectra.hydrogen_channels(Z, grid, m_max, 3)` at Z = 1, 2.5 and 1e-100,
  with m_max = 2 on `spectra.DEFAULT_HYDROGEN_GRID` and m_max = 0 on its
  n // 2 grid, each run once from a cold start (the `_momentum_log_grid`
  cache_clear hook) and once right after it, under keys of their own, so
  that a tree whose repeated calls differ from its first shows it;
- every block and the norm of `lattice.kinetic_matrix` for the none,
  background, cavity and total fields on open boundaries and none on
  periodic ones, at n = 16, 24, 32 and mass 0 and 1, on the square of
  side 12 that perfbench's kato workload uses;
- every field of `lattice.kato_random_run`'s `KatoRun` for the same
  fields on open boundaries, with phi complex and with phi >= 0.  These
  run after the `kinetic_matrix` probes, so a tree that keeps the
  zero-field operator serves them from its cache.

A quantity that raises is recorded as its exception.  Prints one line per
quantity, SAME or DIFFERS; a differing array of the same shape also says
whether the new side is >= the base side everywhere, and gives the largest
elementwise relative difference between them and the largest difference
relative to max|base|.  The first reads near 2 for an entry at roundoff
level that changed sign; the second says how far the array moved as a
whole.  Exits with status 1 if any quantity differs.
"""

import argparse
import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

from bench_pair import export, snapshot
from oracles import MELLIN_T  # perfbench, on the path through bench_pair

KERNEL_D = (1.2, 1.5, 2.0, 2.5, 3.0, 7.050034627526924, 12.0)
UM1 = np.concatenate([np.geomspace(1e-14, 1e8, 221), [1e130, 1e200, np.inf]])
GAMMA_D = (1.2, 1.5, 1.9, 2.01, 2.5, 3.0, 6.0, 12.0)
STEPS = (0.05, 0.08, 0.1)
BANDS = 1500
LATTICE = tuple(itertools.product((16, 24, 32), (0.0, 1.0)))    # (n, mass)
FIELDS = ("none", "background", "cavity", "total")
MELLIN_S = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 7.0)
NONREL_SIGMA = (0.25, 0.5, 1.0, 2.0, 4.0)
CLASSIFY_NU = tuple(0.05 + 0.025 * k for k in range(23))
CHANDRA_NU = (0.3, 0.5, 0.7)
HYDROGEN_Z = (1.0, 2.5, 1e-100)
POOL_GRIDS = ((20.0, 300), (23.0, 400), (26.0, 500))  # perfbench's (span, n) pool
# tests/test_spectra.py's KERNEL_TS
KERNEL_TS = np.unique(np.concatenate([
    np.logspace(-12.0, 12.0, 97), np.linspace(0.5, 2.0, 61),
    [0.9, np.nextafter(0.9, 0.0), 1.0 / 0.9, np.nextafter(1.0 / 0.9, 2.0)],
    [1.0 + sign * d for d in (1e-15, 3e-15, 1e-12, 1e-8, 1e-4) for sign in (-1, 1)],
]))


def lattice_field(n):
    from opineq import lattice
    return lattice.make_fields(1.3, 0.9, lattice.SquareGrid(12.0, n))


def kinetic(n, component, mass, boundary):
    """{"block k": the k-th parity block, "norm": the norm} of T_m."""
    from opineq import lattice
    T = lattice.kinetic_matrix(lattice_field(n), mass, component, boundary)
    out = {"block %d" % k: B for k, B in enumerate(T.blocks)}
    out["norm"] = np.array(T.norm)
    return out


def kato_run(n, component, mass, nonneg_phi):
    """{field name: value} of one seeded KatoRun, strings kept as strings."""
    from opineq import lattice
    run = lattice.kato_random_run(lattice_field(n), mass, component, samples=100,
                                  seed=2027, nonneg_phi=nonneg_phi)
    return {f.name: v if isinstance(v, str) else np.array(v)
            for f in dataclasses.fields(run) for v in [getattr(run, f.name)]}


def probe():
    """{name: array, or the repr of the exception it raised}."""
    from opineq import anticomm, kernels, spectra

    def quad(res):
        """A QuadResult's value and error estimate apart from its work."""
        return {"value, error": np.array([res.value, res.abs_error_estimate]),
                "evaluations": np.array(res.evaluations)}

    def mellin(m):
        res = [spectra._mellin_quadrature(m, s) for s in MELLIN_S]
        return {"values": np.array([r.value for r in res]),
                "error estimates": np.array([r.abs_error_estimate for r in res]),
                "evaluations": np.array([r.evaluations for r in res])}

    def form(d, psi):
        fv = anticomm.relativistic_form(psi, d)
        return np.array([fv.value, fv.scale, fv.norm_sq])

    def momentum(d, psi):
        s, h = anticomm._lattice(psi, d)
        G = psi.profile_log(s)
        return np.array(anticomm.alpha(d) * anticomm._form_engine(d, s, h, G, G)[0])

    def critical():
        res = spectra.critical_coupling_toeplitz()
        return np.array([res.nu_c, res.uncertainty])

    def hydrogen(Z, grid, m_max, cold):
        """{"m=k": channel k's levels} of hydrogen_channels(Z, grid, m_max, 3)."""
        if cold:
            spectra._momentum_log_grid.cache_clear()
        return {"m=%d" % m: ev
                for m, ev in enumerate(spectra.hydrogen_channels(Z, grid, m_max, 3))}

    def bumps(d):
        nodes = np.linspace(-14.0, 14.0, 561)
        s = np.arange(-182, 183) * anticomm.H_STEP
        G = np.interp(s, nodes, np.exp(-(nodes - 10.0) ** 2 / 2.0)
                      + np.exp(-(nodes + 10.0) ** 2 / 2.0), left=0.0, right=0.0)
        return np.array(anticomm._form_engine(d, s, anticomm.H_STEP, G, np.exp(s) * G))

    Trial = anticomm.TrialFunction

    jobs = {}
    for d in KERNEL_D:
        jobs["kernel m=0 d=%g" % d] = lambda d=d: kernels.polar_batch(d, UM1)[:2]
    for d in GAMMA_D:
        jobs["gamma d=%g" % d] = lambda d=d: quad(anticomm.gamma(d))
    for h in STEPS:
        for d in (2.0, 2.5, 3.0):
            jobs["ridge_moments d=%g h=%g" % (d, h)] = (
                lambda d=d, h=h: anticomm.ridge_moments(d, h, BANDS))
    for d in (2.0, 2.5, 3.0, 12.0, 40.0):
        jobs["lambda_min_anticomm d=%g" % d] = (
            lambda d=d: np.array(spectra.lambda_min_anticomm(d)[1]))
    for d, sigma in MELLIN_T:
        jobs["relativistic_form d=%g sigma=%g" % (d, sigma)] = (
            lambda d=d, sigma=sigma: form(d, Trial("log_gaussian", sigma)))
        jobs["momentum_expectation d=%g sigma=%g" % (d, sigma)] = (
            lambda d=d, sigma=sigma: momentum(d, Trial("log_gaussian", sigma)))
    for d, sigma in [(d, 1.0 / (d + 2.0)) for d in (1.2, 2.0, 3.0, 6.0)] + [(1.2, 0.556)]:
        jobs["relativistic_form log_linear_cutoff d=%g sigma=%g" % (d, sigma)] = (
            lambda d=d, sigma=sigma: form(d, Trial("log_linear_cutoff", sigma)))
    for d in (1.2, 2.0, 3.0):
        jobs["_form_engine two bumps d=%g" % d] = lambda d=d: bumps(d)
    for m in range(7):
        jobs["coulomb_channel_kernel m=%d" % m] = (
            lambda m=m: kernels.coulomb_channel_kernel(m, KERNEL_TS))
    for m in range(7):
        jobs["_mellin_quadrature m=%d" % m] = lambda m=m: mellin(m)
    for sigma in NONREL_SIGMA:
        jobs["nonrel_form sigma=%g" % sigma] = (
            lambda sigma=sigma: np.array(anticomm.nonrel_form(
                anticomm.TrialFunction("log_gaussian", sigma))))
    for sigma in (0.2, 0.3):
        jobs["nonrel_form log_linear_cutoff sigma=%g" % sigma] = (
            lambda sigma=sigma: np.array(anticomm.nonrel_form(
                anticomm.TrialFunction("log_linear_cutoff", sigma))))
    jobs["critical_coupling_toeplitz nu_c, uncertainty"] = critical
    jobs["classify_coupling sides"] = lambda: " ".join(
        spectra.classify_coupling(nu)[0] for nu in CLASSIFY_NU)
    grids = [("span=%g n=%d" % (span, n), spectra.GridSpec(math.exp(-span), 1.0, n))
             for span, n in POOL_GRIDS]
    for (name, g), m in itertools.product([("SCAN_GRID", spectra.SCAN_GRID)] + grids,
                                          range(3)):
        jobs["T_m column %s m=%d" % (name, m)] = lambda m=m, g=g: (
            spectra._momentum_log_grid(m, g.n, math.log(g.r_max / g.r_min))[0])
    for (name, g), m, nu in itertools.product(grids, range(3), CHANDRA_NU):
        jobs["chandrasekhar_lowest %s m=%d nu=%g" % (name, m, nu)] = (
            lambda nu=nu, m=m, g=g: np.array(spectra.chandrasekhar_lowest(nu, m, g)))
    jobs["chandrasekhar_lowest SCAN_GRID m=0 nu=0.3"] = (
        lambda: np.array(spectra.chandrasekhar_lowest(0.3, 0, spectra.SCAN_GRID)))
    full = spectra.DEFAULT_HYDROGEN_GRID
    half = spectra.GridSpec(full.r_min, full.r_max, full.n // 2)
    for Z, (g, m_max), state in itertools.product(HYDROGEN_Z, ((full, 2), (half, 0)),
                                                  ("cold", "warm")):
        jobs["hydrogen_channels Z=%g grid=%s m_max=%d %s" % (Z, g, m_max, state)] = (
            lambda Z=Z, g=g, m_max=m_max, cold=state == "cold": hydrogen(Z, g, m_max, cold))
    cases = [(c, "open") for c in FIELDS] + [("none", "periodic")]
    for (n, mass), (c, b) in itertools.product(LATTICE, cases):
        jobs["kinetic_matrix n=%d m=%g %s %s" % (n, mass, c, b)] = (
            lambda n=n, c=c, mass=mass, b=b: kinetic(n, c, mass, b))
    for (n, mass), c, nn in itertools.product(LATTICE, FIELDS, (False, True)):
        jobs["kato_random_run n=%d m=%g %s%s" % (n, mass, c, " phi>=0" if nn else "")] = (
            lambda n=n, c=c, mass=mass, nn=nn: kato_run(n, c, mass, nn))
    out = {}
    for name, job in jobs.items():
        try:
            res = job()
        except Exception as exc:    # recorded, to be compared across trees
            out[name] = repr(exc)
        else:
            if isinstance(res, tuple):      # a kernel's values and bounds
                out[name + " values"], out[name + " bounds"] = res
            elif isinstance(res, dict):     # a lattice operator or run
                out.update((name + " " + k, v) for k, v in res.items())
            else:
                out[name] = res
    return out


def run_probe(tree, path):
    """The probe's results on `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--probe", path],
                   cwd=tree, env=env, check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def verdict(base, new):
    """("SAME" or "DIFFERS", detail): for arrays of one shape that differ,
    whether the new side is >= the base side everywhere, the largest
    |new - base| / max(|new|, |base|) over the elements that differ, and
    the largest |new - base| / max|base|."""
    if isinstance(base, str) or isinstance(new, str):
        return ("SAME", "") if base == new else ("DIFFERS", "")
    if base.shape != new.shape:
        return "DIFFERS", " (shape %s -> %s)" % (base.shape, new.shape)
    if base.tobytes() == new.tobytes():
        return "SAME", ""
    differ = ~((new == base) | (np.isnan(new) & np.isnan(base)))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(new - base) / np.maximum(np.abs(new), np.abs(base))
        gap = np.where(differ, np.nan_to_num(np.abs(new - base), nan=np.inf), 0.0)
        of_max = np.max(gap) / np.max(np.abs(base))
    rel = np.where(differ, np.nan_to_num(rel, nan=np.inf, posinf=np.inf), 0.0)
    return "DIFFERS", (" (new %s base everywhere; largest relative difference %.3g;"
                       " largest difference %.3g of max|base|)") % (
        ">=" if np.all(new >= base) else "not >=", np.max(rel), of_max)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base_rev", nargs="?")
    ap.add_argument("--probe", metavar="FILE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        with open(args.probe, "wb") as fh:
            pickle.dump(probe(), fh)
        return 0
    if args.base_rev is None:
        ap.error("BASE_REV is required")
    differs = 0
    with tempfile.TemporaryDirectory() as tmp:
        base, new = os.path.join(tmp, "base"), os.path.join(tmp, "new")
        os.makedirs(base)
        os.makedirs(new)
        export(args.base_rev, base)
        snapshot(new)
        sides = [run_probe(tree, os.path.join(tmp, name + ".pkl"))
                 for tree, name in ((base, "base"), (new, "new"))]
    for name in sorted(set(sides[0]) | set(sides[1])):
        word, detail = verdict(*(side.get(name, "missing") for side in sides))
        differs += word != "SAME"
        print("%-8s %s%s" % (word, name, detail))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
