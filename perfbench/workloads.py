"""Seeded task lists for the four workloads, the library call sequence each
task makes, and the oracle checks on its result.

A workload is a list of whole rounds.  Every round has the same composition
and order; the seed draws only the continuous inputs (s, sigma, nu, Z, B, R
and RNG seeds).  So the work of a run is fixed by its round
count, every seed exercises the same mix, and the `_momentum_log_grid` cache
warms the same way in every run.
"""

import math
import time

import numpy as np
# bound at import, so the tracer's wrapper on scipy.linalg.eigvalsh never
# sees the probe's eigensolves
from scipy.linalg import eigvalsh as _probe_eigvalsh

from opineq import anticomm, lattice, spectra
from opineq.errors import OpineqError

import oracles as O

WORKLOADS = ("constants", "forms", "coupling", "kato")

# Host speed probe whose drift tracks each workload's time (see probe()):
# constants and forms are bound by interpreter and small numpy calls,
# coupling and kato by dense eigensolves.  Chosen on one set of ten seeds per
# workload, where the other probe mostly left 1.5-3x the spread.
PROBE = {"constants": "interp", "forms": "interp", "coupling": "lapack", "kato": "lapack"}

# Nominal seconds per round with one BLAS thread on a 2-core Intel Xeon
# (coupling and kato: averaged over a heavier round 0 and the rest).  They convert
# --seconds into a whole number of rounds.
ROUND_S = {"constants": 10.0, "forms": 7.5, "coupling": 6.0, "kato": 4.0}

MIN_ROUNDS = 2


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS, int(seconds / ROUND_S[workload] + 0.5))


# ---------------------------------------------------------------------------
# task generation

def _strata(rng, lo, hi, k, shift):
    """k draws, one uniform in each of k equal bins of [lo, hi], bin j going
    to slot (j + shift) % k: the marginal stays uniform, and the cost mix
    (which inputs are large) is the same for every seed."""
    edges = np.linspace(lo, hi, k + 1)
    draws = [float(rng.uniform(edges[j], edges[j + 1])) for j in range(k)]
    return [draws[(i - shift) % k] for i in range(k)]


def _constants_round(rng, r):
    # L0 per-call overhead and L1 panel bookkeeping: one element per kernel
    # call, no eigensolve.  M_m(s) costs more as s grows, hence the strata.
    gammas = [("gamma", {"d": d, "tol": tol})
              for tol in (1e-7, 1e-8, 1e-9) for d in (1.5, 2.01, 2.5, 3.0)]
    ss = _strata(rng, 0.0, 1.5, 4, r)
    out = []
    for m in range(4):
        out += gammas[3 * m:3 * m + 3]
        out.append(("mellin", {"m": m, "s": ss[m]}))
    return out


def _forms_round(rng, r):
    # batched kernel calls in band moments plus anticomm's O(n^2) offset sums;
    # the lattice grows with sigma, hence log-uniform strata
    table = [("form", {"d": d, "sigma": sig, "table": True})
             for d, sig in O.MELLIN_T]
    logs = _strata(rng, math.log(0.25), math.log(4.0), 6, 2 * r)
    drawn = [("form", {"d": d, "table": False, "sigma": float(np.exp(ls))})
             for d, ls in zip((2.0, 2.5, 3.0, 2.0, 2.5, 3.0), logs)]
    nonrel = [("nonrel", {"sigma": float(rng.uniform(0.5, 4.0))}) for _ in range(6)]
    out = []
    for i in range(7):
        out.append(table[i])
        if i < 6:
            out += [drawn[i], nonrel[i]]
    return out


_GRID_POOL = ((20.0, 300), (23.0, 400), (26.0, 500))


def _coupling_round(rng, herbst):
    # log-grid assembly against dense eigvalsh; the small grid pool makes the
    # grid cache decide how much assembly recurs
    def below():
        return float(rng.uniform(0.05, 0.8 * herbst))

    def above():
        return float(rng.uniform(1.2 * herbst, 0.6))

    def chandra(i, m):
        # nu_c(0) < nu < 1/M_m(0), except that channel 1 of the log-grid
        # assembly already binds from nu ~ 0.55 on every pool grid (exact
        # threshold 1/M_1(0) = 1.094); that discretization defect is described
        # in perfbench/README.md, and m = 1 draws stop at 0.5 until it is fixed
        span, n = _GRID_POOL[i]
        hi = 0.5 if m == 1 else 0.9
        return ("chandra", {"nu": float(rng.uniform(0.3, hi)), "m": m,
                            "span": span, "n": n})

    # six classifications put the median task inside their cluster
    return [
        ("bisect", {}),
        ("classify", {"nu": below()}),
        chandra(0, 1),
        ("hydrogen", {"Z": float(rng.uniform(0.5, 3.0))}),
        ("classify", {"nu": above()}),
        chandra(1, 2),
        ("classify", {"nu": below()}),
        chandra(2, 1),
        ("hydrogen", {"Z": float(rng.uniform(0.5, 3.0))}),
        ("classify", {"nu": above()}),
        chandra(0, 2),
        ("classify", {"nu": below()}),
        chandra(1, 1),
        ("hydrogen", {"Z": float(rng.uniform(0.5, 3.0))}),
        ("classify", {"nu": above()}),
        chandra(2, 2),
    ]


_COMPONENTS = ("none", "background", "total")


def _kato_round(rng, r):
    # dense complex linear algebra only: no kernel or quadrature call.  The
    # 32 x 32 lattice (peak memory) runs once, in round 0, so a run has more,
    # cheaper rounds; the n = 24 runs all carry a field (two kinetic
    # matrices each), so the tail task sits inside one cost cluster.
    def field():
        return {"B": float(rng.uniform(0.5, 2.0)), "R": float(rng.uniform(0.5, 2.0))}

    def run(n, comp, mass):
        return ("kato_run", {"n": n, "component": comp, "mass": mass,
                             "rng": int(rng.integers(2 ** 31)), **field()})

    mass = float(r % 2)
    small = [run(16, c, m) for c in _COMPONENTS for m in (0.0, 1.0)]
    mid = [run(24, "background", mass), run(24, "total", 1.0 - mass),
           run(24, _COMPONENTS[1 + r % 2], mass)]
    out = [small[0], mid[0], small[1], small[2], mid[1], small[3],
           ("kato_equality", {"n": 16, "mass": mass,
                              "rng": int(rng.integers(2 ** 31)), **field()}),
           small[4], mid[2], small[5],
           ("kato_dispersion", {"n": 16, "mass": mass, **field()})]
    if r == 0:
        out.insert(3, run(32, "total", 1.0))
    return out


def generate(workload, seed, rounds):
    """The task list of a run: `rounds` whole rounds drawn from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = np.random.default_rng(seed)
    herbst = O.herbst_2d()
    tasks = []
    for r in range(rounds):
        if workload == "constants":
            rnd = _constants_round(rng, r)
        elif workload == "forms":
            rnd = _forms_round(rng, r)
        elif workload == "coupling":
            rnd = _coupling_round(rng, herbst)
        else:
            rnd = _kato_round(rng, r)
        for kind, args in rnd:
            tasks.append({"id": len(tasks), "round": r, "kind": kind,
                          "probe": PROBE[workload], "args": args})
    return tasks


def oracle_refs(tasks):
    """Oracle values that need mpmath, made once before anything is timed."""
    herbst = O.herbst_2d()
    refs = {}
    for t in tasks:
        a = t["args"]
        if t["kind"] == "mellin":
            refs[t["id"]] = O.mellin_closed_form(a["m"], a["s"])
        elif t["kind"] in ("bisect", "classify"):
            refs[t["id"]] = herbst
    return refs


# ---------------------------------------------------------------------------
# library call sequences (timed) and their checks (untimed)

def _call_gamma(a):
    return anticomm.gamma(a["d"], a["tol"])


def _check_gamma(a, res, ref):
    return [O.rel("gamma", res.value, O.GAMMA_REF[a["d"]])]


def _call_mellin(a):
    return spectra.mellin_multiplier(a["m"], a["s"])


def _check_mellin(a, res, ref):
    return [O.rel("mellin", res, ref)]


def _call_form(a):
    psi = anticomm.TrialFunction("log_gaussian", a["sigma"])
    fv = anticomm.relativistic_form(psi, a["d"])
    fv2 = anticomm.relativistic_form(psi.scaled(2.0), a["d"])
    direct = anticomm.relativistic_form_direct(psi, a["d"]) if a["table"] else None
    return fv, fv2, direct


def _check_form(a, res, ref):
    fv, fv2, direct = res
    d = a["d"]
    checks = [O.rel("dilation", fv2.value / fv.value, 2.0 ** -d)]
    if d == 2.0:
        checks.append(O.at_least("positivity", fv.value, 0.0, fv.scale))
    if a["table"]:
        want = O.MELLIN_T[(d, a["sigma"])]
        checks.append(O.rel("mellin_table_extrapolated", fv.value / fv.norm_sq, want))
        checks.append(O.rel("mellin_table_direct", direct / fv.norm_sq, want))
    return checks


def _call_nonrel(a):
    return anticomm.nonrel_form(anticomm.TrialFunction("log_gaussian", a["sigma"]))


def _check_nonrel(a, res, ref):
    sig = a["sigma"]
    norm = 2.0 * math.pi * math.sqrt(math.pi) * sig * math.exp(sig ** 2 / 4.0)
    want = 1.0 / (2.0 * sig ** 2) - 0.25
    return [O.scaled("nonrel", res / norm, want, 1.0 / (2.0 * sig ** 2) + 0.25)]


def _call_bisect(a):
    return spectra.critical_coupling_bisect()


def _check_bisect(a, res, ref):
    return [O.scaled("herbst", res.nu_c, ref, 1.0)]


def _call_classify(a):
    return spectra.classify_coupling(a["nu"])[0]


def _check_classify(a, res, ref):
    want = "divergent" if a["nu"] > ref else "stable"
    return [O.exact("classify_side", res == want)]


def _call_chandra(a):
    g = spectra.GridSpec(math.exp(-a["span"]), 1.0, a["n"])
    return (spectra.chandrasekhar_lowest(a["nu"], 0, g),
            spectra.chandrasekhar_lowest(a["nu"], a["m"], g))


def _check_chandra(a, res, ref):
    e0, em = res
    return [O.exact("channel0_binds", e0 < 0.0),
            O.at_least("channel_m", em, 0.0),
            O.exact("e0_below_em", e0 < em)]


def _call_hydrogen(a):
    return spectra.hydrogen2d(a["Z"], 2)


def _check_hydrogen(a, res, ref):
    Z = a["Z"]
    checks = [O.rel("hydrogen", e, -Z * Z / (2.0 * (n + 0.5) ** 2))
              for n, e, _ in res.levels]
    checks.append(O.exact("degeneracy", all(g == 2 * n + 1 for n, _, g in res.levels)))
    return checks


def _fields(a):
    return lattice.make_fields(a["B"], a["R"], lattice.SquareGrid(12.0, a["n"]))


def _call_kato_run(a):
    return lattice.kato_random_run(_fields(a), a["mass"], a["component"],
                                   samples=200, seed=a["rng"])


def _check_kato_run(a, res, ref):
    return [O.Check("kato", max(0.0, res.max_violation) / res.tol_violation,
                    O.TOL["kato"][0]),
            O.exact("histogram_total", sum(res.histogram_counts) == res.samples)]


def _call_kato_equality(a):
    rng = np.random.default_rng(a["rng"])
    N = a["n"] ** 2
    eta = np.abs(rng.standard_normal(N))
    phi = np.abs(rng.standard_normal(N))
    T = lattice.kinetic_matrix(_fields(a), a["mass"], component="none")
    return lattice.kato_test(eta, phi, T, T)


def _check_kato_equality(a, res, ref):
    lhs, rhs = res
    return [O.scaled("equality", lhs, rhs, abs(lhs))]


def _call_kato_dispersion(a):
    return lattice.kinetic_matrix(_fields(a), a["mass"], component="none",
                                  boundary="periodic")


def _check_kato_dispersion(a, res, ref):
    n, h, mass = a["n"], res.grid.h, a["mass"]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    KX, KY = np.meshgrid(k, k, indexing="ij")
    disp2 = (np.sin(KX * h) ** 2 + np.sin(KY * h) ** 2) / h ** 2
    want = np.sort((np.sqrt(disp2 + mass * mass) - mass).ravel())
    got = np.linalg.eigvalsh(res.matrix)
    return [O.Check("dispersion", float(np.max(np.abs(got - want))),
                    O.TOL["dispersion"][0])]


KINDS = {
    "gamma": (_call_gamma, _check_gamma),
    "mellin": (_call_mellin, _check_mellin),
    "form": (_call_form, _check_form),
    "nonrel": (_call_nonrel, _check_nonrel),
    "bisect": (_call_bisect, _check_bisect),
    "classify": (_call_classify, _check_classify),
    "chandra": (_call_chandra, _check_chandra),
    "hydrogen": (_call_hydrogen, _check_hydrogen),
    "kato_run": (_call_kato_run, _check_kato_run),
    "kato_equality": (_call_kato_equality, _check_kato_equality),
    "kato_dispersion": (_call_kato_dispersion, _check_kato_dispersion),
}


# ---------------------------------------------------------------------------
# host speed probes
#
# On a shared host the machine's speed drifts by 20-50% over a few seconds,
# far beyond any bound worth setting, and it drifts differently for
# interpreter-bound code and for LAPACK.  Two fixed probes that do not touch
# opineq run before and after every task: "interp" (small numpy calls, a
# pure-Python loop) and "lapack" (a dense symmetric eigensolve and a complex
# matmul), each the fastest of three passes so that one preemption does not
# count.  A task's time is scaled by PROBE_REF_S / (mean of its workload's
# probe before and after): seconds at the host speed at which that probe
# takes PROBE_REF_S.  Raw times and both probes stay in the record.

PROBE_REF_S = {"interp": 0.0018, "lapack": 0.0018}  # medians on the reference host

_PX = np.linspace(0.0, 1.0, 15)
_rng = np.random.default_rng(0)
_PS = _rng.standard_normal((160, 160))
_PS = _PS + _PS.T
_PC = _rng.standard_normal((128, 128)) * (1.0 + 1.0j)


def _interp_pass():
    acc = 0.0
    for i in range(270):
        acc += float(np.dot(np.sin(_PX * i), _PX))
    for i in range(13000):
        acc += i * 0.5
    return acc


def _lapack_pass():
    return float(_probe_eigvalsh(_PS)[0]) + float((_PC @ _PC)[0, 0].real)


def probe():
    out = {}
    for name, fn in (("interp", _interp_pass), ("lapack", _lapack_pass)):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def scaled(raw, kind, before, after):
    return raw * PROBE_REF_S[kind] / (0.5 * (before[kind] + after[kind]))


def run_tasks(tasks, refs, tracer=None):
    """Run tasks serially (one caller, closed loop); time only the library
    calls, then check each result.  An OpineqError fails the task (margin -1)
    and the run goes on."""
    out = []
    before = probe()
    for t in tasks:
        call, check = KINDS[t["kind"]]
        if tracer is not None:
            tracer.task = t["id"]
        error = None
        t0 = time.perf_counter()
        try:
            res = call(t["args"])
        except OpineqError as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        raw = time.perf_counter() - t0
        after = probe()
        rec = {"id": t["id"], "kind": t["kind"], "raw_s": raw,
               "s": scaled(raw, t["probe"], before, after),
               "probe": t["probe"], "probe_s": [before, after]}
        before = after
        if error is not None:
            rec.update(passed=False, margin=-1.0, error=error)
        else:
            checks = check(t["args"], res, refs.get(t["id"]))
            rec.update(passed=all(c.passed for c in checks),
                       margin=min(c.margin for c in checks),
                       checks=[[c.name, c.err, c.tol] for c in checks])
        out.append(rec)
    if tracer is not None:
        tracer.task = None
    return out
