"""Spans and counters around the public entry points of each opineq layer,
installed from the benchmark's own files for the traced run only.

Wrappers replace the names where callers look them up: the kernel as
`opineq.kernels.polar_batch`, outer quadrature as `integrate_adaptive` in the
`anticomm` and `spectra` namespaces, eigensolves as `scipy.linalg.eigvalsh`
and `numpy.linalg.eigh`, and every public function defined in `anticomm`,
`spectra` and `lattice`.  Spans (name, layer, start, end, parent, task) stay
in memory; self time is a span's duration minus that of its direct children.
"""

import inspect
import time
from collections import Counter

import numpy as np
import scipy.linalg

from opineq import anticomm, kernels, lattice, spectra
from opineq.errors import AccuracyError

LAYER_MODULES = (("anticomm", anticomm), ("spectra", spectra), ("lattice", lattice))

# fields of a span record
NAME, LAYER, START, END, PARENT, TASK = range(6)


def _public_functions(mod):
    return [name for name, obj in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__]


class Tracer:
    """Context manager: patches the layer entry points on enter and restores
    the originals on exit."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.task = None
        self._stack = []
        self._patched = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn, name, layer, after=None, on_error=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = time.perf_counter()
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper_factory):
        if not hasattr(owner, attr):
            return
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper_factory(orig))

    def __enter__(self):
        c = self.counts
        tol_default = inspect.signature(kernels.polar_batch).parameters["tol"].default

        def after_kernel(args, kwargs, out):
            vals, errs, nev = out
            tol = kwargs.get("tol", args[5] if len(args) > 5 else tol_default)
            c["kernels.calls"] += 1
            c["kernels.elements"] += int(np.size(vals))
            c["kernels.evals"] += int(nev)
            c["kernels.unconverged"] += int(np.count_nonzero(
                errs > tol * np.maximum(np.abs(vals), 1e-300)))

        def after_quad(args, kwargs, out):
            c["quadrature.calls"] += 1
            c["quadrature.evaluations"] += int(out.evaluations)

        def quad_error(exc):
            c["quadrature.calls"] += 1
            if isinstance(exc, AccuracyError):
                c["quadrature.accuracy_errors"] += 1
                if exc.best is not None:
                    c["quadrature.evaluations"] += int(exc.best.evaluations)

        def after_eigvalsh(args, kwargs, out):
            n = int(np.shape(args[0] if args else kwargs["a"])[0])
            c["spectra.eigensolves"] += 1
            c["spectra.eig_n3"] += n ** 3

        def after_eigh(args, kwargs, out):
            a = args[0] if args else kwargs["a"]
            n = int(np.shape(a)[0])
            c["lattice.eigh_n3"] += n ** 3
            c["lattice.dense_bytes"] += int(a.nbytes) + int(out[1].nbytes)

        def after_kinetic(args, kwargs, out):
            c["lattice.kinetic_calls"] += 1
            mat = getattr(out, "matrix", None)
            if mat is not None:
                c["lattice.dense_bytes"] += int(mat.nbytes)

        def after_kato_test(args, kwargs, out):
            c["lattice.kato_tests"] += 1

        self._patch(kernels, "polar_batch",
                    lambda f: self._wrap(f, "polar_batch", "kernels", after_kernel))
        for _, mod in LAYER_MODULES:
            self._patch(mod, "integrate_adaptive",
                        lambda f: self._wrap(f, "integrate_adaptive", "quadrature",
                                             after_quad, quad_error))
        self._patch(scipy.linalg, "eigvalsh",
                    lambda f: self._wrap(f, "eigvalsh", "spectra.eig", after_eigvalsh))
        self._patch(np.linalg, "eigh",
                    lambda f: self._wrap(f, "eigh", "lattice.eigh", after_eigh))
        special = {"kinetic_matrix": after_kinetic, "kato_test": after_kato_test}
        for layer, mod in LAYER_MODULES:
            for name in _public_functions(mod):
                self._patch(mod, name, lambda f, n=name, lay=layer: self._wrap(
                    f, n, lay, special.get(n) if lay == "lattice" else None))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
        return False

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self):
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        total, self_s, calls = Counter(), Counter(), Counter()
        by_name = Counter()
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            total[s[LAYER]] += dur
            self_s[s[LAYER]] += dur - child[i]
            calls[s[LAYER]] += 1
            by_name[s[NAME]] += dur
        c = self.counts
        return {
            "kernels.calls": c["kernels.calls"],
            "kernels.elements": c["kernels.elements"],
            "kernels.evals": c["kernels.evals"],
            "kernels.s": total["kernels"],
            "kernels.unconverged": c["kernels.unconverged"],
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.panels": c["quadrature.evaluations"] // 15,
            "quadrature.self_s": self_s["quadrature"],
            "quadrature.accuracy_errors": c["quadrature.accuracy_errors"],
            "anticomm.calls": calls["anticomm"],
            "anticomm.self_s": self_s["anticomm"],
            "spectra.calls": calls["spectra"],
            "spectra.assembly_s": self_s["spectra"],
            "spectra.eigensolves": c["spectra.eigensolves"],
            "spectra.eig_n3": c["spectra.eig_n3"],
            "spectra.eig_s": total["spectra.eig"],
            "lattice.kinetic_calls": c["lattice.kinetic_calls"],
            "lattice.kinetic_s": by_name["kinetic_matrix"],
            "lattice.eigh_s": total["lattice.eigh"],
            "lattice.eigh_n3": c["lattice.eigh_n3"],
            "lattice.kato_tests": c["lattice.kato_tests"],
            "lattice.kato_test_s": by_name["kato_test"],
            "lattice.dense_bytes": c["lattice.dense_bytes"],
        }
