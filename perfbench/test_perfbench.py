"""Self-checks of the benchmark: its counters against the library's own
counts, repeatable traced counts, and refusal to run without the sources.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # pins BLAS threads before numpy is imported below

sys.path.insert(0, run.SRC)

import scipy.linalg  # noqa: E402
import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from opineq import anticomm, kernels, lattice, spectra  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 4242
COUNTS = [k for k, unit in run.load_spec()[1].items() if unit != "s"]


def traced_counts(tasks):
    spectra._momentum_log_grid.cache_clear()
    with Tracer() as tr:
        res = workloads.run_tasks(tasks, workloads.oracle_refs(tasks), tr)
    assert all(r["passed"] for r in res), res
    m = tr.layer_metrics()
    counts = {k: m[k] for k in COUNTS if k in m}
    info = spectra._momentum_log_grid.cache_info()
    counts.update(hits=info.hits, misses=info.misses)
    return counts


def test_gamma_counters_add_up_to_quadresult_evaluations():
    tasks = [t for t in workloads.generate("constants", SEED, 1) if t["kind"] == "gamma"]
    assert len(tasks) == 12
    for t in tasks:
        with Tracer() as tr:
            res = anticomm.gamma(t["args"]["d"], t["args"]["tol"])
        c = tr.counts
        assert c["kernels.evals"] + c["quadrature.evaluations"] == res.evaluations, t
        assert c["quadrature.calls"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    tasks = workloads.generate(workload, SEED, 1)[:3]
    first = traced_counts(tasks)
    assert first == traced_counts(tasks)
    busy = {"constants": "kernels.evals", "forms": "anticomm.calls",
            "coupling": "spectra.eigensolves", "kato": "lattice.eigh_n3"}[workload]
    assert first[busy] > 0


def test_tracer_restores_entry_points():
    before = (kernels.polar_batch, anticomm.integrate_adaptive, spectra.integrate_adaptive,
              scipy.linalg.eigvalsh, np.linalg.eigh, anticomm.gamma,
              spectra.chandrasekhar_lowest, lattice.kinetic_matrix)
    with Tracer():
        assert kernels.polar_batch is not before[0]
        assert lattice.kinetic_matrix is not before[-1]
    after = (kernels.polar_batch, anticomm.integrate_adaptive, spectra.integrate_adaptive,
             scipy.linalg.eigvalsh, np.linalg.eigh, anticomm.gamma,
             spectra.chandrasekhar_lowest, lattice.kinetic_matrix)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    tasks = [t for t in workloads.generate("forms", SEED, 1) if t["kind"] == "form"][:1]
    with Tracer() as tr:
        workloads.run_tasks(tasks, {}, tr)
    m = tr.layer_metrics()
    outer = sum(s[3] - s[2] for s in tr.spans if s[4] == -1)
    parts = m["anticomm.self_s"] + m["quadrature.self_s"] + m["kernels.s"]
    assert parts == pytest.approx(outer, rel=1e-9)


def test_task_lists_are_seeded_with_fixed_composition():
    for w in workloads.WORKLOADS:
        a = workloads.generate(w, SEED, 2)
        assert a == workloads.generate(w, SEED, 2)
        b = workloads.generate(w, SEED + 1, 2)
        assert [t["kind"] for t in a] == [t["kind"] for t in b]
        assert [t["args"] for t in a] != [t["args"] for t in b]
        json.dumps(a)  # replayable from the record file


def test_oracles_agree_with_each_other():
    # M_0(0) = 1 / nu_c: the Mellin closed form and Herbst's constant
    assert oracles.mellin_closed_form(0, 0.0) * oracles.herbst_2d() == pytest.approx(1.0, rel=1e-14)
    assert oracles.Check("x", 0.0, 1e-6).margin == 1.0
    assert oracles.Check("x", 1e-6, 1e-6).margin == 0.0
    assert not oracles.exact("x", False).passed


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(1, 33)]
    value, p, n = run.tail(times)
    assert (p, n) == (68, 32)
    assert sum(t > value for t in times) >= 10


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kato",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
