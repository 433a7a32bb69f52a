"""Alternating before/after runs of perfbench, summarized into BENCH_<pr>.json.

    python3 tools/bench_pair.py BASE_REV --workload coupling --workload kato \
        --pairs 10 --pr 8 [--seed 5192]

The base side is BASE_REV exported with `git archive` into a temporary
directory; the new side is a copy of this working tree in another
(snapshot), so that both run from fresh directories alike.  Each pair runs
`perfbench/run.py --workload W --out <dir>` once per side, with run.py's
own defaults for the run length and, unless --seed is given, the seed; the
side that goes first alternates from pair to pair.  After the pairs, one
`--trace 1` run per side gives the machine-independent per-layer counts.

perfbench/compare.py then judges the two sides: it refuses runs from
different environments (this script stops with its exit code) and gives a
verdict per end-to-end metric.  BENCH_<pr>.json at the repository root gets
one entry per (workload, seed): compare.py's verdicts and table, the median
and quartiles of every end-to-end metric on each side (compare.spread), the
number of pairs in which the new side was better on each metric, the
median scaled task time per task kind (split by the grid size n where a
task has one) over the tasks of each side's untraced runs, the traced
counts, and the failed and attempted oracle checks of each side over all
its runs.  Entries for other (workload, seed) pairs already in the file
are kept, so the held-out seed can be added by a second call.

After writing the file the script exits with status 1, naming the cause on
stderr, if on any workload of this call the new side fails a larger share of
its tasks than the base side or a metric's verdict is REGRESSION: the same
gates a change is held to.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import compare  # noqa: E402

SIDES = ("base", "new")


def export(rev, dest):
    """Write the tree of commit `rev` into the existing directory `dest`
    with `git archive`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def snapshot(dest):
    """Copy into the existing directory `dest` the files of this working
    tree that git lists as tracked or as untracked and not ignored, those
    that exist, so that a new side runs from a fresh directory as the base
    side does."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):
            target = os.path.join(dest, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(src, target)


def run_bench(tree, out, workload, seed, trace):
    """One perfbench run in `tree`, recorded in `out`; returns its record."""
    before = set(os.listdir(out))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--trace", str(trace), "--out", out]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    (name,) = set(os.listdir(out)) - before
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def kind_medians(records):
    """{kind, with " n=<n>" where the task has a grid size: {"median": the
    median scaled task time, "tasks": how many}} over the runs' tasks."""
    times = {}
    for rec in records:
        args = {t["id"]: t["args"] for t in rec["tasks"]}
        for r in rec["results"]:
            a = args[r["id"]]
            key = r["kind"] + (" n=%d" % a["n"] if "n" in a else "")
            times.setdefault(key, []).append(r["s"])
    return {k: {"median": statistics.median(v), "tasks": len(v)}
            for k, v in sorted(times.items())}


def pair_runs(workload, seed, pairs, spec, trees, tmp):
    outs = {side: os.path.join(tmp, "%s-%s-%s" % (workload, seed, side))
            for side in SIDES}
    for out in outs.values():
        os.makedirs(out)
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_bench(trees[side], outs[side], workload, seed, 0))
            print("%s pair %d %s: tasks_per_s %.4g"
                  % (workload, i, side, runs[side][-1]["metrics"]["tasks_per_s"]),
                  file=sys.stderr)
    traced = {side: run_bench(trees[side], outs[side], workload, seed, 1)
              for side in SIDES}
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        status = compare.main([outs["base"], outs["new"]])
    if status != 0:
        sys.exit(status)
    rows = [line.split() for line in table.getvalue().splitlines()[1:]]
    records = runs["base"] + runs["new"]
    env = {k: v for k, v in records[0]["env"].items()
           if all(r["env"].get(k) == v for r in records)}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    entry = {"workload": workload, "seed": records[0]["seed"], "pairs": pairs,
             "env": env,
             "verdicts": {row[1]: row[-1] for row in rows if row[1] != "oracle"},
             "compare": table.getvalue().splitlines(), "wins": {}}
    for side in SIDES:
        side_runs = runs[side] + [traced[side]]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs[side]]
            med, q1, q3 = compare.spread(values)
            metrics[m["name"]] = {"median": med, "q1": q1, "q3": q3, "values": values}
        entry[side] = {"metrics": metrics,
                       "task_s_by_kind": kind_medians(runs[side]),
                       "traced_counts": {k: traced[side]["metrics"][k] for k in counts},
                       "failed": sum(r["oracle_fail_frac"]["failed"] for r in side_runs),
                       "attempted": sum(r["oracle_fail_frac"]["attempted"]
                                        for r in side_runs)}
    for m in spec["end_to_end"]:
        sign = 1.0 if m["better"] == "higher" else -1.0
        entry["wins"][m["name"]] = sum(
            sign * (n["metrics"][m["name"]] - b["metrics"][m["name"]]) > 0
            for b, n in zip(runs["base"], runs["new"]))
    return entry


def shortfalls(entry):
    """The gates `entry` misses: a larger failed share on the new side, or a
    metric whose verdict is REGRESSION."""
    out = []
    share = {side: entry[side]["failed"] / entry[side]["attempted"] for side in SIDES}
    if share["new"] > share["base"]:
        out.append("%s seed %s: new side fails %d/%d tasks, base %d/%d"
                   % (entry["workload"], entry["seed"], entry["new"]["failed"],
                      entry["new"]["attempted"], entry["base"]["failed"],
                      entry["base"]["attempted"]))
    out += ["%s seed %s: %s is a REGRESSION" % (entry["workload"], entry["seed"], name)
            for name, verdict in entry["verdicts"].items() if verdict == "REGRESSION"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base_rev")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--pr", required=True, help="suffix of BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, help="default: run.py's")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    rev = subprocess.run(["git", "rev-parse", "--verify", args.base_rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    path = os.path.join(ROOT, "BENCH_%s.json" % args.pr)
    doc = {"base_rev": rev, "entries": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc["base_rev"] != rev:
            ap.error("%s compares against %s, not %s" % (path, doc["base_rev"], rev))
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for tree in trees.values():
            os.makedirs(tree)
        export(rev, trees["base"])
        snapshot(trees["new"])
        for workload in args.workload:
            entry = pair_runs(workload, args.seed, args.pairs, spec, trees, tmp)
            doc["entries"] = [e for e in doc["entries"]
                              if (e["workload"], e["seed"]) != (workload, entry["seed"])]
            doc["entries"].append(entry)
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            problems += shortfalls(entry)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
