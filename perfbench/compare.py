"""Compare two sets of benchmark records, metric by metric and workload by
workload, against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records that run.py writes to --out.  Runs
taken on different kernel backends, core counts or BLAS thread counts are
not comparable, and the script refuses to pair them (exit code 2).
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAMP = ("backend", "nproc", "blas_threads")


def load(directory):
    recs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            recs.append(json.load(fh))
    return recs


def spread(values):
    if len(values) < 2:
        return statistics.median(values), values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(argv[0]), load(argv[1])
    stamps = {tuple(r["env"][k] for k in STAMP) for r in base + new}
    if len(stamps) != 1:
        print("refusing to compare runs from different environments %s: %s"
              % (STAMP, sorted(stamps, key=str)), file=sys.stderr)
        return 2
    print("%-10s %-18s %12s %25s %12s %8s %6s  %s" % (
        "workload", "metric", "base p50", "base [q1, q3]", "new p50",
        "worse", "bound", "verdict"))
    for w in spec["workloads"]:
        b = [r for r in base if r["workload"] == w["name"] and not r["trace"]]
        n = [r for r in new if r["workload"] == w["name"] and not r["trace"]]
        if not b or not n:
            continue
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]] for r in b]
            nv = [r["metrics"][m["name"]] for r in n]
            med, q1, q3 = spread(bv)
            nmed = statistics.median(nv)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (nmed - med) / abs(med)
            if worse > m["bound"]:
                verdict = "REGRESSION"
            elif (q3 - q1) / abs(med) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-10s %-18s %12.6g %25s %12.6g %+8.3f %6.2f  %s" % (
                w["name"], m["name"], med, "[%.6g, %.6g]" % (q1, q3), nmed,
                worse, m["bound"], verdict))
        print("%-10s %-18s base %d/%d new %d/%d" % (
            w["name"], "oracle failures",
            sum(r["oracle_fail_frac"]["failed"] for r in b),
            sum(r["oracle_fail_frac"]["attempted"] for r in b),
            sum(r["oracle_fail_frac"]["failed"] for r in n),
            sum(r["oracle_fail_frac"]["attempted"] for r in n)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
