"""Byte comparison of the default CLI commands' output against BASE_REV.

    python3 tools/cli_diff.py BASE_REV

BASE_REV is exported with `git archive` (bench_pair.export) into a
temporary directory, and this working tree is copied into another
(bench_pair.snapshot).  Each command
of COMMANDS runs on both trees as `python -m opineq.cli`, with
PYTHONPATH=src, once with --format csv and once with --format json, and
its stdout, stderr and exit status are compared.  Prints one line per
output, SAME or DIFFERS, and exits with status 1 if any output differs.
"""

import argparse
import os
import subprocess
import sys
import tempfile

from bench_pair import export, snapshot

COMMANDS = (
    ["gamma"],
    ["positivity"],
    ["positivity", "--nonrel"],
    ["hydrogen", "--refine-trace"],
    ["hydrogen", "--charge", "2.5", "--refine-trace"],
    ["critical", "--method", "both"],
    ["kato"],
    ["bounds", "--charge", "1", "--delta", "0"],
)


def run_cli(tree, argv):
    """(stdout, stderr, exit status) of one CLI run in `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    res = subprocess.run([sys.executable, "-m", "opineq.cli", *argv], cwd=tree,
                         env=env, capture_output=True)
    return res.stdout, res.stderr, res.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base_rev")
    args = ap.parse_args(argv)
    differs = 0
    with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as new:
        export(args.base_rev, base)
        snapshot(new)
        for command in COMMANDS:
            for fmt in ("csv", "json"):
                cmd = command + ["--format", fmt]
                same = run_cli(base, cmd) == run_cli(new, cmd)
                differs += not same
                print("%-8s %s" % ("SAME" if same else "DIFFERS", " ".join(cmd)))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
