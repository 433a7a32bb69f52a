"""Command-line experiment runner.

Every command emits a machine-readable table (CSV with a `#` metadata
header plus a JSON mirror, or JSON only) embedding the command, the full
parameter set, the seed, the artifact version and the kernel backend.
The csv module writes the rows; a field with a comma, a quote or a line
break is quoted.
No timestamps: identical configurations produce byte-identical files.
Exit code 0 iff every in-command assertion passed, 1 with the failures as a
JSON record on stderr (an unwritable --output too), 2 on a usage error.
"""

import argparse
import csv
import io
import json
import math
import os
import sys


# config values of a store_true flag, in any case
FLAG_WORDS = {"1": True, "true": True, "yes": True,
              "0": False, "false": False, "no": False}


def _parse_floats(text):
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError("needs at least one number")
    return values


def _parse_grid(text):
    from .errors import DomainError
    from .spectra import GridSpec
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError('grid must be "rmin,rmax,n"')
    try:
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_float(text):
    v = float(text)
    if not 0 <= v < math.inf:
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return v


def write_output(meta, rows, path, fmt):
    """Emit the table, its columns the first row's keys; CSV carries
    '# key=value' metadata lines and is mirrored as JSON next to it."""
    meta = dict(sorted(meta.items()))
    columns = list(rows[0])
    buf = io.StringIO()
    buf.writelines("# %s=%s\n" % item for item in meta.items())
    csv.writer(buf, lineterminator="\n").writerows(
        [columns] + [[row[c] for c in columns] for row in rows])
    texts = {"csv": buf.getvalue(),
             "json": json.dumps({"meta": meta, "rows": rows}, indent=2,
                                sort_keys=True, default=str) + "\n"}
    if path is None:
        sys.stdout.write(texts[fmt])
        return
    targets = [(path, fmt)]
    if fmt == "csv":
        targets.append((os.path.splitext(path)[0] + ".json", "json"))
    for target, kind in targets:
        with open(target, "w") as fh:
            fh.write(texts[kind])


def _meta(args, extra=()):
    """The header: the command and every parameter it parsed, a list as its
    comma-joined reprs, with the artifact version, the kernel backend and the
    entries of extra.  Where and how the table is written is no parameter."""
    from . import __version__
    from . import kernels
    meta = {k: ",".join(map(repr, v)) if isinstance(v, tuple) else v
            for k, v in vars(args).items()
            if k not in ("func", "parser", "output", "format", "config")}
    meta.update(extra, artifact_version=__version__,
                kernel_backend=kernels.backend_name)
    return meta


def cmd_gamma(args):
    from .anticomm import alpha, gamma
    rows = []
    failures = []
    for d in args.dimension_list:
        g = gamma(d, args.tol)
        two_ag = 2.0 * alpha(d) * g.value
        rows.append({"d": d, "gamma": g.value, "two_alpha_gamma": two_ag,
                     "abs_error_estimate": g.abs_error_estimate,
                     "evaluations": g.evaluations,
                     "provenance": "quadrature"})
        if d == 2.0 and abs(g.value) > 1e-8:
            failures.append("gamma(2) = %r not within 1e-8 of zero" % g.value)
        if d < 2.0 and not g.value < 0:
            failures.append("gamma(%g) not negative" % d)
        if d > 2.0 and not g.value > 0:
            failures.append("gamma(%g) not positive" % d)
    return rows, failures


def cmd_positivity(args):
    from .anticomm import TrialFunction, nonrel_form, relativistic_form
    rows = []
    failures = []
    lam = args.lambda_scale
    for sigma in args.sigma_grid:
        psi = TrialFunction(args.family, sigma)
        if args.nonrel:
            q = nonrel_form(psi)
            rows.append({"sigma": sigma, "nonrel_Q": q,
                         "provenance": "quadrature"})
            continue
        fv = relativistic_form(psi, args.dimension)
        fl = relativistic_form(psi.scaled(lam), args.dimension)
        ratio = fl.value / fv.value if fv.value != 0 else float("nan")
        expected = lam ** (-args.dimension)
        rows.append({"sigma": sigma, "t": fv.value,
                     "scale": fv.scale, "norm_sq": fv.norm_sq,
                     "t_scaled_lambda": fl.value, "lambda_ratio": ratio,
                     "provenance": "quadrature"})
        if fv.value < -1e-6 * fv.scale:
            failures.append("form value %r below -1e-6*scale at sigma=%g"
                            % (fv.value, sigma))
        if abs(ratio - expected) > 1e-6 * expected:
            failures.append("lambda-scaling ratio %r != %r at sigma=%g"
                            % (ratio, expected, sigma))
    return rows, failures


def cmd_hydrogen(args):
    from .spectra import DEFAULT_HYDROGEN_GRID, GridSpec, hydrogen2d, hydrogen_channels
    # resolved here, and not in the parser, which would import spectra first
    grid = args.grid = args.grid or DEFAULT_HYDROGEN_GRID
    failures = []
    rows = []
    rep = hydrogen2d(args.charge, args.m_max, grid, n_levels=args.levels)
    for n, e, g in rep.levels:
        ref = -args.charge ** 2 / (2.0 * (n + 0.5) ** 2)
        rel = abs(e - ref) / abs(ref)
        rows.append({"level": n, "energy": e, "reference": ref,
                     "rel_error": rel, "degeneracy": g,
                     "provenance": "log-grid eigensolve"})
        if rel > 5e-3:
            failures.append("level %d off by %.2e" % (n, rel))
        if g != 2 * n + 1 and args.m_max >= n:
            failures.append("level %d degeneracy %d != %d" % (n, g, 2 * n + 1))
    if args.refine_trace:
        # the n // 2 and n rows are hydrogen2d's own trace
        quarter = GridSpec(grid.r_min, grid.r_max, grid.n // 4)
        coarse = tuple(map(float, hydrogen_channels(args.charge, quarter, 0, args.levels)[0]))
        errs_prev = None
        for k, ev in ((quarter.n, coarse),) + rep.refinement_trace:
            errs = [abs(e - (-args.charge ** 2 / (2 * (n + 0.5) ** 2)))
                    for n, e in enumerate(ev)]
            rows.append({"level": "trace-n=%d" % k, "energy": ev[0],
                         "reference": max(errs), "rel_error": float("nan"),
                         "degeneracy": 0, "provenance": "refinement trace"})
            if errs_prev is not None and not all(b < a for a, b in
                                                 zip(errs_prev, errs)):
                failures.append("refinement trace not monotone at n=%d" % k)
            errs_prev = errs
    return rows, failures


def cmd_critical(args):
    from . import bounds
    from .spectra import critical_coupling_mellin, critical_coupling_toeplitz
    rows = []
    failures = []
    results = {}
    if args.method in ("toeplitz", "both"):
        res = critical_coupling_toeplitz()
        results["toeplitz"] = res
        rows.append({"quantity": "nu_c_toeplitz", "value": res.nu_c,
                     "uncertainty": res.uncertainty,
                     "provenance": "1/lambda_max(T_0) on SCAN_GRID (span 44, h = 0.08); "
                                   "uncertainty is nu_c on half the span minus nu_c "
                                   "(the approach to 1/M_0(0) is monotone from above)"})
    if args.method in ("mellin", "both"):
        res = critical_coupling_mellin()
        results["mellin"] = res
        rows.append({"quantity": "nu_c_mellin", "value": res.nu_c,
                     "uncertainty": res.uncertainty,
                     "provenance": "1/M_0(0) by quadrature; uncertainty is its "
                                   "error estimate / M_0(0)^2"})
    rows.append({"quantity": "printed_constant_as_printed",
                 "value": bounds.CRITICAL_CONSTANT_AS_PRINTED, "uncertainty": 0.0,
                 "provenance": bounds.AS_PRINTED_PROVENANCE})
    rows.append({"quantity": "printed_constant_fourth_power",
                 "value": bounds.CRITICAL_CONSTANT_FOURTH_POWER, "uncertainty": 0.0,
                 "provenance": bounds.FOURTH_POWER_PROVENANCE})
    if len(results) == 2:
        gap = abs(results["toeplitz"].nu_c - results["mellin"].nu_c)
        rows.append({"quantity": "method_gap", "value": gap, "uncertainty": 0.0,
                     "provenance": "cross-method agreement"})
        if gap > 0.01:
            failures.append("methods disagree by %r (> 0.01 coupling)" % gap)
    return rows, failures


def cmd_kato(args):
    from .lattice import SquareGrid, kato_random_run, make_fields
    component = {"zero": "none", "homogeneous": "background",
                 "dot": "total"}[args.field]
    grid = SquareGrid(args.extent, args.grid_size)
    fld = make_fields(args.b_field, args.radius, grid)
    run = kato_random_run(fld, args.mass, component,
                          samples=args.samples, seed=args.seed,
                          nonneg_phi=args.nonneg_phi)
    rows = [{"bin_upper": e, "count": c, "provenance": "violation histogram"}
            for e, c in zip(run.histogram_edges[1:], run.histogram_counts)]
    rows.append({"bin_upper": "max_violation", "count": run.max_violation,
                 "provenance": "lhs - rhs maximum over samples"})
    rows.append({"bin_upper": "tolerance", "count": run.tol_violation,
                 "provenance": "1e-10 * ||eta|| ||phi|| ||T||"})
    failures = []
    if sum(run.histogram_counts) != args.samples:
        failures.append("histogram does not sum to sample count")
    if not run.passed:
        failures.append("diamagnetic violation %r beyond %r"
                        % (run.max_violation, run.tol_violation))
    return rows, failures


def cmd_bounds(args):
    from .bounds import BoundReport
    rep = BoundReport.build(Z=args.charge, delta=args.delta,
                            B=args.b_field, R=args.radius)
    rows = [{"quantity": name, "value": v, "provenance": tag}
            for name, v, tag in rep.values]
    rows.insert(0, {"quantity": "delta", "value": rep.delta,
                    "provenance": "input (or R^2 B/2)"})
    failures = []
    rel = dict((n, v) for n, v, _ in rep.values)
    if rel["excess_charge_relativistic"] < 1.0:
        failures.append("relativistic bound below 1")
    return rows, failures, {"threshold_premise_assumed": rep.threshold_premise_assumed}


def _apply_config(subparser, args, argv):
    """Flat key=value config file; explicit CLI flags win with a notice."""
    if not args.config:
        return args
    overrides = {}
    try:
        with open(args.config) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        subparser.error("config file cannot be read: %s" % exc)
    for line in map(str.strip, lines):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            subparser.error("config line %r is not key=value" % line)
        key, val = line.split("=", 1)
        overrides[key.strip().replace("-", "_")] = val.strip()
    # --help and --config are not parameters, so no config key sets them
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    unknown = set(overrides) - set(actions)
    if unknown:
        subparser.error("unknown config keys: %s" % ", ".join(sorted(unknown)))
    # argparse reads a flag as the option string it equals, else the one it
    # uniquely prefixes
    options = {o: a.dest for a in subparser._actions for o in a.option_strings}
    flags = {tok.split("=")[0] for tok in argv if tok.startswith("--") and tok != "--"}
    explicit = {dest for o, dest in options.items() for f in flags
                if o == f or (f not in options and o.startswith(f))}
    for key, val in overrides.items():
        if key in explicit:
            print("notice: flag --%s overrides config value %r"
                  % (key.replace("_", "-"), val), file=sys.stderr)
            continue
        action = actions[key]
        if isinstance(action.const, bool):
            if val.lower() not in FLAG_WORDS:
                subparser.error("config value %s=%r is not one of: %s"
                                % (key, val, ", ".join(FLAG_WORDS)))
            setattr(args, key, FLAG_WORDS[val.lower()])
        else:
            try:
                value = action.type(val) if action.type else val
            except (ValueError, argparse.ArgumentTypeError) as exc:
                subparser.error("config value %s=%r cannot be read: %s" % (key, val, exc))
            if action.choices is not None and value not in action.choices:
                subparser.error("config value %s=%r is not one of: %s"
                                % (key, val, ", ".join(map(str, action.choices))))
            setattr(args, key, value)
    return args


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opineq",
        description="Operator-inequality and excess-charge verification runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=1234)
        p.add_argument("--config", default=None)

    p = sub.add_parser("gamma", help="gamma_d table and its sign change")
    p.add_argument("--dimension-list", type=_parse_floats, default=(1.5, 2.0, 3.0))
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=cmd_gamma, parser=p)

    p = sub.add_parser("positivity", help="anticommutator form values")
    p.add_argument("--family", default="log_gaussian",
                   choices=("log_gaussian", "log_linear_cutoff"))
    p.add_argument("--sigma-grid", type=_parse_floats,
                   default=(0.25, 0.5, 1.0, 2.0, 4.0))
    p.add_argument("--dimension", type=float, default=2.0)
    p.add_argument("--lambda-scale", type=float, default=2.0)
    p.add_argument("--nonrel", action="store_true")
    common(p)
    p.set_defaults(func=cmd_positivity, parser=p)

    p = sub.add_parser("hydrogen", help="2D hydrogen levels and degeneracies")
    p.add_argument("--charge", type=_positive_float, default=1.0)
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--grid", type=_parse_grid, default=None)
    p.add_argument("--refine-trace", action="store_true")
    common(p)
    p.set_defaults(func=cmd_hydrogen, parser=p)

    p = sub.add_parser("critical", help="Chandrasekhar critical coupling")
    p.add_argument("--method", choices=("toeplitz", "mellin", "both"),
                   default="both")
    common(p)
    p.set_defaults(func=cmd_critical, parser=p)

    p = sub.add_parser("kato", help="diamagnetic inequality sampling")
    p.add_argument("--field", choices=("zero", "homogeneous", "dot"),
                   default="dot")
    p.add_argument("--b-field", type=_positive_float, default=1.0)
    p.add_argument("--radius", type=_positive_float, default=1.0)
    p.add_argument("--mass", type=_positive_float, default=0.0)
    p.add_argument("--grid-size", type=int, default=24)
    p.add_argument("--extent", type=float, default=12.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--nonneg-phi", action="store_true")
    common(p)
    p.set_defaults(func=cmd_kato, parser=p)

    p = sub.add_parser("bounds", help="excess-charge bound report")
    # required, but checked after the config is read so that it may set it
    p.add_argument("--charge", type=_positive_float, default=None)
    p.add_argument("--delta", type=_positive_float, default=None)
    p.add_argument("--b-field", type=_positive_float, default=None)
    p.add_argument("--radius", type=_positive_float, default=None)
    common(p)
    p.set_defaults(func=cmd_bounds, parser=p)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args.parser, args, argv)
    if args.format == "csv" and os.path.splitext(args.output or "")[1] == ".json":
        parser.error("--output %s: the CSV's JSON mirror would overwrite it; "
                     "use --format json" % args.output)
    if args.command == "bounds" and args.charge is None:
        parser.error("bounds needs --charge")
    if args.command == "bounds" and args.delta is None and (
            args.b_field is None or args.radius is None):
        parser.error("bounds needs --delta or both --b-field and --radius")
    if args.command == "kato":
        # refused before make_fields samples its n x n arrays
        from .lattice import MAX_DENSE_GRID
        if not 2 <= args.grid_size <= MAX_DENSE_GRID:
            parser.error("kato needs 2 <= --grid-size <= %d (the dense cap)"
                         % MAX_DENSE_GRID)
        if args.grid_size % 2:
            # an odd n puts a cell centre, and so a node, on the origin
            parser.error("kato needs an even --grid-size, not %d" % args.grid_size)
    from .errors import OpineqError
    try:
        # each command returns its rows and failures, bounds also entries of the header
        rows, failures, *extra = args.func(args)
        write_output(_meta(args, *extra), rows, args.output, args.format)
    except (OpineqError, OSError) as exc:     # OSError: --output cannot be written
        failures = ["%s: %s" % (type(exc).__name__, exc)]
    if failures:
        record = {"command": args.command, "failures": failures}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
