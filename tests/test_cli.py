import contextlib
import csv
import io
import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opineq import lattice, spectra
from opineq.cli import build_parser, main, write_output


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_command_signs(capsys):
    code, out, err = run(["gamma", "--dimension-list", "1.5,2,3",
                          "--tol", "1e-6"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    vals = {float(r.split(",")[0]): float(r.split(",")[header.index("gamma")])
            for r in rows[1:]}
    assert vals[1.5] < 0 and vals[2.0] == 0.0 and vals[3.0] > 0


def test_gamma_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(["gamma", "--dimension-list", "2.5", "--tol", "1e-6",
                          "--output", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_json_only_format(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run(["bounds", "--charge", "1", "--delta", "0",
                      "--format", "json", "--output", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert data["meta"]["command"] == "bounds"
    vals = {r["quantity"]: r["value"] for r in data["rows"]}
    assert vals["excess_charge_relativistic"] == 3.0
    assert vals["max_bindable"] == 2.0
    assert not (tmp_path / "out.csv").exists()


def test_csv_output_to_json_path_is_usage_error(tmp_path, capsys):
    # the JSON mirror of a CSV written to out.json would overwrite it
    path = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--charge", "1", "--delta", "0", "--output", str(path)])
    assert exc.value.code == 2
    assert not path.exists()
    capsys.readouterr()


def test_csv_has_metadata_and_mirror(tmp_path, capsys):
    path = tmp_path / "k.csv"
    code, _, _ = run(["kato", "--field", "zero", "--samples", "10",
                      "--grid-size", "10", "--extent", "6",
                      "--output", str(path)], capsys)
    assert code == 0
    text = path.read_text()
    assert "# command=kato" in text and "# seed=1234" in text
    assert "# artifact_version=" in text and "# kernel_backend=" in text
    mirror = json.loads((tmp_path / "k.json").read_text())
    hist = [r["count"] for r in mirror["rows"]
            if r["provenance"] == "violation histogram"]
    assert sum(int(c) for c in hist) == 10


def _read_csv(text):
    """The table of a CSV output, read by csv.reader after its '#' lines."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return list(csv.reader(lines[start:]))


def test_csv_quotes_line_breaks_quotes_and_commas(tmp_path, capsys):
    # a line break, a quote and a comma are quoted, and each field reads
    # back as the str of its value, an np.float64 too (not numpy 2's repr)
    rows = [{"a": "one\ntwo", "b": 'say "hi", ok', "c": np.float64(0.5)}]
    path = tmp_path / "t.csv"
    write_output({"command": "x"}, rows, str(path), "csv")
    write_output({"command": "x"}, rows, None, "csv")
    table = [["a", "b", "c"], [str(v) for v in rows[0].values()]]
    assert _read_csv(path.read_text()) == table
    assert _read_csv(capsys.readouterr().out) == table
    assert json.loads((tmp_path / "t.json").read_text())["rows"] == rows


@pytest.mark.parametrize("argv", [["critical", "--method", "toeplitz"],
                                  ["bounds", "--charge", "1", "--delta", "0"]])
def test_csv_reads_back_as_its_json_mirror(argv, tmp_path, capsys):
    # critical's provenance fields hold commas, so they are quoted
    path = tmp_path / "t.csv"
    code, _, _ = run(argv + ["--output", str(path)], capsys)
    assert code == 0
    header, *body = _read_csv(path.read_text())
    mirror = json.loads((tmp_path / "t.json").read_text())["rows"]
    assert [dict(zip(header, r)) for r in body] == [
        {k: str(v) for k, v in row.items()} for row in mirror]


def test_negative_charge_usage_error(capsys):
    # negative, nan and inf values of --charge and --mass, and a grid with
    # a non-finite bound, are usage errors before any command runs
    argvs = [["bounds", "--charge", v, "--delta", "0"] for v in ("-1", "nan", "inf")]
    argvs += [["kato", "--mass", v] for v in ("nan", "inf")]
    argvs += [["hydrogen", "--grid", g] for g in ("1e-3,inf,900", "nan,120,900")]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_grid_usage_error_gives_the_reason(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hydrogen", "--grid", "1e-3,inf,900"])
    assert exc.value.code == 2
    assert "0 < r_min < r_max < inf" in capsys.readouterr().err


def test_bounds_needs_delta_or_field(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--charge", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_positivity_nonrel_flag(capsys):
    code, out, _ = run(["positivity", "--nonrel", "--sigma-grid", "2"], capsys)
    assert code == 0
    row = [l for l in out.splitlines() if not l.startswith("#")][1]
    assert float(row.split(",")[1]) < 0  # sigma = 2 gives a negative form


def test_positivity_lambda_column(capsys):
    code, out, _ = run(["positivity", "--sigma-grid", "1",
                        "--dimension", "2"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    ratio = float(rows[1].split(",")[header.index("lambda_ratio")])
    assert ratio == pytest.approx(0.25, rel=1e-6)


def test_positivity_default_columns(capsys):
    code, out, _ = run(["positivity", "--sigma-grid", "1"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == ("sigma,t,scale,norm_sq,t_scaled_lambda,lambda_ratio,"
                       "provenance")
    assert rows[1].endswith(",quadrature")


def test_epsilon_option_is_gone(tmp_path, capsys):
    # removed options are refused as flags and as config keys
    cfg = tmp_path / "gone.cfg"
    for command, key, value in (("positivity", "eps-schedule", "1e-2,1e-3,1e-4"),
                                ("critical", "m-max", "2")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--" + key, value])
        assert exc.value.code == 2
        # config keys are normalized like flag names ("-" -> "_")
        cfg.write_text("%s=%s\n" % (key, value))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert "unknown config keys" in capsys.readouterr().err


# a quick run of each subcommand
QUICK_ARGS = {"gamma": ["--dimension-list", "2.5", "--tol", "1e-6"],
              "positivity": ["--sigma-grid", "1"],
              "hydrogen": ["--refine-trace"],
              "critical": ["--method", "mellin"],
              "kato": ["--samples", "3", "--grid-size", "10", "--extent", "6"],
              "bounds": ["--charge", "1", "--delta", "0"]}


@pytest.mark.parametrize("command", sorted(QUICK_ARGS))
def test_header_is_the_parsed_parameter_set(command, capsys):
    # every parameter of the subparser and nothing else but the command, the
    # artifact version, the kernel backend and bounds' premise flag; the
    # hydrogen header once left out refine_trace
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    params = {a.dest for a in sub._actions} - {"help", "output", "format", "config"}
    params |= {"command", "artifact_version", "kernel_backend"}
    if command == "bounds":
        params.add("threshold_premise_assumed")
    code, out, _ = run([command, *QUICK_ARGS[command], "--format", "json"], capsys)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert set(meta) == params
    if command == "hydrogen":
        assert meta["refine_trace"] is True and meta["grid"] == "0.001,120.0,900"


@pytest.mark.parametrize("command, key", [("gamma", "dimension-list"),
                                          ("positivity", "sigma-grid")])
@pytest.mark.parametrize("value", ["", ","])
def test_empty_number_list_is_usage_error(command, key, value, tmp_path, capsys):
    # no rows to tabulate: refused from a flag or a config line, where it
    # once wrote a header-only table and exited 0
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("%s=%s\n" % (key, value))
    for argv in ([command, "--" + key, value], [command, "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "needs at least one number" in err


def test_hydrogen_command(capsys):
    code, out, _ = run(["hydrogen", "--charge", "1", "--m-max", "2"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    degs = [int(r.split(",")[4]) for r in rows]
    assert degs == [1, 3, 5]


def test_hydrogen_refine_trace(capsys):
    # three trace rows after the levels, at n/4, n/2 and n, whose largest
    # level error falls with each refinement
    code, out, _ = run(["hydrogen", "--refine-trace", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    trace = [r for r in rows if r["provenance"] == "refinement trace"]
    assert [r["level"] for r in trace] == ["trace-n=225", "trace-n=450", "trace-n=900"]
    errs = [r["reference"] for r in trace]
    assert errs[0] > errs[1] > errs[2] > 0.0


def test_hydrogen_refine_trace_reuses_the_level_solve(capsys, monkeypatch):
    # three channels on n = 900 and the half-grid check on 450 in
    # hydrogen2d, then only the n / 4 grid for the trace: its n / 2 and n
    # rows are hydrogen2d's own refinement trace, bit for bit
    sizes = []
    solve = spectra.sla.eigvalsh_tridiagonal

    def counted(d, e, **kwargs):
        sizes.append(len(d))
        return solve(d, e, **kwargs)

    monkeypatch.setattr(spectra.sla, "eigvalsh_tridiagonal", counted)
    code, out, _ = run(["hydrogen", "--refine-trace", "--format", "json"], capsys)
    assert code == 0
    assert sizes == [900, 900, 900, 450, 225]
    trace = [r for r in json.loads(out)["rows"] if r["provenance"] == "refinement trace"]
    for row, (n, ev) in zip(trace[1:], spectra.hydrogen2d(1.0, 2).refinement_trace):
        assert row["level"] == "trace-n=%d" % n
        assert row["energy"] == ev[0]
        assert row["reference"] == max(abs(e + 0.5 / (k + 0.5) ** 2)
                                       for k, e in enumerate(ev))


def _critical_rows(method, capsys):
    code, out, _ = run(["critical", "--method", method, "--format", "json"], capsys)
    assert code == 0
    return {r["quantity"]: r for r in json.loads(out)["rows"]}


def test_critical_methods(capsys):
    printed = {"printed_constant_as_printed", "printed_constant_fourth_power"}
    both = _critical_rows("both", capsys)
    assert set(both) == printed | {"nu_c_toeplitz", "nu_c_mellin", "method_gap"}
    gap = both["method_gap"]["value"]
    assert gap == abs(both["nu_c_toeplitz"]["value"] - both["nu_c_mellin"]["value"])
    assert 0.0 < gap <= 0.01
    assert both["nu_c_toeplitz"]["uncertainty"] > gap
    for method in ("toeplitz", "mellin"):
        rows = _critical_rows(method, capsys)
        assert set(rows) == printed | {"nu_c_" + method}
        assert rows["nu_c_" + method] == both["nu_c_" + method]
    # the retired bisection is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["critical", "--method", "bisect"])
    assert exc.value.code == 2


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dimension-list=2.5\ntol=1e-6\n")
    code, out, err = run(["gamma", "--config", str(cfg)], capsys)
    assert code == 0
    assert "2.5" in out
    # explicit flag wins, with a notice on stderr
    code, out, err = run(["gamma", "--config", str(cfg),
                          "--dimension-list", "3.0"], capsys)
    assert code == 0
    assert "notice:" in err
    assert out.splitlines()[-1].startswith("3.0,")
    # argparse takes a unique prefix of a flag, which wins all the same
    code, out, err = run(["gamma", "--config", str(cfg), "--to", "1e-9"], capsys)
    assert code == 0 and "notice:" in err and "# tol=1e-09" in out
    for dim in (["--dim", "3.0"], ["--dim=3.0"]):
        code, out, err = run(["gamma", "--config", str(cfg), *dim], capsys)
        assert code == 0 and "notice:" in err
        assert out.splitlines()[-1].startswith("3.0,")


def _run_captured(argv):
    """(stdout, exit code) of one CLI run, a usage error included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code


# flag values, every one admissible but tol=abc, which both routes refuse
# as a usage error; --output and --config are left out
ROUND_TRIP_FLAGS = {
    "gamma": {"dimension-list": st.sampled_from(["2.0", "2.5", "1.5,3.0"]),
              "tol": st.sampled_from(["1e-6", "1e-8", "abc"])},
    "critical": {"method": st.sampled_from(["toeplitz", "mellin", "both"])},
    "bounds": {"charge": st.sampled_from(["0", "0.5", "2"]),
               "delta": st.sampled_from(["0", "1.25"]),
               "b-field": st.sampled_from(["0", "1"]),
               "radius": st.sampled_from(["0.5", "2"])},
}
COMMON_FLAGS = {"format": st.sampled_from(["csv", "json"]),
                "seed": st.integers(0, 2 ** 31 - 1).map(str)}


@st.composite
def round_trip_cases(draw):
    """(command, {flag: value}, the flags moved into the config file)."""
    command = draw(st.sampled_from(sorted(ROUND_TRIP_FLAGS)))
    flags = draw(st.fixed_dictionaries(
        {}, optional={**ROUND_TRIP_FLAGS[command], **COMMON_FLAGS}))
    moved = {k for k in sorted(flags) if draw(st.booleans(), label=k)}
    return command, flags, moved


@settings(derandomize=True, deadline=None, max_examples=24)
@given(round_trip_cases())
@example(("gamma", {"tol": "abc"}, {"tol"}))
def test_config_round_trip_property(case):
    # a drawn subset of the flags moved into a config file gives the same
    # stdout and exit code as all of them on the command line; a missing
    # required flag or an unreadable value is the same usage error either way
    command, flags, moved = case
    argv = [command]
    for k, v in flags.items():
        if k not in moved:
            argv += ["--" + k, v]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.writelines("%s=%s\n" % (k, flags[k]) for k in sorted(moved))
        from_config = _run_captured(argv + ["--config", cfg])
    flat = [command] + [t for k, v in flags.items() for t in ("--" + k, v)]
    assert from_config == _run_captured(flat)
    if flags.get("tol") == "abc":
        assert from_config == ("", 2)


def test_config_comments_blank_lines_and_bare_words(tmp_path, capsys):
    # comment and blank lines are skipped; a line with no "=" is a usage error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# one dimension\n\n   \ndimension-list=2.5\n# tol=abc\ntol=1e-6\n")
    code, out, _ = run(["gamma", "--config", str(cfg)], capsys)
    assert code == 0 and out.splitlines()[-1].startswith("2.5,")
    cfg.write_text("dimension-list=2.5\ntol\n")
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "config line 'tol' is not key=value" in capsys.readouterr().err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # --help and --config are options but no parameters: as config keys
    # they would write help into the header or name a config never read
    for command, line, key in (
            (["gamma"], "not-a-flag=1", "not_a_flag"),
            (["bounds", "--charge", "1", "--delta", "0"], "help=yes", "help"),
            (["gamma"], "config=" + str(cfg), "config")):
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert "unknown config keys: " + key in capsys.readouterr().err


@pytest.mark.parametrize("command, line, why", [
    ("critical", "method=bisekt", "is not one of"),
    ("kato", "field=dott", "is not one of"),
    ("hydrogen", "m_max=abc", "cannot be read"),
    ("hydrogen", "grid=1,2", "cannot be read")],
    ids=["critical-method=bisekt", "kato-field=dott", "hydrogen-m_max=abc",
         "hydrogen-grid=1,2"])
def test_config_value_outside_choices_rejected(command, line, why, tmp_path,
                                               capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and re.search("config value .* " + why, err)


@pytest.mark.parametrize("val, nonrel", [("1", True), ("TRUE", True), ("Yes", True),
                                         ("0", False), ("false", False), ("NO", False)])
def test_config_flag_words(val, nonrel, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonrel=%s\nsigma-grid=1.0\n" % val)
    out, code = _run_captured(["positivity", "--config", str(cfg), "--format", "json"])
    assert code == 0
    assert json.loads(out)["meta"]["nonrel"] is nonrel


@pytest.mark.parametrize("val", ["ture", "", "on", "2", "y"])
def test_config_flag_typo_rejected(val, tmp_path, capsys):
    # read as false until the words were checked: nonrel=ture ran the
    # relativistic form and exited 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonrel=%s\n" % val)
    with pytest.raises(SystemExit) as exc:
        main(["positivity", "--config", str(cfg)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "config value nonrel=%r is not one of: " % val in err


@pytest.mark.parametrize("where", ["config-missing", "config-directory",
                                   "config-not-text", "output-missing-directory"])
def test_unreadable_config_and_unwritable_output(where, tmp_path, capsys):
    # a config file that cannot be read is a usage error before any
    # command runs; an --output that cannot be written is the failure
    # record on stderr, exit code 1, and no traceback either way
    argv = ["bounds", "--charge", "1", "--delta", "0"]
    if where == "output-missing-directory":
        code, out, err = run(argv + ["--output", str(tmp_path / "no" / "b.csv")],
                             capsys)
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["command"] == "bounds"
        assert record["failures"][0].startswith("FileNotFoundError: ")
        return
    path = {"config-missing": tmp_path / "missing.cfg",
            "config-directory": tmp_path,
            "config-not-text": tmp_path / "binary.cfg"}[where]
    if where == "config-not-text":
        path.write_bytes(b"charge=\xff\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(path)])
    assert exc.value.code == 2
    assert "error: config file cannot be read: " in capsys.readouterr().err


def test_kato_grid_size_beyond_dense_cap_is_usage_error(monkeypatch, tmp_path,
                                                        capsys):
    # refused when parsed, from a flag or a config line, before make_fields
    # samples any n x n array
    def no_sampling(*args, **kwargs):
        raise AssertionError("make_fields called")

    monkeypatch.setattr(lattice, "make_fields", no_sampling)
    cfg = tmp_path / "big.cfg"
    cfg.write_text("grid-size=50\n")
    for argv in (["kato", "--grid-size", "50"], ["kato", "--grid-size", "1"],
                 ["kato", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "--grid-size <= %d" % lattice.MAX_DENSE_GRID in capsys.readouterr().err


def test_kato_odd_grid_size_is_usage_error(monkeypatch, tmp_path, capsys):
    # an odd n puts the origin on a node: refused when parsed, from a flag
    # or a config line, before make_fields samples the fields
    def no_sampling(*args, **kwargs):
        raise AssertionError("make_fields called")

    monkeypatch.setattr(lattice, "make_fields", no_sampling)
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("grid-size=11\n")
    for argv in (["kato", "--grid-size", "11"], ["kato", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "even --grid-size, not 11" in capsys.readouterr().err


def test_kato_nonneg_phi_zero_field_exact(capsys):
    code, out, _ = run(["kato", "--field", "zero", "--nonneg-phi",
                        "--samples", "15", "--grid-size", "10",
                        "--extent", "6"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("max_violation")]
    assert abs(float(rows[0].split(",")[1])) < 1e-12


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--samples", "-3"),
                                         ("--seed", "-1")], ids=["0", "-3", "seed=-1"])
def test_kato_without_samples_is_failure_record(flag, value, capsys):
    # no sample, or a seed numpy's generator refuses
    code, _, err = run(["kato", flag, value, "--grid-size", "10",
                        "--extent", "6"], capsys)
    assert code == 1
    record = json.loads(err.splitlines()[-1])
    assert record["command"] == "kato"
    assert "DomainError" in record["failures"][0]


@pytest.mark.parametrize("argv", [
    ["gamma", "--tol", "inf"],
    ["kato", "--grid-size", "4", "--extent", "1e308"],
    ["kato", "--grid-size", "4", "--b-field", "1e308"],
    ["kato", "--grid-size", "4", "--radius", "1e308"],
    ["kato", "--grid-size", "4", "--mass", "1e308"]],
    ids=["tol=inf", "extent=1e308", "b-field=1e308", "radius=1e308", "mass=1e308"])
def test_input_past_double_range_is_failure_record(argv, capsys):
    # an inf tolerance stopped gamma after one panel (exit 0); a 1e308 kato
    # input ended in numpy's LinAlgError or, with warnings as errors, in a
    # RuntimeWarning before its record
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(argv, capsys)
    assert code == 1
    record = json.loads(err.splitlines()[-1])
    assert record["command"] == argv[0]
    assert record["failures"][0].startswith("DomainError")


def test_domain_error_becomes_failure_record(capsys):
    for argv in (
            # inadmissible trial decay for the requested dimension
            ["positivity", "--family", "log_linear_cutoff", "--sigma-grid", "1.0"],
            # a scale that is not positive
            ["positivity", "--sigma-grid", "1.0", "--lambda-scale", "0"],
            # widths that are not finite
            ["positivity", "--sigma-grid", "nan"],
            ["positivity", "--sigma-grid", "inf"],
            # a negative channel count, then zero levels
            ["hydrogen", "--m-max", "-1"],
            ["hydrogen", "--levels", "0"],
            # a dimension that is not finite, or whose |S^(d-1)| leaves
            # the double range
            ["positivity", "--dimension", "inf", "--sigma-grid", "1"],
            ["positivity", "--dimension", "400", "--sigma-grid", "1"],
            ["gamma", "--dimension-list", "2000"],
            ["gamma", "--dimension-list", "inf"]):
        code, out, err = run(argv, capsys)
        assert code == 1
        record = json.loads(err.splitlines()[-1])
        assert record["command"] == argv[0]
        assert "DomainError" in record["failures"][0]


def test_non_finite_form_is_failure_record(capsys):
    # the sigma = 12 lattice overflows at d = 3: a failure record, not inf/nan rows
    code, out, err = run(["positivity", "--dimension", "3",
                          "--sigma-grid", "12"], capsys)
    assert code == 1
    record = json.loads(err.splitlines()[-1])
    assert "DomainError" in record["failures"][0]
