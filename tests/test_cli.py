import json

import pytest

from opineq.cli import main


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
    with pytest.raises(SystemExit) as exc:
        main(["positivity", "--eps-schedule", "1e-2,1e-3,1e-4"])
    assert exc.value.code == 2
    cfg = tmp_path / "eps.cfg"
    # config keys are normalized like flag names ("-" -> "_")
    cfg.write_text("eps-schedule=1e-2,1e-3,1e-4\n")
    with pytest.raises(SystemExit, match="unknown config keys"):
        main(["positivity", "--config", str(cfg)])
    capsys.readouterr()


def test_hydrogen_command(capsys):
    code, out, _ = run(["hydrogen", "--charge", "1", "--m-max", "2"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    degs = [int(r.split(",")[4]) for r in rows]
    assert degs == [1, 3, 5]


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


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not-a-flag=1\n")
    with pytest.raises(SystemExit):
        main(["gamma", "--config", str(cfg)])
    capsys.readouterr()


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
    with pytest.raises(SystemExit, match="config value .* " + why):
        main([command, "--config", str(cfg)])
    assert capsys.readouterr().out == ""


def test_kato_nonneg_phi_zero_field_exact(capsys):
    code, out, _ = run(["kato", "--field", "zero", "--nonneg-phi",
                        "--samples", "15", "--grid-size", "10",
                        "--extent", "6"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("max_violation")]
    assert abs(float(rows[0].split(",")[1])) < 1e-12


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_kato_without_samples_is_failure_record(samples, capsys):
    code, _, err = run(["kato", "--samples", samples, "--grid-size", "10",
                        "--extent", "6"], capsys)
    assert code == 1
    record = json.loads(err.splitlines()[-1])
    assert record["command"] == "kato"
    assert "DomainError" in record["failures"][0]


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
            ["hydrogen", "--levels", "0"]):
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
