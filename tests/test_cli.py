"""Command-line interface: exit codes, report JSON, file round trips."""

import dataclasses
import json

import numpy as np
import pytest

from eblup import McReport, MseReport, cli
from eblup.simulation import McCell, MethodDiagnostics


CANONICAL_CSV = "area,y,phi,x1\n1,1.0,1.0,1.0\n2,-1.0,1.0,1.0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_report(out):
    return cli.report_from_json(out)


# --- fit ------------------------------------------------------------------


def test_fit_reml_canonical(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, out, err = run(capsys, ["fit", "--family", "fay-herriot", "--data", data])
    assert rc == cli.EXIT_OK
    assert err == ""
    report = parse_report(out)
    assert report.command == "fit"
    assert report.method == "REML"
    assert report.fit["sigma_hat"] == pytest.approx([1.0], abs=1e-9)
    assert report.fit["converged"] is True
    assert report.warnings == []
    assert report.model["phi"] == [1.0, 1.0]


def test_fit_ml_boundary_still_exits_zero(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, out, _ = run(
        capsys, ["fit", "--family", "fay-herriot", "--data", data, "--method", "ml"]
    )
    assert rc == cli.EXIT_OK
    report = parse_report(out)
    assert report.fit["sigma_hat"] == [0.0]
    assert report.fit["boundary_hit"] is True
    assert "boundary" in report.warnings
    assert report.fit["information"] is None


def test_fit_accepts_start_and_options(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, out, _ = run(
        capsys,
        [
            "fit", "--family", "fay-herriot", "--data", data,
            "--start", "2.0", "--tol", "1e-10", "--max-iter", "50",
        ],
    )
    assert rc == cli.EXIT_OK
    report = parse_report(out)
    assert report.options["start"] == [2.0]
    assert report.options["tol"] == 1e-10
    assert report.fit["sigma_hat"] == pytest.approx([1.0], abs=1e-10)


def test_fit_budget_exhaustion_exit_code(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, out, _ = run(
        capsys,
        [
            "fit", "--family", "fay-herriot", "--data", data,
            "--start", "40.0", "--max-iter", "0",
        ],
    )
    assert rc == cli.EXIT_NO_CONVERGENCE
    report = parse_report(out)
    assert "no-convergence" in report.warnings
    assert report.fit["converged"] is False


def test_bad_flags_are_input_errors(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    base = ["fit", "--family", "fay-herriot", "--data", data]
    for extra, needle in (
        (["--clamp-eps", "1e-6"], "--clamp-eps"),
        (["--max-iter", "abc"], "--max-iter"),
        (["--bogus"], "--bogus"),
    ):
        rc, out, err = run(capsys, base + extra)
        assert rc == cli.EXIT_INPUT
        assert out == ""
        assert needle in json.loads(err)["error"]["message"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--help"])
    assert exc.value.code == 0
    assert "--max-iter" in capsys.readouterr().out


def test_missing_column_maps_to_input_error(tmp_path, capsys):
    data = write(tmp_path, "bad.csv", "area,y,x1\n1,1.0,1.0\n2,-1.0,1.0\n")
    rc, out, err = run(capsys, ["fit", "--family", "fay-herriot", "--data", data])
    assert rc == cli.EXIT_INPUT
    assert out == ""
    payload = json.loads(err)
    assert "phi" in payload["error"]["message"]


def test_unknown_family_lists_choices(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, _, err = run(capsys, ["fit", "--family", "beta-binomial", "--data", data])
    assert rc == cli.EXIT_INPUT
    message = json.loads(err)["error"]["message"]
    for fam in cli.FAMILIES:
        assert fam in message


def test_nested_error_csv(tmp_path, capsys):
    rows = ["group,y,x1"]
    rows += [f"a,{v},1.0" for v in (2.1, 1.9, 2.3)]
    rows += [f"b,{v},1.0" for v in (-1.0, -1.2)]
    rows += [f"c,{v},1.0" for v in (0.4, 0.1, 0.2)]
    data = write(tmp_path, "ne.csv", "\n".join(rows) + "\n")
    rc, out, _ = run(capsys, ["fit", "--family", "nested-error", "--data", data])
    assert rc == cli.EXIT_OK
    report = parse_report(out)
    assert report.model["groups"] == 3
    assert len(report.fit["sigma_hat"]) == 2


def test_anova_json_data(tmp_path, capsys):
    payload = {
        "model": {
            "family": "anova",
            "levels": [3, 2],
            "effects": [[0, 1]],
            "s_index": [1, 1],
        },
        "y": [1.0, 1.2, -0.4, -0.6, 0.1, 0.3],
    }
    data = write(tmp_path, "anova.json", json.dumps(payload))
    rc, out, _ = run(capsys, ["fit", "--family", "anova", "--data", data])
    assert rc == cli.EXIT_OK
    report = parse_report(out)
    assert report.model["levels"] == [3, 2]
    assert len(report.fit["sigma_hat"]) == 2


# --- mse ------------------------------------------------------------------


def test_mse_area_shorthand(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, out, _ = run(
        capsys,
        [
            "mse", "--family", "fay-herriot", "--data", data,
            "--area", "1", "--data-specific",
        ],
    )
    assert rc == cli.EXIT_OK
    report = parse_report(out)
    assert len(report.targets) == 1
    mse = report.targets[0]["mse"]
    assert mse["naive"] == pytest.approx(0.75, rel=1e-9)
    assert mse["prasad_rao"] == pytest.approx(2.75, rel=1e-9)
    assert mse["second_order"] == pytest.approx(2.75, rel=1e-9)
    assert mse["g3_data"] == pytest.approx(0.5, rel=1e-9)
    assert report.options["data_specific"] is True


def test_mse_area_is_one_based(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, _, err = run(
        capsys,
        ["mse", "--family", "fay-herriot", "--data", data, "--area", "0"],
    )
    assert rc == cli.EXIT_INPUT
    assert "1-based" in json.loads(err)["error"]["message"]


def test_mse_requires_some_target(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, _, err = run(capsys, ["mse", "--family", "fay-herriot", "--data", data])
    assert rc == cli.EXIT_INPUT
    assert "--targets" in json.loads(err)["error"]["message"]


def test_mse_singular_information_keeps_naive(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, out, _ = run(
        capsys,
        [
            "mse", "--family", "fay-herriot", "--data", data,
            "--method", "ml", "--area", "1",
        ],
    )
    assert rc == cli.EXIT_SINGULAR
    report = parse_report(out)
    mse = report.targets[0]["mse"]
    assert mse["naive"] == pytest.approx(0.5, rel=1e-9)
    assert mse["prasad_rao"] is None
    assert mse["second_order"] is None
    assert "singular-information" in report.warnings
    assert "boundary" in report.warnings


def test_mse_targets_file(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    targets = write(
        tmp_path,
        "targets.csv",
        "name,l1,m1,m2\nfirst,1.0,1.0,0.0\navg,1.0,0.5,0.5\n",
    )
    rc, out, _ = run(
        capsys,
        ["mse", "--family", "fay-herriot", "--data", data, "--targets", targets],
    )
    assert rc == cli.EXIT_OK
    report = parse_report(out)
    assert [t["name"] for t in report.targets] == ["first", "avg"]
    assert report.targets[0]["mse"]["g3_data"] is None
    # the half-half mix shrinks every component
    assert report.targets[1]["mse"]["g1"] < report.targets[0]["mse"]["g1"]


def test_mse_targets_file_short_row_is_input_error(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    targets = write(tmp_path, "targets.csv", "name,l1,m1,m2\nfirst,1.0,1.0,0.0\nshort,1.0,0.5\n")
    argv = ["mse", "--family", "fay-herriot", "--data", data, "--targets", targets]
    rc, out, err = run(capsys, argv)
    assert rc == cli.EXIT_INPUT
    assert out == ""
    assert "row 3, column 4" in json.loads(err)["error"]["message"]


# --- simulate -------------------------------------------------------------


def test_simulate_preset_outputs_and_determinism(tmp_path, capsys, monkeypatch):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    argv = ["simulate", "--preset", "harville-jeske-balanced",
            "--replicates", "8", "--seed", "4"]
    monkeypatch.setenv("EBLUP_THREADS", "1")
    rc, stdout, _ = run(capsys, argv + ["--out", out1])
    assert rc == cli.EXIT_OK
    assert "wrote" in stdout
    monkeypatch.setenv("EBLUP_THREADS", "3")
    rc, _, _ = run(capsys, argv + ["--out", out2])
    assert rc == cli.EXIT_OK
    for ext in (".json", ".csv"):
        a = open(out1 + ext, "rb").read()
        b = open(out2 + ext, "rb").read()
        assert a == b, f"{ext} output depends on worker count"
    payload = json.loads(open(out1 + ".json").read())
    assert payload["report"]["replicates"] == 8
    assert payload["report"]["n_used"] == 8
    for diag in payload["report"]["diagnostics"]:
        assert 0 <= diag["n_not_converged"] <= 8
    assert payload["config_echo"] == {"preset": "harville-jeske-balanced"}


def test_simulate_csv_floats_round_trip(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "s")
    monkeypatch.setenv("EBLUP_THREADS", "2")
    rc, _, _ = run(
        capsys,
        ["simulate", "--preset", "harville-jeske-unbalanced-small",
         "--replicates", "6", "--seed", "9", "--out", out],
    )
    assert rc == cli.EXIT_OK
    payload = json.loads(open(out + ".json").read())
    lines = open(out + ".csv").read().splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    cell = payload["report"]["cells"][0]
    # repr-formatted CSV floats parse back to the exact JSON values
    assert float(first["emp_mse_eblup"]) == cell["emp_mse_eblup"]
    assert float(first["mean"]) == cell["estimator_mean"][first["estimator"]]


def test_simulate_custom_config(tmp_path, capsys, monkeypatch):
    config = {
        "model": {"family": "fay-herriot", "phi": [1.0, 0.8, 1.2, 0.9, 1.1, 1.0]},
        "sigma_true": [1.0],
        "beta_true": [0.0],
        "areas": [1, 3],
        "methods": ["REML"],
        "replicates": 50,
        "estimators": ["naive", "prasad_rao", "second_order"],
    }
    cfg = write(tmp_path, "config.json", json.dumps(config))
    out = str(tmp_path / "c")
    monkeypatch.setenv("EBLUP_THREADS", "2")
    rc, _, _ = run(
        capsys, ["simulate", "--config", cfg, "--replicates", "5", "--out", out]
    )
    assert rc == cli.EXIT_OK
    payload = json.loads(open(out + ".json").read())
    assert payload["report"]["replicates"] == 5  # the flag overrides the file
    assert len(payload["report"]["cells"]) == 2


def names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_report_keys_are_the_dataclass_field_names(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "k")
    monkeypatch.setenv("EBLUP_THREADS", "1")
    rc, _, _ = run(
        capsys,
        ["simulate", "--preset", "harville-jeske-balanced",
         "--replicates", "4", "--seed", "2", "--out", out],
    )
    assert rc == cli.EXIT_OK
    report = json.loads(open(out + ".json").read())["report"]
    assert set(report) == names(McReport)
    assert report["failures"] == {}
    assert report["cells"] and report["diagnostics"]
    for cell in report["cells"]:
        assert set(cell) == names(McCell)
    for diag in report["diagnostics"]:
        assert set(diag) == names(MethodDiagnostics)

    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    rc, out, _ = run(capsys, ["mse", "--family", "fay-herriot", "--data", data, "--area", "1"])
    assert rc == cli.EXIT_OK
    assert set(parse_report(out).targets[0]["mse"]) == names(MseReport)


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "config.json",
        json.dumps({"model": {"family": "fay-herriot", "phi": [1, 1, 1]},
                    "sigma_true": [1.0], "beta_true": [0.0],
                    "areas": [1], "bootstrap": True}),
    )
    rc, _, err = run(capsys, ["simulate", "--config", cfg, "--out", "x"])
    assert rc == cli.EXIT_INPUT
    assert "bootstrap" in json.loads(err)["error"]["message"]


def test_simulate_needs_config_or_preset(capsys):
    rc, _, err = run(capsys, ["simulate", "--out", "x"])
    assert rc == cli.EXIT_INPUT
    assert "--config" in json.loads(err)["error"]["message"]


# --- check ----------------------------------------------------------------


def test_check_all_suites(capsys):
    rc, out, _ = run(capsys, ["check", "--suite", "all", "--seed", "1"])
    assert rc == cli.EXIT_OK
    assert "ok" in out


def test_check_unknown_suite(capsys):
    rc, _, err = run(capsys, ["check", "--suite", "nonsense"])
    assert rc == cli.EXIT_INPUT


# --- report round trip ----------------------------------------------------


def test_report_json_round_trip(tmp_path, capsys):
    data = write(tmp_path, "fh.csv", CANONICAL_CSV)
    _, out, _ = run(capsys, ["fit", "--family", "fay-herriot", "--data", data])
    report = parse_report(out)
    again = cli.report_from_json(cli.report_to_json(report))
    assert again == report


def test_report_json_rejects_unknown_and_missing():
    with pytest.raises(ValueError, match="unknown"):
        cli.report_from_json(json.dumps({"command": "fit", "extra": 1}))
    with pytest.raises(ValueError, match="missing"):
        cli.report_from_json(json.dumps({"command": "fit"}))
