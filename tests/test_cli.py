"""Command-line surface: exit codes, output formats, determinism."""

import json

import pytest

from gaugepair import cli
from gaugepair.cli import (
    CSV_HEADER,
    EXIT_CONVERGENCE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)

COARSE = "radial_nodes = 32\nangular_nodes = 32\nrel_tol = 1e-7\n"


@pytest.fixture
def coarse_cfg(tmp_path):
    path = tmp_path / "coarse.cfg"
    path.write_text(COARSE)
    return str(path)


def test_epsilon_json_shape_and_rounding(coarse_cfg, capsys):
    assert main(["--config", coarse_cfg, "epsilon", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "params",
        "eps_coulomb",
        "eps_lorentz",
        "eps_transformed",
        "ratio",
        "coefficients",
        "checks",
    }
    # every reported number is rounded to nine significant digits
    for key in ("eps_coulomb", "eps_lorentz", "eps_transformed"):
        v = report[key]["value"]
        assert v == float(f"{v:.9g}")
    assert report["ratio"] == float(f"{report['ratio']:.9g}")
    assert all(report["checks"].values())


def test_epsilon_human_table(coarse_cfg, capsys):
    assert main(["--config", coarse_cfg, "epsilon"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eps_coulomb" in out and "ratio" in out
    assert "[PASS] transformed matches covariant" in out


def test_check_passes_and_is_deterministic(capsys):
    assert main(["check", "--json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["check", "--json"]) == EXIT_OK
    assert capsys.readouterr().out == first
    suites = json.loads(first)["suites"]
    assert all(suites.values()) and len(suites) == 5


@pytest.mark.parametrize(
    "mode,broken_suite",
    [("metric", "metric sector"), ("pair", "subsidiary condition")],
)
def test_corruption_switches_break_named_suites(mode, broken_suite, capsys):
    assert main(["check", "--json", "--corrupt", mode]) == EXIT_INVARIANT
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert suites[broken_suite] is False
    others = {k: v for k, v in suites.items() if k != broken_suite}
    assert all(others.values())


def test_oracle_reports_fourth_power(capsys):
    assert main(["oracle", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert 3.8 <= report["exponent"] <= 4.2
    assert len(report["samples"]) == 3


def test_sweep_csv_contract(coarse_cfg, tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code = main(
        [
            "--config", coarse_cfg,
            "sweep", "--axis", "delta_e",
            "--from", "0.01", "--to", "0.02", "--points", "2",
            "--csv", str(out_csv),
        ]
    )
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0].endswith("residue,status")
    assert len(lines) == 3
    for row in lines[1:]:
        assert row.endswith(",ok")


def test_sweep_plot_data_emits_pairs(coarse_cfg, capsys):
    code = main(
        [
            "--config", coarse_cfg,
            "sweep", "--axis", "delta_e",
            "--from", "0.01", "--to", "0.02", "--points", "2",
            "--plot-data",
        ]
    )
    assert code == EXIT_OK
    pairs = [line.split() for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert len(pairs) == 2
    xs = [float(x) for x, _ in pairs]
    assert xs == sorted(xs)
    assert all(0.9 < float(r) < 1.0 for _, r in pairs)


def test_sweep_invalid_rows_surface_in_status(tmp_path, capsys):
    out_csv = tmp_path / "bad.csv"
    code = main(
        [
            "sweep", "--axis", "dipole_d",
            "--from", "-0.02", "--to", "-0.01", "--points", "2",
            "--csv", str(out_csv),
        ]
    )
    assert code == EXIT_CONVERGENCE
    for row in out_csv.read_text().splitlines()[1:]:
        assert row.endswith(",validation-error")


def test_sweep_lets_internal_faults_through(monkeypatch, tmp_path, capsys):
    # a plain ValueError is a fault in the program, not an invalid sweep row
    def broken(params, config):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "_epsilon_report", broken)
    out_csv = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="broadcast"):
        main(["sweep", "--axis", "delta_e", "--from", "0.01", "--to", "0.02",
              "--points", "2", "--csv", str(out_csv)])
    assert "validation-error" not in (out_csv.read_text() if out_csv.exists() else "")


def test_sweep_rejects_empty_grid(capsys):
    assert main(["sweep", "--axis", "delta_e", "--from", "1", "--to", "2",
                 "--points", "0"]) == EXIT_VALIDATION


def test_log_spacing_rejects_nonpositive_endpoints(capsys):
    assert main(["sweep", "--axis", "delta_e", "--from", "0", "--to", "1",
                 "--points", "2", "--log"]) == EXIT_VALIDATION


def test_config_errors_exit_validation(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("banana = 3\n")
    assert main(["--config", str(bad), "expand"]) == EXIT_VALIDATION
    assert main(["--config", str(tmp_path / "missing.cfg"), "expand"]) == EXIT_VALIDATION


def test_unknown_subcommand_exits_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_VALIDATION
