"""Command-line surface: exit codes, output formats, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gaugepair import cli, gauge, perturbation
from gaugepair.cli import (
    CSV_HEADER,
    EXIT_CONVERGENCE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from gaugepair.core import PARAM_KEYS, SystemParams
from gaugepair.fock import PolarizationKind
from gaugepair.perturbation import PoleError
from gaugepair.quadrature import coulomb_closed_form

COARSE = "radial_nodes = 32\nrel_tol = 1e-7\n"
SRC = Path(__file__).resolve().parents[1] / "src"


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


SUITES = ["metric sector", "subsidiary condition", "form factor oracle",
          "per-mode gauge equivalence", "four-diagram reconstruction"]


def _aligned_rows(lines):
    """(key, value) of table rows "  key  value" whose values share one column."""
    matches = [re.fullmatch(r"  (\S+) +(\S.*)", line) for line in lines]
    assert all(matches), lines
    assert len({m.start(2) for m in matches}) == 1, lines
    return [m.groups() for m in matches]


def test_epsilon_human_table(coarse_cfg, capsys):
    assert main(["--config", coarse_cfg, "epsilon"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "amplitude report"
    rows = _aligned_rows(lines[1:-2])
    assert [key for key, _ in rows] == [*PARAM_KEYS, "eps_coulomb", "eps_lorentz",
                                        "eps_transformed", "ratio", "c0", "c1", "c2"]
    assert lines[-2:] == ["  [PASS] transformed matches covariant",
                          "  [PASS] per-mode residual vanishes"]


def test_expand_table_layout(coarse_cfg, capsys):
    assert main(["--config", coarse_cfg, "expand"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("series coefficients (c1 in detuning/splitting-frequency units,"
                        " c2 in squared units)")
    rows = _aligned_rows(lines[1:])
    assert [key for key, _ in rows] == [*PARAM_KEYS, "c0", "c1", "c2"]
    assert all("(err " in value for _, value in rows[-3:])


@pytest.mark.parametrize("verb", ["epsilon", "expand"])
def test_a_column_without_a_pole_prints_its_residue_as_plus_zero(verb, capsys):
    # the amplitudes' prefactor is negative, and +0.0 times it is -0.0
    assert main([verb, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    leaves = ([report["eps_coulomb"], report["coefficients"]["c0"], report["coefficients"]["c2"]]
              if verb == "epsilon" else [report["c0"], report["c2"]])
    assert [math.copysign(1.0, leaf["residue_imag"]) for leaf in leaves] == [1.0] * len(leaves)
    assert main([verb]) == EXIT_OK
    table = capsys.readouterr().out
    assert "residue -0," not in table and "residue 0," in table


def test_check_table_is_one_verdict_line_per_suite(capsys):
    assert main(["check"]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out.splitlines() == [f"  [PASS] {suite}" for suite in SUITES]
    assert out.err == ""


def test_check_passes_and_is_deterministic(capsys):
    assert main(["check", "--json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["check", "--json"]) == EXIT_OK
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert list(report) == ["suites", "all_passed"]
    assert list(report["suites"]) == SUITES and all(report["suites"].values())


def test_one_parser_serves_every_call_of_a_process(capsys):
    # built on first use, not at import, and reused: no option of one call may
    # carry over into the next
    assert cli._build_parser() is cli._build_parser()
    assert main(["check", "--json", "--corrupt", "metric"]) == EXIT_INVARIANT
    capsys.readouterr()
    assert main(["check", "--json"]) == EXIT_OK
    assert all(json.loads(capsys.readouterr().out)["suites"].values())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = "import gaugepair.cli as cli; print(cli._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0"], proc.stderr


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


@settings(max_examples=100, deadline=None)
@example(log_dl=math.log10(0.025), log_x=math.log10(400.0), delta=0.01)  # d = 10 at L = 400
@given(st.floats(-4.0, math.log10(0.3)), st.floats(math.log10(0.05), math.log10(400.0)),
       st.floats(0.002, 0.05))
def test_check_holds_and_both_corruptions_fail_on_valid_geometries(tmp_path_factory,
                                                                    log_dl, log_x, delta):
    # omega_a = c = 1: d/L from 1e-4 to 0.3, omega_a L/c from 0.05 to 400 and
    # delta/omega_a from 0.002 to 0.05.  check passes or refuses the geometry
    # with exit 1; where it does not refuse, each negative control fails it.
    # Past k d of about 5 the corrupted pair's residual falls under the
    # subsidiary suite's bound, so that suite's |k| must scale with 1/d; the
    # example is such a point, which random draws seldom reach
    cfg = tmp_path_factory.mktemp("geometry") / "point.cfg"
    sep_l = 10.0**log_x
    cfg.write_text(f"separation_l = {sep_l!r}\ndipole_d = {10.0**log_dl * sep_l!r}\n"
                   f"omega_b = {1.0 + delta!r}\n")
    codes = [main(["--config", str(cfg), "check", "--json", *extra])
             for extra in ([], ["--corrupt", "metric"], ["--corrupt", "pair"])]
    assert codes[0] == EXIT_VALIDATION or codes == [EXIT_OK, EXIT_INVARIANT, EXIT_INVARIANT]


def _scaled(name, factor, pick=lambda *args: True):
    """A slip: cli's `name` with its result scaled by factor where pick(*args) holds."""
    original = getattr(cli, name)
    return lambda *args: original(*args) * (factor if pick(*args) else 1.0)


def _scaled_item(name, index, factor):
    """A slip: item `index` of the tuple that cli's `name` returns, scaled by factor."""
    original = getattr(cli, name)

    def slipped(*args):
        out = list(original(*args))
        out[index] *= factor
        return tuple(out)
    return slipped


def _residual_bumped(params, omega):
    report = gauge.per_k_equivalence(params, omega)
    return replace(report, residual=report.residual + 1e-6)


# one slip per failure branch of the suites that have no --corrupt switch:
# id -> (suite, name in cli, slipped stand-in)
SUITE_SLIPS = {
    "form-factor-closed-form": ("form factor oracle", "gaussian_form_factor",
                                _scaled("gaussian_form_factor", 1.01)),
    "per-mode-residual": ("per-mode gauge equivalence", "per_k_equivalence",
                          _residual_bumped),
    "operator-route-linear": ("per-mode gauge equivalence", "operator_route_brackets",
                              _scaled_item("operator_route_brackets", 0, 1.01)),
    "closed-quadratic": ("per-mode gauge equivalence", "transform_brackets",
                         _scaled_item("transform_brackets", 2, 1.01)),
    "combined-bracket-form": ("four-diagram reconstruction", "combined_bracket_form",
                              _scaled("combined_bracket_form", 1.01)),
    "longitudinal-diagram": ("four-diagram reconstruction", "diagram_integrand",
                             _scaled("diagram_integrand", 1.01, lambda params, spec, k:
                                     spec.photon_kind is PolarizationKind.LONGITUDINAL)),
}


@pytest.mark.parametrize("suite,name,slip", SUITE_SLIPS.values(), ids=SUITE_SLIPS.keys())
def test_a_slip_fails_exactly_its_suite(suite, name, slip, monkeypatch, capsys):
    monkeypatch.setattr(cli, name, slip)
    assert main(["check", "--json"]) == EXIT_INVARIANT
    out = capsys.readouterr()
    assert out.err == ""  # the suite's own comparison failed; nothing raised
    suites = json.loads(out.out)["suites"]
    assert [key for key, ok in suites.items() if not ok] == [suite]


def test_a_suite_that_raises_fails_check(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("quadrature blew up")

    monkeypatch.setattr(cli, "form_factor_oracle", broken)
    assert main(["check"]) == EXIT_INVARIANT
    out = capsys.readouterr()
    assert out.err == "  [FAIL] form factor oracle: quadrature blew up\n"
    assert "  [FAIL] form factor oracle" in out.out.splitlines()


def test_oracle_reports_fourth_power(capsys):
    assert main(["oracle", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["exponent", "samples", "verdict"]
    assert report["verdict"] == "pass"
    assert 3.8 <= report["exponent"] <= 4.2
    assert len(report["samples"]) == 3


def test_oracle_human_table(capsys):
    assert main(["oracle"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "oracle report"
    assert lines[1].split() == ["registry", "+-k", "pair", "at", "|k|", "=", "1.7"]
    assert [line.split()[2] for line in lines[2:5]] == ["q", "q", "q"]
    assert lines[-1].split() == ["verdict", "pass"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_oracle_stops_on_an_exact_tie(monkeypatch, capsys):
    # ED equal to perturbation theory at q/4 leaves a residual of exactly 0,
    # which has no logarithm to scale: an oracle failure that names the
    # charge, not a verdict.  The verdict runs ED once per charge, q/4 third
    honest, calls = perturbation._diagonalized, []

    def tied(registry, *args):
        calls.append(registry)
        result = honest(registry, *args)
        if len(calls) < 3:
            return result
        fresh = perturbation.discrete_second_order(SystemParams(charge_q=0.25), registry)
        return replace(result, epsilon_exact=fresh)

    monkeypatch.setattr(perturbation, "_diagonalized", tied)
    assert main(["oracle", "--json"]) == EXIT_CONVERGENCE
    out = capsys.readouterr()
    assert out.out == "" and len(calls) == 3
    assert len(out.err.splitlines()) == 1 and out.err.startswith("oracle failure: ")
    assert "exactly at charge_q = 0.25" in out.err


def _oracle_run(cfg, k_mag):
    """main's exit code, stdout and stderr for one `oracle --json` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "oracle", "--json", "--oracle-k", repr(k_mag)])
    return code, out.getvalue(), err.getvalue()


def _charge_flipped(text):
    """text with the sign of every printed charge_q flipped."""
    return re.sub(r"charge_q = (-?)", lambda m: "charge_q = " + ("" if m[1] else "-"), text)


@settings(max_examples=60, deadline=None)
@example(log_q=0.0, negative=True, delta=0.01, k_mag=1.7)  # charge_q = -1 at the default point
@given(st.floats(-3.0, math.log10(30.0)), st.booleans(), st.floats(0.002, 0.05),
       st.floats(1.1, 3.0))
def test_oracle_keeps_its_exit_contract_at_either_sign_of_the_charge(tmp_path_factory, log_q,
                                                                     negative, delta, k_mag):
    # exit 0 or 3 prints strict JSON with a finite exponent, exit 1 or 2 one
    # error line and nothing on stdout.  Every vertex moves one photon, so
    # (-1)^(photon number) maps H(q) onto H(-q): at -q the verdict is the one
    # at q with only the signs of the charges flipped
    charge = -(10.0**log_q) if negative else 10.0**log_q
    folder = tmp_path_factory.mktemp("charge")
    runs = []
    for name, q in (("q", charge), ("minus_q", -charge)):
        cfg = folder / f"{name}.cfg"
        cfg.write_text(f"omega_b = {1.0 + delta!r}\ncharge_q = {q!r}\n")
        runs.append(_oracle_run(cfg, k_mag))
    (code, out, err), flipped = runs
    if code in (EXIT_VALIDATION, EXIT_CONVERGENCE):
        prefix = "error: " if code == EXIT_VALIDATION else "oracle failure: "
        assert out == "" and len(err.splitlines()) == 1 and err.startswith(prefix)
        assert flipped == (code, out, _charge_flipped(err))
    else:
        assert code in (EXIT_OK, EXIT_INVARIANT) and err == ""
        report = json.loads(out, parse_constant=_refuse_constant)
        assert math.isfinite(report["exponent"])
        samples = [[-q, residual] for q, residual in report["samples"]]
        assert (flipped[0], flipped[2]) == (code, "")
        assert json.loads(flipped[1]) == {**report, "samples": samples}


def test_oracle_at_zero_charge_refuses(tmp_path, capsys):
    cfg = tmp_path / "free.cfg"
    cfg.write_text("charge_q = 0\n")
    assert main(["--config", str(cfg), "oracle", "--json"]) == EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")
    assert "coupling vanishes" in out.err


@pytest.mark.parametrize("k_mag", ["1e3", "1880", "1e100", "1e150", "1e154"])
def test_oracle_far_past_the_form_factor_refuses(k_mag, capsys):
    # exp(-(k_x d)^2/2) is below PRUNE_TOL (|k| = 1e3), subnormal (1880, where
    # halving the coupling for q/2 is no longer exact) or underflows, so no
    # vertex survives and there is no residual to fit
    assert main(["oracle", "--json", "--oracle-k", k_mag]) == EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")
    assert "coupling vanishes" in out.err


@pytest.mark.parametrize("k_mag", ["239.5", "356.2"])
def test_oracle_below_the_prune_floor_refuses(k_mag, capsys):
    # eps * delta_e is 3.2e-17 and 2.2e-28 at q = 1: perturbation theory prunes
    # an amplitude that small to 0 while ED keeps it, so the fit would read 2
    assert main(["oracle", "--json", "--oracle-k", k_mag]) == EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")
    assert "within PRUNE_TOL" in out.err


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
    # the parameter columns are SystemParams' fields, in their order
    assert lines[0].startswith("omega_a,omega_b,separation_l,dipole_d,mass_m,charge_q,")
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


def test_sweep_plot_data_goes_to_the_csv_path(coarse_cfg, tmp_path, capsys):
    out_csv = tmp_path / "pairs.txt"
    assert main(["--config", coarse_cfg, "sweep", "--axis", "delta_e", "--from", "0.01",
                 "--to", "0.02", "--points", "2", "--plot-data",
                 "--csv", str(out_csv)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    pairs = [line.split() for line in out_csv.read_text().splitlines()]
    assert [float(x) for x, _ in pairs] == [0.01, 0.02]
    assert all(0.9 < float(r) < 1.0 for _, r in pairs)


@pytest.mark.parametrize("spacing,points,expected", [
    ([], 1, [0.01]),
    (["--log"], 3, [0.01, 0.02, 0.04]),
])
def test_sweep_axis_spacing(spacing, points, expected, coarse_cfg, capsys):
    code = main(["--config", coarse_cfg, "sweep", "--axis", "delta_e", "--from", "0.01",
                 "--to", "0.04", "--points", str(points), *spacing, "--plot-data"])
    assert code == EXIT_OK
    xs = [float(line.split()[0]) for line in capsys.readouterr().out.splitlines()]
    assert xs == pytest.approx(expected, rel=1e-12)


def test_sweep_row_that_stalls_reports_convergence_error(tmp_path, capsys):
    cfg = tmp_path / "unreachable.cfg"
    cfg.write_text("radial_nodes = 2\nrel_tol = 1e-14\n")
    code = main(["--config", str(cfg), "sweep", "--axis", "delta_e",
                 "--from", "0.01", "--to", "0.01", "--points", "1"])
    assert code == EXIT_CONVERGENCE
    assert capsys.readouterr().out.splitlines()[1:] == [
        "," * (len(CSV_HEADER) - 1) + "convergence-error"]


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


def test_sweep_with_one_invalid_row_exits_nonzero(coarse_cfg, tmp_path, capsys):
    out_csv = tmp_path / "mixed.csv"
    code = main(
        [
            "--config", coarse_cfg,
            "sweep", "--axis", "dipole_d",
            "--from", "0.02", "--to", "-0.01", "--points", "2",
            "--csv", str(out_csv),
        ]
    )
    assert code == EXIT_CONVERGENCE
    statuses = [row.rsplit(",", 1)[1] for row in out_csv.read_text().splitlines()[1:]]
    assert statuses == ["ok", "validation-error"]


def test_stalled_quadrature_exits_convergence(tmp_path, capsys):
    # two nodes per contour panel shrink the level difference 16x a level:
    # after ten levels it is still 5.7e-13 of the Coulomb column, short of 1e-14
    cfg = tmp_path / "unreachable.cfg"
    cfg.write_text("radial_nodes = 2\nrel_tol = 1e-14\n")
    assert main(["--config", str(cfg), "epsilon"]) == EXIT_CONVERGENCE
    assert "radial quadrature stalled" in capsys.readouterr().err


def test_tolerance_below_rounding_exits_validation(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("rel_tol = 1e-20\n")
    assert main(["--config", str(cfg), "epsilon"]) == EXIT_VALIDATION
    assert "below the rounding floor" in capsys.readouterr().err


def test_oracle_mode_on_resonance_exits_convergence(capsys):
    # |k| = omega_a / c puts a registry mode on the resonance
    assert main(["oracle", "--oracle-k", "1.0"]) == EXIT_CONVERGENCE
    assert "degenerate with the start state" in capsys.readouterr().err


@pytest.mark.parametrize("charge", ["100", "1e10", "1e50"])
def test_oracle_without_a_perturbative_branch_exits_convergence(charge, tmp_path, capsys):
    # the blocks' rounding grows with the charge: the metric check scales with
    # them, so the true cause is named, not a broken self-adjointness
    cfg = tmp_path / "strong.cfg"
    cfg.write_text(f"charge_q = {charge}\n")
    assert main(["--config", str(cfg), "oracle"]) == EXIT_CONVERGENCE
    assert capsys.readouterr().err == ("oracle failure: partition energy did not settle in 20 "
                                       "sweeps (no perturbative branch) - reduce the coupling\n")


def test_oracle_verdict_does_not_move_with_blas_threads(tmp_path):
    # omega_b = 1.02, |k| = 1.7: an eigenvector read of the ED amplitude fit
    # exponent 4.305 on one BLAS thread and 4.232 on two, both failing
    cfg = tmp_path / "split.cfg"
    cfg.write_text("omega_b = 1.02\n")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "gaugepair.cli", "--config", str(cfg),
             "oracle", "--oracle-k", "1.7", "--json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        reports.append(json.loads(proc.stdout))
    assert [r["verdict"] for r in reports] == ["pass", "pass"]
    assert abs(reports[0]["exponent"] - reports[1]["exponent"]) <= 1e-6


def test_verbs_load_no_scipy():
    # scipy is a test-side reference only; the package runs on numpy alone
    code = ("import sys, gaugepair.cli as cli\n"
            "assert cli.main(['epsilon', '--json']) == 0\n"
            "assert cli.main(['oracle', '--json']) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


def test_pole_error_is_a_validation_error(monkeypatch, tmp_path, capsys):
    def on_the_pole(params, config):
        raise PoleError("bracket pole at omega_gamma = omega_a = 1.0")

    monkeypatch.setattr(cli, "_epsilon_report", on_the_pole)
    out_csv = tmp_path / "rows.csv"
    assert main(["sweep", "--axis", "delta_e", "--from", "0.01", "--to", "0.02",
                 "--points", "2", "--csv", str(out_csv)]) == EXIT_CONVERGENCE
    statuses = [row.rsplit(",", 1)[1] for row in out_csv.read_text().splitlines()[1:]]
    assert statuses == ["validation-error", "validation-error"]
    capsys.readouterr()
    assert main(["epsilon"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "error: bracket pole at omega_gamma = omega_a = 1.0"]


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
    # the spherical engine's node count is no config key: no verb reads it
    bad.write_text("angular_nodes = 32\n")
    capsys.readouterr()
    assert main(["--config", str(bad), "epsilon"]) == EXIT_VALIDATION
    assert "unknown key 'angular_nodes'" in capsys.readouterr().err


def test_soft_limit_warns_and_still_succeeds(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(COARSE + "omega_b = 1.3\n")
    assert main(["--config", str(cfg), "expand"]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: delta_e/(hbar*omega_a) = 0.3 outside the small-splitting regime\n")


EDGE_INPUTS = [
    ("", ["oracle", "--oracle-k", "nan"], EXIT_VALIDATION),
    ("", ["oracle", "--oracle-k", "inf"], EXIT_VALIDATION),
    ("", ["oracle", "--oracle-k", "1e-300"], EXIT_VALIDATION),  # |k|^2 underflows
    ("rel_tol = inf", ["epsilon"], EXIT_VALIDATION),
    ("kmax_over_invd = inf", ["epsilon"], EXIT_VALIDATION),
    *[(config, [verb], EXIT_VALIDATION)
      for config in ("charge_q = 0", "omega_b = 1e300", "separation_l = 1e-300",
                     "dipole_d = 1e-300", "separation_l = 1e300")
      for verb in ("epsilon", "expand")],
    # the contour's level would overrun the node budget before it is built
    # (the rule alone would be a 1e5 x 1e5 companion matrix)
    ("radial_nodes = 100000", ["epsilon"], EXIT_CONVERGENCE),
    ("radial_nodes = 100000", ["expand"], EXIT_CONVERGENCE),
    # a cutoff K whose square overflows; the default d/L = 0.01 has no top side
    ("kmax_over_invd = 1e300", ["epsilon"], EXIT_VALIDATION),
    ("kmax_over_invd = 1e300", ["expand"], EXIT_VALIDATION),
    # the implied oscillator mass hbar/(2 d^2 omega) squares d past the range
    ("dipole_d = 1e300", ["oracle"], EXIT_VALIDATION),
    ("dipole_d = 1e300", ["check"], EXIT_VALIDATION),
    # a vanishing coupling leaves the static-route bracket undefined: bad
    # input, not a failed per-mode suite
    ("charge_q = 0", ["check"], EXIT_VALIDATION),
    ("charge_q = 1e-160", ["check"], EXIT_VALIDATION),
    ("charge_q = 0", ["oracle"], EXIT_VALIDATION),
    # q^2 beyond floating-point range: bad input, not a failed check suite,
    # and not a perturbative sum dropped as zero
    *[(f"charge_q = {charge}", [verb], EXIT_VALIDATION)
      for charge in ("1e160", "1e300") for verb in ("check", "oracle")],
    # the state algebra would drop the per-mode amplitudes (q^2 = 1e-12)
    ("charge_q = 1e-6", ["check"], EXIT_VALIDATION),
    # large dipoles at d/L = 0.01: the per-mode wavevectors follow 1/d, so
    # check holds and prints its report with no error line
    ("separation_l = 400\ndipole_d = 4", ["check"], EXIT_OK),
    ("separation_l = 200\ndipole_d = 2", ["check"], EXIT_OK),
    # numpy refuses a grid past its index range before allocating it
    ("", ["sweep", "--axis", "delta_e", "--from", "0.01", "--to", "0.02",
          "--points", "100000000000000000000"], EXIT_VALIDATION),
    # a directory where a file is read or written; {dir} is the test's tmp_path
    ("", ["--config", "{dir}", "epsilon"], EXIT_VALIDATION),
    ("", ["sweep", "--axis", "delta_e", "--from", "0.01", "--to", "0.02", "--points", "2",
          "--csv", "{dir}"], EXIT_VALIDATION),
]


@pytest.mark.parametrize("config,argv,code", EDGE_INPUTS,
                         ids=[" ".join(filter(None, (c, *a))) for c, a, _ in EDGE_INPUTS])
def test_out_of_range_input_exits_with_one_error_line(config, argv, code, tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(config + "\n")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    assert main(["--config", str(cfg), *argv]) == code
    out = capsys.readouterr()
    # validate's soft-limit warnings may precede the one error line
    errors = [line for line in out.err.splitlines() if not line.startswith("warning: ")]
    if code == EXIT_OK:
        assert out.out and errors == []
        return
    assert out.out == ""
    assert len(errors) == 1 and errors[0].startswith(("error: ", "convergence failure: "))


def test_separation_far_beyond_the_dipole_reports_its_lost_digits(tmp_path, capsys):
    # L = 1e20 passes every normalization.  The contour's nodes do not grow
    # with L, so the report runs, and each estimate covers the column's
    # distance from the point-dipole closed form (every amplitude is within
    # 1e-6 of it there): the Coulomb column keeps six digits, while the
    # covariant ones, which cancel 1e38-fold, report an estimate above their
    # value.
    cfg = tmp_path / "far.cfg"
    cfg.write_text("separation_l = 1e20\n")
    assert main(["--config", str(cfg), "epsilon", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    closed = coulomb_closed_form(SystemParams(separation_l=1e20))
    for name in ("eps_coulomb", "eps_lorentz", "eps_transformed"):
        assert abs(report[name]["value"] - closed) <= report[name]["error_estimate"], name
    assert report["eps_coulomb"]["error_estimate"] <= 1e-5 * closed
    assert report["eps_lorentz"]["error_estimate"] >= abs(report["eps_lorentz"]["value"])


def test_unknown_subcommand_exits_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_VALIDATION


# -- the benchmark's own output check, on the report verbs ---------------------------

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def _report_points(every):
    """Every `every`-th report point of the benchmark references, as
    (config text, reference fields); the file is only read."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["report"]
    points = []
    for key in sorted(refs)[::every]:
        sep_l, delta = (float(v) for v in re.fullmatch(r"L=(.+),delta=(.+)", key).groups())
        # the report grid: omega_a = c = 1, d/L = 0.01
        config = (f"omega_a = 1.0\nomega_b = {1.0 + delta!r}\n"
                  f"separation_l = {sep_l!r}\ndipole_d = {0.01 * sep_l!r}\n")
        points.append((config, refs[key]))
    return points


def _allowed_gap(ref, error_estimate):
    # ten error estimates, 1e-9 relative, and half a unit in the 9th printed digit
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 8) if ref else 0.0
    return 10.0 * error_estimate + 1e-9 * abs(ref) + half_digit


@pytest.mark.parametrize("config,ref", _report_points(every=5))
def test_report_verbs_match_benchmark_references(config, ref, tmp_path, capsys):
    path = tmp_path / "point.cfg"
    path.write_text(config)
    docs = {}
    for verb in ("epsilon", "expand"):
        assert main(["--config", str(path), verb, "--json"]) == EXIT_OK
        out = capsys.readouterr()
        assert out.err == "", verb
        docs[verb] = json.loads(out.out)

    report = docs["epsilon"]
    assert all(report["checks"].values())
    fields = {name: (report[name]["value"], report[name]["error_estimate"])
              for name in ("eps_coulomb", "eps_lorentz", "eps_transformed")}
    # the ratio is printed without an estimate: propagate the two it divides
    c, l = fields["eps_coulomb"], fields["eps_lorentz"]
    fields["ratio"] = (report["ratio"],
                       abs(report["ratio"]) * (l[1] / abs(l[0]) + c[1] / abs(c[0])))
    for doc, prefix in ((report["coefficients"], "epsilon "), (docs["expand"], "expand ")):
        for name in ("c0", "c1", "c2"):
            fields[prefix + name] = (doc[name]["value"], doc[name]["error_estimate"])
    for name, (value, err) in fields.items():
        expected = ref[name.split()[-1]]
        assert abs(value - expected) <= _allowed_gap(expected, err), name
