"""Command-line front end: amplitude reports, parameter sweeps, invariant
suites, and the small-registry oracle.

Exit codes: 0 success, 1 validation, 2 convergence failure, 3 invariant
failure.  All floats print with 9 significant digits; identical config and
seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .core import (
    SystemParams,
    ValidationError,
    load_config,
    params_from_mapping,
    validate,
)
from .fock import (
    PolarizationKind,
    StateVector,
    apply_scalar_sector_identity,
    indefinite_inner,
    make_registry,
)
from .gauge import (
    mapped_column,
    operator_route_brackets,
    per_k_equivalence,
    residual_term_physicality,
    transform_brackets,
    transformed_epsilon,  # imported only for perfbench/tracing.py to wrap
)
from .matelem import ConvergenceError, OscillatorId, form_factor_oracle, gaussian_form_factor
from .perturbation import (
    DiagramSpec,
    ExchangeOrder,
    OracleError,
    PoleError,
    ResonanceError,
    combined_bracket_form,
    diagram_integrand,
    oracle_scaling_exponent,
    symmetric_diagram_sum,
)
from .quadrature import (
    COULOMB,
    IntegralResult,
    QuadratureConfig,
    SeriesCoefficients,
    config_from_mapping,
    epsilon_columns,
    epsilon_coulomb,  # imported only for perfbench/tracing.py to wrap
    epsilon_lorentz,  # imported only for perfbench/tracing.py to wrap
    lorentz_column,
    series_coefficients,
    series_columns,
    series_from_terms,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_INVARIANT = 3


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


@dataclass(frozen=True)
class EpsilonReport:
    params: SystemParams
    eps_coulomb: IntegralResult
    eps_lorentz: IntegralResult
    eps_transformed: IntegralResult
    ratio: float
    coefficients: SeriesCoefficients
    checks: tuple[tuple[str, bool], ...]

    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap to the validation code
    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gaugepair", description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH", help="key = value parameter file")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed for randomized invariant samples")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eps = sub.add_parser("epsilon", help="compute the amplitude by every route")
    p_eps.add_argument("--json", action="store_true", help="machine-readable output")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis, emit CSV")
    p_sweep.add_argument("--axis", required=True,
                         choices=("delta_e", "separation_l", "dipole_d"))
    p_sweep.add_argument("--from", dest="start", type=float, required=True, metavar="X")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True, metavar="Y")
    p_sweep.add_argument("--points", type=int, required=True, metavar="N")
    p_sweep.add_argument("--log", action="store_true", help="geometric spacing")
    p_sweep.add_argument("--csv", metavar="PATH", help="write rows here instead of stdout")
    p_sweep.add_argument("--plot-data", action="store_true",
                         help="emit bare (axis, ratio) columns for external plotting")

    p_exp = sub.add_parser("expand", help="series coefficients of the route ratio")
    p_exp.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run every invariant suite")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--corrupt", choices=("metric", "pair"),
                         help="negative control: break one convention on purpose")

    p_oracle = sub.add_parser("oracle", help="perturbation theory vs exact diagonalization")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.add_argument("--oracle-k", type=float, default=1.7, metavar="K",
                          help="radial wavevector of the +-k oracle registry")
    return parser


def _load(args) -> tuple[SystemParams, QuadratureConfig]:
    mapping = load_config(args.config) if args.config else {}
    params = params_from_mapping(mapping)
    config = config_from_mapping(mapping)
    for severity, message in validate(params):
        print(f"{severity}: {message}", file=sys.stderr)
    return params, config


# ---------------------------------------------------------------------------
# epsilon / expand
# ---------------------------------------------------------------------------

def _epsilon_report(params: SystemParams, config: QuadratureConfig) -> EpsilonReport:
    # one radial pass; c0 is the Coulomb column rescaled
    eps_c, eps_l, eps_t, term1, term2 = epsilon_columns(params, config, (
        COULOMB, lorentz_column(params), mapped_column(params), *series_columns(params)))
    coeffs = series_from_terms(params, eps_c, term1, term2)

    gauge_gap = abs(eps_t.value - eps_l.value)
    gauge_tol = 10.0 * (eps_t.error_estimate + eps_l.error_estimate) + 1e-12 * abs(eps_l.value)
    sample = per_k_equivalence(params, 2.0 * params.omega_a)
    checks = (
        ("transformed matches covariant", gauge_gap <= gauge_tol),
        ("per-mode residual vanishes",
         abs(sample.residual) <= 1e-12 * abs(sample.bracket_lorentz)),
    )
    return EpsilonReport(
        params=params,
        eps_coulomb=eps_c,
        eps_lorentz=eps_l,
        eps_transformed=eps_t,
        ratio=eps_l.value / eps_c.value,
        coefficients=coeffs,
        checks=checks,
    )


def _params_rows(params: SystemParams) -> list[tuple[str, str]]:
    return [
        ("omega_a", _fmt(params.omega_a)),
        ("omega_b", _fmt(params.omega_b)),
        ("separation_l", _fmt(params.separation_l)),
        ("dipole_d", _fmt(params.dipole_d)),
        ("mass_m", _fmt(params.mass_m)),
        ("charge_q", _fmt(params.charge_q)),
    ]


def _integral_rows(name: str, result: IntegralResult) -> list[tuple[str, str]]:
    return [(name, f"{_fmt(result.value)}  (err {_fmt(result.error_estimate)},"
                   f" residue {_fmt(result.residue_imag)}, nodes {result.nodes_used})")]


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"  {key:<{width}}  {value}")


def _integral_dict(result: IntegralResult) -> dict:
    return {
        "value": _round9(result.value),
        "error_estimate": _round9(result.error_estimate),
        "residue_imag": _round9(result.residue_imag),
        "nodes_used": result.nodes_used,
    }


def _params_dict(params: SystemParams) -> dict:
    return {key: _round9(value) for key, value in (
        ("omega_a", params.omega_a),
        ("omega_b", params.omega_b),
        ("separation_l", params.separation_l),
        ("dipole_d", params.dipole_d),
        ("mass_m", params.mass_m),
        ("charge_q", params.charge_q),
    )}


def cmd_epsilon(args) -> int:
    params, config = _load(args)
    report = _epsilon_report(params, config)
    if args.json:
        print(json.dumps({
            "params": _params_dict(params),
            "eps_coulomb": _integral_dict(report.eps_coulomb),
            "eps_lorentz": _integral_dict(report.eps_lorentz),
            "eps_transformed": _integral_dict(report.eps_transformed),
            "ratio": _round9(report.ratio),
            "coefficients": {
                "c0": _integral_dict(report.coefficients.c0),
                "c1": _integral_dict(report.coefficients.c1),
                "c2": _integral_dict(report.coefficients.c2),
            },
            "checks": {name: ok for name, ok in report.checks},
        }, indent=2))
    else:
        print("amplitude report")
        rows = _params_rows(params)
        rows += _integral_rows("eps_coulomb", report.eps_coulomb)
        rows += _integral_rows("eps_lorentz", report.eps_lorentz)
        rows += _integral_rows("eps_transformed", report.eps_transformed)
        rows.append(("ratio", _fmt(report.ratio)))
        rows += _integral_rows("c0", report.coefficients.c0)
        rows += _integral_rows("c1", report.coefficients.c1)
        rows += _integral_rows("c2", report.coefficients.c2)
        _print_table(rows)
        for name, ok in report.checks:
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return EXIT_OK if report.all_checks_pass() else EXIT_INVARIANT


def cmd_expand(args) -> int:
    params, config = _load(args)
    coeffs = series_coefficients(params, config)
    if args.json:
        print(json.dumps({
            "params": _params_dict(params),
            "c0": _integral_dict(coeffs.c0),
            "c1": _integral_dict(coeffs.c1),
            "c2": _integral_dict(coeffs.c2),
        }, indent=2))
    else:
        print("series coefficients (c1 in detuning/splitting-frequency units,"
              " c2 in squared units)")
        rows = _integral_rows("c0", coeffs.c0)
        rows += _integral_rows("c1", coeffs.c1)
        rows += _integral_rows("c2", coeffs.c2)
        _print_table(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

CSV_HEADER = [
    "omega_a", "omega_b", "separation_l", "dipole_d", "mass_m", "charge_q",
    "eps_coulomb", "eps_lorentz", "eps_transformed", "ratio",
    "c0", "c1", "c2", "residue", "status",
]


def _axis_values(args) -> list[float]:
    if args.points < 1:
        raise ValidationError("sweep needs at least one point")
    if args.points == 1:
        return [args.start]
    if args.log:
        if args.start <= 0 or args.stop <= 0:
            raise ValidationError("geometric spacing needs positive endpoints")
        return list(np.geomspace(args.start, args.stop, args.points))
    return list(np.linspace(args.start, args.stop, args.points))


def _params_for(base: SystemParams, axis: str, value: float) -> SystemParams:
    if axis == "delta_e":
        return dc_replace(base, omega_b=base.omega_a + value / base.hbar)
    return dc_replace(base, **{axis: value})


def _sweep_row(base: SystemParams, config: QuadratureConfig, axis: str,
               value: float) -> list[str]:
    fields = [""] * len(CSV_HEADER)
    try:
        params = _params_for(base, axis, value)
        validate(params)
        report = _epsilon_report(params, config)
    except (ValidationError, PoleError):
        fields[-1] = "validation-error"
        return fields
    except ConvergenceError:
        fields[-1] = "convergence-error"
        return fields
    fields = [
        _fmt(params.omega_a), _fmt(params.omega_b), _fmt(params.separation_l),
        _fmt(params.dipole_d), _fmt(params.mass_m), _fmt(params.charge_q),
        _fmt(report.eps_coulomb.value), _fmt(report.eps_lorentz.value),
        _fmt(report.eps_transformed.value), _fmt(report.ratio),
        _fmt(report.coefficients.c0.value), _fmt(report.coefficients.c1.value),
        _fmt(report.coefficients.c2.value), _fmt(report.eps_lorentz.residue_imag),
        "ok",
    ]
    return fields


def cmd_sweep(args) -> int:
    base, config = _load(args)
    values = _axis_values(args)

    # rows are independent; evaluate concurrently but emit in input order
    with ThreadPoolExecutor(max_workers=min(4, len(values))) as pool:
        rows = list(pool.map(
            lambda v: _sweep_row(base, config, args.axis, v), values
        ))

    if args.plot_data:
        out = sys.stdout
        for value, row in zip(values, rows):
            if row[-1] == "ok":
                print(f"{_fmt(value)} {row[CSV_HEADER.index('ratio')]}", file=out)
        return EXIT_OK if all(row[-1] == "ok" for row in rows) else EXIT_CONVERGENCE

    sink = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    finally:
        if args.csv:
            sink.close()
    return EXIT_OK if all(row[-1] == "ok" for row in rows) else EXIT_CONVERGENCE


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _metric_suite(params: SystemParams, corrupt: bool) -> bool:
    registry = make_registry(((1.3, 0.0, 0.0),), n_max=2, p_max=2)
    if corrupt:
        registry = registry.corrupted()
    l_idx, s_idx = registry.pair_at((1.3, 0.0, 0.0))
    vac = StateVector.vacuum(registry)
    vac_occ = next(iter(vac.terms()))[0]

    ok = abs(indefinite_inner(vac, vac) - 1.0) < 1e-15
    one_s = vac.create(s_idx)
    ok &= abs(indefinite_inner(one_s, one_s) - (-1.0)) < 1e-15
    one_l = vac.create(l_idx)
    ok &= abs(indefinite_inner(one_l, one_l) - 1.0) < 1e-15
    # scalar-sector number operator on the vacuum must come out negative
    flipped = apply_scalar_sector_identity(vac, s_idx)
    ok &= abs(flipped.amplitude(vac_occ) - (-1.0)) < 1e-15
    # ordinary ladder algebra is untouched by the metric
    ok &= abs(one_s.annihilate(s_idx).amplitude(vac_occ) - 1.0) < 1e-15
    return bool(ok)


def _subsidiary_suite(params: SystemParams, corrupt: bool) -> bool:
    k_vector = (0.9, 0.0, 0.0)
    bare = residual_term_physicality(params, k_vector, photon_quanta=0, corrupt=corrupt)
    seeded = residual_term_physicality(params, k_vector, photon_quanta=1, corrupt=corrupt)
    scale = abs(params.charge_q) + 1.0
    return bare < 1e-12 * scale and seeded < 1e-12 * scale


def _form_factor_suite(params: SystemParams, rng: random.Random) -> bool:
    for _ in range(20):
        kd = rng.uniform(1e-3, 3.0)
        k_x = kd / params.dipole_d
        # full 0->1 element of exp(-i k_x x): -(i k_x d) times the Gaussian
        closed = -1j * kd * gaussian_form_factor(params, k_x)
        numeric = form_factor_oracle(params, OscillatorId.A, k_x)
        if abs(numeric - closed) > 1e-8 * abs(closed):
            return False
    return True


def _per_k_suite(params: SystemParams, rng: random.Random) -> bool:
    for _ in range(200):
        omega = rng.uniform(0.1 * params.omega_a, 10.0 * params.omega_a)
        if abs(omega - params.omega_a) < 1e-3:
            continue
        report = per_k_equivalence(params, omega)
        if abs(report.residual) > 1e-12 * max(abs(report.bracket_lorentz), 1e-3):
            return False
    # dual route: explicit state algebra must agree with the closed forms
    for k_mag in (0.7, 1.9, 3.3):
        k_vector = (k_mag, 0.0, 0.0)
        linear, quadratic = operator_route_brackets(params, k_vector)
        _, lin_closed, quad_closed = transform_brackets(params, k_mag * params.c)
        if abs(linear - lin_closed) > 1e-10 * max(1.0, abs(lin_closed)):
            return False
        if abs(quadratic - quad_closed) > 1e-10 * max(1.0, abs(quad_closed)):
            return False
    return True


def _diagram_suite(params: SystemParams, rng: random.Random) -> bool:
    for _ in range(100):
        k_mag = rng.uniform(0.05, 6.0)
        if abs(k_mag * params.c - params.omega_a) < 1e-3:
            continue
        mu = rng.uniform(-1.0, 1.0)
        if abs(mu) < 1e-3:
            continue
        k_vector = (k_mag * mu, k_mag * math.sqrt(1.0 - mu * mu), 0.0)
        total = symmetric_diagram_sum(params, k_vector)
        closed = combined_bracket_form(params, k_vector)
        if abs(total - closed) > 1e-12 * max(abs(closed), 1e-6):
            return False
    # the two resonant-order diagrams cancel where the bracket root sits
    k_root = math.sqrt(params.omega_a * params.omega_b) / params.c
    k_vector = (k_root, 0.0, 0.0)
    scalar_term = diagram_integrand(
        params, DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.SCALAR), k_vector
    )
    longitudinal_term = diagram_integrand(
        params,
        DiagramSpec(ExchangeOrder.RESONANT, PolarizationKind.LONGITUDINAL),
        k_vector,
    )
    return abs(scalar_term + longitudinal_term) < 1e-12 * max(1.0, abs(scalar_term))


def cmd_check(args) -> int:
    params, _config = _load(args)
    rng = random.Random(args.seed)
    suites = (
        ("metric sector", lambda: _metric_suite(params, args.corrupt == "metric")),
        ("subsidiary condition", lambda: _subsidiary_suite(params, args.corrupt == "pair")),
        ("form factor oracle", lambda: _form_factor_suite(params, rng)),
        ("per-mode gauge equivalence", lambda: _per_k_suite(params, rng)),
        ("four-diagram reconstruction", lambda: _diagram_suite(params, rng)),
    )
    results = []
    for name, suite in suites:
        try:
            passed = suite()
        except Exception as exc:  # a crashed suite is a failed suite
            print(f"  [FAIL] {name}: {exc}", file=sys.stderr)
            passed = False
        results.append((name, passed))

    if args.json:
        print(json.dumps({
            "suites": {name: ok for name, ok in results},
            "all_passed": all(ok for _, ok in results),
        }, indent=2))
    else:
        for name, ok in results:
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return EXIT_OK if all(ok for _, ok in results) else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    params, _config = _load(args)
    k_mag = args.oracle_k
    if k_mag <= 0:
        raise ValidationError("--oracle-k must be positive")
    registry = make_registry(
        ((k_mag, 0.0, 0.0), (-k_mag, 0.0, 0.0)), n_max=2, p_max=2
    )
    exponent, samples = oracle_scaling_exponent(params, registry)
    exact = all(residual == 0.0 for _, residual in samples)
    passed = exact or abs(exponent - 4.0) <= 0.2

    if args.json:
        print(json.dumps({
            "exponent": _round9(exponent),
            "samples": [[_round9(q), _round9(r)] for q, r in samples],
            "verdict": "exact" if exact else ("pass" if passed else "fail"),
        }, indent=2))
    else:
        print("oracle report")
        rows = [("registry", f"+-k pair at |k| = {_fmt(k_mag)}")]
        for q, residual in samples:
            rows.append((f"residual at q = {_fmt(q)}", _fmt(residual)))
        rows.append(("fitted exponent", _fmt(exponent)))
        rows.append(("verdict", "exact" if exact else ("pass" if passed else "fail")))
        _print_table(rows)
    return EXIT_OK if passed else EXIT_INVARIANT


# ---------------------------------------------------------------------------

_DISPATCH = {
    "epsilon": cmd_epsilon,
    "sweep": cmd_sweep,
    "expand": cmd_expand,
    "check": cmd_check,
    "oracle": cmd_oracle,
}

def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (OracleError, ResonanceError) as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
