"""Command-line front end: amplitude reports, parameter sweeps, invariant
suites, and the small-registry oracle.

Exit codes: 0 success; 1 bad input (a ValidationError or OSError, one error
line), including an evaluation exactly on the resonance (PoleError), a
vanishing coupling in any verb but sweep, an implied mass out of range in
check or oracle, an oracle or check per-mode amplitude within PRUNE_TOL and a
sweep grid numpy refuses to build; 2 quadrature non-convergence, an oracle
failure, or a sweep with any row whose status is not "ok"; 3 invariant
failure.  The report verbs print through _render, and sweep writes through
one sink.  All floats print with 9 significant digits; identical config and
seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import random
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace as dc_replace

import numpy as np

from .core import (
    PARAM_KEYS,
    SystemParams,
    ValidationError,
    load_config,
    params_from_mapping,
    validate,
)
from .fock import (
    PRUNE_TOL,
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
    ResonanceError,
    combined_bracket_form,
    coulomb_integrand,
    diagram_integrand,
    oracle_scaling_exponent,
    symmetric_diagram_sum,
)
from .quadrature import (
    COULOMB,
    QuadratureConfig,
    config_from_mapping,
    epsilon_columns,
    epsilon_coulomb,  # imported only for perfbench/tracing.py to wrap
    epsilon_lorentz,  # imported only for perfbench/tracing.py to wrap
    lorentz_column,
    series_coefficients,
    series_columns,
    series_from_terms,
    series_normalizations,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_INVARIANT = 3


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap to the validation code
    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


@functools.cache  # built on first use, once per process
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

def _epsilon_report(params: SystemParams, config: QuadratureConfig) -> dict:
    """The amplitude report as one plain document of full-precision floats;
    --json, the table and the sweep CSV row all render from it."""
    norms = series_normalizations(params)
    # one radial pass; c0 is the Coulomb column rescaled
    eps_c, eps_l, eps_t, term1, term2 = epsilon_columns(params, config, (
        COULOMB, lorentz_column(params), mapped_column(params), *series_columns(params)))
    coeffs = series_from_terms(norms, (eps_c, term1, term2))

    gauge_gap = abs(eps_t.value - eps_l.value)
    gauge_tol = 10.0 * (eps_t.error_estimate + eps_l.error_estimate) + 1e-12 * abs(eps_l.value)
    sample = per_k_equivalence(params, 2.0 * params.omega_a)
    return {
        "params": asdict(params),
        "eps_coulomb": asdict(eps_c),
        "eps_lorentz": asdict(eps_l),
        "eps_transformed": asdict(eps_t),
        "ratio": eps_l.value / eps_c.value,
        "coefficients": asdict(coeffs),
        "checks": {
            "transformed matches covariant": gauge_gap <= gauge_tol,
            "per-mode residual vanishes":
                abs(sample.residual) <= 1e-12 * abs(sample.bracket_lorentz),
        },
    }


def _rounded(doc):
    """Copy of a document with every float rounded to nine significant digits."""
    if isinstance(doc, dict):
        return {key: _rounded(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_rounded(value) for value in doc]
    return _round9(doc) if isinstance(doc, float) else doc


def _leaves(doc: dict):
    """(key, leaf) pairs of a report in document order, its verdicts (the
    bools) left out; an integral result (a dict with a "value") is one leaf."""
    for key, value in doc.items():
        if isinstance(value, dict) and "value" not in value:
            yield from _leaves(value)
        elif not isinstance(value, bool):
            yield key, value


def _cell(leaf) -> str:
    if isinstance(leaf, dict):
        return (f"{_fmt(leaf['value'])}  (err {_fmt(leaf['error_estimate'])},"
                f" residue {_fmt(leaf['residue_imag'])}, nodes {leaf['nodes_used']})")
    return _fmt(leaf)


def _render(args, title: str | None, doc: dict, verdicts: dict, rows=None) -> int:
    """Print a verb's report and return the exit code its verdicts give.

    Under --json the document, its floats rounded to nine significant digits.
    Otherwise the title, then the document's leaves as rows and one
    [PASS]/[FAIL] line per verdict; a verb that passes its own rows prints
    those instead, its verdict among them.
    """
    if args.json:
        print(json.dumps(_rounded(doc), indent=2))
    else:
        if title:
            print(title)
        table = rows if rows is not None else [(key, _cell(leaf)) for key, leaf in _leaves(doc)]
        width = max((len(key) for key, _ in table), default=0)
        for key, value in table:
            print(f"  {key:<{width}}  {value}")
        if rows is None:
            for name, ok in verdicts.items():
                print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return EXIT_OK if all(verdicts.values()) else EXIT_INVARIANT


def cmd_epsilon(args) -> int:
    params, config = _load(args)
    report = _epsilon_report(params, config)
    return _render(args, "amplitude report", report, report["checks"])


def cmd_expand(args) -> int:
    params, config = _load(args)
    coeffs = series_coefficients(params, config)
    return _render(args, "series coefficients (c1 in detuning/splitting-frequency units,"
                         " c2 in squared units)", {"params": asdict(params), **asdict(coeffs)}, {})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

CSV_HEADER = [
    *PARAM_KEYS,
    "eps_coulomb", "eps_lorentz", "eps_transformed", "ratio",
    "c0", "c1", "c2", "residue", "status",
]


def _axis_values(args) -> list[float]:
    if args.points < 1:
        raise ValidationError("sweep needs at least one point")
    if args.points == 1:
        return [args.start]
    if args.log and (args.start <= 0 or args.stop <= 0):
        raise ValidationError("geometric spacing needs positive endpoints")
    try:
        return list((np.geomspace if args.log else np.linspace)(args.start, args.stop, args.points))
    except ValueError as exc:  # numpy refuses a grid past its index range
        raise ValidationError(f"sweep of {args.points} points: {exc}") from exc


def _params_for(base: SystemParams, axis: str, value: float) -> SystemParams:
    if axis == "delta_e":
        return dc_replace(base, omega_b=base.omega_a + value / base.hbar)
    return dc_replace(base, **{axis: value})


def _sweep_row(base: SystemParams, config: QuadratureConfig, axis: str,
               value: float) -> list[str]:
    blank = [""] * (len(CSV_HEADER) - 1)
    try:
        params = _params_for(base, axis, value)
        validate(params)
        report = _epsilon_report(params, config)
    except ValidationError:
        return blank + ["validation-error"]
    except ConvergenceError:
        return blank + ["convergence-error"]
    leaves = {key: leaf["value"] if isinstance(leaf, dict) else leaf
              for key, leaf in _leaves(report)}
    leaves["residue"] = report["eps_lorentz"]["residue_imag"]
    return [_fmt(leaves[name]) for name in CSV_HEADER[:-1]] + ["ok"]


def cmd_sweep(args) -> int:
    base, config = _load(args)
    values = _axis_values(args)

    rows = [_sweep_row(base, config, args.axis, value) for value in values]

    with open(args.csv, "w", newline="") if args.csv else nullcontext(sys.stdout) as sink:
        if args.plot_data:
            ratio = CSV_HEADER.index("ratio")
            sink.writelines(f"{_fmt(value)} {row[ratio]}\n"
                            for value, row in zip(values, rows) if row[-1] == "ok")
        else:
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    return EXIT_OK if all(row[-1] == "ok" for row in rows) else EXIT_CONVERGENCE


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _metric_suite(corrupt: bool) -> bool:
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
    k_vector = (float(_within_form_factor(params, np.array([0.9]))[0]), 0.0, 0.0)
    bare = residual_term_physicality(params, k_vector, photon_quanta=0, corrupt=corrupt)
    seeded = residual_term_physicality(params, k_vector, photon_quanta=1, corrupt=corrupt)
    scale = abs(params.charge_q) + 1.0
    return bare < 1e-12 * scale and seeded < 1e-12 * scale


def _form_factor_suite(params: SystemParams, rng: random.Random) -> bool:
    kd = np.array([rng.uniform(1e-3, 3.0) for _ in range(20)])
    k_x = kd / params.dipole_d
    # full 0->1 element of exp(-i k_x x): -(i k_x d) times the Gaussian
    closed = -1j * kd * gaussian_form_factor(params, k_x)
    numeric = form_factor_oracle(params, OscillatorId.A, k_x)
    return not (np.abs(numeric - closed) > 1e-8 * np.abs(closed)).any()


def _within_form_factor(params: SystemParams, k_mags: np.ndarray) -> np.ndarray:
    """k_mags, the default point's, halved as a whole until the largest |k| d < 1,
    where exp(-(k d)^2) > 1/e; none reaches a power of two such as the resonance at 1."""
    _, exponent = math.frexp(k_mags.max() * params.dipole_d)  # = m 2^exponent, 1/2 <= m < 1
    return k_mags * 2.0 ** -max(0, exponent)


def _per_k_suite(params: SystemParams, rng: random.Random) -> bool:
    omega = np.array([rng.uniform(0.1 * params.omega_a, 10.0 * params.omega_a)
                      for _ in range(200)])
    report = per_k_equivalence(params, omega[np.abs(omega - params.omega_a) >= 1e-3])
    if (np.abs(report.residual) > 1e-12 * np.maximum(np.abs(report.bracket_lorentz), 1e-3)).any():
        return False
    # dual route: explicit state algebra must agree with the closed forms
    k_mags = _within_form_factor(params, np.array([0.7, 1.9, 3.3]))
    closed = np.array(transform_brackets(params, k_mags * params.c)[1:])  # linear, quadratic
    # the amplitudes the state algebra reaches: operator_route_brackets' norm, twice for quadratic
    reach = np.abs(closed * [[2.0], [4.0]] * coulomb_integrand(params, k_mags[:, None] * [1, 0, 0]))
    if (reach <= PRUNE_TOL).any():
        raise ValidationError(f"check's per-mode amplitudes reach {reach.min():.3e}, within "
                              f"PRUNE_TOL = {PRUNE_TOL:g}, where the state algebra drops them")
    routed = np.transpose([operator_route_brackets(params, (k, 0.0, 0.0)) for k in k_mags.tolist()])
    return not (np.abs(routed - closed) > 1e-10 * np.maximum(1.0, np.abs(closed))).any()


def _diagram_suite(params: SystemParams, rng: random.Random) -> bool:
    lo, hi = _within_form_factor(params, np.array([0.05, 6.0]))
    k_mag, mu = np.array([(rng.uniform(lo, hi), rng.uniform(-1.0, 1.0)) for _ in range(100)]).T
    keep = (np.abs(k_mag * params.c - params.omega_a) >= 1e-3) & (np.abs(mu) >= 1e-3)
    k_vectors = np.column_stack([k_mag * mu, k_mag * np.sqrt(1 - mu * mu), 0 * mu])[keep]
    total = symmetric_diagram_sum(params, k_vectors)
    closed = combined_bracket_form(params, k_vectors)
    if (np.abs(total - closed) > 1e-12 * np.maximum(np.abs(closed), 1e-6)).any():
        return False
    # the two resonant-order diagrams cancel where the bracket root sits
    k_root = (math.sqrt(params.omega_a * params.omega_b) / params.c, 0.0, 0.0)
    scalar, longitudinal = (
        diagram_integrand(params, DiagramSpec(ExchangeOrder.RESONANT, kind), k_root)
        for kind in (PolarizationKind.SCALAR, PolarizationKind.LONGITUDINAL))
    return abs(scalar + longitudinal) < 1e-12 * max(1.0, abs(scalar))


def cmd_check(args) -> int:
    params, _config = _load(args)
    # an implied mass or a q^2 beyond floating-point range is bad input, one
    # error line as in oracle, not a failed invariant in each suite that reads it
    for omega in (params.omega_a, params.omega_b):
        params.implied_mass(omega)
    try:
        params.charge_q**2
    except OverflowError:
        raise ValidationError(f"charge_q = {params.charge_q}: q^2, which scales every amplitude, "
                              "is beyond floating-point range") from None
    rng = random.Random(args.seed)
    suites = (
        ("metric sector", lambda: _metric_suite(args.corrupt == "metric")),
        ("subsidiary condition", lambda: _subsidiary_suite(params, args.corrupt == "pair")),
        ("form factor oracle", lambda: _form_factor_suite(params, rng)),
        ("per-mode gauge equivalence", lambda: _per_k_suite(params, rng)),
        ("four-diagram reconstruction", lambda: _diagram_suite(params, rng)),
    )
    results = {}
    for name, suite in suites:
        try:
            results[name] = suite()
        except ValidationError:  # bad input, one error line as in every verb
            raise
        except Exception as exc:  # a crashed suite is a failed suite
            print(f"  [FAIL] {name}: {exc}", file=sys.stderr)
            results[name] = False
    return _render(args, None, {"suites": results, "all_passed": all(results.values())},
                   results)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    params, _config = _load(args)
    k_mag = args.oracle_k
    if not (k_mag > 0.0 and 0.0 < k_mag * k_mag < math.inf):  # |k|^2 sets the frequency
        raise ValidationError(f"--oracle-k = {k_mag} must be positive with 0 < k^2 < inf")
    registry = make_registry(
        ((k_mag, 0.0, 0.0), (-k_mag, 0.0, 0.0)), n_max=2, p_max=2
    )
    exponent, samples = oracle_scaling_exponent(params, registry)
    passed = abs(exponent - 4.0) <= 0.2
    verdict = "pass" if passed else "fail"
    rows = [("registry", f"+-k pair at |k| = {_fmt(k_mag)}")]
    rows += [(f"residual at q = {_fmt(q)}", _fmt(r)) for q, r in samples]
    rows += [("fitted exponent", _fmt(exponent)), ("verdict", verdict)]
    return _render(args, "oracle report",
                   {"exponent": exponent, "samples": samples, "verdict": verdict},
                   {"fourth-power scaling": passed}, rows)


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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (OracleError, ResonanceError) as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
