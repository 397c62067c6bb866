"""Seeded inputs, the operations that drive gaugepair, and their output checks.

Every input is drawn from the seed alone.  The report and sweep points come
from finite grids, so `references.json` can hold an independently computed
reference for every point a seed can draw.  The operator workload's inputs
are continuous where its checks need no reference (discrete second order,
exact diagonalization) and gridded where the program's own verdict is only
robust on a known set (the oracle verb).

Each workload is a stream of ops.  Every op of a workload does the same
amount of work; only the points change with the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from itertools import cycle

import numpy as np

from gaugepair import cli, core, perturbation
from gaugepair.fock import make_registry

CLI_KINDS = ("epsilon", "expand", "sweep", "check", "oracle")

# report: omega_a = c = 1, so omega_a L / c = L; d / L = 0.01 throughout.
# Every point has its own L, so no two calls of a run share a kernel geometry.
# Neighbouring L form a pair with one delta; the two passes of a traced run
# take one member of each pair, so their costs match without sharing a point.
REPORT_DELTA = (0.002, 0.005, 0.01, 0.02, 0.05)  # delta / omega_a
REPORT_PAIRS = 50
REPORT_L_STEP = 0.004  # L from 1.800 to 2.196
DIPOLE_OVER_L = 0.01


def _report_grid() -> tuple:
    rng = random.Random("report grid")  # the same delta per pair for every seed
    pairs = []
    for i in range(REPORT_PAIRS):
        delta = rng.choice(REPORT_DELTA)
        pairs.append(tuple((round(1.80 + REPORT_L_STEP * (2 * i + j), 3), delta) for j in (0, 1)))
    return tuple(pairs)


REPORT_POINTS = _report_grid()

# sweep: 4 rows from `start` to 3.0 at the default dipole length; the last
# row sets the op time, so the cost barely depends on the draw
SWEEP_START = (1.0, 1.1, 1.2)
SWEEP_STOP = 3.0
SWEEP_POINTS = 4
SWEEP_DELTA = (0.005, 0.01, 0.02)
DEFAULT_L = 2.0
DEFAULT_DIPOLE = 0.02

# operator: the program's default geometry, splitting drawn per op
DSO_SIZES = (16, 32, 48)  # k-vectors per discrete-second-order registry
DSO_BOX = 2.5  # k components drawn from [-DSO_BOX, DSO_BOX]
DSO_MIN_OFFSHELL = 0.05  # |k - omega_a / c| and |k| stay at least this far from 0
ED_K = (1.40, 1.70)
ED_CAPS = (2, 3)
ED_DIMENSIONS = {2: 135, 3: 315}
CHECK_SEEDS = 100
# The oracle verdict fits |eps_pt - eps_ed| ~ q^p over q, q/2, q/4.  On this
# set the residual at q/4 stays above 7e-12, about a hundred times the
# eigensolver's rounding, so the fit is decided by the physics and not by
# the BLAS build (see README.md, "Operator points").
ORACLE_DELTA = (0.005, 0.01)
ORACLE_K = tuple(round(1.40 + 0.02 * i, 2) for i in range(14))

# output checks
REF_ERR_FACTOR = 10.0  # reported error estimates may be loose by this much
REF_REL_FLOOR = 1e-9  # reference error and engine noise below the estimate
DSO_REL_TOL = 1e-12
ED_REL_TOL = 1e-4
REPORT_FIELDS = ("eps_coulomb", "eps_lorentz", "eps_transformed")
COEFF_FIELDS = ("c0", "c1", "c2")
SWEEP_FIELDS = REPORT_FIELDS + ("ratio",) + COEFF_FIELDS


def report_params(sep_l: float, delta: float) -> dict[str, float]:
    return {"omega_a": 1.0, "omega_b": 1.0 + delta, "separation_l": sep_l,
            "dipole_d": DIPOLE_OVER_L * sep_l}


def default_params(delta: float) -> dict[str, float]:
    return {"omega_a": 1.0, "omega_b": 1.0 + delta, "separation_l": DEFAULT_L,
            "dipole_d": DEFAULT_DIPOLE}


def point_key(sep_l: float, delta: float) -> str:
    """references.json key of one report point or sweep row."""
    return f"L={sep_l!r},delta={delta!r}"


def sweep_rows_l(start: float) -> list[float]:
    # the same spacing cmd_sweep computes
    return [float(x) for x in np.linspace(start, SWEEP_STOP, SWEEP_POINTS)]


def config_text(params: dict[str, float]) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in params.items())


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict[str, float]  # written to the op's config file
    args: dict = field(default_factory=dict)

    @property
    def parts(self) -> tuple["Op", ...]:
        """The program calls this op makes, one config file each."""
        return self.args.get("parts", (self,))


# ---------------------------------------------------------------------------
# Input streams
# ---------------------------------------------------------------------------

def _share(items: list, seed: int, pass_index: int, passes: int) -> list:
    """A seeded permutation of items, split so passes never share a point."""
    order = list(items)
    random.Random(f"{seed}/points").shuffle(order)
    size = len(order) // passes
    return order[pass_index * size:(pass_index + 1) * size]


def _report_points(seed: int, pass_index: int, passes: int) -> list[tuple[float, float]]:
    """A seeded order of the grid; with two passes, pass i takes member i of each pair."""
    pairs = list(REPORT_POINTS)
    random.Random(f"{seed}/points").shuffle(pairs)
    if passes == 1:
        return [point for pair in pairs for point in pair]
    return [pair[pass_index] for pair in pairs]


def _report_ops(seed: int, pass_index: int, passes: int):
    # One op is an `epsilon` and then an `expand`, each at its own point: a
    # median over single calls would fall between the two verbs' run times.
    # A run longer than the grid starts over (README.md, "Points").
    points = _report_points(seed, pass_index, passes)
    pairs = [points[i:i + 2] for i in range(0, len(points) - 1, 2)]
    for (l_eps, d_eps), (l_exp, d_exp) in cycle(pairs):
        parts = (Op("epsilon", report_params(l_eps, d_eps), {"L": l_eps, "delta": d_eps}),
                 Op("expand", report_params(l_exp, d_exp), {"L": l_exp, "delta": d_exp}))
        yield Op("report", {}, {"parts": parts})


def _sweep_ops(seed: int, pass_index: int, passes: int):
    cases = _share([(s, d) for s in SWEEP_START for d in SWEEP_DELTA], seed, pass_index, passes)
    for start, delta in cycle(cases):
        yield Op("sweep", default_params(delta), {"start": start, "delta": delta})


def _dso_kvectors(rng: random.Random, n: int) -> list[tuple[float, float, float]]:
    out = []
    while len(out) < n:
        k = tuple(rng.uniform(-DSO_BOX, DSO_BOX) for _ in range(3))
        norm = math.sqrt(sum(c * c for c in k))
        if norm >= DSO_MIN_OFFSHELL and abs(norm - 1.0) >= DSO_MIN_OFFSHELL:
            out.append(k)
    return out


def _operator_ops(seed: int, pass_index: int, passes: int):
    # One op runs every kind at every registry size and photon cap, so each
    # op does the same work and a median over ops never falls between kinds.
    # The order comes from a stream shared by both passes of a traced run;
    # the values differ.
    shape = random.Random(f"{seed}/shape")
    values = random.Random(f"{seed}/values/{pass_index}")
    oracle_cases = _share([(d, k) for d in ORACLE_DELTA for k in ORACLE_K],
                          seed, pass_index, passes)
    oracle_iter = cycle(oracle_cases)
    kinds = ([("dso", n_k) for n_k in DSO_SIZES] + [("ed", cap) for cap in ED_CAPS]
             + [("check", None), ("oracle", None)])
    while True:
        shape.shuffle(kinds)
        parts = []
        for kind, size in kinds:
            delta = values.choice(REPORT_DELTA)  # the oracle draws its own below
            if kind == "dso":
                ks = _dso_kvectors(values, size)
                weight = (2.0 * DSO_BOX) ** 3 / size  # d^3k cell of the box
                parts.append(Op(kind, default_params(delta), {"ks": ks, "weight": weight}))
            elif kind == "ed":
                parts.append(Op(kind, default_params(delta),
                                {"k": values.uniform(*ED_K), "cap": size}))
            elif kind == "check":
                parts.append(Op(kind, default_params(delta),
                                {"seed": values.randrange(CHECK_SEEDS)}))
            else:
                o_delta, o_k = next(oracle_iter)
                parts.append(Op(kind, default_params(o_delta), {"k": o_k}))
        yield Op("operator", {}, {"parts": tuple(parts)})


def ops(workload: str, seed: int, pass_index: int = 0, passes: int = 1):
    """Infinite stream of ops for pass `pass_index` of `passes`.

    Passes of one seed draw disjoint report and sweep points, so a later pass
    never repeats an earlier pass's parameters.  The report workload splits
    into at most two passes.
    """
    if workload == "report":
        return _report_ops(seed, pass_index, passes)
    if workload == "sweep":
        return _sweep_ops(seed, pass_index, passes)
    if workload == "operator":
        return _operator_ops(seed, pass_index, passes)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def _call_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return CliOutput(code, out.getvalue(), err.getvalue())


def _registry(op: Op):
    if op.kind == "dso":
        return make_registry(op.args["ks"], weights=[op.args["weight"]] * len(op.args["ks"]))
    k, cap = op.args["k"], op.args["cap"]
    return make_registry(((k, 0.0, 0.0), (-k, 0.0, 0.0)), n_max=2, p_max=cap)


def cli_argv(op: Op, config_path: str) -> list[str]:
    head = ["--config", config_path]
    if op.kind in ("epsilon", "expand"):
        return head + [op.kind, "--json"]
    if op.kind == "sweep":
        return head + ["sweep", "--axis", "separation_l", "--from", repr(op.args["start"]),
                       "--to", repr(SWEEP_STOP), "--points", str(SWEEP_POINTS)]
    if op.kind == "check":
        return head + ["--seed", str(op.args["seed"]), "check", "--json"]
    if op.kind == "oracle":
        return head + ["oracle", "--json", "--oracle-k", repr(op.args["k"])]
    raise ValueError(f"{op.kind} is not a CLI op")


def execute(op: Op, config_paths: list[str]) -> tuple:
    """Run one op against the program, one output per part; the only timed step."""
    return tuple(_execute(part, path) for part, path in zip(op.parts, config_paths, strict=True))


def _execute(op: Op, config_path: str):
    if op.kind in CLI_KINDS:
        return _call_cli(cli_argv(op, config_path))
    # module attributes are looked up at call time, so a traced run sees them
    params = core.params_from_mapping(core.load_config(config_path))
    registry = _registry(op)
    if op.kind == "dso":
        return perturbation.discrete_second_order(params, registry)
    if op.kind == "ed":
        return perturbation.exact_diagonalization_oracle(
            params, registry, total_photon_cap=op.args["cap"])
    raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def print_rounding(x: float) -> float:
    """Half a unit in the 9th significant digit: the CLI prints floats as %.9g."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x else 0.0


def allowed_gap(ref: float, error_estimate: float) -> float:
    return (REF_ERR_FACTOR * error_estimate + REF_REL_FLOOR * abs(ref)
            + print_rounding(ref))


def within(value: float, ref: float, error_estimate: float) -> bool:
    return abs(value - ref) <= allowed_gap(ref, error_estimate)


def _ratio_error(doc: dict) -> float:
    # the ratio is printed without an estimate; propagate the two it divides
    c, l = doc["eps_coulomb"], doc["eps_lorentz"]
    ratio = l["value"] / c["value"]
    return abs(ratio) * (l["error_estimate"] / abs(l["value"])
                         + c["error_estimate"] / abs(c["value"]))


def _compare(fields: dict[str, tuple[float, float]], ref: dict[str, float]) -> str | None:
    for name, (value, err) in fields.items():
        if not within(value, ref[name], err):
            return f"{name} = {value!r}, reference {ref[name]!r}, error estimate {err!r}"
    return None


def _check_cli_basics(out: CliOutput) -> str | None:
    if out.code != 0:
        return f"exit code {out.code}: {out.stderr.strip()[:200]}"
    if out.stderr.strip():
        return f"unexpected diagnostics: {out.stderr.strip()[:200]}"
    return None


def _check_report(op: Op, out: CliOutput, refs: dict) -> str | None:
    problem = _check_cli_basics(out)
    if problem:
        return problem
    doc = json.loads(out.stdout)
    ref = refs["report"][point_key(op.args["L"], op.args["delta"])]
    if op.kind == "expand":
        coeffs = doc
        fields = {}
    else:
        failed = [name for name, ok in doc["checks"].items() if not ok]
        if failed:
            return f"program checks failed: {failed}"
        coeffs = doc["coefficients"]
        fields = {name: (doc[name]["value"], doc[name]["error_estimate"])
                  for name in REPORT_FIELDS}
        fields["ratio"] = (doc["ratio"], _ratio_error(doc))
    fields.update({name: (coeffs[name]["value"], coeffs[name]["error_estimate"])
                   for name in COEFF_FIELDS})
    return _compare(fields, ref)


def _check_sweep(op: Op, out: CliOutput, refs: dict) -> str | None:
    problem = _check_cli_basics(out)
    if problem:
        return problem
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    expected_l = sweep_rows_l(op.args["start"])
    if len(rows) != len(expected_l):
        return f"{len(rows)} rows, expected {len(expected_l)}"
    for row, sep_l in zip(rows, expected_l):
        if row["status"] != "ok":
            return f"row L={sep_l} status {row['status']}"
        if not math.isclose(float(row["separation_l"]), sep_l, rel_tol=1e-8):
            return f"row L={row['separation_l']}, expected {sep_l}"
        ref = refs["sweep"][point_key(sep_l, op.args["delta"])]
        # CSV rows carry no error estimate: only the floor and rounding apply
        problem = _compare({name: (float(row[name]), 0.0) for name in SWEEP_FIELDS}, ref)
        if problem:
            return f"row L={sep_l}: {problem}"
    return None


def riemann_sum(params, op: Op) -> complex:
    """The closed-form route: weights * common_prefactor * sum of the four diagrams."""
    pref = perturbation.common_prefactor(params)
    return sum(
        op.args["weight"] * pref
        * sum(perturbation.diagram_integrand(params, spec, k) for spec in perturbation.ALL_DIAGRAMS)
        for k in op.args["ks"]
    )


def check(op: Op, outputs: tuple, config_paths: list[str], refs: dict) -> str | None:
    """None when the op's outputs, one per part, are correct, else the reason they are not."""
    for part, out, path in zip(op.parts, outputs, config_paths, strict=True):
        problem = _check(part, out, path, refs)
        if problem is not None:
            return f"{part.kind}: {problem}" if part is not op else problem
    return None


def _check(op: Op, output, config_path: str, refs: dict) -> str | None:
    if op.kind in ("epsilon", "expand"):
        return _check_report(op, output, refs)
    if op.kind == "sweep":
        return _check_sweep(op, output, refs)
    if op.kind == "check":
        problem = _check_cli_basics(output)
        if problem:
            return problem
        doc = json.loads(output.stdout)
        return None if doc["all_passed"] else f"suites failed: {doc['suites']}"
    if op.kind == "oracle":
        problem = _check_cli_basics(output)
        if problem:
            return problem
        verdict = json.loads(output.stdout)["verdict"]
        return None if verdict == "pass" else f"oracle verdict {verdict}"
    params = core.params_from_mapping(core.load_config(config_path))
    if op.kind == "dso":
        expected = riemann_sum(params, op)
        if abs(output - expected) <= DSO_REL_TOL * abs(expected):
            return None
        return f"operator route {output!r}, closed forms {expected!r}"
    if op.kind == "ed":
        if output.dimension != ED_DIMENSIONS[op.args["cap"]]:
            return f"dimension {output.dimension}"
        pt = perturbation.discrete_second_order(params, _registry(op))
        if abs(output.epsilon_exact - pt) <= ED_REL_TOL * abs(pt):
            return None
        return f"ED {output.epsilon_exact!r}, PT {pt!r}"
    raise ValueError(f"unknown op kind {op.kind!r}")
