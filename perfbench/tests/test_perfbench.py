"""Tests of the benchmark itself: inputs, output checks, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import threading
from pathlib import Path

import pytest

import bench
import tracing
import workloads as w
from gaugepair.core import SystemParams, validate

WORKLOADS = ("report", "sweep", "operator")
REFS = json.loads((Path(bench.HERE) / "references.json").read_text())


def take(workload, seed, n, pass_index=0, passes=1):
    return list(itertools.islice(w.ops(workload, seed, pass_index, passes), n))


def parts(ops):
    return [part for op in ops for part in op.parts]


def all_ops(workload, seeds=range(20), n=12):
    for seed in seeds:
        for pass_index in (0, 1):
            yield from parts(take(workload, seed, n, pass_index, 2))


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_points(workload):
    assert repr(take(workload, 7, 6)) == repr(take(workload, 7, 6))
    assert repr(take(workload, 7, 6)) != repr(take(workload, 8, 6))


@pytest.mark.parametrize("workload", ("report", "sweep"))
def test_passes_of_one_seed_share_no_point(workload):
    first = {repr(op.args) for op in parts(take(workload, 3, 4, 0, 2))}
    second = {repr(op.args) for op in parts(take(workload, 3, 4, 1, 2))}
    assert not first & second


def test_every_report_call_of_a_run_has_its_own_separation():
    n_pairs = len(w.REPORT_POINTS)
    ops = parts(take("report", 5, n_pairs))
    assert [op.kind for op in ops[:2]] == ["epsilon", "expand"]
    assert len({op.args["L"] for op in ops}) == len(ops) == 2 * n_pairs
    both = parts(take("report", 5, n_pairs // 2, 0, 2) + take("report", 5, n_pairs // 2, 1, 2))
    assert len({op.args["L"] for op in both}) == len(both) == 2 * n_pairs


def test_report_passes_take_neighbouring_points():
    untraced = parts(take("report", 9, 6, 0, 2))
    traced = parts(take("report", 9, 6, 1, 2))
    for a, b in zip(untraced, traced, strict=True):
        assert a.kind == b.kind and a.args["delta"] == b.args["delta"]
        assert b.args["L"] - a.args["L"] == pytest.approx(w.REPORT_L_STEP)


def _shape(op):
    return op.kind, len(op.args.get("ks", ())), op.args.get("cap")


def test_operator_passes_share_shapes_not_values():
    untraced, traced = take("operator", 4, 5, 0, 2), take("operator", 4, 5, 1, 2)
    assert [_shape(op) for op in parts(untraced)] == [_shape(op) for op in parts(traced)]
    assert repr(untraced) != repr(traced)


def test_every_operator_op_runs_every_kind_and_size_once():
    expected = sorted([("dso", n, None) for n in w.DSO_SIZES] + [("ed", 0, c) for c in w.ED_CAPS]
                      + [("check", 0, None), ("oracle", 0, None)])
    for op in take("operator", 2, 6):
        assert sorted(_shape(part) for part in op.parts) == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_drawn_points_validate_without_warnings_and_stay_off_resonance(workload):
    for op in all_ops(workload):
        params = SystemParams(**op.params)
        assert validate(params) == []
        assert params.omega_b > params.omega_a
        if op.kind == "sweep":
            for sep_l in w.sweep_rows_l(op.args["start"]):
                assert validate(SystemParams(**dict(op.params, separation_l=sep_l))) == []
        if op.kind == "dso":
            assert len(op.args["ks"]) in w.DSO_SIZES
            for k in op.args["ks"]:
                norm = math.sqrt(sum(c * c for c in k))
                assert abs(norm * params.c - params.omega_a) >= w.DSO_MIN_OFFSHELL
        if op.kind in ("ed", "oracle"):
            assert op.args["k"] * params.c - params.omega_a >= 0.39


def test_every_report_grid_point_has_a_reference():
    assert {w.point_key(*point) for pair in w.REPORT_POINTS for point in pair} == set(REFS["report"])


@pytest.mark.parametrize("workload", ("report", "sweep"))
def test_every_drawable_point_has_a_reference(workload):
    for op in all_ops(workload):
        if op.kind == "sweep":
            for sep_l in w.sweep_rows_l(op.args["start"]):
                assert w.point_key(sep_l, op.args["delta"]) in REFS["sweep"]
        else:
            assert w.point_key(op.args["L"], op.args["delta"]) in REFS["report"]


# -- output checks ---------------------------------------------------------------

def _round9(x):
    return float(f"{x:.9g}")


def _epsilon_output(ref, err=1e-15, **overrides):
    # shaped and rounded like `epsilon --json`
    def integral(name):
        return {"value": _round9(overrides.get(name, ref[name])), "error_estimate": err,
                "residue_imag": 0.0, "nodes_used": 1}
    doc = {name: integral(name) for name in w.REPORT_FIELDS}
    doc["ratio"] = _round9(overrides.get("ratio", ref["ratio"]))
    doc["coefficients"] = {name: integral(name) for name in w.COEFF_FIELDS}
    doc["checks"] = {"transformed matches covariant": True}
    return w.CliOutput(0, json.dumps(doc), "")


def _beyond(ref, err=1e-15):
    return ref + 3.0 * w.allowed_gap(ref, err)


EPS_L, EPS_DELTA = w.REPORT_POINTS[25][0]
EPS_OP = w.Op("epsilon", w.report_params(EPS_L, EPS_DELTA), {"L": EPS_L, "delta": EPS_DELTA})
EPS_REF = REFS["report"][w.point_key(EPS_L, EPS_DELTA)]


def test_reference_values_pass_the_check():
    assert w.check(EPS_OP, (_epsilon_output(EPS_REF),), [""], REFS) is None


@pytest.mark.parametrize("field", w.REPORT_FIELDS + ("ratio",) + w.COEFF_FIELDS)
def test_value_beyond_its_error_estimate_fails(field):
    out = _epsilon_output(EPS_REF, **{field: _beyond(EPS_REF[field])})
    assert field in w.check(EPS_OP, (out,), [""], REFS)


def test_perturbed_op_counts_as_failed(monkeypatch, tmp_path):
    bad = _epsilon_output(EPS_REF, eps_lorentz=_beyond(EPS_REF["eps_lorentz"]))
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(w, "execute", lambda op, paths: (bad,))
    result = bench.run_op(EPS_OP, REFS)
    assert result.problem is not None and "eps_lorentz" in result.problem


def test_report_op_fails_when_either_call_fails():
    (op,) = take("report", 6, 1)
    eps, exp = op.parts
    good_eps = _epsilon_output(REFS["report"][w.point_key(eps.args["L"], eps.args["delta"])])
    ref_exp = REFS["report"][w.point_key(exp.args["L"], exp.args["delta"])]
    doc = {name: {"value": _round9(ref_exp[name]), "error_estimate": 1e-15}
           for name in w.COEFF_FIELDS}
    good_exp = w.CliOutput(0, json.dumps(doc), "")
    assert w.check(op, (good_eps, good_exp), ["", ""], REFS) is None
    doc["c2"]["value"] = _round9(_beyond(ref_exp["c2"]))
    bad_exp = w.CliOutput(0, json.dumps(doc), "")
    assert w.check(op, (good_eps, bad_exp), ["", ""], REFS).startswith("expand: c2")


def test_program_check_failure_and_exit_code_fail():
    out = _epsilon_output(EPS_REF)
    doc = json.loads(out.stdout)
    doc["checks"]["transformed matches covariant"] = False
    assert "program checks" in w.check(EPS_OP, (w.CliOutput(0, json.dumps(doc), ""),), [""], REFS)
    assert "exit code" in w.check(EPS_OP, (w.CliOutput(3, out.stdout, ""),), [""], REFS)


def test_sweep_row_off_reference_fails():
    op = w.Op("sweep", w.default_params(0.01), {"start": 1.2, "delta": 0.01})
    rows = []
    for sep_l in w.sweep_rows_l(1.2):
        ref = REFS["sweep"][w.point_key(sep_l, 0.01)]
        rows.append({"separation_l": f"{sep_l:.9g}", "status": "ok",
                     **{name: f"{ref[name]:.9g}" for name in w.SWEEP_FIELDS}})
    def render(rows):
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return w.CliOutput(0, out.getvalue(), "")
    assert w.check(op, (render(rows),), [""], REFS) is None
    rows[-1]["c1"] = f"{_beyond(float(rows[-1]['c1']), err=0.0):.9g}"
    assert "c1" in w.check(op, (render(rows),), [""], REFS)


def test_discrete_second_order_check_catches_a_perturbed_amplitude(tmp_path):
    op = next(op for op in parts(take("operator", 1, 1)) if op.kind == "dso")
    config = tmp_path / "op.cfg"
    config.write_text(w.config_text(op.params))
    (amp,) = w.execute(op, [str(config)])
    assert w.check(op, (amp,), [str(config)], REFS) is None
    assert w.check(op, (amp * (1.0 + 1e-10),), [str(config)], REFS) is not None


# -- spans -------------------------------------------------------------------------

def test_print_rounding_is_half_a_unit_in_the_ninth_digit():
    assert w.print_rounding(1.0012018034) == pytest.approx(5e-9)
    assert w.print_rounding(-0.000163432016449) == pytest.approx(5e-13)
    assert w.within(_round9(1.0012018034), 1.0012018034, 0.0)


def test_self_time_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S(1, "op", 0.0, 10.0, None, 0),
        S(2, "a", 1.0, 4.0, 1, 0),
        S(3, "b", 3.0, 6.0, 1, 0),    # overlaps a (another thread): union is 1..6
        S(4, "c", 2.0, 3.0, 2, 0),    # grandchild: counts against a, not op
        S(5, "d", 8.0, 12.0, 1, 0),   # runs past its parent: clipped at 10
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_restores_every_attribute_it_wraps():
    from gaugepair import cli, perturbation, quadrature
    before = (quadrature._g_batch, cli.epsilon_lorentz, perturbation.InteractionOperator.apply)
    tracer = tracing.Tracer()
    tracer.install()
    assert quadrature._g_batch is not before[0]
    tracer.uninstall()
    assert (quadrature._g_batch, cli.epsilon_lorentz,
            perturbation.InteractionOperator.apply) == before


def test_worker_thread_spans_hang_off_the_span_that_started_them():
    tracer = tracing.Tracer()
    tracer.begin_op()
    outer = tracer.enter("cli.main")
    worker = threading.Thread(target=lambda: tracer.leave("row", tracer.enter("row")))
    worker.start()
    worker.join()
    tracer.leave("cli.main", outer)
    tracer.end_op()
    spans = {s.name: s for s in tracer.spans}
    assert spans["row"].parent == spans["cli.main"].id
    assert spans["cli.main"].parent == spans["op"].id


def test_traced_operator_op_attributes_time(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = bench.run_pass(iter(take("operator", 3, 1)), REFS, n_ops=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(r.problem is None for r in traced.ops)
    metrics = tracing.layer_metrics(tracer, traced.ops, traced.ops)
    assert metrics["quadrature.kernel_s"] == 0.0
    assert metrics["perturbation.apply_calls"] > 0
    assert metrics["fock.states_built"] > 0
    assert metrics["trace.overhead_frac"] == pytest.approx(0.0)
    assert tracing.sweep_concurrency(tracer, traced.ops) is None
    (root,) = [s for s in tracer.spans if s.name == "op"]
    assert root.parent is None
    cli_spans = [s for s in tracer.spans if s.name == "cli.main"]
    assert len(cli_spans) == 2 and all(s.parent == root.id for s in cli_spans)
    assert 0.0 < metrics["cli.self_s"] < sum(s.end - s.start for s in cli_spans)
