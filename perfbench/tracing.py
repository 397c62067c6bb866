"""Spans and counters around the calls into each gaugepair module.

The tracer wraps module attributes from outside the program: every wrapped
name is one the program looks up at call time, so the wrapper sees the
program's own calls.  Spans (name, start, end, parent) are kept in memory and
written out when the run ends.  Nothing is recorded unless an op is open.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from gaugepair import cli, core, fock, gauge, matelem, perturbation, quadrature
from gaugepair.matelem import ConvergenceError


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - union_length(children[span.id], span.start, span.end)
        for span in spans
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._op = -1
        self._main: int | None = None  # the thread that runs the op
        self._main_top: int | None = None  # innermost span open on it
        self._patches: list[tuple[object, str, object]] = []
        self._k_batches: list[tuple[tuple, np.ndarray]] = []
        self.unique_k = 0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def enter(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        # a worker thread's first span hangs off the span that started the
        # pool, the innermost one open on the op's own thread
        parent = stack[-1] if stack else self._main_top
        span_id = self._new_id()
        stack.append(span_id)
        if threading.get_ident() == self._main:
            self._main_top = span_id
        return span_id, parent, time.perf_counter()

    def leave(self, name: str, token: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        stack = self._stack()
        stack.pop()
        if threading.get_ident() == self._main:
            self._main_top = stack[-1] if stack else None
        with self._lock:
            self.spans.append(Span(span_id, name, start, end, parent, self._op))

    def begin_op(self) -> None:
        self._op += 1
        self._k_batches = []
        self.active = True
        self._main = threading.get_ident()
        self._root_token = self.enter("op")

    def end_op(self) -> None:
        self.leave("op", self._root_token)
        self.active = False
        # distinct k per kernel geometry, counted within the op
        groups: dict[tuple, list[np.ndarray]] = defaultdict(list)
        for key, ks in self._k_batches:
            groups[key].append(ks)
        self.unique_k += sum(np.unique(np.concatenate(v)).size for v in groups.values())
        self._k_batches = []

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span named `name` around every call of owner.attr."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            token = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError:
                tracer.count(f"{name}.convergence_errors")
                raise
            finally:
                tracer.leave(name, token)
            if after is not None:
                after(result)
            return result

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        def kernel_args(args, kwargs):
            # the geometry arguments key the kernel, so sweep rows never merge
            ks, geometry = args[0], args[1:] + tuple(sorted(kwargs.items()))
            self.count("quadrature.g_evals", int(np.size(ks)))
            with self._lock:
                self._k_batches.append((geometry, np.array(ks, dtype=float)))

        self.wrap(quadrature, "_g_batch", "quadrature.kernel", before=kernel_args)
        self.wrap(quadrature, "pv_radial", "quadrature.radial",
                  after=lambda r: self.count("quadrature.radial_nodes", r.nodes_used))
        self.wrap(cli, "epsilon_coulomb", "quadrature.coulomb")
        self.wrap(cli, "epsilon_lorentz", "quadrature.lorentz")
        self.wrap(cli, "series_coefficients", "quadrature.series")

        self.wrap(cli, "transformed_epsilon", "gauge.transformed")
        for owner in (gauge, cli):
            self.wrap(owner, "transform_brackets", "gauge.bracket")
        for attr in ("per_k_equivalence", "operator_route_brackets"):
            self.wrap(cli, attr, "gauge.per_k")

        for owner, attr in ((quadrature, "lorentz_bracket"), (quadrature, "expansion_terms"),
                            (gauge, "lorentz_bracket"), (perturbation, "lorentz_bracket")):
            self.wrap(owner, attr, "perturbation.bracket")
        op_class = perturbation.InteractionOperator
        self.wrap(op_class, "_build_vertices", "perturbation.operator_build")
        self.wrap(op_class, "apply", "perturbation.apply",
                  before=lambda a, k: self.count("perturbation.apply_terms", len(a[1])))
        self.wrap(perturbation, "discrete_second_order", "perturbation.pt")
        self.wrap(perturbation, "exact_diagonalization_oracle", "perturbation.ed",
                  after=lambda r: self.count("perturbation.ed_dim", r.dimension))
        for attr in ("eigvals", "eig"):
            self.wrap(scipy.linalg, attr, "perturbation.ed_solve")

        self.count_calls(fock.StateVector, "__init__", "fock.states_built")
        for owner, attr in ((fock, "indefinite_inner"), (cli, "indefinite_inner"),
                            (fock.StateVector, "ordinary_inner")):
            self.count_calls(owner, attr, "fock.inner_calls")

        for owner in (perturbation, matelem):
            self.wrap(owner, "exponential_matrix", "matelem.expmat")
        self.wrap(cli, "form_factor_oracle", "matelem.form_factor_oracle")

        for attr in ("load_config", "params_from_mapping", "config_from_mapping", "validate"):
            self.wrap(cli, attr, "core.config")
        for attr in ("load_config", "params_from_mapping"):
            self.wrap(core, attr, "core.config")
        self.wrap(cli, "_sweep_row", "cli.sweep_row")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counters": dict(self.counters)}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> span name or counter; every value is per traced op unless noted
INCLUSIVE = {
    "quadrature.kernel_s": "quadrature.kernel",
    "quadrature.coulomb_s": "quadrature.coulomb",
    "quadrature.lorentz_s": "quadrature.lorentz",
    "quadrature.series_s": "quadrature.series",
    "gauge.transformed_s": "gauge.transformed",
    "gauge.bracket_s": "gauge.bracket",
    "gauge.per_k_s": "gauge.per_k",
    "perturbation.bracket_s": "perturbation.bracket",
    "perturbation.operator_build_s": "perturbation.operator_build",
    "perturbation.apply_s": "perturbation.apply",
    "perturbation.pt_s": "perturbation.pt",
    "perturbation.ed_s": "perturbation.ed",
    "perturbation.ed_solve_s": "perturbation.ed_solve",
    "matelem.expmat_s": "matelem.expmat",
    "matelem.form_factor_oracle_s": "matelem.form_factor_oracle",
    "core.config_s": "core.config",
}
SELF = {"quadrature.radial_s": "quadrature.radial"}
CALLS = {
    "quadrature.kernel_calls": "quadrature.kernel",
    "quadrature.radial_calls": "quadrature.radial",
    "gauge.bracket_calls": "gauge.bracket",
    "perturbation.bracket_calls": "perturbation.bracket",
    "perturbation.apply_calls": "perturbation.apply",
    "matelem.expmat_calls": "matelem.expmat",
}
COUNTERS = {
    "quadrature.g_evals": "quadrature.g_evals",
    "quadrature.radial_nodes": "quadrature.radial_nodes",
    "quadrature.convergence_errors": "quadrature.radial.convergence_errors",
    "perturbation.apply_terms": "perturbation.apply_terms",
    "fock.states_built": "fock.states_built",
    "fock.inner_calls": "fock.inner_calls",
}


def layer_metrics(tracer: Tracer, ops: list, untraced_ops: list) -> dict[str, float]:
    """Per-layer numbers from one traced pass.

    ops / untraced_ops are the OpResult lists of the traced pass and of the
    untraced pass that ran the same number of ops just before it.
    """
    n = len(ops)
    spans = tracer.spans
    selfs = self_times(spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    self_total: Counter = Counter()
    for span in spans:
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        self_total[span.name] += selfs[span.id]

    out: dict[str, float] = {}
    for metric, name in INCLUSIVE.items():
        out[metric] = total[name] / n
    for metric, name in SELF.items():
        out[metric] = self_total[name] / n
    for metric, name in CALLS.items():
        out[metric] = calls[name] / n
    for metric, name in COUNTERS.items():
        out[metric] = tracer.counters[name] / n
    evals = tracer.counters["quadrature.g_evals"]
    out["quadrature.g_unique_frac"] = tracer.unique_k / evals if evals else 0.0
    ed_calls = calls["perturbation.ed"]
    out["perturbation.ed_dim"] = tracer.counters["perturbation.ed_dim"] / ed_calls if ed_calls else 0.0

    out["cli.self_s"] = self_total["cli.main"] / n
    wall = sum(r.wall for r in ops)
    out["cli.cpu_per_wall"] = sum(r.cpu for r in ops) / wall
    out["trace.op_wall_s"] = wall / n
    untraced_mean = sum(r.wall for r in untraced_ops) / len(untraced_ops)
    out["trace.overhead_frac"] = (wall / n) / untraced_mean - 1.0
    return out


def sweep_concurrency(tracer: Tracer, ops: list) -> float | None:
    """Sum of the sweep-row spans / sweep op wall time; None without sweep ops.

    Only the `sweep` workload, which BENCHMARK.json does not list, has it.
    """
    sweep_wall = sum(r.wall for r in ops if r.kind == "sweep")
    if not sweep_wall:
        return None
    return sum(s.end - s.start for s in tracer.spans if s.name == "cli.sweep_row") / sweep_wall
