"""The measuring loop, set-up timing, environment record and result line.

Imported by run.py once `src/` is on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
MIN_OPS = 2  # per untraced measuring pass
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import gaugepair.cli as cli
mapping = cli.load_config({path!r})
cli.validate(cli.params_from_mapping(mapping))
cli.config_from_mapping(mapping)
"""


@dataclass(frozen=True)
class OpResult:
    kind: str
    wall: float
    cpu: float
    problem: str | None  # None: the output passed its check


@dataclass(frozen=True)
class Pass:
    ops: list[OpResult]
    wall: float


def run_op(op, refs: dict, tracer=None) -> OpResult:
    config_paths = []
    for i, part in enumerate(op.parts):
        path = WORK / f"op{i}.cfg"
        path.write_text(workloads.config_text(part.params), encoding="utf-8")
        config_paths.append(str(path))
    if tracer is not None:
        tracer.begin_op()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        outputs = workloads.execute(op, config_paths)
        problem = None
    except Exception as exc:  # a raised op is a failed op, and the run goes on
        outputs, problem = None, f"raised {exc!r}"
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.end_op()
    if problem is None:
        try:
            problem = workloads.check(op, outputs, config_paths, refs)
        except Exception as exc:  # malformed output
            problem = f"output check raised {exc!r}"
    return OpResult(op.kind, wall, cpu, problem)


def run_pass(stream, refs: dict, seconds: float | None = None, min_ops: int = 1,
             n_ops: int | None = None, tracer=None) -> Pass:
    """Closed loop over ops.

    With n_ops, runs exactly that many.  Otherwise runs at least min_ops and
    starts another only while it is predicted, from the median op so far, to
    end within `seconds`.
    """
    results: list[OpResult] = []
    start = time.perf_counter()
    for op in stream:
        done = len(results)
        if n_ops is not None:
            if done >= n_ops:
                break
        elif done >= min_ops:
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r.wall for r in results) > seconds:
                break
        results.append(run_op(op, refs, tracer))
    return Pass(results, time.perf_counter() - start)


def measure_setup(first_op) -> list[float]:
    """Fresh-interpreter import of gaugepair.cli plus parsing the first config."""
    path = WORK / "setup.cfg"
    path.write_text(workloads.config_text(first_op.parts[0].params), encoding="utf-8")
    code = SETUP_CODE.format(src=str(SRC), path=str(path))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaugepair").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "sweep_pool": "program default",
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def end_to_end(measured: Pass, setup_times: list[float]) -> dict[str, float]:
    walls = [r.wall for r in measured.ops]
    ok = sum(r.problem is None for r in measured.ops)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / measured.wall,
        "op_p50_s": statistics.median(walls),
        "op_cpu_s": statistics.median(r.cpu for r in measured.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _print_summary(workload: str, metrics: dict, units: dict, results: list[OpResult],
                   timed: list[OpResult], setup_times: list[float],
                   concurrency: float | None) -> None:
    failed = sum(r.problem is not None for r in results)
    print(f"workload {workload}: {len(results)} ops, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {units[name]}")
    print(f"  {'op_fail_frac':<32} {failed / len(results):.6g} fraction")
    if len(timed) >= P90_MIN_OPS:
        p90 = statistics.quantiles([r.wall for r in timed], n=10)[-1]
        print(f"  {'op_p90_s':<32} {p90:.6g} s ({len(timed)} ops)")
    if concurrency is not None:
        print(f"  {'cli.sweep_concurrency':<32} {concurrency:.6g} ratio")
    print(f"  op wall samples: {' '.join(f'{r.wall:.3f}' for r in results)}")
    if setup_times:
        print(f"  setup_s samples: {' '.join(f'{t:.3f}' for t in setup_times)}")
    for r in results:
        if r.problem is not None:
            print(f"  FAILED {r.kind}: {r.problem}", file=sys.stderr)


def main(workload: str, seed: int, seconds: float, traced: bool) -> int:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    env = environment()

    if not traced:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        setup_times = measure_setup(next(workloads.ops(workload, seed)))
        measured = run_pass(workloads.ops(workload, seed), refs,
                            seconds=seconds, min_ops=MIN_OPS)
        results = timed = measured.ops
        metrics = end_to_end(measured, setup_times)
        concurrency = None
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        untraced = run_pass(workloads.ops(workload, seed, 0, passes=2), refs,
                            seconds=seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_pass = run_pass(workloads.ops(workload, seed, 1, passes=2), refs,
                                   n_ops=len(untraced.ops), tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.dump(str(WORK / f"trace_{workload}_{seed}.json"))
        results, timed, setup_times = untraced.ops + traced_pass.ops, [], []
        metrics = tracing.layer_metrics(tracer, traced_pass.ops, untraced.ops)
        concurrency = tracing.sweep_concurrency(tracer, traced_pass.ops)

    _print_summary(workload, metrics, units, results, timed, setup_times, concurrency)
    print("env " + json.dumps(env, sort_keys=True))
    failed = sum(r.problem is not None for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0
