"""Rebuild references.json: every report point and sweep row a seed can draw,
computed by the engine at a tighter setting than the program's default.

    python3 perfbench/make_references.py

Run from the root of a checkout.  The references pin the engine as it stood
when they were built; rebuild them only when the physics is meant to change,
never from the build being measured.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # one job per usable core

import argparse
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gaugepair.core import SystemParams  # noqa: E402
from gaugepair.gauge import transformed_epsilon  # noqa: E402
from gaugepair.matelem import ConvergenceError  # noqa: E402
from gaugepair.quadrature import (  # noqa: E402
    QuadratureConfig,
    epsilon_coulomb,
    epsilon_lorentz,
    series_coefficients,
)

import workloads as w  # noqa: E402

# finer panels and a tighter stopping rule than QuadratureConfig's defaults
# (rel_tol 1e-9, 64 nodes); near the pole some windows stall short of 1e-11,
# and those points fall back to the next tolerance
TIGHT = {"radial_nodes": 96, "angular_nodes": 96}
TIGHT_REL_TOL = (1e-11, 1e-10)


def reference(params: dict[str, float]) -> dict[str, float]:
    for rel_tol in TIGHT_REL_TOL:
        try:
            return dict(_reference(params, QuadratureConfig(rel_tol=rel_tol, **TIGHT)),
                        rel_tol=rel_tol)
        except ConvergenceError:
            continue
    raise ConvergenceError(f"no reference tolerance converged at {params}")


def _reference(params: dict[str, float], config: QuadratureConfig) -> dict[str, float]:
    p = SystemParams(**params)
    eps_c = epsilon_coulomb(p, config).value
    eps_l = epsilon_lorentz(p, config).value
    coeffs = series_coefficients(p, config)
    return {
        "eps_coulomb": eps_c,
        "eps_lorentz": eps_l,
        "eps_transformed": transformed_epsilon(p, config).value,
        "ratio": eps_l / eps_c,
        "c0": coeffs.c0.value,
        "c1": coeffs.c1.value,
        "c2": coeffs.c2.value,
    }


def jobs() -> dict[tuple[str, str], dict[str, float]]:
    out = {}
    for pair in w.REPORT_POINTS:
        for sep_l, delta in pair:
            out[("report", w.point_key(sep_l, delta))] = w.report_params(sep_l, delta)
    for start in w.SWEEP_START:
        for sep_l in w.sweep_rows_l(start):
            for delta in w.SWEEP_DELTA:
                params = dict(w.default_params(delta), separation_l=sep_l)
                out[("sweep", w.point_key(sep_l, delta))] = params
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    todo = jobs()
    with ProcessPoolExecutor(len(os.sched_getaffinity(0)),
                             mp_context=get_context("spawn")) as pool:
        values = dict(zip(todo, pool.map(reference, todo.values())))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    doc = {
        "built_from": {"commit": commit or "unknown", "quadrature": TIGHT,
                       "rel_tol": TIGHT_REL_TOL},
        "report": {key: v for (group, key), v in values.items() if group == "report"},
        "sweep": {key: v for (group, key), v in values.items() if group == "sweep"},
    }
    (HERE / "references.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    print(f"wrote {len(values)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
