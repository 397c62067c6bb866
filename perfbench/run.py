"""gaugepair benchmark: one single-threaded client in a closed loop.

    python3 perfbench/run.py --workload report --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
`--trace 0` measures the end-to-end metrics.  `--trace 1` runs an untraced
pass and then a traced pass of as many ops and reports the per-layer
metrics.  Every op's output is checked.  Human-readable lines come first; the
last line of standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS runs on one thread, on every commit measured.  With OpenBLAS's own
# thread count the kernel's matvec spins a second thread on a 2-core machine,
# and op times then spread by a quarter from run to run.  This must be set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("report", "sweep", "operator")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "gaugepair" / "cli.py", HERE / "references.json",
                   HERE.parent / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a gaugepair checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
