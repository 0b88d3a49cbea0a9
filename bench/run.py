"""tandem benchmark: one workload, timed or traced, printed as JSON.

    python3 bench/run.py --workload paired-grid --seed 0 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout this script sits in; without it the script exits with status
2 and prints no result.  BLAS is pinned to one thread before numpy loads.

``--trace 0`` sets the workload up several times, then repeats untraced
passes for ``--seconds`` seconds, and at least twice, and reports the
end-to-end metrics.
``--trace 1`` sets up once under the tracer, alternates untraced and traced
passes for ``--seconds`` seconds and reports the per-layer metrics; the
spans go to ``.bench_run/traces/``.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tandem", "__init__.py")):
        print(f"no tandem package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    from runner import run_timed, run_traced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        return run_traced(workload, args.seed, args.seconds, RUN_DIR)
    return run_timed(workload, args.seed, args.seconds, RUN_DIR)


if __name__ == "__main__":
    sys.exit(main())
