"""apinterp benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  apinterp is imported from ``src/`` of that
checkout.  ``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer metrics; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Results, with their
provenance, and the traced spans go to ``.bench_out/results/``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Cap BLAS/OpenMP thread pools at the CPUs this process may use.

    Must run before numpy is imported; set-up probes inherit the setting.
    """
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= n):
            os.environ[var] = str(n)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apinterp" / "__init__.py").is_file():
        print(f"error: no apinterp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(harness.summary(record))
    print(harness.result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
