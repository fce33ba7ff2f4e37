"""truncskew benchmark: three workloads, plain or traced.

Run from the repository root:

    python3 perfbench/run.py --workload lowdim-esn --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
workload with every public library function wrapped and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come first;
the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("meancov-highdim", "lowdim-esn", "cli-requests")


def checkout_paths(pin_cpu: bool = True) -> str:
    """Point this process and its children at the checkout's ``src``, and
    unless ``pin_cpu`` is false, pin them to one CPU.

    The benchmark runs from the root of a checkout; without
    ``src/truncskew`` there it stops with exit code 2.
    """
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "truncskew", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/truncskew under {root}; run from the "
                         "repository root\n")
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for this process and the interpreters it starts, so that the
    # host reference times (hostspeed.py) run where the work runs
    if pin_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = os.pathsep.join([src, HERE])
    for path in (HERE, src):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    return root


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="truncskew benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = checkout_paths()
    import harness

    if not os.path.abspath(harness.ts.__file__).startswith(os.path.join(root, "src")):
        sys.stderr.write(f"perfbench: imported truncskew from {harness.ts.__file__}\n")
        return 2
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
