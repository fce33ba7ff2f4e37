"""Record the benchmark baseline of the current commit in ``baseline.json``.

Three parts:

* the environment: Python, numpy, scipy and jsonschema versions and the
  number of CPUs;
* the kernel-count check against the published table: on
  ``cli._benchmark_instance(6, 20240101)`` with default QMC, the normal
  reduction makes 93 kernel calls ({1: 7, 5: 72, 6: 13, 7: 1}) and the
  recurrence 159, counted both by the tracer and by `count_integrals`;
* for each workload, ``run.py`` over ten seeds (plain) and one traced run,
  with the median, quartiles and spread (interquartile range over median)
  of every metric;
* optionally the same for a second set of seeds run right after the first,
  with the ratio of each median to the first set's.

Run from the repository root (about 25 minutes per set on 2 cores):

    python3 perfbench/baseline.py --seeds 1-10 --repeat-seeds 11-20
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = {"normal-reduction": {1: 7, 5: 72, 6: 13, 7: 1}, "recurrence": 159}


def environment() -> dict:
    import jsonschema  # noqa: F401
    import numpy
    import scipy
    from importlib.metadata import version

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "jsonschema": version("jsonschema"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def count_check() -> dict:
    import truncskew as ts
    from truncskew.cli import _benchmark_instance

    import tracer

    box, params = _benchmark_instance(6, 20240101)
    out = {}
    for method in ("normal-reduction", "recurrence"):
        tr = tracer.Tracer()
        tr.install()
        try:
            with ts.count_integrals() as counter:
                t0 = time.perf_counter()
                ts.tesn_mean_cov(box, params, method=method)
                seconds = time.perf_counter() - t0
        finally:
            tr.uninstall()
        by_dim = tracer.kernel_counts(tr.spans)
        total = sum(by_dim.values())
        expected = EXPECTED[method]
        ok = (by_dim == expected if isinstance(expected, dict) else total == expected)
        out[method] = {"calls": total, "by_dim": {str(k): v for k, v in sorted(by_dim.items())},
                       "count_integrals": counter.total,
                       "matches_table": ok and total == counter.total
                       and by_dim == dict(counter.by_dim),
                       "seconds_traced": round(seconds, 3)}
    return out


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def measure(workloads, seeds: list[int], seconds: int) -> dict:
    """Ten-seed (or ``seeds``) plain runs and one traced run per workload."""
    out = {}
    for workload in workloads:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        traced = run_once(workload, seeds[0], seconds, 1)
        out[workload] = {
            "seeds": f"{seeds[0]}-{seeds[-1]}", "correct": [r["correct"] for r in runs],
            "failed_of_attempted": [[r["failed"], r["attempted"]] for r in runs],
            "end_to_end": metrics,
            "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in metrics.items():
            print(f"{workload:16s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    return out


def write(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main() -> int:
    from run import WORKLOADS, checkout_paths

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat-seeds", default=None,
                    help="a second set of seeds, run after the first, to check that "
                         "medians repeat")
    args = ap.parse_args()
    checkout_paths()
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = os.path.join(HERE, "baseline.json")

    doc = {"environment": environment(), "count_check": count_check(), "run_seconds": seconds}
    print(json.dumps(doc["count_check"]), flush=True)
    doc["workloads"] = measure(WORKLOADS, _seeds(args.seeds), seconds)
    write(doc, out)
    if args.repeat_seeds:
        repeat = measure(WORKLOADS, _seeds(args.repeat_seeds), seconds)
        for workload, entry in repeat.items():
            first = doc["workloads"][workload]["end_to_end"]
            entry["median_ratio_to_first"] = {
                name: s["median"] / first[name]["median"]
                for name, s in entry["end_to_end"].items()}
        doc["repeat"] = repeat
        write(doc, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
