"""Regenerate ``pool.json``: references for the meancov-highdim pool.

Each pool instance gets the ``tallis`` reference of `refs.py`: scipy
rectangle probabilities in the Tallis formulas, with their first-order error
bound as the uncertainty.  Beside it, ``detail`` records the gap to both
moment engines of `tesn_mean_cov` at 16x the default points.  That gap is
for reading only; it never widens the tolerance, since those engines are the
library under test.  An instance takes minutes, which is why the workload
draws from a fixed pool instead of computing references per run.

Run from the repository root (about 30 minutes on 2 cores; one worker per
CPU this process may use):

    python3 perfbench/make_pool.py
"""

import json
import multiprocessing
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _one(pk):
    p, k = pk
    import truncskew as ts
    import refs
    import workloads

    params, box = workloads.pool_instance(p, k)
    task = {"id": f"meancov/p{p}/k{k}", "kind": "meancov", "p": p, "case": "regular",
            "params": params, "box": box, "y": None, "kappa": None,
            "method": "normal-reduction"}
    t0 = time.perf_counter()
    ref = refs.reference(ts, task)
    seconds = round(time.perf_counter() - t0, 1)
    e_value, _, detail = refs.engines_reference(ts, task)
    gap = np.abs(np.asarray(ref["value"]) - np.asarray(e_value))
    detail["tallis_vs_engines"] = float(gap.max())
    return task["id"], {"params": params, "box": box, **ref, "seconds": seconds,
                        "detail": detail}


def main() -> int:
    from run import checkout_paths

    checkout_paths(pin_cpu=False)
    import workloads

    todo = [(p, k) for p in reversed(workloads.POOL_DIMS)
            for k in range(workloads.POOL_SIZE)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        results = dict(pool.map(_one, todo, chunksize=1))
    doc = {"pool_seed": workloads.POOL_SEED, "route": "tallis",
           "instances": dict(sorted(results.items()))}
    with open(os.path.join(HERE, "pool.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
