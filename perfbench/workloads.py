"""Seeded task lists for the three benchmark workloads.

A task is a plain JSON-able dict, so the same description drives the
in-process calls, the CLI requests and the reference computations:

    {"id": str, "kind": str, "p": int, "case": str,
     "params": {"mu", "sigma", "lambda", "tau"},
     "box": [lower, upper] | None, "y": list | None,
     "kappa": list | None, "method": str | None}

Bounds are floats; infinities stay ``float("inf")`` in memory and are written
as the strings "inf" / "-inf" wherever JSON is produced.

``meancov-highdim`` draws its instances from a fixed pool whose references
(minutes of computation each) are stored in ``pool.json``; the workload seed
picks one pool member per dimension.  The other two workloads generate fresh
instances from the seed, and their references are computed per run.
"""

import math

import numpy as np

WORKLOADS = ("meancov-highdim", "lowdim-esn", "cli-requests")

POOL_SEED = 20240101
POOL_DIMS = (5, 6, 7)
POOL_SIZE = 3


# ----------------------------------------------------------------------------
# instance generators


def esn_instance(rng, p: int, case: str = "regular"):
    """ESN parameters, a doubly truncated box, and the centre and scale the
    box was drawn around.

    The regular family is the one `cli._benchmark_instance` uses: a
    well-conditioned scale matrix, moderate skewness and shift, and a box of
    0.4-1.4 sd on either side of the location.  Extreme cases modify it:

    * ``out-of-bounds``: coordinate 0's interval sits 8-9 sd above mu, so its
      marginal mass is below the 1e-12 out-of-bounds threshold;
    * ``deep-shift``: tau_tilde drawn from [-30, -15], on the exact side of
      the -35 switch point, where the selection probability xi is tiny;
    * ``limit``: tau_tilde drawn from [-45, -36], past the switch point, so
      every skewed computation uses the limiting-normal parameters.

    For the two shift cases the box is drawn around where the law's mass
    is, mu - tau_tilde * Delta with scale sqrt(diag(Sigma - Delta Delta')),
    so the box itself is not degenerate.
    """
    a_mat = rng.normal(size=(p, p))
    sigma = a_mat @ a_mat.T + p * np.eye(p)
    sd = np.sqrt(np.diag(sigma))
    mu = rng.normal(size=p) * 0.3
    lam = rng.normal(size=p) * 0.8
    tau = float(rng.normal() * 0.5)
    centre = mu
    if case in ("deep-shift", "limit"):
        lo_tt, hi_tt = (-30.0, -15.0) if case == "deep-shift" else (-45.0, -36.0)
        tau_tilde = float(lo_tt + (hi_tt - lo_tt) * rng.random())
        tau = tau_tilde * math.sqrt(1.0 + lam @ lam)
        w, v = np.linalg.eigh(sigma)
        delta = (v * np.sqrt(w)) @ v.T @ lam / math.sqrt(1.0 + lam @ lam)
        centre = mu - tau_tilde * delta
        sd = np.sqrt(np.diag(sigma) - delta * delta)
    elif case not in ("regular", "out-of-bounds"):
        raise ValueError(f"unknown case {case!r}")
    lower = centre - (0.4 + rng.random(p)) * sd
    upper = centre + (0.4 + rng.random(p)) * sd
    if case == "out-of-bounds":
        lower[0] = mu[0] + 8.0 * sd[0]
        upper[0] = mu[0] + 9.0 * sd[0]
    params = {"mu": mu.tolist(), "sigma": sigma.tolist(), "lambda": lam.tolist(),
              "tau": tau}
    return params, [lower.tolist(), upper.tolist()], (centre, sd)


def _task(tid, kind, p, case, params, box=None, y=None, kappa=None, method=None):
    return {"id": tid, "kind": kind, "p": p, "case": case, "params": params,
            "box": box, "y": y, "kappa": kappa, "method": method}


# ----------------------------------------------------------------------------
# meancov-highdim


def pool_instance(p: int, k: int):
    """Member ``k`` of the dimension-``p`` reference pool."""
    params, box, _ = esn_instance(np.random.default_rng([POOL_SEED, p, k]), p)
    return params, box


def meancov_tasks(seed: int) -> list[dict]:
    """One `tesn_mean_cov` task (default method and QMC) per dimension in
    POOL_DIMS, each a seeded pick from the pool."""
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for p in POOL_DIMS:
        k = int(rng.integers(POOL_SIZE))
        params, box = pool_instance(p, k)
        tasks.append(_task(f"meancov/p{p}/k{k}", "meancov", p, "regular", params,
                           box=box, method="normal-reduction"))
    return tasks


# ----------------------------------------------------------------------------
# lowdim-esn

# (kind, p, case, method, kappa); the list is fixed, only the numbers are
# seeded.  Moment orders are fixed too, because the recurrence's cost grows
# with them.
_MOMENT_KAPPAS = {1: [(2,), (4,)], 2: [(1, 1), (2, 2)], 3: [(1, 0, 1), (2, 1, 1)]}
_FOLDED_KAPPAS = {2: (1, 2), 3: (1, 1, 1)}

LOWDIM_PLAN = (
    [("prob", p, "regular", None, None) for p in (1, 2, 3) for _ in range(2)]
    + [("prob", 2, c, None, None) for c in ("out-of-bounds", "deep-shift", "limit")]
    + [("cdf", p, "regular", None, None) for p in (1, 2, 3) for _ in range(2)]
    + [("cdf", 2, c, None, None) for c in ("deep-shift", "limit")]
    + [("moment", p, "regular", m, k) for p in (1, 2, 3)
       for m in ("recurrence", "normal-reduction") for k in _MOMENT_KAPPAS[p]]
    + [("moment", 2, "limit", "normal-reduction", (1, 1))]
    + [("meancov", 2, "regular", m, None) for m in ("recurrence", "normal-reduction")
       for _ in range(2)]
    + [("meancov", 2, c, "normal-reduction", None)
       for c in ("out-of-bounds", "deep-shift", "limit")]
    + [("fmeancov", p, "regular", None, None) for p in (2, 3)]
    + [("fmoment", p, "regular", m, _FOLDED_KAPPAS[p]) for p in (2, 3)
       for m in ("orthant-sum", "normal-reduction")]
)


def lowdim_tasks(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    tasks = []
    for i, (kind, p, case, method, kappa) in enumerate(LOWDIM_PLAN):
        params, box, (centre, sd) = esn_instance(rng, p, case)
        t = _task(f"lowdim/{i:02d}/{kind}/p{p}/{case}", kind, p, case, params,
                  method=method, kappa=None if kappa is None else list(kappa))
        if kind in ("prob", "moment", "meancov"):
            t["box"] = box
        if kind == "cdf":
            # an upper corner from 0.5 sd below to 1.5 sd above the centre
            t["y"] = (centre + rng.uniform(-0.5, 1.5, p) * sd).tolist()
        tasks.append(t)
    return tasks


# ----------------------------------------------------------------------------
# cli-requests

# (task, family, p, extra); every task and every family appears.
CLI_PLAN = (
    ("pdf", "normal", 2, {}),
    ("cdf", "esn", 2, {}),
    ("prob", "sn", 2, {"verify": True, "mc_samples": 200000}),
    ("moment", "esn", 2, {"method": "recurrence", "kappa": [1, 1]}),
    ("mean-cov", "normal", 3, {}),
    ("mean-cov", "esn", 2, {}),
    ("folded-moment", "sn", 2, {"kappa": [2, 1]}),
    ("folded-mean-cov", "esn", 3, {}),
)

_CLI_KIND = {"pdf": "pdf", "cdf": "cdf", "prob": "prob", "moment": "moment",
             "mean-cov": "meancov", "folded-moment": "fmoment",
             "folded-mean-cov": "fmeancov"}


def _bound(v: float):
    return v if math.isfinite(v) else ("inf" if v > 0 else "-inf")


def cli_tasks(seed: int) -> list[dict]:
    """Tasks of the CLI sequence; each carries its JSON ``request``."""
    rng = np.random.default_rng([seed, 3])
    tasks = []
    for i, (name, family, p, extra) in enumerate(CLI_PLAN):
        params, box, (centre, sd) = esn_instance(rng, p)
        if family == "normal":
            params["lambda"] = [0.0] * p
            params["tau"] = 0.0
        elif family == "sn":
            params["tau"] = 0.0
        kind = _CLI_KIND[name]
        t = _task(f"cli/{i:02d}/{name}/{family}/p{p}", kind, p, "regular", params,
                  method=extra.get("method"))
        req_params = {"mu": params["mu"], "sigma": params["sigma"]}
        if family != "normal":
            req_params["lambda"] = params["lambda"]
        if family == "esn":
            req_params["tau"] = params["tau"]
        req = {"task": name, "family": family, "params": req_params}
        if name in ("pdf", "cdf"):
            t["y"] = (centre + rng.uniform(-0.5, 1.5, p) * sd).tolist()
            req["x"] = t["y"]
        if name in ("prob", "moment", "mean-cov"):
            t["box"] = box
            req["box"] = {"lower": [_bound(v) for v in box[0]],
                          "upper": [_bound(v) for v in box[1]]}
        if name in ("moment", "folded-moment"):
            t["kappa"] = extra["kappa"]
        if name == "folded-moment":
            t["method"] = "orthant-sum"
        req.update(extra)
        t["request"] = req
        tasks.append(t)
    return tasks


def tasks_for(workload: str, seed: int) -> list[dict]:
    if workload == "meancov-highdim":
        return meancov_tasks(seed)
    if workload == "lowdim-esn":
        return lowdim_tasks(seed)
    if workload == "cli-requests":
        return cli_tasks(seed)
    raise ValueError(f"unknown workload {workload!r}")
