"""Run one workload task in-process and flatten its outputs.

Every task returns a flat list of floats.  Mean/covariance tasks return the
mean vector followed by the upper triangle of the covariance, row by row.
"""

import numpy as np


def _box(ts, task):
    lower, upper = task["box"]
    return ts.TruncationBox(np.asarray(lower, float), np.asarray(upper, float))


def esn_params(ts, params):
    return ts.EsnParams(mu=params["mu"], sigma=params["sigma"],
                        lam=params["lambda"], tau=params["tau"])


def _moments(res) -> list[float]:
    iu = np.triu_indices(len(res.mean))
    return [float(v) for v in res.mean] + [float(v) for v in res.cov[iu]]


def run_task(ts, task, cfg=None, method=None) -> list[float]:
    """Evaluate ``task`` with truncskew module ``ts``.

    ``cfg`` and ``method`` override the task's QMC settings and method; the
    benchmark itself passes neither, so the library defaults apply.
    """
    kind = task["kind"]
    par = esn_params(ts, task["params"])
    method = method or task["method"]
    kw = {} if cfg is None else {"cfg": cfg}
    if kind == "prob":
        return [ts.tesn_prob_with_error(_box(ts, task), par, **kw)[0]]
    if kind == "cdf":
        return [ts.esn_cdf(task["y"], par, **kw)]
    if kind == "pdf":
        return [ts.esn_pdf(task["y"], par)]
    if kind == "moment":
        return [ts.tesn_moment(_box(ts, task), par, task["kappa"], method=method, **kw)]
    if kind == "meancov":
        return _moments(ts.tesn_mean_cov(_box(ts, task), par, method=method, **kw))
    if kind == "fmeancov":
        if method == "orthant-sum":
            return _moments(ts.fesn_mean_cov_orthant(par, **kw))
        return _moments(ts.fesn_mean_cov(par, **kw))
    if kind == "fmoment":
        return [ts.fesn_moment(par, task["kappa"], method=method, **kw)]
    raise ValueError(f"unknown task kind {kind!r}")


def response_outputs(task, value) -> list[float]:
    """Flatten the ``value`` field of a CLI response like :func:`run_task`."""
    if isinstance(value, dict):
        mean = value["mean"]
        cov = value["cov"]["data"]
        n = len(mean)
        return [float(v) for v in mean] + [float(cov[i][j])
                                           for i in range(n) for j in range(i, n)]
    return [float(value)]
