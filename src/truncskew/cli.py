"""Batch command-line interface.

Reads one JSON request (file or stdin), writes one JSON response to stdout.
Identical request + seed yields byte-identical stdout; wall-clock timing is
reported on stderr (and in the response only with ``--timing``, since it is
inherently nondeterministic).  ``--benchmark`` runs the internal
method-comparison harness and emits CSV instead.

Exit codes: 0 success, 1 request validation error, 2 numerical failure.
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np
import jsonschema

from .errors import TruncskewError
from .esn import EsnParams, esn_pdf
from .folded import fesn_mean_cov, fesn_mean_cov_orthant, fesn_moment
from .moments import FirstTwoMoments
from .mvn import (
    DEFAULT_QMC,
    NormalParams,
    QmcConfig,
    TruncationBox,
    count_integrals,
    mvn_pdf,
    mvn_prob,
)
from .oracle import mc_fesn_moment, mc_tesn_moment
from .tesn import (
    _mean_cov_nr_uncorrected,
    tesn_mean_cov,
    tesn_moment,
    tesn_prob_with_error,
)
from .tn import tn_first_two_corrected, tn_first_two_mgf

SCHEMA_VERSION = 1

_NUMBER_OR_SENTINEL = {
    "anyOf": [{"type": "number"}, {"type": "string"}],
}

REQUEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["task", "family", "params"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "task": {
            "enum": ["pdf", "cdf", "prob", "moment", "mean-cov",
                     "folded-moment", "folded-mean-cov", "benchmark"],
        },
        "family": {"enum": ["normal", "sn", "esn"]},
        "params": {
            "type": "object",
            "required": ["mu", "sigma"],
            "additionalProperties": False,
            "properties": {
                "mu": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "sigma": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "lambda": {"type": "array", "items": {"type": "number"}},
                "tau": {"type": "number"},
            },
        },
        "box": {
            "anyOf": [
                {
                    "type": "object",
                    "required": ["lower", "upper"],
                    "additionalProperties": False,
                    "properties": {
                        "lower": {"type": "array", "items": _NUMBER_OR_SENTINEL},
                        "upper": {"type": "array", "items": _NUMBER_OR_SENTINEL},
                    },
                },
                {
                    "type": "array",
                    "minItems": 2,
                    "maxItems": 2,
                    "items": {"type": "array", "items": _NUMBER_OR_SENTINEL},
                },
            ],
        },
        "x": {"type": "array", "items": {"type": "number"}},
        "kappa": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "method": {
            "enum": ["auto", "recurrence", "normal-reduction", "mgf",
                     "orthant-sum", "explicit"],
        },
        "qmc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sample_count": {"type": "integer", "minimum": 2},
                "replicates": {"type": "integer", "minimum": 8},
                "seed": {"type": "integer"},
                "target_abs_error": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "verify": {"type": "boolean"},
        "mc_samples": {"type": "integer", "minimum": 1000},
    },
    "allOf": [
        {
            "if": {"properties": {"family": {"const": "normal"}}},
            "then": {
                "properties": {
                    "params": {"not": {"anyOf": [
                        {"required": ["lambda"]}, {"required": ["tau"]},
                    ]}},
                },
            },
        },
        {
            "if": {"properties": {"family": {"const": "sn"}}},
            "then": {"properties": {"params": {"not": {"required": ["tau"]}}}},
        },
    ],
}


class RequestError(ValueError):
    """Invalid request (exit code 1)."""


def _parse_bound(v) -> float:
    if isinstance(v, (int, float)):
        return float(v)
    s = str(v).strip().lower()
    if s in ("-inf", "-infinity"):
        return -np.inf
    if s in ("inf", "+inf", "infinity", "+infinity"):
        return np.inf
    try:
        return float(s)
    except ValueError as exc:
        raise RequestError(f"cannot parse bound {v!r}") from exc


def _parse_request(req: dict):
    try:
        jsonschema.validate(req, REQUEST_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise RequestError(f"request does not match schema: {exc.message}") from exc
    par = req["params"]
    mu = np.asarray(par["mu"], dtype=float)
    sigma = np.asarray(par["sigma"], dtype=float)
    lam = np.asarray(par.get("lambda", np.zeros(mu.shape[0])), dtype=float)
    tau = float(par.get("tau", 0.0))
    try:
        params = EsnParams(mu=mu, sigma=sigma, lam=lam, tau=tau)
    except TruncskewError as exc:
        raise RequestError(f"invalid parameters: {exc}") from exc
    box = None
    if "box" in req:
        raw = req["box"]
        lower, upper = (raw["lower"], raw["upper"]) if isinstance(raw, dict) else raw
        try:
            box = TruncationBox(
                [_parse_bound(v) for v in lower],
                [_parse_bound(v) for v in upper],
            )
        except TruncskewError as exc:
            raise RequestError(f"invalid box: {exc}") from exc
        if box.dim != params.dim:
            raise RequestError("box dimension does not match parameters")
    qmc = req.get("qmc", {})
    cfg = QmcConfig(
        sample_count=qmc.get("sample_count", DEFAULT_QMC.sample_count),
        replicates=qmc.get("replicates", DEFAULT_QMC.replicates),
        seed=qmc.get("seed", DEFAULT_QMC.seed),
        target_abs_error=qmc.get("target_abs_error", DEFAULT_QMC.target_abs_error),
    )
    return params, box, cfg


def _matrix(m: np.ndarray) -> dict:
    return {"dims": list(m.shape), "data": [[float(v) for v in row] for row in m]}


def _moments_payload(res: FirstTwoMoments) -> dict:
    return {
        "mean": [float(v) for v in res.mean],
        "raw2": _matrix(res.raw2),
        "cov": _matrix(res.cov),
    }


def _require(req, key):
    if key not in req:
        raise RequestError(f"task {req['task']!r} requires field {key!r}")
    return req[key]


def _default_box(dim: int, box):
    return box if box is not None else TruncationBox.unbounded(dim)


def _execute(req: dict) -> dict:
    params, box, cfg = _parse_request(req)
    task = req["task"]
    family = req["family"]
    method = req.get("method", "auto")
    is_normal = family == "normal"
    corrections: tuple[str, ...] = ()
    oracle = None
    err = 0.0

    if task == "pdf":
        x = np.asarray(_require(req, "x"), dtype=float)
        value = (mvn_pdf(x, NormalParams(params.mu, params.sigma))
                 if is_normal else esn_pdf(x, params))
        method_used = "closed-form"
    elif task == "cdf":
        x = np.asarray(_require(req, "x"), dtype=float)
        b = TruncationBox(np.full(params.dim, -np.inf), x)
        if is_normal:
            value, err = mvn_prob(b, NormalParams(params.mu, params.sigma), cfg)
        else:
            value, err = tesn_prob_with_error(b, params, cfg)
        method_used = "normal-reduction"
    elif task == "prob":
        b = _default_box(params.dim, box)
        if is_normal:
            value, err = mvn_prob(b, NormalParams(params.mu, params.sigma), cfg)
            method_used = "deterministic" if params.dim <= 2 else "qmc"
        else:
            value, err = tesn_prob_with_error(b, params, cfg)
            method_used = "normal-reduction"
        if req.get("verify"):
            oracle = _scalar_oracle(
                mc_tesn_moment(b, params, (0,) * params.dim,
                               req.get("mc_samples", 1_000_000), cfg.seed))
    elif task == "moment":
        b = _default_box(params.dim, box)
        kappa = _require(req, "kappa")
        m = {"auto": "auto", "recurrence": "recurrence",
             "normal-reduction": "normal-reduction"}.get(method)
        if m is None:
            raise RequestError(f"method {method!r} is not valid for task 'moment'")
        value = tesn_moment(b, params, kappa, cfg, method=m)
        err = cfg.target_abs_error
        method_used = ("univariate-recurrence" if params.dim == 1 and m == "auto"
                       else ("normal-reduction" if m == "auto" else m))
        if req.get("verify"):
            oracle = _scalar_oracle(
                mc_tesn_moment(b, params, kappa,
                               req.get("mc_samples", 1_000_000), cfg.seed))
    elif task == "mean-cov":
        b = _default_box(params.dim, box)
        if is_normal:
            npar = NormalParams(params.mu, params.sigma)
            if method == "mgf":
                res = tn_first_two_mgf(b, npar, cfg)
                method_used = "mgf"
            else:
                res = tn_first_two_corrected(b, npar, cfg)
                method_used = "corrected-mgf"
        else:
            m = "recurrence" if method == "recurrence" else "normal-reduction"
            res = tesn_mean_cov(b, params, cfg, method=m)
            method_used = m
        corrections = res.corrections
        value = _moments_payload(res)
        err = cfg.target_abs_error
        if req.get("verify"):
            oracle = _mean_oracle(b, params, req.get("mc_samples", 1_000_000), cfg.seed)
    elif task == "folded-moment":
        kappa = _require(req, "kappa")
        m = {"auto": "orthant-sum", "orthant-sum": "orthant-sum",
             "normal-reduction": "normal-reduction"}.get(method)
        if m is None:
            raise RequestError(f"method {method!r} is not valid for task 'folded-moment'")
        value = fesn_moment(params, kappa, method=m, cfg=cfg)
        err = cfg.target_abs_error
        method_used = m
        if req.get("verify"):
            oracle = _scalar_oracle(
                mc_fesn_moment(params, kappa, req.get("mc_samples", 1_000_000),
                               cfg.seed))
    elif task == "folded-mean-cov":
        if method in ("auto", "explicit"):
            res = fesn_mean_cov(params, cfg)
            method_used = "explicit"
        elif method == "orthant-sum":
            res = fesn_mean_cov_orthant(params, cfg)
            method_used = "orthant-sum"
        else:
            raise RequestError(
                f"method {method!r} is not valid for task 'folded-mean-cov'")
        corrections = res.corrections
        value = _moments_payload(res)
        err = cfg.target_abs_error
    else:
        raise RequestError("task 'benchmark' is run with --benchmark")

    response = {
        "schema_version": SCHEMA_VERSION,
        "value": value,
        "abs_error_estimate": err,
        "method_used": method_used,
        "corrections_applied": list(corrections),
    }
    if oracle is not None:
        response["oracle"] = oracle
    return response


def _scalar_oracle(est) -> dict:
    return {
        "value": est.value,
        "std_error": est.std_error,
        "n_effective": est.n_effective,
        "seed": est.seed,
    }


def _mean_oracle(box, params, n, seed) -> dict:
    ests = [mc_tesn_moment(box, params, tuple(int(i == j) for j in range(params.dim)),
                           n, seed) for i in range(params.dim)]
    return {
        "mean": [e.value for e in ests],
        "std_error": [e.std_error for e in ests],
        "n_effective": ests[0].n_effective,
        "seed": seed,
    }


# ----------------------------------------------------------------------------
# benchmark harness


def _benchmark_instance(p: int, seed: int):
    rng = np.random.default_rng(seed + p)
    a_mat = rng.normal(size=(p, p))
    sigma = a_mat @ a_mat.T + p * np.eye(p)
    sd = np.sqrt(np.diag(sigma))
    mu = rng.normal(size=p) * 0.3
    lam = rng.normal(size=p) * 0.8
    tau = float(rng.normal() * 0.5)
    lower = mu - (0.4 + rng.random(p)) * sd
    upper = mu + (0.4 + rng.random(p)) * sd
    return TruncationBox(lower, upper), EsnParams(mu=mu, sigma=sigma, lam=lam, tau=tau)


def run_benchmark(dims, repetitions: int = 3, seed: int = 20240101,
                  out=sys.stdout) -> None:
    """Method comparison on doubly truncated mean/cov tasks.

    Prints CSV ``p,method,integral_count,median_ms``; integral counts are
    exact kernel-call counts, times are medians over ``repetitions`` runs.
    """
    if any(p > 10 for p in dims):
        raise RequestError("benchmark dimensions are capped at 10")
    out.write("p,method,integral_count,median_ms\n")
    for p in dims:
        box, params = _benchmark_instance(p, seed)
        cfg = QmcConfig(sample_count=2048, replicates=8, seed=seed)
        runners = {
            "recurrence": lambda: tesn_mean_cov(box, params, cfg, method="recurrence"),
            "normal-reduction": lambda: _mean_cov_nr_uncorrected(box, params, cfg),
        }
        for method, runner in runners.items():
            times = []
            count = None
            for _ in range(repetitions):
                with count_integrals() as counter:
                    t0 = time.perf_counter()
                    runner()
                    times.append(1e3 * (time.perf_counter() - t0))
                count = counter.total
            out.write(f"{p},{method},{count},{statistics.median(times):.3f}\n")


# ----------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="truncskew",
        description="Moments of truncated and folded (extended skew-)normal laws.",
    )
    parser.add_argument("--input", "-i", default=None, metavar="FILE",
                        help="JSON request file, or '-' for stdin")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the request's QMC/oracle seed")
    parser.add_argument("--verify", action="store_true",
                        help="attach a Monte Carlo oracle estimate")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing_ms in the response "
                             "(breaks byte-determinism of stdout)")
    parser.add_argument("--benchmark", default=None, metavar="P1,P2,...",
                        help="run the method benchmark at these dimensions")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="benchmark repetitions per method (default 3)")
    args = parser.parse_args(argv)

    try:
        if args.benchmark is not None:
            dims = [int(v) for v in args.benchmark.split(",") if v.strip()]
            run_benchmark(dims, repetitions=args.repetitions,
                          seed=args.seed if args.seed is not None else 20240101)
            return 0
        if args.input is None:
            parser.error("--input is required unless --benchmark is given")
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
        try:
            req = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RequestError(f"invalid JSON: {exc}") from exc
        if not isinstance(req, dict):
            raise RequestError("request must be a JSON object")
        if args.seed is not None:
            req.setdefault("qmc", {})["seed"] = args.seed
        if args.verify:
            req["verify"] = True
        t0 = time.perf_counter()
        response = _execute(req)
        elapsed_ms = 1e3 * (time.perf_counter() - t0)
        if args.timing:
            response["timing_ms"] = elapsed_ms
        sys.stdout.write(json.dumps(response, sort_keys=True) + "\n")
        sys.stderr.write(f"timing_ms={elapsed_ms:.2f}\n")
        return 0
    except RequestError as exc:
        sys.stderr.write(f"request error: {exc}\n")
        return 1
    except TruncskewError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
