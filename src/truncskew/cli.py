"""Batch command-line interface.

Reads one JSON request (file or stdin), writes one JSON response to stdout.
Identical request + seed yields byte-identical stdout; wall-clock timing is
reported on stderr (and in the response only with ``--timing``, since it is
inherently nondeterministic).  ``--benchmark`` runs the internal
method-comparison harness and emits CSV instead.

``_METHODS`` lists, per task, the request methods it accepts and the
``method_used`` each reports; the schema's ``method`` enum is built from it,
and any other method is a request error.  Requests are checked against the
published ``REQUEST_SCHEMA`` by a small built-in interpreter of the JSON
Schema keywords it uses (``_SCHEMA_KEYWORDS``).

Exit codes: 0 success, 1 request validation error, 2 numerical failure.
"""

import argparse
import dataclasses
import json
import math
import statistics
import sys
import time

import numpy as np

from .core import as_vector
from .errors import TruncskewError
from .esn import EsnParams, esn_pdf
from .folded import fesn_mean_cov, fesn_mean_cov_orthant, fesn_moment
from .moments import FirstTwoMoments, as_multi_index
from .mvn import DEFAULT_QMC, QmcConfig, TruncationBox, count_integrals
from .oracle import _mc_tesn_moments, mc_fesn_moment, mc_tesn_moment
from .tesn import tesn_mean_cov, tesn_moment, tesn_prob_with_error

SCHEMA_VERSION = 1

# task -> {accepted request method: method_used}: "auto" and every method
# value the task can report.  A "task:normal" entry replaces the task's own
# for the normal family.  Two labels also depend on the dimension: a normal
# prob at p >= 4 reports "qmc", and an auto moment at p = 1 reports
# "univariate-recurrence".
_METHODS = {
    "pdf": {"auto": "closed-form"},
    "cdf": {"auto": "normal-reduction", "normal-reduction": "normal-reduction"},
    "prob": {"auto": "normal-reduction", "normal-reduction": "normal-reduction"},
    "prob:normal": {"auto": "deterministic"},
    "moment": {"auto": "normal-reduction", "recurrence": "recurrence",
               "normal-reduction": "normal-reduction"},
    "mean-cov": {"auto": "normal-reduction", "recurrence": "recurrence",
                 "normal-reduction": "normal-reduction"},
    "mean-cov:normal": {"auto": "corrected-mgf", "mgf": "mgf"},
    "folded-moment": {"auto": "orthant-sum", "orthant-sum": "orthant-sum",
                      "normal-reduction": "normal-reduction"},
    "folded-mean-cov": {"auto": "explicit", "explicit": "explicit",
                        "orthant-sum": "orthant-sum"},
}

# the field that carries each task's point or multi-index
_ARGUMENT = {"pdf": "x", "cdf": "x", "moment": "kappa", "folded-moment": "kappa"}

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
        "task": {"enum": [t for t in _METHODS if ":" not in t]},
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
        "method": {"enum": sorted({m for table in _METHODS.values() for m in table})},
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


# the JSON Schema keywords _schema_error interprets: REQUEST_SCHEMA uses no
# others ("$schema" is an annotation)
_SCHEMA_KEYWORDS = frozenset({
    "$schema", "type", "enum", "const", "required", "properties",
    "additionalProperties", "items", "minItems", "maxItems", "minimum",
    "exclusiveMinimum", "anyOf", "not", "allOf", "if", "then",
})


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# JSON types of decoded values: a boolean is not a number, and 1.0 is an integer
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _json_equal(a, b) -> bool:
    """Equality of JSON values: a boolean equals only a boolean, 1 == 1.0."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _schema_error(value, schema) -> str | None:
    """Why ``value`` does not match ``schema``, or None if it does."""
    if schema is True:
        return None
    if schema is False:
        return f"{value!r} is not allowed"
    if "type" in schema and not _JSON_TYPES[schema["type"]](value):
        return f"{value!r} is not of type {schema['type']!r}"
    if "const" in schema and not _json_equal(value, schema["const"]):
        return f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_json_equal(value, v) for v in schema["enum"]):
        return f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f"{key!r} is a required property"
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        for key, item in value.items():
            if key not in props and extra is False:
                return f"additional property {key!r} is not allowed"
            err = _schema_error(item, props.get(key, extra))
            if err is not None:
                return err
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{value!r} has fewer than {schema['minItems']} items"
        if len(value) > schema.get("maxItems", math.inf):
            return f"{value!r} has more than {schema['maxItems']} items"
        for item in value:
            err = _schema_error(item, schema.get("items", True))
            if err is not None:
                return err
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return f"{value!r} is not above {schema['exclusiveMinimum']!r}"
    if "anyOf" in schema and all(_schema_error(value, s) is not None for s in schema["anyOf"]):
        return f"{value!r} is not valid under any of the given schemas"
    if "not" in schema and _schema_error(value, schema["not"]) is None:
        return f"{value!r} must not match {schema['not']!r}"
    for sub in schema.get("allOf", ()):
        err = _schema_error(value, sub)
        if err is not None:
            return err
    if "if" in schema and _schema_error(value, schema["if"]) is None:
        return _schema_error(value, schema.get("then", True))
    return None


class RequestError(ValueError):
    """Invalid request (exit code 1)."""


def _reject_constant(name: str):
    """``json.loads`` hook for NaN, Infinity and -Infinity, which JSON lacks."""
    raise RequestError(f"invalid JSON: {name} is not a JSON value")


def _is_finite(v) -> bool:
    """Whether every number in a JSON value is a finite double: ``json``
    reads a number beyond the double range as an infinity (1e400) or as an
    int that no double holds (a 400-digit integer)."""
    if isinstance(v, list):
        return all(map(_is_finite, v))
    try:
        return not _is_number(v) or math.isfinite(v)
    except OverflowError:
        return False


def _parse_request(req: dict):
    """Validated parameters, box (or None), QMC settings and the task's
    point or multi-index (or None)."""
    err = _schema_error(req, REQUEST_SCHEMA)
    if err is not None:
        raise RequestError(f"request does not match schema: {err}")
    fields = {**req["params"], **req.get("qmc", {})}
    if "x" in req:
        fields["x"] = req["x"]
    for name, value in fields.items():
        if not _is_finite(value):
            raise RequestError(f"{name}: a number is beyond the double range")
    field = _ARGUMENT.get(req["task"])
    if field is not None and field not in req:
        raise RequestError(f"task {req['task']!r} requires field {field!r}")
    par = req["params"]
    try:
        params = EsnParams(mu=par["mu"], sigma=par["sigma"],
                           lam=par.get("lambda", np.zeros(len(par["mu"]))),
                           tau=par.get("tau", 0.0))
        arg = None
        if field is not None:
            coerce = as_vector if field == "x" else as_multi_index
            arg = coerce(req[field], params.dim)
    except (TruncskewError, ValueError) as exc:
        raise RequestError(f"invalid parameters: {exc}") from exc
    box = None
    if "box" in req:
        raw = req["box"]
        lower, upper = (raw["lower"], raw["upper"]) if isinstance(raw, dict) else raw
        try:
            # float() reads every spelling of infinity: "inf", "+Infinity", " -INF "
            box = TruncationBox([float(v) for v in lower], [float(v) for v in upper])
        except (TruncskewError, ValueError, OverflowError) as exc:
            raise RequestError(f"invalid box: {exc}") from exc
        if box.dim != params.dim:
            raise RequestError("box dimension does not match parameters")
    # the schema lets 8.0 through as an integer; the kernels need an int
    qmc = {k: v if k == "target_abs_error" else int(v) for k, v in req.get("qmc", {}).items()}
    try:
        cfg = dataclasses.replace(DEFAULT_QMC, **qmc)
    except ValueError as exc:
        raise RequestError(f"invalid qmc settings: {exc}") from exc
    return params, box, cfg, arg


def _matrix(m: np.ndarray) -> dict:
    return {"dims": list(m.shape), "data": [[float(v) for v in row] for row in m]}


def _moments_payload(res: FirstTwoMoments) -> dict:
    return {
        "mean": [float(v) for v in res.mean],
        "raw2": _matrix(res.raw2),
        "cov": _matrix(res.cov),
    }


def _execute(req: dict) -> dict:
    params, box, cfg, arg = _parse_request(req)
    task, family = req["task"], req["family"]
    method = req.get("method", "auto")
    accepted = _METHODS.get(f"{task}:{family}", _METHODS[task])
    if method not in accepted:
        raise RequestError(f"method {method!r} is not valid for task {task!r}")
    method_used = accepted[method]
    b = box if box is not None else TruncationBox.unbounded(params.dim)
    n_mc = int(req.get("mc_samples", 1_000_000))
    err = cfg.target_abs_error
    res = oracle = None

    if task == "pdf":
        value, err = esn_pdf(arg, params), 0.0
    elif task in ("cdf", "prob"):
        if task == "cdf":
            b = TruncationBox(np.full(params.dim, -np.inf), arg)
        elif family == "normal" and params.dim > 3:  # past the trivariate kernel
            method_used = "qmc"
        value, err = tesn_prob_with_error(b, params, cfg)
        if task == "prob" and req.get("verify"):
            oracle = dataclasses.asdict(
                mc_tesn_moment(b, params, (0,) * params.dim, n_mc, cfg.seed))
    elif task == "moment":
        value = tesn_moment(b, params, arg, cfg, method=method)
        if params.dim == 1 and method == "auto":
            method_used = "univariate-recurrence"
        if req.get("verify"):
            oracle = dataclasses.asdict(mc_tesn_moment(b, params, arg, n_mc, cfg.seed))
    elif task == "mean-cov":
        res = tesn_mean_cov(b, params, cfg, method=method)
        if req.get("verify"):
            oracle = _mean_oracle(b, params, n_mc, cfg.seed)
    elif task == "folded-moment":
        value = fesn_moment(params, arg, method=method_used, cfg=cfg)
        if req.get("verify"):
            oracle = dataclasses.asdict(mc_fesn_moment(params, arg, n_mc, cfg.seed))
    else:
        res = (fesn_mean_cov if method_used == "explicit" else fesn_mean_cov_orthant)(
            params, cfg)

    response = {
        "schema_version": SCHEMA_VERSION,
        "value": _moments_payload(res) if res is not None else value,
        "abs_error_estimate": err,
        "method_used": method_used,
        "corrections_applied": list(res.corrections) if res is not None else [],
    }
    if oracle is not None:
        response["oracle"] = oracle
    return response


def _mean_oracle(box, params, n, seed) -> dict:
    ests = _mc_tesn_moments(box, params, np.eye(params.dim, dtype=int), n, seed)
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
    """Method comparison on doubly truncated mean/cov tasks at p = 1..10.

    Prints CSV ``p,method,integral_count,median_ms``; integral counts are
    exact kernel-call counts, times are medians over ``repetitions >= 1`` runs.
    The ``normal-reduction`` row runs ``method="mgf"``, the reduction
    without extreme-case screening, to isolate the method's own count.
    """
    if not dims or not all(1 <= p <= 10 for p in dims):
        raise RequestError("benchmark dimensions must be integers in 1..10")
    if repetitions < 1:
        raise RequestError("benchmark repetitions must be at least 1")
    try:
        cfg = QmcConfig(sample_count=2048, replicates=8, seed=seed)
    except ValueError as exc:
        raise RequestError(f"invalid seed: {exc}") from exc
    out.write("p,method,integral_count,median_ms\n")
    for p in dims:
        box, params = _benchmark_instance(p, seed)
        runners = {
            "recurrence": lambda: tesn_mean_cov(box, params, cfg, method="recurrence"),
            "normal-reduction": lambda: tesn_mean_cov(box, params, cfg, method="mgf"),
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
            try:
                dims = [int(v) for v in args.benchmark.split(",") if v.strip()]
            except ValueError as exc:
                raise RequestError(f"invalid benchmark dimensions {args.benchmark!r}") from exc
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
            req = json.loads(text, parse_constant=_reject_constant)
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
        try:
            text = json.dumps(response, sort_keys=True, allow_nan=False)
        except ValueError:
            sys.stderr.write("numerical failure: the result is not finite\n")
            return 2
        sys.stdout.write(text + "\n")
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
