"""The benchmark harness behind ``run.py``: timing loops, the traced run,
reference checks and the report.  Import it only after
`run.checkout_paths`, which pins the BLAS pools and points ``sys.path`` at
the checkout.
"""

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import jsonschema

import execute
import first_calls
import hostspeed
import refs
import tracer
import truncskew as ts
import truncskew.cli  # noqa: F401  (the cli workload and the tracer use it)
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
              "peak_rss_mb": "MB"}

# accuracy tolerance of failed_frac, and the gross tolerance that regular
# (non-extreme) instances must meet for `correct`, each as a share of
# max(1, |reference|) on top of 3x the reference's own uncertainty
ACC_TOL = 1e-5
GROSS_TOL = 0.1
SETUP_RUNS = 5
IMPORT_RUNS = 3
REQUEST_TIMEOUT_S = 120
CLI_FIELDS = ("schema_version", "value", "abs_error_estimate", "method_used",
              "corrections_applied")
ORACLE_FIELDS = ("value", "std_error", "n_effective", "seed")


# ----------------------------------------------------------------------------
# timing loops


def timed_passes(tasks, call, seconds: float, min_passes: int = 1, sampler=None):
    """Run the fixed task list repeatedly until ``seconds`` have elapsed and
    at least ``min_passes`` passes are done.  Returns one
    ``(pass_s, latencies_s, outputs)`` per pass, ``pass_s`` being the sum of
    the latencies; ``call`` returns a task's outputs.  A
    `hostspeed.Sampler` given as ``sampler`` takes its reference times
    between tasks."""
    passes = []
    start = time.perf_counter()
    while True:
        lat, outs = [], []
        for task in tasks:
            if sampler is not None:
                sampler.maybe_sample()
            t0 = time.perf_counter()
            outs.append(call(task))
            lat.append(time.perf_counter() - t0)
        passes.append((sum(lat), lat, outs))
        if time.perf_counter() - start >= seconds and len(passes) >= min_passes:
            if sampler is not None:
                sampler.sample()
            return passes


def attempt(fn, task):
    """Outputs of ``fn(task)``, or the exception as a string."""
    try:
        return fn(task)
    except Exception as exc:  # a failing task is counted, never fatal
        return f"{type(exc).__name__}: {exc}"


def measure_setup(runs: int, sampler) -> list[float]:
    """`import truncskew` plus `first_calls.run` in fresh interpreters, with
    a host reference time before each and after the last.  One untimed run
    first compiles the byte code."""
    cmd = [sys.executable, os.path.join(HERE, "first_calls.py")]
    subprocess.run(cmd, check=True, capture_output=True, timeout=REQUEST_TIMEOUT_S)
    out = []
    for _ in range(runs):
        sampler.sample()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    sampler.sample()
    return out


def measure_import(runs: int) -> list[float]:
    """Cumulative `import truncskew` time from ``python -X importtime``."""
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import truncskew"],
                              check=True, capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "truncskew":
                out.append(int(fields[1]) * 1e-6)
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------------
# in-process workloads


def traced_passes(tasks, call, seconds: float, wraps=()):
    """Untraced and traced passes in turn until ``seconds`` have elapsed.
    The traced passes have every public function wrapped, and each
    ``(object, attribute, span name)`` of ``wraps``.  Returns the untraced
    passes, the traced passes, the per-pass layer metrics, the spans of the
    traced passes and the tasks whose kernel counts differ from
    `count_integrals`.  Pass k of each kind ran side by side, so their ratio
    is the tracing overhead under the same host conditions."""
    tr = tracer.Tracer()
    mismatches = set()

    def traced_call(task):
        tr.task = task["id"]
        with ts.count_integrals() as counter:
            out = attempt(call, task)
        if tracer.kernel_counts(tr.spans, task["id"]) != dict(counter.by_dim):
            mismatches.add(task["id"])
        return out

    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(timed_passes(tasks, call, 0.0)[0])
        tr.install()
        for obj, attr, name in wraps:
            tr.wrap_attribute(obj, attr, name)
        try:
            one = timed_passes(tasks, traced_call, 0.0)[0]
        finally:
            tr.uninstall()
        traced.append(one)
        layers.append(tracer.layer_metrics(tr.spans, tr.counts, one[0]))
        spans.append(list(tr.spans))
        tr.spans.clear()
        tr.counts.clear()
        if time.perf_counter() - start >= seconds:
            return plain, traced, layers, spans, sorted(mismatches)


def run_inprocess(tasks, seconds: float, trace: bool):
    def call(task):
        return attempt(lambda t: execute.run_task(ts, t), task)

    first_calls.run(ts)  # lazy set-up (lattice caches), untimed
    res = {}
    if not trace:
        res["host"] = hostspeed.Sampler()
        res["passes"] = timed_passes(tasks, call, seconds, sampler=res["host"])
        res["peak_rss_mb"] = peak_rss_mb(children=False)
        return res
    (res["passes"], res["traced"], res["layers"], res["spans"],
     res["count_mismatches"]) = traced_passes(tasks, call, seconds)
    return res


# ----------------------------------------------------------------------------
# cli-requests


def _cli_request(root, task):
    body = task["body"].encode()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "truncskew", "--input", "-"],
                          input=body, capture_output=True, cwd=root,
                          timeout=REQUEST_TIMEOUT_S)
    return {"seconds": time.perf_counter() - t0, "returncode": proc.returncode,
            "stdout": proc.stdout, "stderr": proc.stderr.decode(errors="replace")}


def _cli_inprocess(task):
    """One request through `truncskew.cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(task["body"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = truncskew.cli.main(["--input", "-"])
    finally:
        sys.stdin = saved
    return {"returncode": rc, "stdout": out.getvalue().encode()}


def run_cli(root, tasks, seconds: float, trace: bool):
    for task in tasks:
        # serialized here, so that only the CLI's own json.dumps is traced
        task["body"] = json.dumps(task["request"])

    def call(task):
        return _cli_request(root, task)

    def inprocess(task):
        return attempt(_cli_inprocess, task)

    # two passes at least, so that every request is repeated
    res = {}
    if not trace:
        res["host"] = hostspeed.Sampler()
        res["passes"] = timed_passes(tasks, call, seconds, min_passes=2, sampler=res["host"])
        res["peak_rss_mb"] = peak_rss_mb(children=True)
        return res
    res["passes"] = timed_passes(tasks, call, seconds / 2, min_passes=2)
    res["import_s"] = measure_import(IMPORT_RUNS)
    (res["inprocess"], res["traced"], res["layers"], res["spans"],
     res["count_mismatches"]) = traced_passes(
        tasks, inprocess, seconds / 2,
        wraps=[(jsonschema, "validate", "cli.validate"), (json, "dumps", "cli.serialize")])
    return res


def cli_layer_times(spans) -> dict[str, list[float]]:
    """Per-request validate / execute / serialize times of the traced
    in-process passes."""
    out = {"cli.validate_s": [], "cli.execute_s": [], "cli.serialize_s": []}
    for pass_spans in spans:
        by_task: dict[str, dict[str, float]] = {}
        for name, start, end, _, task, _ in pass_spans:
            if name in ("cli.validate", "cli.serialize", "cli.main"):
                d = by_task.setdefault(task, {"cli.validate": 0.0, "cli.serialize": 0.0,
                                              "cli.main": 0.0})
                d[name] += end - start
        for d in by_task.values():
            out["cli.validate_s"].append(d["cli.validate"])
            out["cli.serialize_s"].append(d["cli.serialize"])
            out["cli.execute_s"].append(d["cli.main"] - d["cli.validate"]
                                        - d["cli.serialize"])
    return out


# ----------------------------------------------------------------------------
# references and checks


def load_references(workload, tasks):
    if workload == "meancov-highdim":
        with open(os.path.join(HERE, "pool.json")) as fh:
            pool = json.load(fh)["instances"]
        out = []
        for t in tasks:
            entry = pool[t["id"]]
            if entry["params"] != t["params"] or entry["box"] != t["box"]:
                raise RuntimeError(f"pool.json does not match the generator for {t['id']}")
            out.append({k: entry[k] for k in ("value", "u", "route")})
        return out
    return [refs.reference(ts, t) for t in tasks]


def compare(outputs, ref):
    """(max abs error, misses accuracy tolerance, misses gross tolerance)."""
    if isinstance(outputs, str) or len(outputs) != len(ref["value"]):
        return math.inf, True, True
    worst, miss, gross = 0.0, False, False
    for v, r, u in zip(outputs, ref["value"], ref["u"]):
        err = abs(v - r)
        if not math.isfinite(err):
            return math.inf, True, True
        scale = max(1.0, abs(r))
        worst = max(worst, err)
        miss |= err > 3.0 * u + ACC_TOL * scale
        gross |= err > 3.0 * u + GROSS_TOL * scale
    return worst, miss, gross


def check_cli(task, first, result, ref):
    """Problems with one CLI response (empty if none) and its outputs."""
    problems = []
    if result["returncode"] != 0:
        return [f"exit code {result['returncode']}: {result['stderr'].strip()[-200:]}"], None
    if result["stdout"] != first["stdout"]:
        problems.append("stdout differs from the first run of the same request")
    try:
        resp = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return problems + ["stdout is not JSON"], None
    missing = [f for f in CLI_FIELDS if f not in resp]
    if task["request"].get("verify"):
        oracle = resp.get("oracle", {})
        missing += [f"oracle.{f}" for f in ORACLE_FIELDS if f not in oracle]
        if not missing:
            err = abs(oracle["value"] - ref["value"][0])
            if err > 5.0 * oracle["std_error"] + 3.0 * ref["u"][0]:
                problems.append(f"oracle off by {err:.3g} ({oracle['std_error']:.3g} s.e.)")
    if missing:
        return problems + [f"missing fields {missing}"], None
    return problems, execute.response_outputs(task, resp["value"])


def evaluate(workload, tasks, res, references):
    """Per-task verdicts: outputs, max error, and the reasons it failed."""
    verdicts = []
    for i, task in enumerate(tasks):
        reasons, gross = [], False
        if workload == "cli-requests":
            first = res["passes"][0][2][i]
            outputs = None
            for run in (p[2][i] for p in res["passes"]):
                problems, outs = check_cli(task, first, run, references[i])
                reasons += problems
                outputs = outs if outputs is None else outputs
            for p in res.get("inprocess", []) + res.get("traced", []):
                got = p[2][i]
                if not isinstance(got, dict) or got["stdout"] != first["stdout"]:
                    reasons.append("in-process stdout differs from the CLI process")
            gross = bool(reasons)
            outputs = outputs if outputs is not None else "no usable response"
        else:
            outputs = res["passes"][0][2][i]
            runs = [p[2][i] for p in res["passes"][1:] + res.get("traced", [])]
            if any(r != outputs for r in runs):
                reasons.append("outputs differ between passes")
                gross = True
        if isinstance(outputs, str):
            reasons.append(outputs)
        err, miss, gross_miss = compare(outputs, references[i])
        if miss and not isinstance(outputs, str):
            reasons.append(f"error {err:.3g} beyond tolerance")
        verdicts.append({"id": task["id"], "err": err, "reasons": sorted(set(reasons)),
                         "raised": isinstance(outputs, str),
                         "gross": gross or (gross_miss and task["case"] == "regular")})
    return verdicts


# ----------------------------------------------------------------------------
# reporting


def _percentile(values, q):
    s = sorted(values)
    k = (len(s) - 1) * q
    lo, hi = math.floor(k), math.ceil(k)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def end_to_end(workload, tasks, res, setup, setup_host, verdicts):
    """End-to-end metrics with their notes.  Times are in nominal seconds
    (`hostspeed`): the measured time scaled by the host reference times
    taken during the same part of the run; the raw figure is in the note."""
    passes = res["passes"]
    k, k_setup = res["host"].scale(), setup_host.scale()
    lat = [x for p in passes for x in p[1]]
    total = sum(p[0] for p in passes)
    n_fail = sum(1 for v in verdicts if v["reasons"])
    finite = [v["err"] for v in verdicts if math.isfinite(v["err"])]
    p50, p90 = statistics.median(lat), _percentile(lat, 0.9)
    n_beyond = sum(x > p90 for x in lat)
    host = f"host scale {k:.3f} from {len(res['host'].samples)} references"
    m = {
        "setup_s": (k_setup * statistics.median(setup),
                    f"median of {len(setup)} fresh interpreters, raw "
                    f"{statistics.median(setup):.4g} s, host scale {k_setup:.3f}"),
        "tasks_per_s": (len(lat) / (k * total),
                        f"{len(lat)} tasks in {len(passes)} passes of {len(tasks)} / "
                        f"their summed latency; raw {len(lat) / total:.4g}/s, {host}"),
        "task_p50_ms": (1e3 * k * p50, f"n={len(lat)}; raw {1e3 * p50:.4g} ms"),
        "task_p90_ms": ((1e3 * k * p90, f"n={len(lat)}, {n_beyond} beyond; raw "
                         f"{1e3 * p90:.4g} ms") if n_beyond >= 10 else
                        (None, f"not reported: n={len(lat)} leaves fewer than 10 "
                               "samples beyond p90")),
        "max_abs_err": (max(finite) if finite else math.nan,
                        f"over {len(finite)} tasks with outputs"),
        "failed_frac": (n_fail / len(tasks), f"{n_fail} of {len(tasks)} tasks"),
        "peak_rss_mb": (res["peak_rss_mb"], "ru_maxrss of the "
                        + ("request processes" if workload == "cli-requests"
                           else "benchmark process")),
    }
    return m


UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms",
         "max_abs_err": "1", "failed_frac": "1", "peak_rss_mb": "MB"}


def per_layer(workload, res):
    names = per_layer_names()
    layers = res["layers"]
    out = {}
    for name in names:
        vals = [lm.get(name, 0.0) for lm in layers]
        out[name] = statistics.median(vals)
    if workload == "cli-requests":
        times = cli_layer_times(res["spans"])
        for name, vals in times.items():
            out[name] = statistics.median(vals)
        out["cli.process_s"] = statistics.median(x for p in res["passes"] for x in p[1])
        out["cli.import_s"] = statistics.median(res["import_s"])
        plain = res["inprocess"]
    else:
        plain = res["passes"]
    out["trace.pass_s"] = statistics.median(p[0] for p in res["traced"])
    out["trace.overhead_pct"] = 100.0 * (statistics.median(
        t[0] / u[0] for t, u in zip(res["traced"], plain)) - 1.0)
    return out


def per_layer_names():
    names = ["mvn.calls"] + [f"mvn.calls.d{d}" for d in range(1, tracer.MAX_DIM + 1)]
    names += ["mvn.cdf.busy_s", "mvn.bvn.busy_s", "mvn.qmc.busy_s", "mvn.qmc.busy_share",
              "mvn.qmc.points", "mvn.err_est_max",
              "core.conditional_normal.calls", "core.conditional_normal.busy_s",
              "esn.derive.calls", "esn.derive.busy_s", "esn.augment.calls",
              "tn.mgf_work.calls", "tn.mgf_work.busy_s", "tn.mgf_work.self_s",
              "tn.corrected.calls", "tn.corrections",
              "tn.session.fk.calls", "tn.session.memo_hit_ratio",
              "tesn.busy_s", "tesn.self_s", "tesn.session.fk.calls",
              "tesn.session.memo_hit_ratio",
              "folded.busy_s", "folded.self_s", "oracle.busy_s", "oracle.samples",
              "cli.process_s", "cli.import_s", "cli.validate_s", "cli.execute_s",
              "cli.serialize_s", "trace.pass_s", "trace.overhead_pct"]
    return names


PER_LAYER_UNITS = {"calls": "count", "points": "count", "samples": "count",
                   "corrections": "count", "ratio": "1", "share": "1", "max": "1",
                   "pct": "%"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    last = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    if last.startswith("d") and last[1:].isdigit():
        return "count"
    return PER_LAYER_UNITS.get(last, "1")


# ----------------------------------------------------------------------------
# entry point


def main(workload: str, seed: int, seconds: float, trace: bool, root: str) -> int:
    tasks = workloads.tasks_for(workload, seed)
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}  tasks {len(tasks)}")
    setup_host = hostspeed.Sampler()
    setup = [] if trace else measure_setup(SETUP_RUNS, setup_host)
    if workload == "cli-requests":
        res = run_cli(root, tasks, seconds, trace)
    else:
        res = run_inprocess(tasks, seconds, trace)
    references = load_references(workload, tasks)
    verdicts = evaluate(workload, tasks, res, references)

    # per task of the fixed list, whatever the number of passes
    attempted = len(tasks)
    failed = sum(1 for v in verdicts if v["reasons"])
    correct = not any(v["gross"] or v["raised"] for v in verdicts)
    for v in verdicts:
        if v["reasons"]:
            print(f"  failed {v['id']}: {'; '.join(v['reasons'])}")
    if trace:
        correct = correct and not res["count_mismatches"]
        for tid in res["count_mismatches"]:
            print(f"  kernel counts differ from count_integrals on {tid}")
        layer = per_layer(workload, res)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
        for k, v in layer.items():
            print(f"{k:32s} {v:14.6g} {per_layer_unit(k)}")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{workload}-{seed}.jsonl")
        tracer.write_spans(path, res["spans"])
        print(f"spans written to {os.path.relpath(path, root)}")
    else:
        e2e = end_to_end(workload, tasks, res, setup, setup_host, verdicts)
        for k, (v, note) in e2e.items():
            shown = "n/a" if v is None else f"{v:.6g}"
            print(f"{k:14s} {shown:>12s} {UNITS[k]:4s} ({note})")
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
