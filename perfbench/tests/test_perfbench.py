"""Tests of the benchmark itself.

Run from the repository root (about four minutes on 2 cores):

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import execute  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import truncskew as ts  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# workload generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.tasks_for(workload, 7) == workloads.tasks_for(workload, 7)
    json.dumps(workloads.tasks_for(workload, 7))


@pytest.mark.parametrize("workload", ["lowdim-esn", "cli-requests"])
def test_seed_changes_inputs(workload):
    assert workloads.tasks_for(workload, 1) != workloads.tasks_for(workload, 2)


def test_task_lists_are_fixed():
    kinds = [(t["kind"], t["p"], t["case"], t["method"],
              None if t["kappa"] is None else tuple(t["kappa"]))
             for t in workloads.lowdim_tasks(3)]
    assert kinds == list(workloads.LOWDIM_PLAN)
    assert [t["p"] for t in workloads.meancov_tasks(3)] == list(workloads.POOL_DIMS)
    reqs = [t["request"] for t in workloads.cli_tasks(3)]
    assert {r["task"] for r in reqs} == {"pdf", "cdf", "prob", "moment", "mean-cov",
                                         "folded-moment", "folded-mean-cov"}
    assert {r["family"] for r in reqs} == {"normal", "sn", "esn"}
    assert sum(bool(r.get("verify")) for r in reqs) == 1


def test_pool_matches_generator():
    with open(os.path.join(BENCH, "pool.json")) as fh:
        pool = json.load(fh)["instances"]
    for p in workloads.POOL_DIMS:
        for k in range(workloads.POOL_SIZE):
            params, box = workloads.pool_instance(p, k)
            entry = pool[f"meancov/p{p}/k{k}"]
            assert entry["params"] == params and entry["box"] == box
            assert len(entry["value"]) == len(entry["u"]) == p + p * (p + 1) // 2


# ----------------------------------------------------------------------------
# references


def test_tallis_agrees_with_quadrature():
    """The scipy Tallis route reproduces the quadrature reference at p = 2."""
    t = next(t for t in workloads.lowdim_tasks(5)
             if t["kind"] == "meancov" and t["case"] == "regular")
    quad = refs.reference(ts, t)
    tallis, u = refs._tallis_reference(t)
    for a, b, ua, ub in zip(quad["value"], tallis, quad["u"], u):
        assert abs(a - b) <= 3 * (ua + ub) + 1e-6


def test_quadrature_and_gauss_legendre_agree():
    """The two independent reference routes agree on p <= 2 box moments."""
    tasks = [t for t in workloads.lowdim_tasks(5)
             if t["kind"] in ("moment", "meancov") and t["p"] == 2
             and t["case"] == "regular"]
    assert tasks
    for t in tasks:
        quad = refs.reference(ts, t)
        gl, _ = refs._gl_reference(t)
        for a, b, u in zip(quad["value"], gl, quad["u"]):
            assert abs(a - b) <= 1e-9 + 3 * u


def test_reference_routes():
    routes = {refs.route_for(t) for w in ("lowdim-esn", "cli-requests")
              for t in workloads.tasks_for(w, 1)}
    assert routes == {"quad", "scipy-mvn", "gauss-legendre"}
    assert all(refs.route_for(t) == "tallis" for t in workloads.meancov_tasks(1))


# ----------------------------------------------------------------------------
# tracer


def _traced(tasks):
    tr = tracer.Tracer()
    mismatches = []
    tr.install()
    try:
        t0 = time.perf_counter()
        for t in tasks:
            tr.task = t["id"]
            with ts.count_integrals() as counter:
                execute.run_task(ts, t)
            if tracer.kernel_counts(tr.spans, t["id"]) != dict(counter.by_dim):
                mismatches.append(t["id"])
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    return tr, wall, mismatches


@pytest.fixture(scope="module")
def lowdim_trace():
    tasks = [t for t in workloads.lowdim_tasks(4) if t["p"] <= 2]
    return _traced(tasks)


def test_counters_equal_count_integrals(lowdim_trace):
    tr, _, mismatches = lowdim_trace
    assert mismatches == []
    assert tracer.kernel_counts(tr.spans)


def test_self_times_within_wall(lowdim_trace):
    tr, wall, _ = lowdim_trace
    own = tracer.self_times(tr.spans)
    assert min(own) >= -1e-9
    assert sum(own) <= wall
    top = sum(s[2] - s[1] for s in tr.spans if s[3] < 0)
    assert abs(sum(own) - top) < 1e-6


def test_uninstall_restores_bindings():
    import truncskew.tn as tn

    before = (tn.mvn_prob, ts.tesn_mean_cov, tn.TnSession.fk)
    tr = tracer.Tracer()
    tr.install()
    assert tn.mvn_prob is not before[0]
    tr.uninstall()
    assert (tn.mvn_prob, ts.tesn_mean_cov, tn.TnSession.fk) == before


def test_roadmap_kernel_counts():
    sys.path.insert(0, BENCH)
    import baseline

    check = baseline.count_check()
    assert check["normal-reduction"]["by_dim"] == {"1": 7, "5": 72, "6": 13, "7": 1}
    assert check["recurrence"]["calls"] == 159
    assert all(c["matches_table"] for c in check.values())


# ----------------------------------------------------------------------------
# the command


def _run(workload, trace, cwd=ROOT, seconds="0.1"):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", "3",
                           "--seconds", seconds, "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(benchmark_json, workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.tasks_for(workload, 3))
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in benchmark_json[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        for name in expected:
            assert result["metrics"][name]["value"] > 0
        for name in ("task_p90_ms", "max_abs_err", "failed_frac"):
            assert name in proc.stdout
    elif workload == "meancov-highdim":
        assert result["metrics"]["mvn.qmc.busy_share"]["value"] >= 0.9


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("lowdim-esn", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_declared_metrics_match_the_harness(benchmark_json):
    assert [m["name"] for m in benchmark_json["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in benchmark_json["per_layer"]] == harness.per_layer_names()
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_times_are_scaled_by_the_host_reference():
    """Reference times twice the nominal, as on a host running at half
    speed, double the reported throughput and halve the reported latencies
    and set-up time."""
    host = hostspeed.Sampler()
    host.samples = [2 * hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S]
    tasks = [{"id": "a"}, {"id": "b"}]
    res = {"host": host, "peak_rss_mb": 1.0,
           "passes": [(0.3, [0.1, 0.2], [[0.0], [0.0]]), (0.5, [0.2, 0.3], [[0.0], [0.0]])]}
    verdicts = [{"err": 0.0, "reasons": []}] * 2
    m = harness.end_to_end("lowdim-esn", tasks, res, [1.0, 2.0, 3.0], host, verdicts)
    assert m["tasks_per_s"][0] == pytest.approx(2 * 4 / 0.8)
    assert m["task_p50_ms"][0] == pytest.approx(1e3 * 0.2 / 2)
    assert m["setup_s"][0] == pytest.approx(2.0 / 2)
