import ast
import contextlib
import copy
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from truncskew import EsnParams
from truncskew.cli import main, run_benchmark
from truncskew.esn import esn_limit_params, esn_pdf
from truncskew.oracle import quad_oracle_2d

from conftest import unresolved_limit_box

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "truncskew", *args],
        input=stdin_text, capture_output=True, text=True,
    )
    return proc


def _run_inprocess(request):
    """``main(["--input", "-"])`` in this process; returns (exit code,
    stdout, stderr).  ``request`` is a dict or the raw JSON text."""
    text = request if isinstance(request, str) else json.dumps(request)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["--input", "-"])
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _approx_equal(a, b, rel=1e-9, abs_tol=1e-12):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _approx_equal(a[k], b[k], rel, abs_tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _approx_equal(x, y, rel, abs_tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)
    return a == b


class TestGolden:
    @pytest.mark.parametrize("name", [
        p.stem for p in sorted(DOCS.glob("*.json"))
        if not p.stem.endswith(".expected") and ".expected" not in p.name
    ])
    def test_documented_example(self, name):
        request = DOCS / f"{name}.json"
        expected = json.loads((DOCS / f"{name}.expected.json").read_text())
        proc = _run_cli(["--input", str(request)])
        assert proc.returncode == 0, proc.stderr
        actual = json.loads(proc.stdout)
        assert _approx_equal(actual, expected), (
            f"golden mismatch for {name}:\n{actual}\n!=\n{expected}")

    def test_cdf_esn_within_error_estimate_of_quadrature(self):
        # pins the golden to an independent reference, not to earlier output
        request = json.loads((DOCS / "cdf_esn.json").read_text())
        par = request["params"]
        params = EsnParams(mu=par["mu"], sigma=par["sigma"], lam=par["lambda"],
                           tau=par["tau"])
        x = request["x"]
        ref = quad_oracle_2d(lambda u, v: esn_pdf(np.array([u, v]), params),
                             -np.inf, x[0], -np.inf, x[1], tol=1e-8)
        out = json.loads(_run_cli(["--input", str(DOCS / "cdf_esn.json")]).stdout)
        assert abs(out["value"] - ref) <= out["abs_error_estimate"]

    def test_halfline_value(self):
        proc = _run_cli(["--input", str(DOCS / "prob_halfline_normal.json")])
        out = json.loads(proc.stdout)
        assert out["value"] == 0.5
        assert out["schema_version"] == 1
        assert out["corrections_applied"] == []

    def test_extreme_case_corrections(self):
        proc = _run_cli(["--input", str(DOCS / "mean_cov_extreme.json")])
        out = json.loads(proc.stdout)
        assert out["corrections_applied"] == ["out-of-bounds coord 1"]
        mean = out["value"]["mean"]
        assert -20.0 <= mean[0] <= -9.0 and -10.0 <= mean[1] <= 10.0

    def test_trivariate_normal_prob_within_error_estimate(self):
        # dim 3 runs the deterministic trivariate kernel; the reference is
        # scipy's randomized lattice rule, converged to ~1e-12 on this box
        from scipy.stats import multivariate_normal

        request = json.loads((DOCS / "prob_trivariate_normal.json").read_text())
        par, box = request["params"], request["box"]
        ref = multivariate_normal.cdf(box["upper"], par["mu"], par["sigma"],
                                      lower_limit=box["lower"], abseps=1e-13,
                                      releps=0, maxpts=5_000_000, rng=0)
        rc, out, err = _run_inprocess(request)
        assert rc == 0, err
        out = json.loads(out)
        assert out["method_used"] == "deterministic"
        assert abs(out["value"] - ref) <= out["abs_error_estimate"]

    def test_verify_oracle_within_band(self):
        proc = _run_cli(["--input", str(DOCS / "folded_moment_verify.json")])
        out = json.loads(proc.stdout)
        oracle = out["oracle"]
        assert abs(out["value"] - oracle["value"]) <= 4 * oracle["std_error"]


class TestValidation:
    def test_malformed_json(self):
        proc = _run_cli(["--input", "-"], stdin_text="{not json")
        assert proc.returncode == 1
        assert "request error" in proc.stderr

    def test_schema_rejects_lambda_for_normal(self):
        req = {"task": "prob", "family": "normal",
               "params": {"mu": [0.0], "sigma": [[1.0]], "lambda": [1.0]},
               "box": [["-inf"], [0.0]]}
        proc = _run_cli(["--input", "-"], stdin_text=json.dumps(req))
        assert proc.returncode == 1

    def test_schema_rejects_tau_for_sn(self):
        req = {"task": "prob", "family": "sn",
               "params": {"mu": [0.0], "sigma": [[1.0]], "lambda": [1.0],
                          "tau": 0.5},
               "box": [["-inf"], [0.0]]}
        proc = _run_cli(["--input", "-"], stdin_text=json.dumps(req))
        assert proc.returncode == 1

    def test_schema_rejects_unknown_task(self):
        req = {"task": "quantile", "family": "normal",
               "params": {"mu": [0.0], "sigma": [[1.0]]}}
        proc = _run_cli(["--input", "-"], stdin_text=json.dumps(req))
        assert proc.returncode == 1

    def test_missing_kappa(self):
        req = {"task": "moment", "family": "normal",
               "params": {"mu": [0.0], "sigma": [[1.0]]},
               "box": [[0.0], [1.0]]}
        proc = _run_cli(["--input", "-"], stdin_text=json.dumps(req))
        assert proc.returncode == 1

    def test_box_dimension_mismatch(self):
        req = {"task": "prob", "family": "normal",
               "params": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
               "box": [[0.0], [1.0]]}
        proc = _run_cli(["--input", "-"], stdin_text=json.dumps(req))
        assert proc.returncode == 1

    def test_numerical_failure_exit_code(self):
        req = {"task": "moment", "family": "normal",
               "params": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
               "box": [[-60.0, -60.0], [-55.0, -55.0]], "kappa": [1, 0]}
        proc = _run_cli(["--input", "-"], stdin_text=json.dumps(req))
        assert proc.returncode == 2
        assert "numerical failure" in proc.stderr

    @pytest.mark.parametrize("task, field, value", [
        ("pdf", "x", [0.5]),
        ("cdf", "x", [0.5, 0.1, 0.2]),
        ("moment", "kappa", [1]),
        ("folded-moment", "kappa", [1, 0, 0]),
    ])
    def test_argument_of_wrong_length(self, task, field, value):
        req = {"task": task, "family": "normal",
               "params": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
               field: value}
        rc, out, err = _run_inprocess(req)
        assert rc == 1 and out == ""
        assert "request error" in err

    def test_ragged_sigma(self):
        req = {"task": "prob", "family": "normal",
               "params": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0]]}}
        rc, out, err = _run_inprocess(req)
        assert rc == 1 and out == ""
        assert "request error" in err

    @pytest.mark.parametrize("lower, upper", [
        ("0", "inf"), ("0", "+Infinity"), (" -INF ", "0"), ("-inf", 0),
    ])
    def test_bound_spellings(self, lower, upper):
        req = {"task": "prob", "family": "normal",
               "params": {"mu": [0.0], "sigma": [[1.0]]},
               "box": [[lower], [upper]]}
        rc, out, err = _run_inprocess(req)
        assert rc == 0, err
        assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-15)

    def test_unreadable_bound(self):
        req = {"task": "prob", "family": "normal",
               "params": {"mu": [0.0], "sigma": [[1.0]]},
               "box": [["abc"], [0.0]]}
        rc, out, err = _run_inprocess(req)
        assert rc == 1 and "request error" in err

    @pytest.mark.parametrize("text", [
        '{"task": "pdf", "family": "normal", "params": {"mu": [0], "sigma": [[1]]}, "x": [NaN]}',
        '{"task": "prob", "family": "normal", "params": {"mu": [NaN], "sigma": [[1]]},'
        ' "box": [[-1], [1]]}',
        '{"task": "prob", "family": "normal", "params": {"mu": [0], "sigma": [[Infinity]]},'
        ' "box": [[-1], [1]]}',
        '{"task": "pdf", "family": "esn",'
        ' "params": {"mu": [0], "sigma": [[1]], "lambda": [1], "tau": NaN}, "x": [0]}',
        '{"task": "cdf", "family": "normal", "params": {"mu": [0], "sigma": [[1]]},'
        ' "x": [-Infinity]}',
    ])
    def test_non_json_constants_rejected(self, text):
        # Python's json reads NaN and +-Infinity; RFC 8259 has no such literals
        rc, out, err = _run_inprocess(text)
        assert rc == 1 and out == ""
        assert err.startswith("request error: invalid JSON")

    @pytest.mark.parametrize("field, value", [
        ("sample_count", 1000), ("replicates", 8), ("seed", 5),
    ])
    def test_integral_float_qmc_field(self, field, value):
        # a p = 4 ESN probability integrates a 5-dim normal by lattice QMC
        req = {"task": "prob", "family": "esn",
               "params": {"mu": [0.0] * 4, "sigma": np.eye(4).tolist(),
                          "lambda": [0.5, 0.2, 0.0, 0.1], "tau": 0.3},
               "box": [[-1.0] * 4, [1.0] * 4],
               "qmc": {"sample_count": 1024, field: float(value)}}
        as_float = _run_inprocess(req)  # first, so no cache holds the int's work
        req["qmc"][field] = value
        assert as_float[:2] == _run_inprocess(req)[:2]
        assert as_float[0] == 0

    def test_integral_float_mc_samples(self):
        req = {"task": "folded-moment", "family": "sn",
               "params": {"mu": [0.1], "sigma": [[1.0]], "lambda": [1.0]},
               "kappa": [1], "verify": True, "mc_samples": 1000.0}
        as_float = _run_inprocess(req)
        req["mc_samples"] = 1000
        assert as_float[:2] == _run_inprocess(req)[:2]
        assert as_float[0] == 0

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2^128"])
    def test_seed_outside_key_range_is_a_request_error(self, seed):
        req = {"task": "prob", "family": "normal",
               "params": {"mu": [0.0], "sigma": [[1.0]]}, "box": [[-1.0], [1.0]],
               "qmc": {"seed": seed}}
        rc, out, err = _run_inprocess(req)
        assert rc == 1 and out == ""
        assert err.startswith("request error:")

    def test_negative_seed_flag_with_verify(self):
        req = {"task": "prob", "family": "normal",
               "params": {"mu": [0.0], "sigma": [[1.0]]}, "box": [[-1.0], [1.0]]}
        proc = _run_cli(["--input", "-", "--seed", "-5", "--verify"], stdin_text=json.dumps(req))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("request error:")

    @pytest.mark.parametrize("text", [
        '{"task": "pdf", "family": "normal", "params": {"mu": [1e400], "sigma": [[1]]},'
        ' "x": [0]}',
        '{"task": "prob", "family": "normal", "params": {"mu": [0], "sigma": [[1e400]]},'
        ' "box": [[-1], [1]]}',
        '{"task": "pdf", "family": "esn",'
        ' "params": {"mu": [0], "sigma": [[1]], "lambda": [-1e400], "tau": 0}, "x": [0]}',
        '{"task": "pdf", "family": "esn",'
        ' "params": {"mu": [0], "sigma": [[1]], "lambda": [1], "tau": 1e400}, "x": [0]}',
        '{"task": "cdf", "family": "normal", "params": {"mu": [0], "sigma": [[1]]},'
        ' "x": [-1e400]}',
        '{"task": "prob", "family": "normal", "params": {"mu": [0], "sigma": [[1]]},'
        ' "box": [[-1], [1]], "qmc": {"target_abs_error": 1e400}}',
        '{"task": "pdf", "family": "normal", "params": {"mu": [1' + '0' * 400 + '],'
        ' "sigma": [[1]]}, "x": [0]}',
    ], ids=["mu", "sigma", "lambda", "tau", "x", "qmc", "long-integer"])
    def test_number_beyond_double_range_rejected(self, text):
        # json reads 1e400 as inf and a 400-digit integer as an int no double holds
        rc, out, err = _run_inprocess(text)
        assert rc == 1 and out == ""
        assert err.startswith("request error:")

    def test_box_limits_beyond_double_range_are_infinite(self):
        rc, out, err = _run_inprocess(
            '{"task": "prob", "family": "normal", "params": {"mu": [0], "sigma": [[1]]},'
            ' "box": [[-1e400], [1e400]]}')
        assert rc == 0, err
        assert json.loads(out)["value"] == 1.0

    def test_non_finite_result_is_a_numerical_failure(self):
        # E[X^4] = 3e600 overflows; the response would not be JSON
        req = {"task": "moment", "family": "normal",
               "params": {"mu": [0.0], "sigma": [[1e300]]}, "kappa": [4]}
        with np.errstate(over="ignore", invalid="ignore"):
            rc, out, err = _run_inprocess(req)
        assert rc == 2 and out == ""
        assert err.startswith("numerical failure:")

    def test_verify_draws_mc_samples(self):
        req = {"task": "prob", "family": "sn",
               "params": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.3], [0.3, 1.0]],
                          "lambda": [1.0, -0.5]},
               "box": [[-1.0, -1.0], [1.0, 1.0]], "verify": True, "mc_samples": 1000}
        rc, out, err = _run_inprocess(req)
        assert rc == 0, err
        assert json.loads(out)["oracle"]["n_effective"] == 1000

    def test_mean_cov_verify_draws_one_sample(self, monkeypatch):
        # every coordinate's mean comes from one accepted sample (a pilot of
        # 10^4 draws and one chunk of the rest), and the response keeps the
        # bytes of one sample per coordinate at the same seed
        import truncskew.oracle as oracle

        draws = []
        sample = oracle.sample_with_rng

        def counted(p, n, rng):
            draws.append(n)
            return sample(p, n, rng)

        monkeypatch.setattr(oracle, "sample_with_rng", counted)
        rc, out, err = _run_inprocess((DOCS / "mean_cov_verify.json").read_text())
        assert rc == 0, err
        assert draws == [10_000, 190_000]
        assert out == (DOCS / "mean_cov_verify.expected.json").read_text()


# (task, family kind) -> {accepted method: method_used} at p = 2
_REDUCTION = {"auto": "normal-reduction", "normal-reduction": "normal-reduction"}
_RECURRENCE = {**_REDUCTION, "recurrence": "recurrence"}
_FOLDED_MOMENT = {"auto": "orthant-sum", "orthant-sum": "orthant-sum",
                  "normal-reduction": "normal-reduction"}
_FOLDED_MEAN_COV = {"auto": "explicit", "explicit": "explicit",
                    "orthant-sum": "orthant-sum"}
EXPECTED_METHODS = {
    ("pdf", "normal"): {"auto": "closed-form"},
    ("pdf", "skew"): {"auto": "closed-form"},
    ("cdf", "normal"): _REDUCTION,
    ("cdf", "skew"): _REDUCTION,
    ("prob", "normal"): {"auto": "deterministic"},
    ("prob", "skew"): _REDUCTION,
    ("moment", "normal"): _RECURRENCE,
    ("moment", "skew"): _RECURRENCE,
    ("mean-cov", "normal"): {"auto": "corrected-mgf", "mgf": "mgf"},
    ("mean-cov", "skew"): _RECURRENCE,
    ("folded-moment", "normal"): _FOLDED_MOMENT,
    ("folded-moment", "skew"): _FOLDED_MOMENT,
    ("folded-mean-cov", "normal"): _FOLDED_MEAN_COV,
    ("folded-mean-cov", "skew"): _FOLDED_MEAN_COV,
}

ALL_METHODS = ["auto", "recurrence", "normal-reduction", "mgf", "orthant-sum",
               "explicit"]


def _method_request(task, family, method, p=2):
    par = {"mu": [0.1, -0.2, 0.3, 0.0][:p],
           "sigma": [[1.0 if i == j else 0.3 for j in range(p)] for i in range(p)]}
    if family != "normal":
        par["lambda"] = [0.6, -0.4, 0.2, 0.1][:p]
    if family == "esn":
        par["tau"] = 0.3
    req = {"task": task, "family": family, "params": par, "method": method,
           "qmc": {"sample_count": 1024, "replicates": 8}}
    if task in ("pdf", "cdf"):
        req["x"] = [0.2] * p
    if task in ("prob", "moment", "mean-cov"):
        req["box"] = [[-1.0] + ["-inf"] * (p - 1), [1.5] * p]
    if task in ("moment", "folded-moment"):
        req["kappa"] = [1] * p
    return req


class TestMethodTable:
    @pytest.mark.parametrize("family", ["normal", "sn", "esn"])
    @pytest.mark.parametrize("task", ["pdf", "cdf", "prob", "moment", "mean-cov",
                                      "folded-moment", "folded-mean-cov"])
    def test_accepted_and_rejected_methods(self, task, family):
        accepted = EXPECTED_METHODS[task, "normal" if family == "normal" else "skew"]
        for method in ALL_METHODS:
            rc, out, err = _run_inprocess(_method_request(task, family, method))
            if method in accepted:
                assert rc == 0, (method, err)
                assert json.loads(out)["method_used"] == accepted[method], method
            else:
                assert rc == 1 and out == "", method
                assert f"method {method!r} is not valid for task {task!r}" in err

    def test_schema_lists_every_method(self):
        from truncskew.cli import REQUEST_SCHEMA

        enum = REQUEST_SCHEMA["properties"]["method"]["enum"]
        assert sorted(enum) == sorted(ALL_METHODS)
        rc, _, err = _run_inprocess(_method_request("prob", "normal", "quadrature"))
        assert rc == 1 and "does not match schema" in err

    @pytest.mark.parametrize("task, family, method, p, label", [
        ("moment", "sn", "auto", 1, "univariate-recurrence"),
        ("moment", "sn", "recurrence", 1, "recurrence"),
        ("prob", "normal", "auto", 3, "deterministic"),
        ("prob", "normal", "auto", 4, "qmc"),
    ])
    def test_dimension_dependent_labels(self, task, family, method, p, label):
        rc, out, err = _run_inprocess(_method_request(task, family, method, p))
        assert rc == 0, err
        assert json.loads(out)["method_used"] == label


class TestMeanCovRoute:
    def test_recurrence_below_switch_point_runs_the_recurrence(self):
        # tau_tilde = -40; the box is 9-10 sd above the limiting law's mean
        lam, sigma = 1.5, 2.0
        params = EsnParams(mu=[0.3], sigma=[[sigma]], lam=[lam],
                           tau=-40.0 * math.sqrt(1.0 + lam * lam))
        lim = esn_limit_params(params)
        loc, sd = float(lim.mu[0]), math.sqrt(lim.sigma[0, 0])
        req = {"task": "mean-cov", "family": "esn", "method": "recurrence",
               "params": {"mu": [0.3], "sigma": [[sigma]], "lambda": [lam],
                          "tau": params.tau},
               "box": [[loc + 9.0 * sd], [loc + 10.0 * sd]]}
        rc, out, err = _run_inprocess(req)
        assert rc == 0, err
        response = json.loads(out)
        assert response["method_used"] == "recurrence"
        assert response["corrections_applied"] == ["limit-tau"]
        assert response["value"]["cov"]["data"][0][0] > 0.0

    @pytest.mark.parametrize("task, method, code", [
        ("mean-cov", "recurrence", 2), ("moment", "recurrence", 2),
        ("moment", "normal-reduction", 2), ("mean-cov", "normal-reduction", 0),
    ])
    def test_unresolved_box_exits_2(self, task, method, code):
        # a box whose mass is below the kernel's error estimate: only the
        # corrected path answers, by pinning coordinate 1
        box, pr = unresolved_limit_box()
        req = {"task": task, "family": "esn", "method": method,
               "params": {"mu": pr.mu.tolist(), "sigma": pr.sigma.tolist(),
                          "lambda": pr.lam.tolist(), "tau": pr.tau},
               "box": [box.lower.tolist(), box.upper.tolist()]}
        if task == "moment":
            req["kappa"] = [2, 0, 0]
        rc, out, err = _run_inprocess(req)
        assert rc == code, err
        if code == 2:
            assert out == "" and "numerically zero" in err
        else:
            response = json.loads(out)
            assert response["corrections_applied"] == ["limit-tau", "out-of-bounds coord 1"]
            assert response["value"]["cov"]["data"][0][0] == 0.0


class TestDeterminism:
    def test_byte_identical_across_runs(self):
        req = (DOCS / "cdf_esn.json").read_text()
        first = _run_cli(["--input", "-"], stdin_text=req)
        second = _run_cli(["--input", "-"], stdin_text=req)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_seed_override_changes_qmc_result(self):
        # a p = 3 ESN cdf integrates a 4-dim normal by QMC (dim 3 is deterministic)
        req = json.dumps({
            "task": "cdf", "family": "esn",
            "params": {"mu": [0.0, 0.1, -0.2],
                       "sigma": [[1.0, 0.25, 0.1], [0.25, 1.0, -0.2], [0.1, -0.2, 1.0]],
                       "lambda": [0.7, -0.3, 0.4], "tau": 0.2},
            "x": [0.5, 0.1, 0.3],
            "qmc": {"sample_count": 4096, "replicates": 10, "seed": 7},
        })
        base = _run_cli(["--input", "-"], stdin_text=req)
        reseeded = _run_cli(["--input", "-", "--seed", "12345"], stdin_text=req)
        assert json.loads(base.stdout)["value"] != json.loads(reseeded.stdout)["value"]

    def test_input_file_is_closed(self):
        # an unclosed request file would print a ResourceWarning on stderr
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "truncskew",
             "--input", str(DOCS / "cdf_esn.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr

    def test_timing_only_with_flag(self):
        req = (DOCS / "prob_halfline_normal.json").read_text()
        plain = json.loads(_run_cli(["--input", "-"], stdin_text=req).stdout)
        timed = json.loads(_run_cli(["--input", "-", "--timing"],
                                    stdin_text=req).stdout)
        assert "timing_ms" not in plain
        assert timed["timing_ms"] >= 0.0


class TestBenchmark:
    def test_csv_shape_and_counts(self, capsys):
        import io

        buf = io.StringIO()
        run_benchmark([2, 3], repetitions=1, out=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "p,method,integral_count,median_ms"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        by_key = {(r[0], r[1]): (int(r[2]), float(r[3])) for r in rows}
        assert by_key[("3", "normal-reduction")][0] < by_key[("3", "recurrence")][0]

    def test_counts_deterministic(self):
        import io

        a, b = io.StringIO(), io.StringIO()
        run_benchmark([3], repetitions=1, out=a)
        run_benchmark([3], repetitions=1, out=b)
        counts_a = [line.split(",")[2] for line in a.getvalue().splitlines()[1:]]
        counts_b = [line.split(",")[2] for line in b.getvalue().splitlines()[1:]]
        assert counts_a == counts_b

    def test_dimension_cap(self):
        assert main(["--benchmark", "11"]) == 1

    @pytest.mark.parametrize("args", [["0"], ["-2"], ["x"], ["2", "--repetitions", "0"]])
    def test_invalid_arguments_are_request_errors(self, capsys, args):
        assert main(["--benchmark", *args]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("request error:")

    def test_seed_outside_key_range(self, capsys):
        assert main(["--benchmark", "1", "--seed", "-5"]) == 1
        assert capsys.readouterr().err.startswith("request error:")

    def test_univariate_dimension(self):
        import io

        from truncskew.cli import _benchmark_instance
        from truncskew import tesn_mean_cov
        from conftest import FAST_QMC
        import numpy as np

        buf = io.StringIO()
        run_benchmark([1], repetitions=1, out=buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert {r[1] for r in rows} == {"recurrence", "normal-reduction"}
        assert all(int(r[2]) > 0 for r in rows)
        # and the two methods agree on the moments themselves
        box, params = _benchmark_instance(1, 20240101)
        m_rec = tesn_mean_cov(box, params, FAST_QMC, method="recurrence")
        m_nr = tesn_mean_cov(box, params, FAST_QMC, method="normal-reduction")
        np.testing.assert_allclose(m_rec.mean, m_nr.mean, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(m_rec.cov, m_nr.cov, rtol=1e-6, atol=1e-8)


def _literal_requests():
    """Every request written out as a dict literal in this file."""
    tree = ast.parse(Path(__file__).read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "task" for k in node.keys):
            try:
                out.append(ast.literal_eval(node))
            except ValueError:  # built from variables
                pass
    return out


_DROP = object()


def _mutations(req):
    """Copies of ``req`` that each change one thing."""
    def edit(path, value):
        new = copy.deepcopy(req)
        *parents, last = path
        node = new
        for key in parents:
            node = node.setdefault(key, {})
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
        return new

    out = [edit((key,), _DROP) for key in req]
    out += [edit((key, sub), _DROP) for key in ("params", "box", "qmc")
            if isinstance(req.get(key), dict) for sub in req[key]]
    out += [edit(("schema_version",), v) for v in (True, 1.0, 2, 1, "1")]
    out += [edit(("kappa",), v) for v in ([1.0, 2], [True, 1], [-1, 0], [1, 0])]
    out += [edit(("mc_samples",), v) for v in (999, 1000, 1000.0, True)]
    out += [edit(("qmc", "target_abs_error"), v) for v in (0, 1e-9, False)]
    out += [edit(("qmc", "sample_count"), v) for v in (1, 2.0, 4096.5)]
    out += [edit(("qmc", "replicates"), v) for v in (7, True)]
    out += [edit(("box",), [[0.0], [1.0], [2.0]]),
            edit(("box",), {"lower": [0.0], "upper": ["inf"], "middle": [0.5]}),
            edit(("box",), [[None], [1.0]]),
            edit(("params", "lambda"), [0.5] * len(req["params"]["mu"])),
            edit(("params", "tau"), 0.5),
            edit(("params", "mu"), []),
            edit(("params", "sigma"), [[True]]),
            edit(("verify",), 1),
            edit(("unknown",), 1)]
    return out


class TestBuiltInValidator:
    """The CLI's schema interpreter makes jsonschema's accept/reject
    decision on the published ``REQUEST_SCHEMA``."""

    def corpus(self):
        bases = [json.loads(p.read_text()) for p in sorted(DOCS.glob("*.json"))
                 if not p.name.endswith(".expected.json")]
        bases += _literal_requests()
        bases += [_method_request(task, family, "auto")
                  for task in sorted({t for t, _ in EXPECTED_METHODS})
                  for family in ("normal", "sn", "esn")]
        assert len(bases) > 30
        return [req for base in bases for req in [base, *_mutations(base)]]

    def test_same_decision_as_jsonschema(self):
        import jsonschema

        from truncskew.cli import REQUEST_SCHEMA, _schema_error

        validator = jsonschema.Draft202012Validator(REQUEST_SCHEMA)
        corpus = self.corpus()
        decisions = [(validator.is_valid(req), _schema_error(req, REQUEST_SCHEMA) is None)
                     for req in corpus]
        disagree = [req for req, (a, b) in zip(corpus, decisions) if a != b]
        assert not disagree, disagree[:3]
        accepted = sum(a for a, _ in decisions)
        assert 100 < accepted < len(corpus) - 500

    def test_schema_uses_only_interpreted_keywords(self):
        from truncskew.cli import REQUEST_SCHEMA, _SCHEMA_KEYWORDS

        def keywords(schema):
            if isinstance(schema, bool):
                return set()
            found = set(schema)
            for key, value in schema.items():
                if key == "properties":
                    subs = value.values()
                elif key in ("anyOf", "allOf"):
                    subs = value
                elif key in ("items", "not", "if", "then", "additionalProperties"):
                    subs = [value]
                else:
                    subs = []
                for sub in subs:
                    found |= keywords(sub)
            return found

        used = keywords(REQUEST_SCHEMA)
        assert used <= _SCHEMA_KEYWORDS, used - _SCHEMA_KEYWORDS

    @pytest.mark.parametrize("field, value", [
        ("schema_version", True), ("schema_version", 2), ("mc_samples", 999),
        ("kappa", [True, 1]), ("unknown", 1),
    ])
    def test_rejection_message_and_exit_code(self, field, value):
        req = {**_method_request("moment", "sn", "auto"), field: value}
        rc, out, err = _run_inprocess(req)
        assert rc == 1 and out == ""
        assert "request error: request does not match schema:" in err
