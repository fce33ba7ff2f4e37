import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from truncskew import EsnParams
from truncskew.cli import main, run_benchmark
from truncskew.esn import esn_pdf
from truncskew.oracle import quad_oracle_2d

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "truncskew", *args],
        input=stdin_text, capture_output=True, text=True,
    )
    return proc


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
