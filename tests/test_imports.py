"""Importing the package or its command line loads numpy only: no module of
``scipy``, no ``jsonschema`` and not ``numpy.random``, which the samplers
reach only when called.  The scalar normal cdfs run on ``math.erf``
/ ``math.erfc``, the kernels on their own quadrature rule and numpy's FFT,
and requests are checked by the CLI's own schema interpreter.  Two callers
import from scipy when first called: the lattice kernel (dim >= 5) loads
``scipy.special``, the quadrature oracles ``scipy.integrate``.  The sampler's
log-space normal quantile runs on numpy, so a ``--verify`` request loads no
scipy module."""

import json
import math
import os
import subprocess
import sys

import pytest

_CHECK = """
import json, math, sys
import {module}
loaded = sorted(m for m in ("scipy.integrate", "scipy.fft", "numpy.random") if m in sys.modules)
from truncskew.oracle import quad_oracle_1d
value = quad_oracle_1d(math.exp, 0.0, 1.0)
print(json.dumps({{"loaded": loaded, "value": value,
                  "integrate_after": "scipy.integrate" in sys.modules}}))
"""


@pytest.mark.parametrize("module", ["truncskew", "truncskew.cli"])
def test_import_loads_no_integrate_or_fft(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", _CHECK.format(module=module)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    # the oracle imports scipy.integrate on its first call and still works
    assert out["integrate_after"]
    assert out["value"] == pytest.approx(2.718281828459045 - 1.0, abs=1e-12)


_FIRST_CALL = """
import json, sys
import {module}
loaded = sorted(m for m in sys.modules if m.startswith(("scipy", "jsonschema")))
import numpy as np
import truncskew as ts
{call}
print(json.dumps({{"loaded": loaded, "value": np.ravel(value).tolist(),
                  "special_after": "scipy.special" in sys.modules}}))
"""

_MVN_PROB_DIM5 = """
box = ts.TruncationBox([-1.0, -0.5, -2.0, -np.inf, -0.3], [1.0, 1.5, 0.5, 1.0, np.inf])
value = ts.mvn_prob(box, ts.NormalParams(np.zeros(5), 0.5 * np.eye(5) + 0.5))
"""

_ESN_SAMPLE = """
par = ts.EsnParams(mu=[0.1, -0.2], sigma=[[1.0, 0.3], [0.3, 1.5]],
                   lam=[0.8, -0.5], tau=-0.3)
value = ts.esn_sample(par, 3, 7)
"""


@pytest.mark.parametrize("call, special, expected", [
    # the values returned when scipy.special was imported with the package
    (_MVN_PROB_DIM5, True, [0.1619309208575908, 4.916796719254495e-07]),
    # the sampler's quantile runs on numpy: the draws of scipy's ndtri_exp
    (_ESN_SAMPLE, False, [0.5410582016255587, 1.5223702927692306, -0.3309867254750388,
                          -1.9601519088241945, 0.771572759137834, -0.16255420757599437]),
], ids=["mvn_prob-dim5", "esn_sample"])
@pytest.mark.parametrize("module", ["truncskew", "truncskew.cli"])
def test_import_is_numpy_only_until_special_is_needed(module, call, special, expected):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_CALL.format(module=module, call=call)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["special_after"] is special
    assert out["value"] == pytest.approx(expected, rel=1e-12, abs=0.0)


_KERNEL_DIMS_2_TO_4 = """
import json, sys
import numpy as np
import truncskew as ts
values = []
for d in (2, 3, 4):
    sigma = np.full((d, d), -0.3) + 1.3 * np.eye(d)
    sigma[0, 1] = sigma[1, 0] = 0.6
    upper = np.linspace(0.5, -5.5, d)
    box = ts.TruncationBox(upper - 1.5, upper)
    values.append(ts.mvn_prob(box, ts.NormalParams(np.zeros(d), sigma))[0])
print(json.dumps({"loaded": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "values": values}))
"""


def test_dims_2_to_4_load_no_scipy():
    # the deterministic kernel runs its normal cdf on math.erfc, also as an
    # array (importing scipy.special would cost about as much as a CLI request)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", _KERNEL_DIMS_2_TO_4],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert len(out["values"]) == 3 and all(0.0 < v < 1.0 for v in out["values"])


_SELECTION_FORM = """
import json, sys
import numpy as np
import truncskew as ts
p = ts.EsnParams(mu=[0.1, -0.2, 0.3], sigma=[[1.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 2.0]],
                 lam=[0.8, -0.5, 0.6], tau=-0.3)
box = ts.TruncationBox([-1.0, -1.5, -2.0], [1.0, 0.5, 1.5])
values = [ts.tesn_moment(box, p, (1, 1, 1), method="recurrence"),
          *ts.fesn_mean_cov(p).mean.tolist(),
          *ts.edge_conditional(p, 1, 0.2)[1].lam.tolist()]
print(json.dumps({"loaded": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "values": values}))
"""


def test_selection_form_loads_no_scipy():
    # the Mills ratio and the slice laws' lam and tau run on math and numpy:
    # scipy.special would add more than a CLI request's import time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", _SELECTION_FORM],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert len(out["values"]) == 6 and all(map(math.isfinite, out["values"]))


_DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples")

# the prob/sn/--verify request of perfbench's cli-requests workload at seed 1
_PROB_SN_VERIFY = {
    "task": "prob", "family": "sn",
    "params": {"mu": [0.16203539932332042, -0.31378759554603675],
               "sigma": [[2.619128214232315, -0.8141499487791487],
                         [-0.8141499487791487, 3.080158825452739]],
               "lambda": [0.5399978101208194, 0.2668613700220361]},
    "box": {"lower": [-0.6628961924669365, -1.253694885421997],
            "upper": [0.8813864187004848, 1.5177949620173756]},
    "verify": True, "mc_samples": 200000,
}

_RUN_CLI = """
import json, runpy, sys
sys.argv = ["truncskew", "--input", sys.argv[1]]
try:
    runpy.run_module("truncskew", run_name="__main__")
except SystemExit as stop:
    assert not stop.code, stop.code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


@pytest.mark.parametrize("request_file", ["mean_cov_verify.json", "folded_moment_verify.json",
                                          "prob_sn_verify"])
def test_verify_request_loads_no_scipy(request_file, tmp_path):
    # python -m truncskew --input on a --verify request: the Monte Carlo
    # oracle's sampler no longer imports scipy.special
    if request_file == "prob_sn_verify":
        path = tmp_path / "prob_sn_verify.json"
        path.write_text(json.dumps(_PROB_SN_VERIFY))
    else:
        path = os.path.join(_DOCS, request_file)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", _RUN_CLI, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    response, loaded = proc.stdout.strip().split("\n")
    assert "oracle" in json.loads(response)
    assert json.loads(loaded) == []
