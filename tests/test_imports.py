"""Importing the package or its command line loads neither ``scipy.integrate``
nor ``scipy.fft``: the kernels run their own quadrature rule and numpy's FFT,
and only the quadrature oracles import ``scipy.integrate``, when called."""

import json
import os
import subprocess
import sys

import pytest

_CHECK = """
import json, math, sys
import {module}
loaded = sorted(m for m in ("scipy.integrate", "scipy.fft") if m in sys.modules)
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
