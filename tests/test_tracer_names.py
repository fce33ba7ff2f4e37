"""The benchmark tracer wraps library functions by name; a deleted or
renamed name would break ``perfbench/run.py --trace 1`` without failing any
library test.  The tracer's tables are read from its source, not imported.

The traced run also counts kernel calls from its spans and marks a task
incorrect where they differ from ``count_integrals``, so every box the
counter records must pass through a ``mvn_prob`` (or univariate
``mvn_log_prob``) that a module of the package binds by name."""

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

import truncskew as ts
from truncskew import mvn

from conftest import FAST_QMC

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "SESSIONS", "PACKAGE"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_every_traced_name_resolves():
    tables = _tables()
    entries = tables["FUNCTIONS"] + tables["SESSIONS"]
    assert entries
    missing = [f"{module}.{name}" for module, name, _ in entries
               if not hasattr(importlib.import_module(f"{tables['PACKAGE']}.{module}"), name)]
    assert missing == []


def test_every_traced_kernel_takes_cfg():
    # the tracer reads the default of each mvn function's ``cfg`` parameter
    # to count QMC points, so dropping an unused ``cfg`` breaks it
    tables = _tables()
    mvn = importlib.import_module(f"{tables['PACKAGE']}.mvn")
    kernels = [name for module, name, _ in tables["FUNCTIONS"] if module == "mvn"]
    assert kernels
    missing = [name for name in kernels
               if "cfg" not in inspect.signature(getattr(mvn, name)).parameters]
    assert missing == []


@pytest.fixture
def wrapped_kernel_calls(monkeypatch):
    """Kernel calls by dimension, seen through wrappers of ``mvn_prob`` and
    ``mvn_log_prob`` in every module of the package that binds them, counted
    as the tracer counts them: every ``mvn_prob`` call and the univariate
    ``mvn_log_prob`` calls."""
    calls = Counter()
    for original, log in ((mvn.mvn_prob, False), (mvn.mvn_log_prob, True)):
        def wrapper(box, p, *args, _original=original, _log=log, **kwargs):
            if not _log or p.dim == 1:
                calls[p.dim] += 1
            return _original(box, p, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "truncskew":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return calls


_PAR2 = ts.EsnParams(mu=[0.1, -0.2], sigma=[[1.5, 0.4], [0.4, 1.2]], lam=[0.8, -0.5], tau=-0.4)
_PAR3 = ts.EsnParams(mu=[0.1, -0.2, 0.3],
                     sigma=[[1.5, 0.4, -0.3], [0.4, 1.2, 0.2], [-0.3, 0.2, 0.9]],
                     lam=[0.8, -0.5, 0.3], tau=-0.4)
_BOX2 = ts.TruncationBox([-1.0, -1.5], [1.2, 0.7])
_BOX3 = ts.TruncationBox([-1.0, -1.5, -0.8], [1.2, 0.7, 1.4])
_TASKS = {
    "tesn_moment-recurrence":
        lambda: ts.tesn_moment(_BOX3, _PAR3, [1, 0, 1], FAST_QMC, method="recurrence"),
    "tesn_moment-normal-reduction":
        lambda: ts.tesn_moment(_BOX3, _PAR3, [1, 0, 1], FAST_QMC, method="normal-reduction"),
    "fesn_moment-orthant-sum":
        lambda: ts.fesn_moment(_PAR3, [1, 1, 1], FAST_QMC, method="orthant-sum"),
    "tesn_mean_cov-recurrence":
        lambda: ts.tesn_mean_cov(_BOX2, _PAR2, FAST_QMC, method="recurrence"),
    "esn_cdf": lambda: ts.esn_cdf([0.5, 0.2, 0.9], _PAR3, FAST_QMC),
}


@pytest.mark.parametrize("task", list(_TASKS))
def test_every_counted_box_passes_a_bound_kernel(wrapped_kernel_calls, task):
    with ts.count_integrals() as counter:
        _TASKS[task]()
    assert counter.by_dim
    assert dict(wrapped_kernel_calls) == counter.by_dim
