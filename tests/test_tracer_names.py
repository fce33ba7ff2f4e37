"""The benchmark tracer wraps library functions by name; a deleted or
renamed name would break ``perfbench/run.py --trace 1`` without failing any
library test.  The tracer's tables are read from its source, not imported."""

import ast
import importlib
import inspect
from pathlib import Path

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
