"""The benchmark tracer wraps library functions by name; a deleted or
renamed name would break ``perfbench/run.py --trace 1`` without failing any
library test.  The tracer's tables are read from its source, not imported."""

import ast
import importlib
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
