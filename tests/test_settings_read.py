"""Every ``config.Settings`` field is read somewhere in the package as
``settings.<field>``: a field that no code reads is a knob that changes
nothing.  The package source is parsed, not imported."""

import ast
import dataclasses
from collections import defaultdict
from pathlib import Path

from truncskew.config import Settings

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "truncskew"


def _reads() -> dict[str, set[str]]:
    """Field name -> the modules that read ``settings.<field>``."""
    reads = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == "settings"):
                reads[node.attr].add(path.name)
    return reads


def test_every_setting_is_read():
    fields = {f.name for f in dataclasses.fields(Settings)}
    assert sorted(fields - set(_reads())) == []


def test_switch_point_is_read_in_one_module():
    # whether a task keeps its hidden coordinate is decided in esn_derive
    assert _reads()["tau_tilde_limit"] == {"esn.py"}
