"""Every mean/cov route goes through ``tesn_mean_cov`` and every ESN task
through ``reduce_to_normal``: the command line imports nothing from the
truncated-normal module, and only ``esn.py`` builds the augmented normal.
The package source is parsed, not imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "truncskew"


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text())


def test_cli_imports_nothing_from_tn():
    imports = [node for node in ast.walk(_tree("cli.py"))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] == "tn"]
    assert imports == []


def test_only_esn_calls_augment():
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "augment":
                    callers.append(path.name)
    assert set(callers) <= {"esn.py"}
