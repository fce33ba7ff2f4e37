"""The benchmark calls the library by name, through a module object ``ts``
and ``from truncskew... import``; a renamed function or parameter would
break ``perfbench/run.py`` without failing any library test.  The calls
are read from the benchmark's source, not run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import truncskew

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ["execute.py", "first_calls.py", "baseline.py"]


def _dict_keys(tree: ast.Module) -> dict[str, set[str]]:
    """The string keys of every dict literal assigned to each name, so that
    ``f(**kw)`` counts as passing them."""
    keys: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            for d in ast.walk(node.value):
                if isinstance(d, ast.Dict):
                    keys.setdefault(node.targets[0].id, set()).update(
                        k.value for k in d.keys if isinstance(k, ast.Constant))
    return keys


def _ts_calls(tree: ast.Module):
    """(line, name, positional count or None if starred, keywords) of each
    ``ts.<name>(...)`` call."""
    spread = _dict_keys(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "ts":
            n_pos = None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            kws = set()
            for kw in node.keywords:
                if kw.arg is not None:
                    kws.add(kw.arg)
                elif isinstance(kw.value, ast.Name):
                    kws |= spread.get(kw.value.id, set())
            yield node.lineno, node.func.attr, n_pos, kws


@pytest.mark.parametrize("name", FILES)
def test_every_library_call_binds(name):
    tree = ast.parse((BENCH / name).read_text())
    problems = []
    for line, attr, n_pos, kws in _ts_calls(tree):
        func = getattr(truncskew, attr, None)
        if func is None:
            problems.append(f"{name}:{line}: truncskew has no {attr}")
            continue
        try:
            inspect.signature(func).bind_partial(*[None] * (n_pos or 0), **dict.fromkeys(kws))
        except TypeError as exc:
            problems.append(f"{name}:{line}: ts.{attr}: {exc}")
    assert problems == []


@pytest.mark.parametrize("name", FILES)
def test_every_library_import_resolves(name):
    tree = ast.parse((BENCH / name).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("truncskew"):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    assert missing == []


def test_calls_found():
    calls = {attr: kws for _, attr, _, kws in _ts_calls(
        ast.parse((BENCH / "execute.py").read_text()))}
    assert calls["fesn_moment"] == {"method", "cfg"}
