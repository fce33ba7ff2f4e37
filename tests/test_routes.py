"""Every mean/cov route goes through ``tesn_mean_cov`` and every ESN task
through ``reduce_to_normal``: the command line imports nothing from the
truncated-normal module, and only ``esn.py`` builds the augmented normal.
Every normalizer passes one gate, the only place that raises
``DegenerateBoxError``, on the kernel's own estimate, and no ``__all__``
lists a name its module lost.
Each law derives its constants once, as ``EsnParams.derived``: no function
takes a derivation as a parameter, and only ``esn.py`` reads the shift
switch point.  The package source is parsed, not imported."""

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


def test_degenerate_box_raised_only_by_the_normalizer_gate():
    raisers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                    if name == "DegenerateBoxError":
                        raisers.append((path.name, func.name))
    assert raisers == [("tn.py", "_check_normalizer")]


def test_normalizer_gate_takes_the_kernel_estimate():
    # the gate sees the rectangle probability and the estimate the kernel
    # returned: two plain names or attributes, no floor and no constant
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_check_normalizer"):
                calls.append(node)
                assert not node.keywords and len(node.args) == 2, ast.unparse(node)
                assert all(isinstance(a, (ast.Name, ast.Attribute)) for a in node.args), \
                    ast.unparse(node)
    assert calls


def test_every_exported_name_is_defined():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        defined, exported = set(), []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
                defined.update(names)
        stale += [f"{path.name}:{name}" for name in exported if name not in defined]
    assert stale == []


def test_no_function_takes_a_derivation():
    takers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if "derived" in {a.arg for a in args}:
                    takers.append((path.name, getattr(node, "name", "<lambda>")))
    assert takers == []


def test_only_the_law_property_calls_esn_derive():
    callers = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "esn_derive":
                    callers.append((module, ".".join(scope)))
            visit(child, inner, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path.name)
    assert callers == [("esn.py", "EsnParams.derived")]


def test_switch_point_is_read_in_one_module():
    # whether a task keeps its hidden coordinate is decided in esn_derive
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                    and getattr(node, "id", getattr(node, "attr", None)) == "_TAU_TILDE_LIMIT"):
                readers.add(path.name)
    assert readers == {"esn.py"}
