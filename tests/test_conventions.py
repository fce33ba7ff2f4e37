"""One calling convention for the public engines: data arguments first,
then ``cfg``, then ``method``, and no option that runs a call on a session
built for another box or law.  The signatures are read from the source."""

import ast
from pathlib import Path

import pytest

from truncskew import (
    EsnParams,
    NormalParams,
    TruncationBox,
    fesn_ik,
    fesn_moment,
    tesn_fk,
    tesn_fk_via_normal,
    tn_fk,
)

from conftest import FAST_QMC

SRC = Path(__file__).resolve().parents[1] / "src" / "truncskew"


def _public_functions():
    """(qualified name, parameter names) of every public module-level
    function and every public method of a public class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs = [(f"{node.name}.{d.name}", d) for d in node.body
                        if isinstance(d, ast.FunctionDef)]
            else:
                continue
            for name, d in defs:
                if not d.name.startswith("_"):
                    args = d.args
                    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                    yield f"{path.stem}.{name}", params


def test_public_functions_found():
    names = {name for name, _ in _public_functions()}
    assert {"tn.tn_fk", "folded.fesn_moment", "tn.RecurrenceSession.fk"} <= names


def test_no_public_session_parameter():
    offenders = [name for name, params in _public_functions() if "session" in params]
    assert offenders == []


def test_cfg_before_method():
    offenders = [name for name, params in _public_functions()
                 if "cfg" in params and "method" in params
                 and params.index("cfg") > params.index("method")]
    assert offenders == []


_ESN = EsnParams(mu=[0.1, -0.2], sigma=[[1.0, 0.3], [0.3, 1.5]], lam=[0.8, -0.5], tau=0.3)
_BOX = TruncationBox([-1.0, -1.5], [1.2, 1.0])


@pytest.mark.parametrize("call", [
    lambda *cfg, **kw: tn_fk(_BOX, NormalParams(_ESN.mu, _ESN.sigma), (1, 1), *cfg, **kw),
    lambda *cfg, **kw: tesn_fk(_BOX, _ESN, (1, 1), *cfg, **kw),
    lambda *cfg, **kw: tesn_fk_via_normal(_BOX, _ESN, (1, 1), *cfg, **kw),
    lambda *cfg, **kw: fesn_ik(_ESN, (1, 1), *cfg, **kw),
    lambda *cfg, **kw: fesn_moment(_ESN, (1, 1), *cfg, **kw),
], ids=["tn_fk", "tesn_fk", "tesn_fk_via_normal", "fesn_ik", "fesn_moment"])
def test_positional_cfg(call):
    assert call(FAST_QMC) == call(cfg=FAST_QMC)


def _uses(name: str):
    """The enclosing module-level function or method, as ``module.qualname``,
    of every reference to ``name`` outside an import."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{getattr(d, 'name', '<body>')}", d) for d in node.body]
            else:
                defs = [(getattr(node, "name", "<module>"), node)]
            for qualname, d in defs:
                if isinstance(d, (ast.Import, ast.ImportFrom)):
                    continue
                for sub in ast.walk(d):
                    if (isinstance(sub, ast.Name) and sub.id == name
                            or isinstance(sub, ast.Attribute) and sub.attr == name):
                        yield f"{path.stem}.{qualname}"


def test_one_slicing_path():
    # one Gaussian regression feeds every conditioning: the public maps, the
    # slice geometry of both session families, the folded cross-moment work
    # and the corrected path's split and pinning; a marginal needs none
    assert sorted(set(_uses("_regression"))) == [
        "core._SliceGeometry.slice", "core.conditional_normal", "esn.esn_conditional",
        "folded.folded_cross_work", "tn._corrected", "tn._pin_coordinate"]
