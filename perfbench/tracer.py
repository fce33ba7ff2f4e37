"""Span tracer that wraps truncskew's public functions from outside.

Nothing inside the library records anything.  :class:`Tracer` replaces each
traced function with a wrapper in every ``truncskew`` module that binds it
(the modules import each other's names with ``from .mvn import mvn_prob``),
so a call is seen whichever module makes it.  Spans are kept in memory as
``[name, start, end, parent, task, info]`` and written out by
:func:`write_spans` when the run ends.

A span's self time is its duration minus the durations of its direct child
spans; calls are sequential in one thread, so children never overlap.
"""

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

# (module, function, layer) for every traced public function
FUNCTIONS = [
    ("mvn", "mvn_prob", "mvn"),
    ("mvn", "mvn_log_prob", "mvn"),
    ("core", "conditional_normal", "core"),
    ("esn", "esn_derive", "esn"),
    ("esn", "augment", "esn"),
    ("esn", "esn_cdf", "esn"),
    ("esn", "esn_pdf", "esn"),
    ("esn", "esn_logpdf", "esn"),
    ("esn", "esn_marginal", "esn"),
    ("esn", "esn_conditional", "esn"),
    ("esn", "esn_limit_params", "esn"),
    ("tn", "tn_fk", "tn"),
    ("tn", "tn_mgf_work", "tn"),
    ("tn", "tn_first_two_mgf", "tn"),
    ("tn", "tn_first_two_corrected", "tn"),
    ("tesn", "edge_conditional", "tesn"),
    ("tesn", "tesn_prob_with_error", "tesn"),
    ("tesn", "tesn_prob", "tesn"),
    ("tesn", "tesn_fk", "tesn"),
    ("tesn", "tesn_fk_univariate", "tesn"),
    ("tesn", "tesn_fk_via_normal", "tesn"),
    ("tesn", "tesn_moment", "tesn"),
    ("tesn", "tesn_moments", "tesn"),
    ("tesn", "tesn_mean_cov", "tesn"),
    ("folded", "flip_params", "folded"),
    ("folded", "fesn_pdf", "folded"),
    ("folded", "fesn_cdf", "folded"),
    ("folded", "fesn_ik", "folded"),
    ("folded", "fesn_moment", "folded"),
    ("folded", "fesn_mean_cov", "folded"),
    ("folded", "fesn_mean_cov_orthant", "folded"),
    ("folded", "folded_cross_work", "folded"),
    ("oracle", "mc_tesn_moment", "oracle"),
    ("oracle", "mc_fesn_moment", "oracle"),
    ("oracle", "quad_oracle_1d", "oracle"),
    ("oracle", "quad_oracle_2d", "oracle"),
    ("cli", "main", "cli"),
]

# session classes whose memoized ``fk`` is counted (calls and memo hits)
SESSIONS = [("tn", "TnSession", "tn"), ("tesn", "TesnSession", "tesn")]

MAX_DIM = 9
PACKAGE = "truncskew"


@functools.lru_cache(maxsize=None)
def largest_prime_at_most(n: int) -> int:
    while n > 2 and any(n % f == 0 for f in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = None
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return wrapper

    def _wrap_fk(self, layer: str, fn, as_multi_index):
        counts = self.counts

        @functools.wraps(fn)
        def fk(session, kappa):
            counts[f"{layer}.session.fk.calls"] += 1
            if as_multi_index(kappa, session.dim) in session.table:
                counts[f"{layer}.session.fk.hits"] += 1
            return fn(session, kappa)

        return fk

    def _mvn_info(self, fn, log: bool):
        """Span info for the rectangle kernel: dimension, QMC points and the
        returned error estimate."""
        default_cfg = inspect.signature(fn).parameters["cfg"].default

        def info(args, kwargs, result):
            box = args[0] if args else kwargs["box"]
            dim = box.dim
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg", default_cfg)
            points = 0
            if dim >= 3 and not box.is_unbounded():
                points = largest_prime_at_most(cfg.sample_count) * cfg.replicates
            err = None if log else float(result[1])
            return (dim, points, err)

        return info

    @staticmethod
    def _samples_info(position: int):
        """Span info for the Monte Carlo oracles: the number of draws asked
        for, argument ``n`` at ``position``."""
        def info(args, kwargs, result):
            return (int(args[position] if len(args) > position else kwargs["n"]),)

        return info

    @staticmethod
    def _corrections_info(args, kwargs, result):
        return (len(result.corrections),)

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace(self, original, replacement) -> int:
        n = 0
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    n += 1
        return n

    def install(self) -> None:
        moments = importlib.import_module(f"{PACKAGE}.moments")
        for modname, fname, layer in FUNCTIONS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), fname)
            info = None
            if modname == "mvn":
                info = self._mvn_info(original, log=fname == "mvn_log_prob")
            elif fname == "mc_tesn_moment":
                info = self._samples_info(3)
            elif fname == "mc_fesn_moment":
                info = self._samples_info(2)
            elif fname == "tn_first_two_corrected":
                info = self._corrections_info
            self._replace(original, self._wrap(f"{layer}.{fname}", original, info))
        for modname, cname, layer in SESSIONS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), cname)
            self._patched.append((cls, "fk", cls.fk))
            cls.fk = self._wrap_fk(layer, cls.fk, moments.as_multi_index)

    def wrap_attribute(self, obj, attr: str, name: str) -> None:
        """Trace ``obj.attr`` (e.g. ``jsonschema.validate``) until
        :meth:`uninstall`."""
        original = getattr(obj, attr)
        self._patched.append((obj, attr, original))
        setattr(obj, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()


def write_spans(path: str, spans_by_pass) -> None:
    """One JSON object per span and line; ``parent`` indexes the spans of
    the same pass."""
    with open(path, "w") as fh:
        for k, spans in enumerate(spans_by_pass):
            for name, start, end, parent, task, info in spans:
                fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "info": info}) + "\n")


# ----------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def kernel_counts(spans, task=None) -> dict[int, int]:
    """Kernel calls by dimension, counted like `count_integrals`: every
    `mvn_prob` call, and `mvn_log_prob` calls of dimension 1 (higher
    dimensions delegate to `mvn_prob`)."""
    out: dict[int, int] = defaultdict(int)
    for name, _, _, _, t, info in spans:
        if task is not None and t != task:
            continue
        if name == "mvn.mvn_prob" or (name == "mvn.mvn_log_prob" and info[0] == 1):
            out[info[0]] += 1
    return dict(out)


def layer_metrics(spans, counts, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and session counters."""
    own = self_times(spans)
    layer = [s[0].split(".", 1)[0] for s in spans]
    m: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        dur = end - start
        lay = layer[i]
        # busy time: spans with no ancestor in the same layer
        j = parent
        while j >= 0 and layer[j] != lay:
            j = spans[j][3]
        if j < 0:
            m[f"{lay}.busy_s"] += dur
        m[f"{lay}.self_s"] += own[i]
        if lay == "mvn":
            dim, points, err = info
            kernel = name == "mvn.mvn_prob" or dim == 1
            if kernel:
                m["mvn.calls"] += 1
                m[f"mvn.calls.d{dim}"] += 1
                engine = "cdf" if dim == 1 else "bvn" if dim == 2 else "qmc"
                m[f"mvn.{engine}.busy_s"] += dur
                m["mvn.qmc.points"] += points
                if err is not None:
                    m["mvn.err_est_max"] = max(m["mvn.err_est_max"], err)
        elif name == "core.conditional_normal":
            m["core.conditional_normal.calls"] += 1
            m["core.conditional_normal.busy_s"] += dur
        elif name == "esn.esn_derive":
            m["esn.derive.calls"] += 1
            m["esn.derive.busy_s"] += dur
        elif name == "esn.augment":
            m["esn.augment.calls"] += 1
        elif name == "tn.tn_mgf_work":
            m["tn.mgf_work.calls"] += 1
            m["tn.mgf_work.busy_s"] += dur
            m["tn.mgf_work.self_s"] += own[i]
        elif name == "tn.tn_first_two_corrected":
            m["tn.corrected.calls"] += 1
            m["tn.corrections"] += info[0]
        elif name.startswith("oracle.mc_"):
            m["oracle.samples"] += info[0]
    for lay in ("tn", "tesn"):
        calls = counts.get(f"{lay}.session.fk.calls", 0.0)
        m[f"{lay}.session.fk.calls"] = calls
        m[f"{lay}.session.memo_hit_ratio"] = (
            counts.get(f"{lay}.session.fk.hits", 0.0) / calls if calls else 0.0)
    m["mvn.qmc.busy_share"] = m["mvn.qmc.busy_s"] / wall_s if wall_s > 0 else 0.0
    return m
