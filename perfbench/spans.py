"""Span recorder for the traced benchmark run.

The recorder wraps public functions of each stratisolve layer from the
outside, under every name a caller looks them up by (module attributes,
class attributes), so the program itself carries no instrumentation.  A
span holds a name, start, end, parent span and query id; spans stay in
memory and are written out when the run ends.  Per-layer metrics are
derived from the spans afterwards: a span's self time is its duration minus
the part of it that its child spans cover.

Outcomes that a metric needs (certificate found or not, splice or not, the
handle class a white vertex got) are folded into the span name after a
colon, e.g. ``oracle.derive_trivial:found``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: where traced runs write their spans
OUT_DIR = Path(__file__).resolve().parent / "out"


class Recorder:
    """In-memory spans plus plain counters.  Nothing is recorded outside a
    ``begin``/``end`` window, so input generation and checker work stay
    out of the numbers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.active = False
        self.query_id = -1
        self._stack: list[int] = []

    # -- windows ---------------------------------------------------------------

    def begin(self, qid: int) -> None:
        """Record spans for query ``qid`` (-1 for the warm-up) until ``end``."""
        self.active = True
        self.query_id = qid
        self._stack.clear()

    def end(self) -> None:
        self.active = False
        self._stack.clear()

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_query.append(self.query_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int, nid: int | None = None) -> None:
        self.span_end[idx] = time.perf_counter()
        if nid is not None:
            self.span_name[idx] = nid
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()

    def add_span(self, name, start, end, parent, query) -> int:
        """Append a finished span (used to merge spans from child processes)."""
        idx = len(self.span_name)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(parent)
        self.span_query.append(query)
        self.span_start.append(start)
        self.span_end.append(end)
        return idx

    def spans(self):
        """(name, start, end, parent, query) for every recorded span."""
        for i in range(len(self.span_name)):
            yield (self.names[self.span_name[i]], self.span_start[i], self.span_end[i],
                   self.span_parent[i], self.span_query[i])

    def count(self, key: str, n: float = 1) -> None:
        if self.active:
            self.counters[key] += n

    def observe_max(self, key: str, value: float) -> None:
        if self.active and value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tquery\tname\tstart\tend\n")
            for i, (name, s, e, p, q) in enumerate(self.spans()):
                fh.write(f"{i}\t{p}\t{q}\t{name}\t{s!r}\t{e!r}\n")


# -- self time ----------------------------------------------------------------

def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(max(0.0, (e - s) - covered))
    return out


# -- wrappers -------------------------------------------------------------------

def _span_wrapper(rec: Recorder, name: str, fn, outcome=None, observe=None):
    nid = rec.name_id(name)
    suffix_ids: dict[str, int] = {}

    def outcome_id(result):
        suffix = outcome(result)
        sid = suffix_ids.get(suffix)
        if sid is None:
            sid = suffix_ids[suffix] = rec.name_id(f"{name}:{suffix}")
        return sid

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, rec.name_id(f"{name}:raised"))
            raise
        rec.close(idx, outcome_id(result) if outcome else None)
        if observe is not None:
            observe(rec, args, result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            rec.counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "stratisolve" or n.startswith("stratisolve."))]


def _rebind_everywhere(original, wrapper, undo) -> None:
    """Replace every stratisolve module attribute bound to ``original``."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))


def _wrap_method(cls, attr, wrapper_factory, undo) -> bool:
    original = cls.__dict__.get(attr)
    if original is None:
        return False
    setattr(cls, attr, wrapper_factory(original))
    undo.append((cls, attr, original))
    return True


# (module, function, outcome -> span name suffix, observe(rec, args, result));
# the span is named <module>.<function>
_FUNCTIONS = (
    ("graph_model", "parse_graph", None, None),
    ("graph_model", "canonical_tree", None, None),
    ("presentation", "natural_presentation", None, None),
    ("presentation", "parse_word", None, None),
    ("presentation", "abelianization", None, None),
    ("snf", "smith_normal_form", None,
     lambda rec, args, res: rec.observe_max("snf.max_cols", args[1])),
    ("order_engine", "resolve_orders", None, None),
    ("order_engine", "validity_check", None, None),
    ("oracle", "derive_trivial",
     lambda d: "failed" if d is None else "found", None),
    ("oracle", "todd_coxeter", None, None),
    ("oracle", "finite_quotient_search", None, None),
    ("gog", "to_loop_word", None,
     lambda rec, args, lw: rec.count("gog.loop_edges", len(lw.edges))),
    ("fgroup_handles", "white_handle",
     lambda wh: type(wh.handle).__name__, None),
    ("serre_solver", "word_problem", None, None),
    ("serre_solver", "solve", None, None),
    ("serre_solver", "reduce_once",
     lambda step: "reduced" if step is None else "splice", None),
    ("decisions", "is_abelian", None, None),
    ("decisions", "is_simply_connected", None, None),
    ("decisions", "prune", None, None),
    ("decisions", "wedge_check", None, None),
    ("cli", "run", None, None),
)

# (module, class, method, outcome)
_METHODS = (
    ("gog", "GraphOfGroups", "__init__", None),
    ("gog", "GraphOfGroups", "edge_membership",
     lambda s: "miss" if s is None else "hit"),
    ("exactfield", "Mat3", "__mul__", None),
)

_LOOKUPS = ("white", "black", "edge", "edges_at_white", "edges_at_black")


def install(rec: Recorder) -> tuple[list, list[str]]:
    """Wrap every traced function; returns (undo list, names not found).

    Targets that a later version of the program no longer has are skipped
    and reported, so their metrics read 0 rather than the run failing."""
    for name in ("stratisolve", "stratisolve.cli"):
        importlib.import_module(name)
    undo: list = []
    missing: list[str] = []
    for modname, fname, outcome, observe in _FUNCTIONS:
        mod = sys.modules.get(f"stratisolve.{modname}")
        original = getattr(mod, fname, None) if mod else None
        if original is None:
            missing.append(f"{modname}.{fname}")
            continue
        wrapper = _span_wrapper(rec, f"{modname}.{fname}", original,
                                outcome, observe)
        _rebind_everywhere(original, wrapper, undo)
    for modname, clsname, meth, outcome in _METHODS:
        cls = getattr(sys.modules.get(f"stratisolve.{modname}"), clsname, None)
        label = f"{modname}.{clsname}" + ("" if meth == "__init__" else f".{meth}")
        if cls is None or not _wrap_method(
            cls, meth,
            lambda fn, label=label, outcome=outcome:
                _span_wrapper(rec, label, fn, outcome),
            undo,
        ):
            missing.append(f"{modname}.{clsname}.{meth}")
    # every handle class that defines its own word problem
    base = getattr(sys.modules.get("stratisolve.local_groups"), "GroupHandle", None)
    pending = list(base.__subclasses__()) if base else []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        _wrap_method(cls, "wp",
                     lambda fn, cls=cls: _span_wrapper(rec, f"handle.{cls.__name__}.wp", fn),
                     undo)
    graph_cls = getattr(sys.modules.get("stratisolve.graph_model"),
                        "StratifoldGraph", None)
    for meth in _LOOKUPS:
        if graph_cls is None or not _wrap_method(
            graph_cls, meth,
            lambda fn: _count_wrapper(rec, "graph_model.lookup_calls", fn),
            undo,
        ):
            missing.append(f"graph_model.StratifoldGraph.{meth}")
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------

HANDLE_KINDS = ("AmalgamHandle", "HNNHandle", "TriangleHandle",
                "FreeProductOfCyclics", "FreeAbelianRank2")


def _base(name: str) -> str:
    return name.split(":", 1)[0]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of everything recorded, named ``<module>.<metric>``."""
    n = len(rec.span_name)
    names = [rec.names[i] for i in rec.span_name]
    selfs = self_times(rec.span_start, rec.span_end, rec.span_parent)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i in range(n):
        calls[names[i]] += 1
        self_s[names[i]] += selfs[i]

    def total(prefix, table):
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + ":"))

    def ratio(a, b):
        return a / b if b else 0.0

    kinds: Counter = Counter()
    classify_calls = 0
    basepoint_wp = 0.0
    decision_calls = 0
    decision_word_problems = 0
    for i in range(n):
        base = _base(names[i])
        p = rec.span_parent[i]
        pbase = _base(names[p]) if p >= 0 else ""
        if base == "fgroup_handles.white_handle" and pbase != base:
            classify_calls += 1
            kind = names[i].split(":", 1)[1] if ":" in names[i] else "other"
            kinds[kind if kind in HANDLE_KINDS else "other"] += 1
        elif base.startswith("handle.") and pbase == "serre_solver.solve":
            basepoint_wp += rec.span_end[i] - rec.span_start[i]
        elif base.startswith("decisions.") and not pbase.startswith("decisions."):
            decision_calls += 1
        elif base == "serre_solver.word_problem":
            a = p
            while a >= 0 and not names[a].startswith("decisions."):
                a = rec.span_parent[a]
            decision_word_problems += a >= 0

    found = total("oracle.derive_trivial:found", calls)
    failed = total("oracle.derive_trivial:failed", calls)
    splices = calls["serre_solver.reduce_once:splice"]
    membership_calls = total("gog.GraphOfGroups.edge_membership", calls)
    run_s = sum(rec.span_end[i] - rec.span_start[i] for i in range(n)
                if _base(names[i]) == "cli.run")
    process_s = rec.counters["cli.process_s"]
    m = {
        "graph_model.parse_s": total("graph_model.parse_graph", self_s),
        "graph_model.tree_s": total("graph_model.canonical_tree", self_s),
        "graph_model.lookup_calls": rec.counters["graph_model.lookup_calls"],
        "presentation.build_s": total("presentation.natural_presentation", self_s),
        "presentation.parse_word_s": total("presentation.parse_word", self_s),
        "presentation.abelianization_s": total("presentation.abelianization", self_s),
        "snf.calls": total("snf.smith_normal_form", calls),
        "snf.s": total("snf.smith_normal_form", self_s),
        "snf.max_cols": rec.maxima.get("snf.max_cols", 0),
        "order_engine.resolve_calls": total("order_engine.resolve_orders", calls),
        "order_engine.resolve_self_s": total("order_engine.resolve_orders", self_s),
        "order_engine.validity_calls": total("order_engine.validity_check", calls),
        "order_engine.validity_s": total("order_engine.validity_check", self_s),
        "oracle.derive_calls": found + failed,
        "oracle.derive_found": found,
        "oracle.derive_failed": failed,
        "oracle.derive_found_s": self_s["oracle.derive_trivial:found"],
        "oracle.derive_failed_s": self_s["oracle.derive_trivial:failed"],
        "oracle.derive_found_ratio": ratio(found, found + failed),
        "oracle.tc_s": total("oracle.todd_coxeter", self_s),
        "oracle.quotients_s": total("oracle.finite_quotient_search", self_s),
        "gog.build_calls": total("gog.GraphOfGroups", calls),
        "gog.build_s": total("gog.GraphOfGroups", self_s),
        "gog.loop_s": total("gog.to_loop_word", self_s),
        "gog.loop_edges": rec.counters["gog.loop_edges"],
        "gog.membership_calls": membership_calls,
        "gog.membership_hits": calls["gog.GraphOfGroups.edge_membership:hit"],
        "gog.membership_s": total("gog.GraphOfGroups.edge_membership", self_s),
        "fgroup_handles.classify_calls": classify_calls,
        "fgroup_handles.classify_s": total("fgroup_handles.white_handle", self_s),
        **{f"fgroup_handles.kind.{k}": kinds[k] for k in HANDLE_KINDS + ("other",)},
        "fgroup_handles.basepoint_wp_s": basepoint_wp,
        "exactfield.mat_mul_calls": total("exactfield.Mat3.__mul__", calls),
        "exactfield.mat_mul_s": total("exactfield.Mat3.__mul__", self_s),
        "serre_solver.solve_calls": total("serre_solver.solve", calls),
        "serre_solver.solve_self_s": total("serre_solver.solve", self_s),
        "serre_solver.reduce_calls": total("serre_solver.reduce_once", calls),
        "serre_solver.splices": splices,
        "serre_solver.membership_per_splice": ratio(membership_calls, splices),
        "decisions.abelian_s": total("decisions.is_abelian", self_s),
        "decisions.sc_s": total("decisions.is_simply_connected", self_s),
        "decisions.prune_s": total("decisions.prune", self_s),
        "decisions.word_problems_per_call": ratio(decision_word_problems,
                                                  decision_calls),
        "cli.process_s": process_s,
        "cli.run_s": run_s,
        "cli.startup_s": process_s - run_s if process_s else 0.0,
    }
    return m


# exact integer counts: later count-based claims cite these
EXACT_COUNTS = (
    "graph_model.lookup_calls", "snf.calls", "order_engine.resolve_calls",
    "order_engine.validity_calls", "oracle.derive_calls", "oracle.derive_found",
    "oracle.derive_failed", "gog.build_calls", "gog.loop_edges",
    "gog.membership_calls", "gog.membership_hits",
    "fgroup_handles.classify_calls",
    *(f"fgroup_handles.kind.{k}" for k in HANDLE_KINDS + ("other",)),
    "exactfield.mat_mul_calls", "serre_solver.solve_calls",
    "serre_solver.reduce_calls", "serre_solver.splices",
)


def dump(rec: Recorder) -> dict:
    """Spans, counters and maxima as plain JSON data (for child processes)."""
    return {"spans": [list(row) for row in rec.spans()],
            "counters": dict(rec.counters), "maxima": rec.maxima}


def merge_child(rec: Recorder, data: dict, query: int) -> None:
    """Add what a child process recorded; its spans' parent indices are
    remapped and its spans are attributed to ``query``."""
    offset = len(rec.span_name)
    for name, start, end, parent, _ in data["spans"]:
        rec.add_span(name, start, end, parent + offset if parent >= 0 else -1,
                     query)
    rec.counters.update(data["counters"])
    for key, value in data["maxima"].items():
        rec.maxima[key] = max(rec.maxima.get(key, 0), value)
