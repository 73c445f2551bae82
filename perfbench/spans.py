"""In-memory spans around crtoptim's public functions and methods.

A :class:`Tracer` wraps each trace point with a timing shim while it is
installed. Every call records one span (name, start, end, parent span,
operation id) plus one number taken from the call's result: whether a
criterion value is infinite, or how many iterations a weight solver ran.
Spans are kept in flat arrays and written out once, at the end of a run.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP_OP = -1


def _result_count(name):
    if name in ("glscore.value", "robust.value"):
        return lambda value: 0.0 if math.isfinite(value) else 1.0
    if name == "weights.mixed_model_weights":
        return lambda result: float(result.iterations)
    return None


class Tracer:
    def __init__(self, trace_points):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.count = array("d")
        self._stack = [-1]
        self._op = SETUP_OP
        self._patches = []
        for owner, attr, span_name in trace_points:
            original = owner.__dict__[attr]
            shim = self._shim(original, span_name)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, shim))
            else:
                # a function: wrap it wherever crtoptim exposes it
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").split(".")[0] == "crtoptim"
                            and mod.__dict__.get(attr) is original):
                        self._patches.append((mod, attr, original, shim))

    def _name_id(self, span_name: str) -> int:
        if span_name not in self.names:
            self.names.append(span_name)
        return self.names.index(span_name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.count.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _shim(self, fn, span_name):
        nid = self._name_id(span_name)
        counter = _result_count(span_name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.count[idx] = counter(result)
            return result
        return shim

    @contextmanager
    def installed(self, op: int):
        """Trace calls made inside the block under operation id ``op``."""
        self._op = op
        for owner, attr, _, shim in self._patches:
            setattr(owner, attr, shim)
        try:
            if op == SETUP_OP:
                yield
            else:
                idx = self._open(self._name_id("op"))
                try:
                    yield
                finally:
                    self._close(idx)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.uint16),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "count": np.frombuffer(self.count)}

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), **self.spans())


class SpanTable:
    """Queries over recorded spans: durations, self times, ancestry."""

    def __init__(self, tracer: Tracer):
        s = tracer.spans()
        self.names = tracer.names
        self.name, self.op, self.parent, self.count = s["name"], s["op"], s["parent"], s["count"]
        self.dur = s["end"] - s["start"]
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def is_(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        return self.name == self.names.index(span_name)

    def under(self, span_name: str) -> np.ndarray:
        """Spans with an ancestor named ``span_name`` (parents precede children)."""
        inside = np.zeros(self.name.shape, dtype=bool)
        marked = self.is_(span_name)
        has_parent = self.parent >= 0
        while True:
            nxt = np.zeros_like(inside)
            nxt[has_parent] = (marked | inside)[self.parent[has_parent]]
            if (nxt == inside).all():
                return inside
            inside = nxt

    def per_op(self, values: np.ndarray, mask: np.ndarray, ops) -> list[float]:
        return [float(values[mask & (self.op == op)].sum()) for op in ops]


LAYER_UNITS = {
    "glscore.setup_s": "s", "glscore.evals": "count", "glscore.eval_us.p50": "us",
    "glscore.information_frac": "ratio", "glscore.busy_frac": "ratio",
    "glscore.inf_frac": "ratio", "robust.evals": "count", "robust.eval_us.p50": "us",
    "robust.self_frac": "ratio", "search.evals_per_restart": "count",
    "search.self_frac": "ratio", "search.reverse_greedy_s": "s",
    "weights.solve_s": "s", "weights.iterations": "count", "apportion.solve_s": "s",
    "apportion.evals": "count", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def _frac(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(tracer: Tracer, traced_ops, first_op: int, restarts: int,
                  bytes_written: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations.

    Counts are taken from ``first_op`` alone, so they repeat exactly for
    equal seeds; times are medians (or shares) over all traced operations.
    """
    t = SpanTable(tracer)
    ops = list(traced_ops)
    in_ops = np.isin(t.op, ops)
    first = t.op == first_op
    value = t.is_("glscore.value")
    robust_value = t.is_("robust.value")
    info = t.is_("glscore.information") & in_ops
    cvar = t.is_("glscore.contrast_variance") & in_ops
    searches = t.is_("search.local_search") | t.is_("search.reverse_greedy")
    local = t.is_("search.local_search")
    op_time = float(t.dur[t.is_("op") & in_ops].sum())
    outer_eval = (value | robust_value) & np.isin(t.parent, np.flatnonzero(local))
    cli_span = t.is_("cli.main")

    def med(x):
        return statistics.median(x) if len(x) else 0.0

    build = t.is_("glscore.build")
    setup_build = float(t.dur[build & (t.op == SETUP_OP)].sum())
    return {
        "glscore.setup_s": setup_build + med(t.per_op(t.dur, build, ops)),
        "glscore.evals": float((value & first).sum()),
        "glscore.eval_us.p50": 1e6 * med(t.dur[value & in_ops]),
        "glscore.information_frac": _frac(t.dur[info].sum(),
                                          t.dur[info].sum() + t.dur[cvar].sum()),
        "glscore.busy_frac": _frac(t.dur[value & in_ops].sum(), op_time),
        "glscore.inf_frac": _frac(t.count[value & in_ops].sum(), (value & in_ops).sum()),
        "robust.evals": float((robust_value & first).sum()),
        "robust.eval_us.p50": 1e6 * med(t.dur[robust_value & in_ops]),
        "robust.self_frac": _frac(t.self_time[robust_value & in_ops].sum(),
                                  t.dur[robust_value & in_ops].sum()),
        "search.evals_per_restart": float((outer_eval & first).sum()) / max(restarts, 1)
                                    if (local & first).any() else 0.0,
        "search.self_frac": _frac(t.self_time[searches & in_ops].sum(),
                                  t.dur[searches & in_ops].sum()),
        "search.reverse_greedy_s": med(t.per_op(t.dur, t.is_("search.reverse_greedy"), ops)),
        "weights.solve_s": med(t.per_op(t.dur, t.is_("weights.mixed_model_weights"), ops)),
        "weights.iterations": float(t.count[t.is_("weights.mixed_model_weights") & first].sum()),
        "apportion.solve_s": med(t.per_op(t.dur, t.is_("apportion.best_rounding"), ops)),
        "apportion.evals": float((value & first & t.under("apportion.best_rounding")).sum()),
        "cli.self_s": med(t.per_op(t.self_time, cli_span, ops)),
        "cli.bytes_written": float(bytes_written),
        "trace.overhead_frac": overhead_frac,
    }
