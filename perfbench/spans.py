"""Spans around the program's public functions, and the layer metrics.

``install`` wraps each function in ``LAYERS`` in every module namespace
that binds it, so calls between modules and inside a module are both
recorded, without editing the program. A span is
``[id, parent, name, thread, start, end, attrs]``; spans are kept in
memory and written out when the traced pass ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, function); the layer metric prefix is "module.function"
LAYERS = (
    ("graphs", "random_gnp"),
    ("graphs", "build_matrix"),
    ("graphs", "parse_graph6"),
    ("linalg", "eigenvalues_sym"),
    ("bounds", "full_report"),
    ("bounds", "classical_bounds"),
    ("bounds", "generalized_bounds"),
    ("bounds", "normalized_bounds"),
    ("bounds", "chain_bounds"),
    ("bounds", "integer_c_search"),
    ("oracle", "chromatic_number"),
    ("oracle", "colorable_with"),
    ("oracle", "greedy_coloring"),
    ("oracle", "all_graphs"),
    ("certify", "build_conversion"),
    ("certify", "verify_majorization_step"),
    ("certify", "verify_loan_identity"),
    ("experiments", "random_table"),
    ("cli", "main"),
)
PACKAGE = "spectral_chroma"


def _shape_n(a) -> int:
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape else len(a)


def _eigen_work(args, kwargs, result) -> dict:
    # work is n^3 per dense symmetric eigensolve
    return {"work": _shape_n(args[0] if args else kwargs["a"]) ** 3}


def _integer_c_work(args, kwargs, result) -> dict:
    # per candidate B, one stack of n-1 matrices of size n x n is solved
    g = args[0] if args else kwargs["g"]
    extra = args[1] if len(args) > 1 else kwargs.get("extra_b")
    candidates = 3 + (extra is not None)
    n = g.n
    return {"work": candidates * (n - 1) * n**3, "stack_bytes": (n - 1) * n * n * 8}


def _colorable_outcome(args, kwargs, result) -> dict:
    return {"hit": int(result is not None)}


def _certify_outcome(args, kwargs, result) -> dict:
    ok = getattr(result, "ok", True)
    return {"failed": int(not ok)}


ATTRS = {
    "linalg.eigenvalues_sym": _eigen_work,
    "bounds.integer_c_search": _integer_c_work,
    "oracle.colorable_with": _colorable_outcome,
    "certify.build_conversion": _certify_outcome,
    "certify.verify_majorization_step": _certify_outcome,
    "certify.verify_loan_identity": _certify_outcome,
}
RAISE_ATTRS = {name: {"failed": 1} for name in ATTRS if name.startswith("certify.")}


class Tracer:
    """Thread-safe span recorder; spans nest through a per-thread stack.

    A span opened on a thread with no open span takes the outermost open
    span as its parent, so work on pool threads nests under the call that
    started the pool.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else self._root
            if self._root is None:
                self._root = span_id
        span = [span_id, parent, name, threading.get_ident(), self.clock(), None, None]
        stack.append(span)
        return span

    def close(self, span: list, attrs: dict | None = None) -> None:
        span[5] = self.clock()
        span[6] = attrs
        self._stack().pop()
        with self._lock:
            if self._root == span[0]:
                self._root = None
            self.spans.append(span)

    def suspend(self) -> None:
        """Take a generator's span off this thread's stack between items."""

        self._stack().pop()

    def resume(self, span: list) -> None:
        self._stack().append(span)


def wrap(fn, name: str, tracer: Tracer):
    attrs_of = ATTRS.get(name)
    on_raise = RAISE_ATTRS.get(name)
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            # the span covers the iteration, from the first item to exhaustion
            items = fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                while True:
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    tracer.suspend()
                    try:
                        yield item
                    finally:
                        tracer.resume(span)
            finally:
                tracer.close(span)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span, on_raise)
            raise
        tracer.close(span, attrs_of(args, kwargs, result) if attrs_of else None)
        return result

    return wrapper


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every layer function where the program's modules bind it.

    Returns the wrapped callables by layer name.
    """

    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == PACKAGE]
    wrapped = {}
    for module_name, func_name in LAYERS:
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
        name = f"{module_name}.{func_name}"
        wrapped[name] = wrap(original, name, tracer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped[name])
    return wrapped


# --------------------------------------------------------------------------
# metrics from spans


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """A span's duration minus the part of it its child spans cover."""

    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    out = {}
    for span_id, _, _, _, start, end, _ in spans:
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span_id, ())
            if hi > start and lo < end
        ]
        out[span_id] = (end - start) - union_length(clipped)
    return out


def peak_threads(spans: list[list]) -> int:
    """Most threads with a span open at one instant."""

    thread_of = {span[0]: span[3] for span in spans}
    events = []
    for span_id, parent, _, thread, start, end, _ in spans:
        if parent is None or thread_of.get(parent) != thread:  # outermost on its thread
            events += [(start, 1), (end, -1)]
    peak = current = 0
    for _, step in sorted(events):  # at equal times an end (-1) sorts before a start
        current += step
        peak = max(peak, current)
    return peak


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every per-layer metric the spans of one traced pass give."""

    own = self_times(spans)
    out: dict[str, float] = {}
    for module_name, func_name in LAYERS:
        name = f"{module_name}.{func_name}"
        mine = [span for span in spans if span[2] == name]
        attrs = [span[6] or {} for span in mine]
        out[f"{name}.self_s"] = sum((own[span[0]] for span in mine), 0.0)
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.work"] = sum(a.get("work", 0) for a in attrs)
        out[f"{name}.stack_bytes"] = max((a.get("stack_bytes", 0) for a in attrs), default=0)
        out[f"{name}.failures"] = sum(a.get("failed", 0) for a in attrs)
        out[f"{name}.hit_ratio"] = sum(a.get("hit", 0) for a in attrs) / len(mine) if mine else 0.0
    out["cli.threads_seen"] = peak_threads(spans)
    out["trace.self_sum_s"] = sum(own.values())
    out["trace.spans"] = len(spans)
    return out
