"""In-memory spans for the traced benchmark run, plus the wrappers that
record them around calls into the program's layers.

Spans are kept in a plain list (``list.append`` is atomic under the GIL,
so worker threads can record without a lock) and written out once, at
the end, as Chrome trace-event JSON.  Every wrapper here sits *outside*
the program: it replaces a public attribute (``plan.steps``,
``step.gemms``, ``GraphPlan.run``, a module-level function) for the
duration of a traced phase and restores it afterwards.  The untraced
run installs none of them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: Optional[int] = None
    request_id: Optional[int] = None
    tid: int = 0
    args: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans; the parent of a span is the innermost open span
    of the same thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Set by :func:`traced_plans`: the span of the plan run the
        #: calling thread finished last.
        self.last_run: Callable[[], Optional[Span]] = lambda: None
        #: Plans :func:`traced_plans` has instrumented, in first-run order.
        self.plans: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, *, request_id: Optional[int] = None,
             **args):
        stack = self._stack()
        span = Span(name, time.perf_counter_ns(), 0, next(self._ids),
                    parent_id=stack[-1] if stack else None,
                    request_id=request_id, tid=threading.get_ident(),
                    args=args)
        stack.append(span.span_id)
        try:
            yield span
        finally:
            stack.pop()
            span.end_ns = time.perf_counter_ns()
            self.spans.append(span)

    def add(self, name: str, start_ns: int, end_ns: int, *,
            request_id: Optional[int] = None, **args) -> Span:
        """Record a span whose ends were timed elsewhere."""
        span = Span(name, start_ns, end_ns, next(self._ids),
                    request_id=request_id, tid=threading.get_ident(),
                    args=args)
        self.spans.append(span)
        return span

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write_chrome(self, path, metadata: Optional[dict] = None) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        t0 = min((s.start_ns for s in self.spans), default=0)
        events = []
        for s in sorted(self.spans, key=lambda s: s.start_ns):
            args = dict(s.args, id=s.span_id)
            if s.parent_id is not None:
                args["parent"] = s.parent_id
            if s.request_id is not None:
                args["request_id"] = s.request_id
            events.append({
                "name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
                "ts": (s.start_ns - t0) / 1000.0,
                "dur": s.dur_ns / 1000.0, "args": args,
            })
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": metadata or {}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the durations of its child spans.

    Children come from one thread's stack, so they run one after
    another inside their parent and never overlap.
    """
    spans = list(spans)
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] = child_ns.get(s.parent_id, 0) + s.dur_ns
    return {s.span_id: s.dur_ns - child_ns.get(s.span_id, 0)
            for s in spans}


# -- wrappers around the program's layers -------------------------------------


class _TracedGemm:
    """Stands in for one bound GEMM of a compiled step (``step.gemms[i]``
    or ``step.gemm``); everything but the call is forwarded."""

    def __init__(self, inner, tracer: Tracer, layer: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = layer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, a):
        inner = self._inner
        with self._tracer.span("gemm", layer=self._layer, m=a.shape[0],
                               n=inner.n, k=inner.k):
            return inner(a)


class _TracedStep:
    """Stands in for one compiled plan step; records a span per call."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._kind = type(inner).__name__.strip("_")

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, arrays, result):
        with self._tracer.span("step", kind=self._kind,
                               layer=self._inner.label):
            return self._inner(arrays, result)


def _instrument_steps(plan, tracer: Tracer) -> Callable[[], None]:
    """Wrap ``plan.steps`` and their bound GEMMs; returns the undo."""
    original = list(plan.steps)
    undo = []
    for step in original:
        label = getattr(step, "stats_label", step.label)
        gemms = getattr(step, "gemms", None)
        if gemms:
            undo.append((step, "gemms", gemms))
            step.gemms = [_TracedGemm(g, tracer, label) for g in gemms]
        gemm = getattr(step, "gemm", None)
        if gemm is not None:
            undo.append((step, "gemm", gemm))
            step.gemm = _TracedGemm(gemm, tracer, label)
    plan.steps = [_TracedStep(s, tracer) for s in original]

    def restore() -> None:
        plan.steps = original
        for obj, attr, value in undo:
            setattr(obj, attr, value)
    return restore


@contextlib.contextmanager
def traced_plans(tracer: Tracer):
    """Trace every ``GraphPlan.run`` (and its steps and bound GEMMs)
    called inside the block, including plans owned by a server.

    The span of the run a worker thread finished last is kept in
    ``tracer.last_run`` (thread-local), so a future's done-callback,
    which runs on that thread, can tell which run served its request.
    """
    from repro.runtime.plan import GraphPlan

    original_run = GraphPlan.run
    restores: dict[int, Callable[[], None]] = {}
    local = threading.local()
    tracer.last_run = lambda: getattr(local, "span", None)

    def run(plan, x):
        if id(plan) not in restores:
            restores[id(plan)] = _instrument_steps(plan, tracer)
            tracer.plans.append(plan)
        with tracer.span("plan.run", batch=int(x.shape[0])) as span:
            result = original_run(plan, x)
        local.span = span
        return result

    GraphPlan.run = run
    try:
        yield
    finally:
        GraphPlan.run = original_run
        for restore in restores.values():
            restore()


@contextlib.contextmanager
def patched(module, name: str, wrapper_factory):
    """Replace ``module.name`` by ``wrapper_factory(original)`` inside
    the block."""
    original = getattr(module, name)
    setattr(module, name, wrapper_factory(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def span_wrapper(tracer: Tracer, span_name: str):
    """Factory for :func:`patched`: time every call as one span."""
    def factory(fn):
        def wrapped(*args, **kwargs):
            with tracer.span(span_name):
                return fn(*args, **kwargs)
        return wrapped
    return factory
