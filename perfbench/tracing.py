"""Spans around biscount's layer functions, installed from outside the package.

The tracer replaces each traced function in the namespace of every biscount
module that binds it (so ``general_count.truncated_log_xi`` and
``expander.truncated_log_xi`` are both wrapped), records one span per call and
restores the originals on ``uninstall``.  Generator functions are timed over
their iterations through a wrapping iterator; a generator span's busy time is
the sum of its ``next`` calls.  Spans stay in memory until the run ends.

Span times come from the clock the tracer is given; ``one_pass`` gives it
one that leaves out the speedometer's slices (``calibrate``).

Each thread has its own span stack.  A span opened on a thread whose stack is
empty (a pool worker of ``count_expander``) takes the main thread's innermost
open span as its parent, so the two sides of a count nest under the op.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
from typing import Any, Callable

# (module, function, item counter): the counter maps a call's result, or each
# item a generator yields, to the work it stands for (universe size, clusters,
# configurations, families, D draws)
TARGETS: list[tuple[str, str, Callable[[Any], int] | None]] = [
    ("polymers", "enumerate_polymers", len),
    ("polymers", "incompatibility_masks", None),
    ("polymers", "enumerate_clusters", lambda _: 1),
    ("polymers", "iter_compatible_configs", lambda _: 1),
    ("cluster_expansion", "verify_kp", None),
    ("cluster_expansion", "truncated_log_xi", None),
    ("cluster_expansion", "exact_xi", None),
    ("containers", "distinct_nonexpanding_closed", None),
    ("containers", "small_generator", None),
    ("general_count", "count_general", None),
    ("general_count", "count_general_exact", None),
    ("general_count", "assemble_exact", None),
    ("general_count", "enumerate_families", lambda _: 1),
    ("general_count", "exhaustive_D", None),
    ("general_count", "estimate_D", lambda r: r.samples_used),
    ("expander", "count_expander", None),
    ("expander", "count_hardcore_expander", None),
    ("expander", "sample_expander", None),
    ("expander", "sample_hardcore_expander", None),
    ("expander", "sampler_tables", None),
    ("oracle", "exact_count_bipartite", None),
]
# methods of the oracle sampler, both recorded under one span name
SAMPLER_METHODS = ("__init__", "sample")


class Span:
    __slots__ = ("id", "name", "start", "end", "busy", "parent", "thread", "op",
                 "items", "hits")

    def __init__(self, sid: int, name: str, parent: int | None, thread: int, op: int):
        self.id = sid
        self.name = name
        self.start = self.end = 0.0
        self.busy = 0.0
        self.parent = parent
        self.thread = thread
        self.op = op
        self.items = 0
        self.hits = 0


class Tracer:
    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock  # span times read this clock
        self.spans: list[Span] = []
        self.op_kinds: dict[int, str] = {}
        self._op = 0
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
        return stack

    def _open(self, name: str) -> tuple[Span, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(), self._op)
            self.spans.append(span)
        return span, stack

    def op(self, kind: str) -> "_OpScope":
        return _OpScope(self, kind)

    # -- wrappers -------------------------------------------------------------

    def _wrap_call(self, name: str, fn: Callable, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span, stack = tracer._open(name)
            stack.append(span.id)
            span.start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                span.busy = span.end - span.start
                stack.pop()
            if counter is not None:
                span.items = counter(out)
                span.hits = getattr(out, "hits", 0)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, name: str, fn: Callable, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span, _ = tracer._open(name)
            return _TracedIter(tracer, fn(*args, **kwargs), span, counter)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod_name, attr, counter in TARGETS:
            home = sys.modules.get(f"{package.__name__}.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue  # renamed or removed by a later version; reported as 0
            name = f"{mod_name}.{attr}"
            wrap = self._wrap_gen if inspect.isgeneratorfunction(original) else self._wrap_call
            wrapper = wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        sampler = getattr(sys.modules.get(f"{package.__name__}.oracle"), "ExactSampler", None)
        if sampler is not None:
            for meth in SAMPLER_METHODS:
                original = sampler.__dict__[meth]
                self._patched.append((sampler, meth, original))
                setattr(sampler, meth, self._wrap_call("oracle.ExactSampler", original, None))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- reduction ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: busy time minus the time its children cover.  Children on
        the span's own thread never overlap, so their busy times add up (a
        generator child's busy time excludes the consumer's work between its
        items); children on other threads count as the union of their
        intervals."""
        same: dict[int, float] = {}
        other: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is None:
                continue
            if s.thread == self.spans[s.parent].thread:
                same[s.parent] = same.get(s.parent, 0.0) + s.busy
            else:
                other.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for s in self.spans:
            covered = same.get(s.id, 0.0)
            reach = s.start
            for a, b in sorted(other.get(s.id, ())):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(max(0.0, s.busy - covered))
        return out

    def dump(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "busy": s.busy, "self": own, "parent": s.parent,
                    "thread": s.thread, "op": s.op, "op_kind": self.op_kinds.get(s.op),
                    "items": s.items,
                }) + "\n")


class _OpScope:
    """The root span of one op; spans opened inside it share its op id."""

    def __init__(self, tracer: Tracer, kind: str):
        self.tracer = tracer
        self.kind = kind

    def __enter__(self) -> None:
        t = self.tracer
        t._op += 1
        t.op_kinds[t._op] = self.kind
        self.span, self.stack = t._open("op")
        self.stack.append(self.span.id)
        self.span.start = t.clock()

    def __exit__(self, *exc) -> None:
        self.span.end = self.tracer.clock()
        self.span.busy = self.span.end - self.span.start
        self.stack.pop()


class _TracedIter:
    """Times each ``next`` of a generator as busy time of one span, with the
    span on the thread's stack only while the generator body runs."""

    def __init__(self, tracer: Tracer, it, span: Span, counter):
        self.tracer = tracer
        self.it = it
        self.span = span
        self.counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        span = self.span
        stack = self.tracer._stack()
        stack.append(span.id)
        t0 = self.tracer.clock()
        if not span.start:
            span.start = t0
        try:
            item = next(self.it)
        finally:
            span.end = self.tracer.clock()
            span.busy += span.end - t0
            stack.pop()
        if self.counter is not None:
            span.items += self.counter(item)
        return item
