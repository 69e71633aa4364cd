"""The span recorder of the traced run, and the wrappers that feed it.

A span is ``(id, name, start, end, parent, request, counts)``: the layer
it times, its ``perf_counter`` interval, the span that caused it (0 for a
root), the id of the request's root span, and the counts recorded at the
same boundary (rows, nodes, bytes).  Spans stay in memory and are
written out once, at the end of the run.

:func:`install` wraps the public functions of each layer *where the
calling module looks them up* -- ``repro.api.database.optimize``, not
``repro.relational.optimizer.optimize`` -- so the program itself is
unchanged; the returned callable restores every original.  A layer's
self time is its span's duration minus the part of it covered by its
child spans (:func:`layer_totals`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def context(self) -> tuple[int, int]:
        """``(current span, current request)`` of the calling thread."""
        return getattr(self._local, "ctx", (0, 0))

    @contextmanager
    def adopt(self, ctx: tuple[int, int]):
        """Continue a span context captured on another thread (a request
        handed from the HTTP thread to the query pool)."""
        saved = self.context()
        self._local.ctx = ctx
        try:
            yield
        finally:
            self._local.ctx = saved

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Time the body as one span; yields its (mutable) counts dict.

        ``root=True`` starts a new request: the span has no parent and
        its id becomes the request id of every span under it.
        """
        saved = self.context()
        sid = next(self._ids)
        parent, rid = (0, sid) if root else (saved[0], saved[1])
        counts: dict = {}
        self._local.ctx = (sid, rid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._local.ctx = saved
            self.spans.append((sid, name, start, end, parent, rid, counts or None))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_spans(path: str) -> list[tuple]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans: list[tuple]) -> dict:
    """Per span name: ``self`` seconds, ``calls`` and summed ``counts``,
    split into spans inside a request (``"req"``) and outside (``"bg"``,
    e.g. the document load at set-up)."""
    children: dict[int, list] = defaultdict(list)
    for sid, _name, start, end, parent, _rid, _counts in spans:
        if parent:
            children[parent].append((start, end))
    out: dict = {"req": {}, "bg": {}}
    for sid, name, start, end, _parent, rid, counts in spans:
        slot = out["req" if rid else "bg"].setdefault(
            name, {"self": 0.0, "total": 0.0, "calls": 0, "counts": defaultdict(float)}
        )
        slot["total"] += end - start
        slot["self"] += (end - start) - _covered(children.get(sid, []), start, end)
        slot["calls"] += 1
        for key, value in (counts or {}).items():
            slot["counts"][key] += value
    return out


# --------------------------------------------------------------- wrappers
def install(tracer: Tracer, server: bool = False):
    """Wrap every traced layer boundary; returns the undo callable.

    ``server=True`` also wraps the serving layers: each ``POST`` handled
    by ``repro.server.http`` becomes a request root, and the query pool
    continues the handler thread's span context.
    """
    import repro.api.database as database_mod
    import repro.api.prepared as prepared_mod
    import repro.relational.evaluate as evaluate_mod
    import repro.xquery.core as core_mod
    import repro.xquery.parser as parser_mod
    from repro.api.concurrency import RWLock
    from repro.api.database import Database
    from repro.api.plan_cache import PlanCache
    from repro.encoding.arena import NodeArena
    from repro.encoding.store import DocumentStore
    from repro.relational import algebra as alg
    from repro.relational.optimizer import CardinalityEstimator

    undo: list = []

    def patch(owner, attr: str, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = original.__func__ if isinstance(original, classmethod) else original
        wrapped = make(target)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    def timed(name, count=None):
        """Wrapper factory: one span per call, ``count(counts, result,
        args)`` records the boundary's counts."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name) as counts:
                    result = fn(*args, **kwargs)
                    if count is not None:
                        count(counts, result, args)
                    return result

            return wrapper

        return make

    # front end: parse -> desugar -> loop-lift -> optimize
    for owner in (database_mod, parser_mod):
        patch(owner, "parse_query", timed("xquery.parse"))
    for owner in (database_mod, core_mod):
        patch(owner, "desugar_module", timed("xquery.desugar"))

    def compiler_class(cls):
        def plan_ops(counts, plan, args):
            counts["plan_ops"] = alg.op_count(plan)

        compile_module = timed("loop_lifting.compile", plan_ops)(cls.compile_module)
        return type(cls.__name__, (cls,), {"compile_module": compile_module})

    patch(database_mod, "Compiler", compiler_class)

    def optimizer_counts(counts, plan, args):
        stats = args[1] if len(args) > 1 else None
        if stats is not None:
            counts["pass_runs"] = sum(ps.runs for ps in stats.pass_stats)
            counts["plan_ops"] = stats.ops_after

    patch(database_mod, "optimize", timed("optimizer.optimize", optimizer_counts))

    in_estimator = threading.local()

    def estimator(fn):
        # estimate() recurses through the plan: only the outermost call
        # of a thread is a span
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(in_estimator, "active", False):
                return fn(*args, **kwargs)
            in_estimator.active = True
            try:
                with tracer.span("optimizer.estimator"):
                    return fn(*args, **kwargs)
            finally:
                in_estimator.active = False

        return wrapper

    patch(CardinalityEstimator, "estimate", estimator)
    patch(CardinalityEstimator, "from_database", estimator)

    # plan cache and catalog lock
    def cache_get(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = self.stats.invalidations
            with tracer.span("plan_cache.lookup") as counts:
                entry = fn(self, *args, **kwargs)
                counts["lookups"] = 1
                counts["hits"] = int(entry is not None)
                # a stale entry is dropped (and counted) inside get()
                counts["invalidations"] = self.stats.invalidations - before
            return entry

        return wrapper

    patch(PlanCache, "get", cache_get)

    def invalidated(counts, dropped, args):
        counts["invalidations"] = dropped

    patch(PlanCache, "invalidate_document", timed("plan_cache.invalidate", invalidated))
    patch(RWLock, "acquire_read", timed("database.read_lock_wait"))

    # execution, axis steps, construction, serialization
    def evaluated(fn):
        @functools.wraps(fn)
        def wrapper(root, ctx):
            before = ctx.arena.num_nodes
            with tracer.span("evaluate.execute") as counts:
                table = fn(root, ctx)
                counts["result_rows"] = table.num_rows
                counts["nodes_added"] = ctx.arena.num_nodes - before
                return table

        return wrapper

    patch(prepared_mod, "evaluate", evaluated)
    for step in ("staircase_step", "twig_match", "naive_step"):
        patch(evaluate_mod, step, timed("staircase.step"))
    patch(NodeArena, "attr_ranges", timed("arena.attr_ranges"))

    def chunked(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            while True:
                with tracer.span("serialize.serialize") as counts:
                    chunk = next(chunks, None)
                    if chunk is not None:
                        counts["output_bytes"] = len(chunk.encode("utf-8"))
                if chunk is None:
                    return
                yield chunk

        return wrapper

    patch(prepared_mod, "iter_serialized_chunks", chunked)

    # updates and the write-ahead log
    def apply_update(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = self.arena.num_nodes
            with tracer.span("database.apply_update") as counts:
                result = fn(self, *args, **kwargs)
                counts["nodes_added"] = self.arena.num_nodes - before
                return result

        return wrapper

    patch(Database, "apply_update", apply_update)

    def append_wal(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = self.wal_bytes
            with tracer.span("store.append_wal") as counts:
                fn(self, *args, **kwargs)
                counts["wal_bytes"] = self.wal_bytes - before

        return wrapper

    patch(DocumentStore, "append_wal", append_wal)
    patch(database_mod, "shred_text", timed("shred.load"))

    if server:
        _install_server(tracer, patch, timed)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return restore


def _install_server(tracer: Tracer, patch, timed) -> None:
    """The serving layers: HTTP request roots and the service pool hop."""
    from repro.server.http import QueryServiceHandler
    from repro.server.service import QueryService

    def dispatch(fn):
        @functools.wraps(fn)
        def wrapper(self, route):
            if self.command != "POST":
                return fn(self, route)
            with tracer.span("http.request", root=True):
                return fn(self, route)

        return wrapper

    patch(QueryServiceHandler, "_dispatch", dispatch)
    patch(QueryService, "execute_stream", timed("service.execute"))
    patch(QueryService, "execute_update", timed("service.execute"))

    def submit(fn):
        @functools.wraps(fn)
        def wrapper(self, task, deadline):
            ctx = tracer.context()

            def in_context(session):
                with tracer.adopt(ctx):
                    return task(session)

            return fn(self, in_context, deadline)

        return wrapper

    patch(QueryService, "_submit", submit)
