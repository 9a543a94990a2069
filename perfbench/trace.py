"""Outside-in tracing: spans around the public calls into each layer.

Nothing in ``src/repro`` is edited.  A :class:`SpanRecorder` is handed to
``DeepSea`` as its ``profiler`` (the existing ``.stage(name)`` /
``.queries`` protocol) for the four driver stages, public methods are
replaced *on the instances* of one system by recording wrappers, and the
serving layer's plan lock is swapped for a :class:`TimedLock` before the
service starts.  Spans stay in memory and are written out once, after
the measured stretch.

A span is ``(id, name, start, end, parent id, query id, count)``: spans
of one query share the query id, ``parent`` is the span that was open on
the same thread when this one began (0 at top level), and ``count`` is
an optional size read off the call's result (matches found, rewritings
built).  A layer's *self time* is its span minus the part its child
spans cover, so self times of all spans add up to the top-level spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

_WRITER_THREAD = "serve-writer"


class _OpenSpan:
    """Context manager for one span (the ``profiler.stage`` protocol)."""

    __slots__ = ("recorder", "name", "token")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.token = self.recorder.open(self.name)

    def __exit__(self, *exc):
        self.recorder.close(self.token)


class SpanRecorder:
    """Collects spans and point samples from every thread of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # Durations that do not nest on a thread's stack (a lease outlives
        # the lock it was taken under; queue wait ends on another thread).
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.queries = 0  # incremented by DeepSea.execute (profiler protocol)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread state ------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.qid = None
            return self._local.stack

    def set_query(self, qid) -> None:
        """Every span this thread closes from now on belongs to ``qid``."""
        self._stack()
        self._local.qid = qid

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, name, parent, time.perf_counter()

    def close(self, token: tuple, count: "int | None" = None) -> None:
        end = time.perf_counter()
        sid, name, parent, start = token
        self._local.stack.pop()
        self.spans.append((sid, name, start, end, parent, self._local.qid, count))

    def stage(self, name: str) -> _OpenSpan:
        """``DeepSea``'s profiler hook: the four driver stages."""
        return _OpenSpan(self, "core." + name)

    def wrap(self, obj, method: str, name: str, *, count=None, query=None) -> None:
        """Replace ``obj.method`` on the instance by a recording wrapper.

        ``count(result)`` fills the span's count; ``query()`` is evaluated
        before the call and names the query the call starts.
        """
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            if query is not None:
                self.set_query(query())
            token = self.open(name)
            n = None
            try:
                result = inner(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                self.close(token, n)

        setattr(obj, method, traced)

    @staticmethod
    def per_span_cost_s(n: int = 20_000) -> float:
        """Wall seconds one wrapped call adds, measured on a scratch recorder."""

        class _Noop:
            def call(self):
                return None

        bare, traced = _Noop(), _Noop()
        SpanRecorder().wrap(traced, "call", "calibration")
        costs = []
        for target in (bare, traced):
            call = target.call
            t0 = time.perf_counter()
            for _ in range(n):
                call()
            costs.append((time.perf_counter() - t0) / n)
        return max(costs[1] - costs[0], 0.0)

    def write(self, path: Path, session: int) -> None:
        """Append this recorder's spans, one JSON object per line."""
        with path.open("a") as out:
            for sid, name, start, end, parent, qid, count in self.spans:
                record = {"session": session, "id": sid, "name": name, "start": start,
                          "end": end, "parent": parent, "query": qid}
                if count is not None:
                    record["count"] = count
                out.write(json.dumps(record) + "\n")


class TimedLock:
    """Stands in for the service's plan ``RLock`` and records, per thread,
    how long each outermost acquisition waited and how long it was held."""

    def __init__(self, lock, recorder: SpanRecorder):
        self._lock = lock
        self._recorder = recorder
        self._local = threading.local()

    def acquire(self, *args, **kwargs) -> bool:
        depth = getattr(self._local, "depth", 0)
        if depth:
            self._lock.acquire(*args, **kwargs)
            self._local.depth = depth + 1
            return True
        recorder = self._recorder
        role = "readers"
        if threading.current_thread().name == _WRITER_THREAD:
            role = "writer"
            recorder.set_query(None)  # the step's id is not known until execute()
        wait = recorder.open("serve.plan_lock_wait." + role)
        acquired = self._lock.acquire(*args, **kwargs)
        recorder.close(wait)
        if acquired:
            self._local.depth = 1
            self._local.hold = recorder.open("serve.plan_lock_hold." + role)
        return acquired

    def release(self) -> None:
        self._local.depth -= 1
        if self._local.depth == 0:
            self._recorder.close(self._local.hold)
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def install(recorder: SpanRecorder, system, service=None) -> None:
    """Wrap the public calls into every layer of one system (and service).

    Call before ``service.start()``: the lock proxy has to be in place
    before any reader or the writer touches the plan lock.
    """
    system.profiler = recorder
    serving = service is not None
    # Writer-side adaptation steps are not client queries: keep their ids apart.
    step = (lambda: f"w{system.clock + 1}") if serving else (lambda: system.clock + 1)
    recorder.wrap(system, "execute", "core.execute", query=step)
    # A batch carries the id of the query it is applied before.
    recorder.wrap(system, "ingest", "storage.ingest", query=step)

    rewriter = system.rewriter
    recorder.wrap(rewriter, "find_matches", "matching.find_matches", count=len)
    recorder.wrap(rewriter, "build_rewritings", "matching.build_rewritings", count=len)
    recorder.wrap(rewriter, "estimate_plan_cost", "matching.estimate_plan_cost")
    recorder.wrap(rewriter, "estimate_saving", "matching.estimate_saving")

    # execute_with_capture delegates to self.execute, so one wrapper sees both.
    recorder.wrap(system.executor, "execute", "engine.execute")

    pool = system.pool
    recorder.wrap(pool, "read_entry", "storage.pool_read")
    recorder.wrap(pool, "add_fragment", "storage.admit")
    recorder.wrap(pool, "add_whole_view", "storage.admit")
    recorder.wrap(pool, "patch_entry", "storage.admit")
    recorder.wrap(pool, "evict", "storage.evict")
    recorder.wrap(pool, "begin", "storage.journal_begin")
    recorder.wrap(pool, "commit", "storage.journal_commit")
    recorder.wrap(pool, "rollback", "storage.journal_rollback")

    if serving:
        _install_service(recorder, service)


def _install_service(recorder: SpanRecorder, service) -> None:
    lock = TimedLock(service.plan_lock, recorder)
    service.plan_lock = lock
    if service.writer is not None:
        service.writer.plan_lock = lock

    queue = service.queue
    recorder.wrap(queue, "offer", "serve.offer")
    take = queue.take

    def traced_take(*args, **kwargs):
        token = recorder.open("serve.take")
        ticket = None
        try:
            ticket = take(*args, **kwargs)
            return ticket
        finally:
            if ticket is not None:
                recorder.samples["serve.queue_wait"].append(
                    time.monotonic() - ticket.submitted
                )
                recorder.set_query(ticket.index)
            recorder.close(token)

    queue.take = traced_take

    snapshots = service.snapshots
    acquire, release = snapshots.acquire, snapshots.release
    leased_at: dict[int, float] = {}

    def traced_acquire():
        token = recorder.open("serve.lease_acquire")
        try:
            lease = acquire()
            leased_at[lease.lease_id] = time.perf_counter()
            return lease
        finally:
            recorder.close(token)

    def traced_release(lease):
        started = leased_at.pop(lease.lease_id, None)
        if started is not None:
            recorder.samples["serve.lease_hold"].append(time.perf_counter() - started)
        return release(lease)

    snapshots.acquire = traced_acquire
    snapshots.release = traced_release


# ----------------------------------------------------------------------
# Roll-up
# ----------------------------------------------------------------------
def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run on the same thread one after another, so
    the part they cover is the sum of their durations.
    """
    own = {span[0]: span[3] - span[2] for span in spans}
    for sid, _name, start, end, parent, _qid, _count in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def roll_up(spans) -> dict[str, dict]:
    """Per span name: calls, total self seconds, and summed counts."""
    own = self_times(spans)
    layers: dict[str, dict] = {}
    for sid, name, _start, _end, _parent, _qid, count in spans:
        layer = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
        layer["calls"] += 1
        layer["self_s"] += own[sid]
        layer["count"] += count or 0
    return layers


def durations(spans, name: str) -> list[float]:
    """Full durations of every span called ``name``."""
    return [end - start for _sid, n, start, end, *_ in spans if n == name]
