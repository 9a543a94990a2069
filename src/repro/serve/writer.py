"""The single writer: adaptation applied as journaled transactions.

Exactly one thread mutates the pool.  It consumes the admitted query
stream (readers answer; the writer *learns*) and takes each query through
the full DeepSea loop — matching, statistics, selection, materialization,
refinement — under the service's plan lock, without answering it
(``DeepSea.execute(plan, answer=False)``).  It plans the query through
the same ``Rewriter.plan`` record the reader made, extended by the
candidates the writer just registered for it, so a query is planned once
between them; and it runs the query only when a selected view is to be
captured from its execution.  Every repartitioning step is
an atomic begin/commit transaction, chaos attached or not, and snapshot
readers rely on that atomicity: between
two plan-lock acquisitions the pool is always a committed configuration,
and a crashed step's rollback restores the exact pre-step bytes and
cover versions the readers' leases were promised.

The feed is itself a bounded :class:`~repro.serve.queue.AdmissionQueue`:
under overload, adaptation work is shed (counted, never blocking the
admission path).  A service that is too busy to learn keeps answering —
the pool just stops improving until pressure drops, which is the
degradation the serving layer promises.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import Overloaded
from repro.serve.queue import AdmissionQueue

if TYPE_CHECKING:
    from repro.core.deepsea import DeepSea
    from repro.query.algebra import Plan

# How long a blocked take() waits before re-checking for shutdown.
_POLL_S = 0.05


@dataclass(frozen=True)
class IngestBatch:
    """Feed sentinel: append ``rows`` to base table ``name``.

    Rides the same bounded feed as adaptation work — batches queue behind
    (and interleave with) learning steps, and the writer applies each one
    atomically under the plan lock via ``DeepSea.ingest`` (journaled, so
    snapshot readers between two lock acquisitions always see a committed
    catalog + pool pair).
    """

    name: str
    rows: Any


class PoolWriter:
    """One thread applying DeepSea's adaptive steps as transactions."""

    def __init__(self, system: "DeepSea", plan_lock: threading.RLock, *, depth: int = 64):
        self.system = system
        self.plan_lock = plan_lock
        self._feed: AdmissionQueue = AdmissionQueue(depth)
        self._thread = threading.Thread(
            target=self._loop, name="serve-writer", daemon=True
        )
        self._draining = threading.Event()
        self.steps = 0
        self.batches = 0
        self.errors: list[str] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def feed(self, plan: "Plan") -> bool:
        """Offer one admitted query to the adaptation loop.

        Returns ``False`` when the feed is saturated and the query's
        evidence is dropped — load shedding for the learning path.
        """
        try:
            self._feed.offer(plan)
            return True
        except Overloaded:
            return False

    def feed_batch(self, name: str, rows) -> bool:
        """Offer one ingest micro-batch to the writer.

        Same shedding contract as :meth:`feed` — ``False`` means the feed
        is saturated and the batch was dropped (the caller owns durability
        of unaccepted batches; the serving layer promises only that an
        *accepted* batch is applied atomically or not at all).
        """
        try:
            self._feed.offer(IngestBatch(name, rows))
            return True
        except Overloaded:
            return False

    def stop(self, *, drain: bool = True, timeout: "float | None" = 30.0) -> None:
        """Stop the writer, by default after finishing the queued feed."""
        if drain:
            self._draining.set()
        self._feed.close()
        if self._thread.is_alive():
            self._thread.join(timeout)

    @property
    def dropped(self) -> int:
        return self._feed.shed

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            plan = self._feed.take(_POLL_S)
            if plan is None:
                if self._feed.closed:
                    return
                continue
            if self._feed.closed and not self._draining.is_set():
                continue  # fast shutdown: discard without executing
            with self.plan_lock:
                try:
                    if isinstance(plan, IngestBatch):
                        self.system.ingest(plan.name, plan.rows)
                        self.batches += 1
                    else:
                        # A reader answered this query; the writer only learns
                        # from it.
                        self.system.execute(plan, answer=False)
                        self.steps += 1
                except Exception as exc:
                    # The writer must outlive any single bad step, a bug
                    # included: the repartitioner's crash_safe has already
                    # rolled the journal back, so the pool is a committed
                    # configuration and the next query can proceed.  The
                    # error is counted, so a gate reading metrics() sees it.
                    self.errors.append(
                        f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
                    )
