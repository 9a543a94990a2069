"""The query service: admission, epoch-pinned readers, degradation ladder.

:class:`QueryService` turns one :class:`~repro.core.deepsea.DeepSea`
instance into a long-lived concurrent service:

* **Admission.**  ``submit`` either enqueues a ticket or raises a typed
  :class:`~repro.errors.Overloaded` — clients are never blocked and never
  hung.  Admitted queries also feed the single writer's adaptation loop
  (where *that* is saturated, learning is shed, not serving).
* **Readers.**  N threads pull tickets.  Each attempt plans under the
  shared plan lock (matching memos and the writer's mutations are
  serialized there), pins an epoch lease, and executes *outside* the lock
  against the leased snapshot — readers never block on the writer for the
  expensive part, and never observe a half-applied repartitioning.
  Readers answer; the writer learns from the same query without
  answering it, reading the plan record the reader left.
* **Deadlines.**  A ticket whose deadline passes while queued or between
  retries resolves as :class:`~repro.errors.DeadlineExceeded` — typed,
  counted, never a hang.
* **Degradation ladder.**  A failed attempt (injected worker crash, a
  lost block that recovery could not heal, any engine fault) is retried
  with backoff against a *fresh* lease — re-planned at the current epoch,
  so a query that raced a repartitioning of its best view simply falls
  back to whatever cover now exists.  When retries are exhausted the
  final rung executes the pushed-down plan directly against the base
  tables, which cannot lose a race with the pool.  Views are semantically
  transparent, so every rung returns byte-identical rows: the ladder
  trades cost for robustness, never answers.

The per-query outcome is a :class:`QueryOutcome` with machine-readable
status and error kinds, so the load driver can audit the accounting
invariant: ``answered + shed + timed_out + failed == offered``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.cost import CostLedger
from repro.engine.executor import ExecutionContext, Executor
from repro.errors import DeadlineExceeded, ReproError, WorkerCrashError
from repro.query.optimizer import push_down
from repro.serve.queue import AdmissionQueue
from repro.serve.snapshot import SnapshotManager
from repro.serve.writer import PoolWriter

if TYPE_CHECKING:
    from repro.core.deepsea import DeepSea
    from repro.engine.table import Table
    from repro.query.algebra import Plan

# How long a blocked reader waits before re-checking for shutdown.
_POLL_S = 0.05


@dataclass
class QueryOutcome:
    """What happened to one admitted query."""

    index: int
    status: str  # "answered" | "timed_out" | "failed"
    latency_s: float
    sim_cost_s: float = 0.0
    epoch: "int | None" = None
    retries: int = 0
    # "none" (planned path, first try), "replan" (answered after at least
    # one fresh-lease retry), "direct" (final base-table rung).
    degraded: str = "none"
    error_kind: "str | None" = None
    used_view: bool = False
    table: "Table | None" = field(default=None, repr=False)


class ServeTicket:
    """A client's handle on one admitted query."""

    def __init__(self, index: int, plan: "Plan", deadline_s: "float | None"):
        self.index = index
        self.plan = plan
        self.submitted = time.monotonic()
        self.deadline_s = deadline_s
        self.deadline = None if deadline_s is None else self.submitted + deadline_s
        self._done = threading.Event()
        self.outcome: "QueryOutcome | None" = None

    def result(self, timeout: "float | None" = None) -> "QueryOutcome | None":
        """Wait for the outcome; ``None`` only if ``timeout`` expires."""
        self._done.wait(timeout)
        return self.outcome


class QueryService:
    """A bounded-queue, N-reader, single-writer serving layer.

    Chaos is the system's: with a :meth:`~repro.core.deepsea.DeepSea.attach_faults`
    injector attached, storage damage, controller crashes and per-attempt
    reader deaths all draw from its one stream, which serializes its own
    draws.
    """

    def __init__(
        self,
        system: "DeepSea",
        *,
        workers: int = 2,
        queue_depth: int = 32,
        deadline_s: "float | None" = None,
        retries: int = 2,
        backoff_s: float = 0.005,
        adapt: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.system = system
        self.retries = retries
        self.backoff_s = backoff_s
        self.deadline_s = deadline_s
        self.plan_lock = threading.RLock()
        self.queue = AdmissionQueue(queue_depth)
        self.snapshots = SnapshotManager(system.pool)
        self.writer = PoolWriter(system, self.plan_lock, depth=queue_depth * 4) if adapt else None
        self._readers = [
            threading.Thread(target=self._reader_loop, name=f"serve-reader-{i}", daemon=True)
            for i in range(workers)
        ]
        self._mlock = threading.Lock()
        self._seq = 0
        self.answered = 0
        self.timed_out = 0
        self.failed = 0
        self.retry_count = 0
        self.degraded_direct = 0
        self.via_view = 0
        self._started = False

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        if not self._started:
            self._started = True
            if self.writer is not None:
                self.writer.start()
            for thread in self._readers:
                thread.start()
        return self

    def submit(self, plan: "Plan", *, deadline_s: "float | None" = None) -> ServeTicket:
        """Admit one query or raise :class:`~repro.errors.Overloaded`."""
        with self._mlock:
            self._seq += 1
            index = self._seq
        ticket = ServeTicket(
            index, plan, self.deadline_s if deadline_s is None else deadline_s
        )
        self.queue.offer(ticket)  # Overloaded propagates; ticket never queued
        if self.writer is not None:
            self.writer.feed(plan)
        return ticket

    def feed_batch(self, name: str, rows) -> bool:
        """Offer an ingest micro-batch; the writer thread applies it as a
        journaled transaction under the plan lock, between queries — no
        reader ever observes a half-applied append (snapshot leases pin
        the pre-batch configuration; post-batch reads see the exact
        post-maintenance fragments).  Returns ``False`` when shed (no
        writer, or feed saturated)."""
        if self.writer is None:
            return False
        return self.writer.feed_batch(name, rows)

    def stop(self, *, drain_writer: bool = True, timeout: float = 60.0) -> None:
        """Close admission, finish queued tickets, stop readers + writer."""
        self.queue.close()
        for thread in self._readers:
            if thread.is_alive():
                thread.join(timeout)
        if self.writer is not None:
            self.writer.stop(drain=drain_writer, timeout=timeout)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Counters for reporting and the accounting-invariant audit."""
        with self._mlock:
            counts = {
                "answered": self.answered,
                "timed_out": self.timed_out,
                "failed": self.failed,
                "retries": self.retry_count,
                "degraded_direct": self.degraded_direct,
                "via_view": self.via_view,
            }
        faults = self.system.faults
        out = {
            "offered": self.queue.offered,
            "shed": self.queue.shed,
            **counts,
            "pool_epoch": self.system.pool.epoch,
            "fault_events": faults.fired if faults is not None else 0,
        }
        if self.writer is not None:
            out["writer"] = {
                "steps": self.writer.steps,
                "batches": self.writer.batches,
                "dropped": self.writer.dropped,
                "errors": len(self.writer.errors),
            }
        out["accounted"] = (
            out["answered"] + out["shed"] + out["timed_out"] + out["failed"]
        )
        out["accounting_ok"] = out["accounted"] == out["offered"]
        return out

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def _reader_loop(self) -> None:
        while True:
            ticket = self.queue.take(_POLL_S)
            if ticket is None:
                if self.queue.closed:
                    return
                continue
            self._serve(ticket)

    def _serve(self, ticket: ServeTicket) -> None:
        retries = 0
        last_kind: "str | None" = None
        while True:
            now = time.monotonic()
            if ticket.deadline is not None and now > ticket.deadline:
                exc = DeadlineExceeded(ticket.deadline_s, now - ticket.submitted)
                self._resolve(
                    ticket, "timed_out", retries=retries, error_kind=exc.kind
                )
                return
            try:
                table, sim_cost, epoch, used_view = self._attempt(ticket.plan)
            except ReproError as exc:
                last_kind = exc.kind
                if retries < self.retries:
                    retries += 1
                    with self._mlock:
                        self.retry_count += 1
                    time.sleep(self.backoff_s * retries)
                    continue
                break  # retry budget spent: drop to the base-table rung
            except Exception as exc:  # a real bug, not adversity — surface it
                self._resolve(ticket, "failed", retries=retries, error_kind=type(exc).__name__)
                return
            self._resolve(
                ticket,
                "answered",
                table=table,
                sim_cost_s=sim_cost,
                epoch=epoch,
                retries=retries,
                degraded="replan" if retries else "none",
                used_view=used_view,
            )
            return
        try:
            table, sim_cost = self._direct(ticket.plan)
        except Exception as exc:  # a real bug, not adversity — surface it
            self._resolve(
                ticket,
                "failed",
                retries=retries,
                error_kind=getattr(exc, "kind", type(exc).__name__),
            )
            return
        self._resolve(
            ticket,
            "answered",
            table=table,
            sim_cost_s=sim_cost,
            retries=retries,
            degraded="direct",
            error_kind=last_kind,
        )

    def _attempt(self, plan: "Plan"):
        """One planned attempt: plan under the lock, execute epoch-pinned."""
        with self.plan_lock:
            chosen = self._plan(plan)
            lease = self.snapshots.acquire()
        try:
            faults = self.system.faults
            if faults is not None and faults.worker_crash("serve.reader"):
                raise WorkerCrashError("injected reader death mid-query")
            ledger = CostLedger(self.system.cluster)
            ledger.faults = faults
            to_run = (
                chosen.plan
                if chosen is not None
                else push_down(plan, self.system.schemas)
            )
            executor = Executor(
                ExecutionContext(self.system.catalog, lease.pool_view(), self.system.cluster)
            )
            result = executor.execute(to_run, ledger)
            return result.table, ledger.total_seconds, lease.epoch, chosen is not None
        finally:
            lease.release()

    def _plan(self, plan: "Plan"):
        """Best rewriting against the live pool, or ``None`` for direct.

        Planning trouble is never fatal — it degrades to direct execution,
        which the matching layer already treats as the universal fallback.
        Readers and the writer plan through the one ``Rewriter.plan`` under
        the same lock, and it records every query it plans: whichever of
        the two comes second reads the first one's record, extended by the
        candidates the writer registered for the query, so a served query
        is planned once.
        """
        try:
            return self.system.rewriter.plan(plan).chosen
        except ReproError:
            return None

    def _direct(self, plan: "Plan"):
        """The ladder's floor: base tables only, no pool, no crash draws."""
        ledger = CostLedger(self.system.cluster)
        executor = Executor(
            ExecutionContext(self.system.catalog, None, self.system.cluster)
        )
        result = executor.execute(push_down(plan, self.system.schemas), ledger)
        return result.table, ledger.total_seconds

    def _resolve(self, ticket: ServeTicket, status: str, **kwargs) -> None:
        outcome = QueryOutcome(
            index=ticket.index,
            status=status,
            latency_s=time.monotonic() - ticket.submitted,
            **kwargs,
        )
        with self._mlock:
            if status == "answered":
                self.answered += 1
                if outcome.degraded == "direct":
                    self.degraded_direct += 1
                if outcome.used_view:
                    self.via_view += 1
            elif status == "timed_out":
                self.timed_out += 1
            else:
                self.failed += 1
        ticket.outcome = outcome
        ticket._done.set()
