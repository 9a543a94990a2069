"""The seeded random stream that turns a schedule into concrete faults.

One :class:`FaultInjector` is minted per system run (never shared across
runs): all decisions come from a single PCG64 stream seeded by the
schedule, so a run's fault sequence depends only on (schedule, call
sequence) — and the engine's call sequence is deterministic, which is what
makes ``workers=1`` and ``workers=2`` chaos runs byte-identical.

Every fired fault and every completed recovery appends one line to the
event log; the determinism harness asserts the logs are identical across
worker counts, and the chaos CLI prints the counts.

The serving layer shares one injector between its reader threads and the
writer, so every draw site holds the injector's lock for its whole draw:
numpy's ``Generator`` is not thread-safe, and an event's ``seq`` must be
its index in the log.  Draw *order* across threads is then scheduling-
dependent, which is fine there — the serving invariant is checked on
answers, not on event logs.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.engine.cost import CostLedger
    from repro.faults.schedule import FaultSchedule

# A failed task's retry chain is bounded: after this many attempts the
# simulated scheduler blacklists the node and the task succeeds elsewhere.
_MAX_TASK_ATTEMPTS = 4


@dataclass(frozen=True)
class InjectedEvent:
    """One fired fault (or completed recovery), in firing order."""

    seq: int
    site: str
    kind: str
    detail: str

    def line(self) -> str:
        return f"{self.seq}:{self.site}:{self.kind}:{self.detail}"


def _serialized(draw):
    """Run one draw site under the injector's lock."""

    @functools.wraps(draw)
    def locked(self, *args):
        with self._lock:
            return draw(self, *args)

    return locked


class FaultInjector:
    """Draws fault decisions for every injection site, logging each one."""

    def __init__(self, schedule: "FaultSchedule") -> None:
        self.schedule = schedule
        self._rng = np.random.Generator(np.random.PCG64(schedule.seed))
        self._rates = {spec.kind: spec.rate for spec in schedule.specs}
        self.events: list[InjectedEvent] = []
        self._lock = threading.Lock()

    # Ledgers carry their injector, and fan-out workers pickle ledgers
    # back to the parent: the lock stays behind and a fresh one is made.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _record(self, site: str, kind: str, detail: str) -> None:
        self.events.append(InjectedEvent(len(self.events), site, kind, detail))

    def event_log(self) -> tuple[str, ...]:
        return tuple(event.line() for event in self.events)

    @property
    def fired(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Injection sites
    # ------------------------------------------------------------------
    @_serialized
    def map_task_faults(self, tasks: int) -> tuple[list[int], int]:
        """Failures and stragglers among ``tasks`` map tasks of one scan.

        Returns ``(retry_chains, stragglers)``: one entry per failed task
        giving how many *re-executions* it needed (each re-execution may
        fail again at the same rate, capped), and the number of tasks that
        straggled badly enough to trigger a speculative duplicate.
        """
        frate = self._rates.get("task_failure", 0.0)
        srate = self._rates.get("straggler", 0.0)
        chains: list[int] = []
        if frate > 0.0 and tasks > 0:
            failures = int(self._rng.binomial(tasks, frate))
            for _ in range(failures):
                attempts = 1
                while attempts < _MAX_TASK_ATTEMPTS and self._rng.random() < frate:
                    attempts += 1
                chains.append(attempts)
            if failures:
                self._record(
                    "cost.read",
                    "task_failure",
                    f"{failures}/{tasks} tasks failed, {sum(chains)} re-executions",
                )
        stragglers = 0
        if srate > 0.0 and tasks > 0:
            stragglers = int(self._rng.binomial(tasks, srate))
            if stragglers:
                self._record(
                    "cost.read",
                    "straggler",
                    f"{stragglers}/{tasks} speculative duplicates",
                )
        return chains, stragglers

    @_serialized
    def block_read_faults(self, path: str, size_bytes: float, ledger: "CostLedger") -> None:
        """Replica-level damage on one file read, charged to ``ledger``.

        A lost replica costs a full re-read from a surviving sibling; a
        corrupt block costs the checksum detection (one task overhead)
        plus the re-read.  Neither changes the payload returned.
        """
        cluster = ledger.cluster
        lrate = self._rates.get("replica_loss", 0.0)
        if lrate > 0.0 and self._rng.random() < lrate:
            ledger.charge_fault(cluster.read_elapsed(size_bytes, nfiles=1))
            self._record("storage.read", "replica_loss", path)
        crate = self._rates.get("block_corruption", 0.0)
        if crate > 0.0 and self._rng.random() < crate:
            ledger.charge_fault(
                cluster.task_overhead_s + cluster.read_elapsed(size_bytes, nfiles=1)
            )
            self._record("storage.read", "block_corruption", path)

    @_serialized
    def lose_fragment(self, n_candidates: int) -> int | None:
        """Index of the pool entry losing all replicas this query, if any."""
        rate = self._rates.get("fragment_loss", 0.0)
        if rate <= 0.0 or n_candidates <= 0:
            return None
        if self._rng.random() >= rate:
            return None
        index = int(self._rng.integers(n_candidates))
        self._record("pool", "fragment_loss", f"entry {index} of {n_candidates}")
        return index

    @_serialized
    def controller_crash(self, site: str) -> bool:
        """Does the controller die at this repartitioning step?"""
        rate = self._rates.get("controller_crash", 0.0)
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self._record(site, "controller_crash", "died before commit")
        return True

    @_serialized
    def worker_crash(self, site: str) -> bool:
        """One executor-worker death draw at the ``worker_kill`` rate.

        Where :meth:`worker_kill_plan` pre-draws a whole fan-out batch,
        this is the per-attempt form used by long-lived executors (the
        serving layer): each query attempt asks once whether its worker
        dies mid-flight, and a ``True`` is surfaced as a
        :class:`~repro.errors.WorkerCrashError` that the caller's bounded
        retry-with-backoff absorbs.
        """
        rate = self._rates.get("worker_kill", 0.0)
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self._record(site, "worker_kill", "executor worker died mid-query")
        return True

    @_serialized
    def worker_kill_plan(self, n_tasks: int) -> dict[int, int]:
        """Which fan-out tasks get their first attempt's worker killed.

        Maps task index to the number of leading attempts to kill — the
        ``fault_plan`` consumed by :func:`repro.parallel.pool.fan_out`.
        """
        rate = self._rates.get("worker_kill", 0.0)
        plan: dict[int, int] = {}
        if rate > 0.0:
            for index in range(n_tasks):
                if self._rng.random() < rate:
                    plan[index] = 1
        if plan:
            self._record("parallel", "worker_kill", f"tasks {sorted(plan)} of {n_tasks}")
        return plan

    # ------------------------------------------------------------------
    # Recovery bookkeeping (logged so the chaos report shows both sides)
    # ------------------------------------------------------------------
    @_serialized
    def record_recovery(self, site: str, detail: str) -> None:
        self._record(site, "recovery", detail)
