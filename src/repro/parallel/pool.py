"""The process-pool executor: deterministic fan-out of independent tasks.

One parent loop, :func:`fan_out`: one task per dispatch, cold workers,
optional per-task timeout.  Design constraints, in order:

1. **Determinism.**  Results are returned in *task order*, never in
   completion or submission order.  Workers return ``(index, value)``
   pairs and the parent slots each value by index, so any interleaving of
   completions — and any deliberate shuffling of submissions — produces
   the same output list.  Combined with per-worker cache isolation this
   makes parallel ledgers byte-identical to serial ones.
2. **Closures over specs.**  Benchmark factories are lambdas closing over
   multi-hundred-MB fixtures; pickling them is either impossible or
   ruinous.  The pool therefore uses the ``fork`` start method and passes
   tasks to workers *by inheritance*: the parent parks the task list in a
   module global, forks, and sends only integer indexes over the pipe.
   Results still cross the pipe by pickling — see
   :meth:`repro.engine.table.Table.__getstate__` for why that stays
   cheap.  On platforms without ``fork`` the executor degrades to serial
   execution (same results, no speedup) unless every task is picklable —
   use :mod:`repro.parallel.tasks` specs to guarantee that.
3. **Isolation.**  Every worker starts by calling
   :func:`repro.caches.clear_all_caches`: nothing cached in the parent
   before the fork can influence a worker's run, and — because caches
   auto-register with :mod:`repro.caches` on import — a newly added cache
   cannot be missed.  The caches are semantically transparent, so this is
   belt-and-braces for byte-identical ledgers, not a correctness
   requirement.
4. **No hangs.**  The parent owns one pipe per worker and multiplexes
   them with :func:`multiprocessing.connection.wait`, so a worker that
   dies (crash, OOM-kill, ``os._exit``) surfaces as EOF on its pipe
   instead of a result that never arrives.  The orphaned task is
   re-dispatched to a fresh worker up to ``retries`` extra times; an
   optional per-task timeout kills and re-dispatches stuck tasks the same
   way.  Exhausted retries raise a typed
   :class:`~repro.errors.WorkerCrashError` naming the task, never a
   silent ``None`` and never a hang.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Sequence, TypeVar

from repro import caches
from repro.errors import WorkerCrashError

T = TypeVar("T")

# Tasks inherited by forked workers (see module docstring, point 2).
# Only ever non-None inside a pool call; parallel sections do not nest (a
# worker that calls fan_out again runs its tasks serially, since its own
# _TASKS is set — the guard in fan_out).
_TASKS: "Sequence[Callable[[], Any]] | None" = None

# How long to wait for a killed worker process to be reaped before
# escalating from terminate() to kill().
_REAP_GRACE_S = 2.0


def _worker_main(conn) -> None:
    """Worker loop: receive one task at a time, send its result.

    A message from the parent is ``(index, attempt, crashes)`` or ``None``,
    the stop sentinel; the finished task goes back as ``("ok", index,
    value)`` (or ``("err", index, exc)``).  ``crashes`` is the task's
    entry in the caller's ``fault_plan``: while ``attempt <= crashes``
    the worker dies via ``os._exit`` *before* running the task — an
    honest hard crash (no exception, no cleanup, just a dead process and
    an EOF on the pipe) used by the chaos tests to prove the parent's
    crash detection end to end.

    The worker starts by dropping every cache forked from the parent.
    """
    caches.clear_all_caches()
    while True:
        try:
            unit = conn.recv()
        except (EOFError, OSError):
            return
        if unit is None:
            return
        index, attempt, crashes = unit
        if attempt <= crashes:
            os._exit(17)
        try:
            value = _TASKS[index]()
        except BaseException as exc:  # propagate to the parent, keep serving
            try:
                conn.send(("err", index, exc))
            except Exception:
                conn.send(("err", index, RuntimeError(repr(exc))))
            continue
        conn.send(("ok", index, value))


@dataclass
class _Worker:
    """Parent-side handle for one worker process."""

    proc: Any
    conn: Any
    # Index of the dispatched task still awaiting its result.
    current: "int | None" = None
    deadline: "float | None" = None

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        self.proc.terminate()
        self.proc.join(_REAP_GRACE_S)
        if self.alive:
            self.proc.kill()
            self.proc.join()
        self.conn.close()

    def shutdown(self) -> None:
        """Ask the worker to stop, give it a moment to exit, then reap it."""
        try:
            if self.alive:
                self.conn.send(None)
                self.proc.join(_REAP_GRACE_S)
        except OSError:
            pass
        self.kill()


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def fan_out(
    tasks: Sequence[Callable[[], T]],
    workers: int = 0,
    *,
    submission_order: "Sequence[int] | None" = None,
    retries: int = 1,
    task_timeout: "float | None" = None,
    fault_plan: "dict[int, int] | None" = None,
) -> list[T]:
    """Run independent thunks, results in task order for any worker count.

    ``workers <= 1`` (or a single task, or a platform without ``fork``,
    or a nested call from inside a worker) runs serially in-process —
    the degenerate pool.  ``submission_order`` permutes the order tasks
    are *handed to* the pool without affecting the order results are
    *returned* in; it exists so the determinism tests can prove that
    claim.

    The parent keeps a deque of task indexes and one pipe per worker,
    multiplexed with :func:`multiprocessing.connection.wait`: an idle
    worker's drained pipe *is* its pull of the next task.  A worker that
    dies (EOF), outlives ``task_timeout`` (real seconds per dispatch), or
    turns out to have died while idle (the dispatch's send fails) is
    killed, its task goes back to the *front* of the deque so its retry
    budget settles before new work starts, and a fresh worker takes the
    slot.  A task is re-dispatched up to ``retries`` extra times; when it
    exhausts its dispatches, :class:`~repro.errors.WorkerCrashError` is
    raised with the task index — the pool never hangs and never silently
    drops a result.  ``fault_plan`` maps a task index to a number of
    leading dispatches whose worker hard-crashes before running it (the
    chaos hook; see :func:`repro.faults.injector.FaultInjector.
    worker_kill_plan`).  Because results are slotted by index and each
    re-run executes the identical thunk, crashes perturb scheduling only
    — outputs are byte-identical to a crash-free run.
    """
    global _TASKS
    tasks = list(tasks)
    order = list(range(len(tasks))) if submission_order is None else list(submission_order)
    if sorted(order) != list(range(len(tasks))):
        raise ValueError("submission_order must be a permutation of the task indexes")
    if retries < 0:
        raise ValueError("retries must be >= 0")

    results: list[Any] = [None] * len(tasks)
    serial = (
        workers <= 1
        or len(tasks) <= 1
        or not fork_available()
        or _TASKS is not None  # nested call from inside a pool worker
    )
    if serial:
        for index in order:
            results[index] = tasks[index]()
        return results

    pending: deque[int] = deque(order)
    fault_plan = fault_plan or {}
    dispatches = [0] * len(tasks)
    context = multiprocessing.get_context("fork")

    def spawn() -> _Worker:
        parent_conn, child_conn = context.Pipe()
        proc = context.Process(target=_worker_main, args=(child_conn,), daemon=True)
        proc.start()
        # Close the child end immediately: after this, the only open copy
        # lives in the child, so its death is an EOF on parent_conn.
        child_conn.close()
        return _Worker(proc, parent_conn)

    def dispatch(worker: _Worker, index: int) -> None:
        if dispatches[index] > retries:
            raise WorkerCrashError(
                f"task {index} lost its worker {dispatches[index]} time(s); "
                f"retry limit ({retries}) exhausted",
                index=index,
                dispatches=dispatches[index],
            )
        dispatches[index] += 1
        worker.current = index
        if task_timeout is not None:
            worker.deadline = time.monotonic() + task_timeout
        worker.conn.send((index, dispatches[index], fault_plan.get(index, 0)))

    def replace(slot: int) -> None:
        worker = crew[slot]
        worker.kill()
        pending.appendleft(worker.current)
        crew[slot] = spawn()

    _TASKS = tasks
    crew = [spawn() for _ in range(min(workers, len(pending)))]
    done = 0
    try:
        while done < len(tasks):
            for slot, worker in enumerate(crew):
                if worker.current is None and pending:
                    index = pending.popleft()
                    try:
                        dispatch(worker, index)
                    except OSError:
                        # The idle worker died between tasks; the task was
                        # never received, so it keeps its dispatch budget.
                        dispatches[index] -= 1
                        replace(slot)
            busy = [w for w in crew if w.current is not None]
            if not busy:
                # Every dispatch of this pass failed on a dead pipe; loop
                # back to hand the re-queued tasks to the fresh workers
                # instead of waiting on an empty pipe set (never wakes).
                continue
            wait_for = None
            if task_timeout is not None:
                wait_for = max(min(w.deadline for w in busy) - time.monotonic(), 0.0)
            ready = connection.wait([w.conn for w in busy], wait_for)
            now = time.monotonic()
            for slot, worker in enumerate(crew):
                if worker.current is None:
                    continue
                if worker.conn not in ready:
                    if worker.deadline is not None and now >= worker.deadline:
                        replace(slot)
                    continue
                try:
                    kind, index, payload = worker.conn.recv()
                except (EOFError, OSError):
                    replace(slot)
                    continue
                if kind == "err":
                    raise payload
                results[index] = payload
                done += 1
                worker.current = None
    finally:
        _TASKS = None
        for worker in crew:
            worker.shutdown()
    return results
