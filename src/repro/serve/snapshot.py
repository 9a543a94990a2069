"""Epoch-pinned snapshot leases over the materialized-view pool.

A reader that plans a rewriting against the pool must be able to finish
executing it even while the single writer repartitions the very views it
is reading.  The pool already provides the two halves of an MVCC story:
a monotonic ``epoch`` bumped on every residency mutation, and immutable
``FragmentEntry`` records whose payloads never change in place (evict +
re-admit, never overwrite).  A lease therefore only needs to pin three
cheap things at acquire time — the epoch, a shallow copy of the
fragment-id map, and the per-view cover versions — and to guarantee that
payloads of entries that *leave* the pool remain readable while any lease
that could reference them is alive.

That guarantee is the :class:`SnapshotManager`'s retention store: the
pool's ``retention`` hook offers every departing entry's payload before
its file is deleted, and the manager keeps it for exactly as long as some
active lease predates the eviction.  Reads prefer the live file (so the
common, race-free case costs nothing extra) and fall back to the
retained payload — byte-identical by construction — only when the writer
won the race.

Locking: ``acquire`` must run under the service's plan lock (so the
snapshot is consistent with the plan just built against the live pool);
the manager's own lock protects the lease table and retention store,
which the writer thread mutates through the hook.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING

from repro.errors import BlockLostError, PoolError, RecoveryError

if TYPE_CHECKING:
    from repro.engine.cost import CostLedger
    from repro.engine.table import Table
    from repro.storage.pool import FragmentEntry, MaterializedViewPool


class LeasedPoolView:
    """A read-only pool facade pinned to one lease's epoch.

    Exposes exactly the surface the executor and the execution-side
    caches consult — ``uid``/``epoch``/``cover_version`` for cache keys,
    ``get_fragment``/``read_entry``/``whole_view_entry`` for evaluation,
    ``hdfs`` for the prune classifier's min/max peeks — resolving entry
    lookups against the pinned snapshot and payload reads against
    live-file-then-retained.
    """

    def __init__(self, lease: "EpochLease"):
        self._lease = lease
        self._pool = lease.manager.pool
        self._whole = {
            entry.key.view_id: entry
            for entry in lease.entries.values()
            if entry.key.attr is None
        }

    @property
    def uid(self) -> int:
        return self._pool.uid

    @property
    def epoch(self) -> int:
        return self._lease.epoch

    @property
    def hdfs(self):
        return self._pool.hdfs

    def cover_version(self, view_id: str) -> int:
        return self._lease.cover_versions.get(view_id, 0)

    def get_fragment(self, fragment_id: str) -> "FragmentEntry":
        try:
            return self._lease.entries[fragment_id]
        except KeyError:
            raise PoolError(
                f"fragment {fragment_id!r} not in epoch-{self._lease.epoch} snapshot"
            ) from None

    def whole_view_entry(self, view_id: str) -> "FragmentEntry | None":
        return self._whole.get(view_id)

    def read_entry(self, fragment_id: str, ledger: "CostLedger | None" = None) -> "Table":
        """The entry's payload as of the pinned epoch.

        Resolution ladder: live file (with the pool's recompute-from-base
        recovery if every replica is lost) → retained payload (the writer
        evicted the entry after this lease was acquired) → a typed
        :class:`RecoveryError` for the service's degradation ladder.
        Every successful rung returns byte-identical rows: files are
        immutable, retention copies the exact departing payload, and
        recovery is already required to reproduce equivalent bytes.
        """
        entry = self.get_fragment(fragment_id)
        pool = self._pool
        try:
            return pool.hdfs.read(entry.path, ledger, charge_payload=False)
        except BlockLostError:
            if pool.recovery is not None:
                try:
                    return pool.recovery.recover(pool, entry, ledger)
                except (PoolError, RecoveryError):
                    pass  # writer deleted the file mid-recovery; try retention
        except PoolError:
            pass  # evicted after the lease was acquired; try retention
        table = self._lease.manager.retained_read(fragment_id)
        if table is None:
            raise RecoveryError(
                f"entry {fragment_id!r} of epoch-{self._lease.epoch} snapshot is "
                f"neither live nor retained"
            )
        return table


class EpochLease:
    """One reader's pin on the pool configuration of a single epoch."""

    def __init__(
        self,
        manager: "SnapshotManager",
        lease_id: int,
        epoch: int,
        entries: "dict[str, FragmentEntry]",
        cover_versions: dict[str, int],
    ):
        self.manager = manager
        self.lease_id = lease_id
        self.epoch = epoch
        self.entries = entries
        self.cover_versions = cover_versions
        self._released = False

    def pool_view(self) -> LeasedPoolView:
        return LeasedPoolView(self)

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.manager.release(self)

    def __enter__(self) -> "EpochLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class SnapshotManager:
    """Mints epoch leases and retains payloads their snapshots still need."""

    def __init__(self, pool: "MaterializedViewPool"):
        self.pool = pool
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        # lease id -> pinned epoch
        self._active: dict[int, int] = {}
        # fragment id -> (epoch at eviction, departing payload)
        self._retained: dict[str, tuple[int, "Table"]] = {}
        self.retained_total = 0
        self.served_from_retained = 0
        pool.retention = self._retain

    def detach(self) -> None:
        """Unhook from the pool and drop every retained payload."""
        # Note ``==`` not ``is``: bound methods are minted per access.
        if self.pool.retention == self._retain:
            self.pool.retention = None
        with self._lock:
            self._retained.clear()

    # ------------------------------------------------------------------
    def acquire(self) -> EpochLease:
        """Pin the current pool configuration.  Call under the plan lock."""
        with self._lock:
            lease_id = next(self._ids)
            epoch = self.pool.epoch
            self._active[lease_id] = epoch
        return EpochLease(
            self,
            lease_id,
            epoch,
            self.pool.entries_snapshot(),
            self.pool.cover_versions_snapshot(),
        )

    def release(self, lease: EpochLease) -> None:
        with self._lock:
            self._active.pop(lease.lease_id, None)
            self._prune_locked()

    @property
    def active_leases(self) -> int:
        with self._lock:
            return len(self._active)

    # ------------------------------------------------------------------
    def _retain(self, entry: "FragmentEntry", payload: "Table") -> None:
        """Pool retention hook: runs in the writer thread, mid-eviction."""
        with self._lock:
            if not self._active:
                return  # nobody could reference this payload; drop it
            self._retained[entry.fragment_id] = (self.pool.epoch, payload)
            self.retained_total += 1

    def retained_read(self, fragment_id: str) -> "Table | None":
        with self._lock:
            item = self._retained.get(fragment_id)
            if item is None:
                return None
            self.served_from_retained += 1
            return item[1]

    def _prune_locked(self) -> None:
        """Drop payloads no active lease can reference.

        A lease pinned at epoch ``e`` can only reference entries resident
        at ``e``, so a payload evicted at epoch ``r`` is needed exactly
        while some active lease has ``e <= r`` — once every pin is newer
        than the eviction, the payload is garbage.
        """
        if not self._retained:
            return
        if not self._active:
            self._retained.clear()
            return
        oldest = min(self._active.values())
        for fid in [f for f, (r, _) in self._retained.items() if r < oldest]:
            del self._retained[fid]

    @property
    def retained_count(self) -> int:
        with self._lock:
            return len(self._retained)
