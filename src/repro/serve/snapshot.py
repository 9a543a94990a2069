"""Epoch-pinned snapshot leases over the materialized-view pool.

A reader that plans a rewriting against the pool must be able to finish
executing it even while the single writer repartitions the very views it
is reading.  The pool provides everything that takes: a monotonic
``epoch`` bumped on every residency mutation, and ``FragmentEntry``
records that each hold the immutable file written at admission (evict +
re-admit, never overwrite).  A lease pins the epoch, a shallow copy of
the fragment-id map and the per-view cover versions.  Holding an entry
holds its payload, so a payload the writer evicts stays readable for
exactly as long as some lease that pinned it is held, and becomes
garbage when the last one is released.

Reads prefer the live file, so replica damage and recovery are charged
to the reader's ledger as on the batch path, and fall back to the
entry's own file — the same bytes — when the writer won the race.

Locking: ``acquire`` must run under the service's plan lock (so the
snapshot is consistent with the plan just built against the live pool);
the manager's own lock guards only the set of live lease ids.
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
    caches consult — ``epoch``/``cover_version`` for cache keys,
    ``get_fragment``/``read_entry``/``whole_view_entry`` for evaluation —
    resolving entry lookups against the pinned snapshot.
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
    def epoch(self) -> int:
        return self._lease.epoch

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
        recovery if every replica is lost) → the entry's own file (the
        writer evicted it, or deleted it mid-recovery, after this lease
        was acquired).  Every rung returns the same rows: files are
        immutable, and recovery is required to reproduce them.
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
                    pass  # writer deleted the file mid-recovery
        except PoolError:
            pass  # evicted after the lease was acquired
        return entry.stored.table


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
        """Unpin: the lease drops its entries, and with them every payload
        the writer evicted since it was acquired and no other lease holds."""
        if not self._released:
            self._released = True
            self.entries = {}
            self.manager.release(self)

    def __enter__(self) -> "EpochLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class SnapshotManager:
    """Mints epoch leases and counts the live ones."""

    def __init__(self, pool: "MaterializedViewPool"):
        self.pool = pool
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._active: set[int] = set()

    def acquire(self) -> EpochLease:
        """Pin the current pool configuration.  Call under the plan lock."""
        with self._lock:
            lease_id = next(self._ids)
            self._active.add(lease_id)
        return EpochLease(
            self,
            lease_id,
            self.pool.epoch,
            self.pool.entries_snapshot(),
            self.pool.cover_versions_snapshot(),
        )

    def release(self, lease: EpochLease) -> None:
        with self._lock:
            self._active.discard(lease.lease_id)

    @property
    def active_leases(self) -> int:
        with self._lock:
            return len(self._active)
