"""Write-ahead journal for the materialized-view pool.

A repartitioning step is a multi-operation pool mutation (evict the
parent, admit the pieces, possibly evict victims for space).  A controller
that dies between those operations must not leave the catalog half-moved —
the paper's progressive repartitioning only makes sense if the
configuration ``(V, P)`` is always one of the states the fault-free
controller would have produced.

The journal records an *undo image* for every operation inside an open
transaction: admits log the entry (undo = remove), evicts log the entry
plus its payload (undo = re-write and re-register), and base-table ingests
log the pre-batch table plus the catalog version (undo = re-install both,
stranding any cache entries stamped with the aborted version).  On a crash
the pool rolls the open transaction back in reverse order, restoring
exactly the pre-transaction configuration; the controller then retries the
step, so the faulted run converges to the same catalog trajectory as the
fault-free run — at strictly higher cost, which is the whole point.

The journal is process-local state, not a persisted file: the simulated
"disk" it would live on is this process's memory, and what matters for the
reproduction is the recovery *protocol*, not the serialization format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import PoolError

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.table import Table
    from repro.storage.pool import FragmentEntry


@dataclass
class JournalOp:
    """One journaled pool mutation with enough state to undo it."""

    op: str  # "admit" | "evict" | "ingest"
    entry: "FragmentEntry | None"
    payload: "Table | None" = None  # undo image; evicts + ingests
    # Catalog undo image (ingests only): the base table and catalog
    # version as they were before the micro-batch was appended.  The
    # version counter itself is *not* rewound on rollback, so version
    # numbers stamped by the aborted transaction are never re-issued —
    # cache entries stored mid-transaction are stranded instead of
    # aliasing later catalog states.
    catalog: "Catalog | None" = None
    table_name: str | None = None
    prior_version: int = 0


@dataclass
class Transaction:
    """One open repartitioning step."""

    tag: str
    seq: int
    ops: list[JournalOp] = field(default_factory=list)
    # Per-view cover versions at begin(): rollback restores them exactly,
    # re-validating version-keyed memo entries computed before the step.
    cover_versions: dict[str, int] = field(default_factory=dict)


class PoolJournal:
    """Undo log for multi-operation pool mutations."""

    def __init__(self) -> None:
        self.active: Transaction | None = None
        self.committed = 0
        self.rolled_back = 0
        self._seq = 0

    @property
    def journaling(self) -> bool:
        return self.active is not None

    def begin(self, tag: str, cover_versions: dict[str, int] | None = None) -> Transaction:
        if self.active is not None:
            raise PoolError(
                f"transaction {self.active.tag!r} already open; "
                f"repartitioning steps do not nest"
            )
        self._seq += 1
        self.active = Transaction(tag, self._seq, cover_versions=dict(cover_versions or {}))
        return self.active

    def record_admit(self, entry: "FragmentEntry") -> None:
        if self.active is not None:
            self.active.ops.append(JournalOp("admit", entry))

    def record_evict(self, entry: "FragmentEntry", payload: "Table") -> None:
        if self.active is not None:
            self.active.ops.append(JournalOp("evict", entry, payload))

    def record_ingest(
        self, catalog: "Catalog", name: str, prior_table: "Table", prior_version: int
    ) -> None:
        """Log a base-table append's undo image (pre-batch table + version)."""
        if self.active is not None:
            self.active.ops.append(
                JournalOp(
                    "ingest",
                    None,
                    prior_table,
                    catalog=catalog,
                    table_name=name,
                    prior_version=prior_version,
                )
            )

    def commit(self) -> None:
        if self.active is None:
            raise PoolError("commit without an open transaction")
        self.committed += 1
        self.active = None

    def take_for_rollback(self) -> Transaction:
        """Detach the open transaction so the pool can undo its ops."""
        if self.active is None:
            raise PoolError("rollback without an open transaction")
        txn = self.active
        self.active = None
        self.rolled_back += 1
        return txn
