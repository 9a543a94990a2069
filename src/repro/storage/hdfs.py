"""Simulated distributed file system.

Stores the payload (a :class:`~repro.engine.table.Table`) for every
materialized view and fragment under a path, tracks per-file nominal byte
sizes, and lets callers charge read/write time against a
:class:`~repro.engine.cost.CostLedger`.  This stands in for HDFS in the
original DeepSea deployment: files are immutable, writes are expensive,
and each file is scanned by at least one map task.

Fault semantics (:mod:`repro.faults`): an attached
:class:`~repro.faults.injector.FaultInjector` can damage individual
replicas on read (charged as re-reads, payload unchanged) and a file can
lose *all* replicas via :meth:`lose_replicas`, after which a plain read
raises :class:`~repro.errors.BlockLostError` until :meth:`restore` heals
the file with a recomputed payload.  Caller bugs — duplicate writes,
unknown paths — stay :class:`~repro.errors.PoolError`, so recoverable
cluster damage is catchable distinctly from programming errors.  Every
failed operation leaves ``used_bytes``/``file_count`` exactly as they
were: mutations happen only after all checks pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.cost import CostLedger
from repro.engine.table import Table
from repro.errors import BlockLostError, PoolError, RecoveryError

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True)
class StoredFile:
    """One immutable file: its payload and nominal size."""

    path: str
    table: Table
    size_bytes: float


class SimulatedHDFS:
    """An in-memory stand-in for HDFS."""

    def __init__(self) -> None:
        self._files: dict[str, StoredFile] = {}
        self._lost: set[str] = set()
        self._faults: "FaultInjector | None" = None

    def attach_faults(self, injector: "FaultInjector | None") -> None:
        """Route replica-level read faults through ``injector``."""
        self._faults = injector

    def write(self, path: str, table: Table, ledger: CostLedger | None = None) -> StoredFile:
        """Store ``table`` at ``path``, charging write cost if a ledger is given.

        A simulated disk write is a natural materialization boundary:
        late-materialized views are gathered into plain tables here, so a
        stored fragment is self-contained and never pins the (possibly
        much larger) root table its selection vector pointed into.
        """
        if path in self._files:
            raise PoolError(f"file already exists: {path!r}")
        table = table.materialize()
        stored = StoredFile(path, table, table.size_bytes)
        self._files[path] = stored
        if ledger is not None:
            ledger.charge_write(stored.size_bytes, nfiles=1)
        return stored

    def read(
        self,
        path: str,
        ledger: CostLedger | None = None,
        *,
        charge_payload: bool = True,
    ) -> Table:
        """Fetch the payload at ``path``.

        ``charge_payload=False`` skips the base read charge for callers
        (the executor) that account scans themselves, while still running
        the fault draws and charging any replica-damage penalty to
        ``ledger``.  A file with every replica lost raises
        :class:`BlockLostError` — recovery lives one layer up, in the
        pool.
        """
        stored = self._get(path)
        if path in self._lost:
            raise BlockLostError(path)
        if ledger is not None and charge_payload:
            ledger.charge_read(stored.size_bytes, nfiles=1)
        if self._faults is not None and ledger is not None:
            self._faults.block_read_faults(path, stored.size_bytes, ledger)
        return stored.table

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise PoolError(f"no such file: {path!r}")
        del self._files[path]
        self._lost.discard(path)

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def lose_replicas(self, path: str) -> None:
        """Mark every replica of ``path`` as lost (injected damage)."""
        if path not in self._files:
            raise PoolError(f"no such file: {path!r}")
        self._lost.add(path)

    def is_lost(self, path: str) -> bool:
        return path in self._lost

    def restore(self, path: str, table: Table) -> StoredFile:
        """Heal a lost file with a recomputed payload of identical size.

        The recovery invariant — faults change cost, never answers —
        requires the recomputed payload to be byte-equivalent; a size
        mismatch means the recomputation diverged, which must surface as
        a hard :class:`RecoveryError`, never as silent corruption.
        """
        stored = self._get(path)
        if table.size_bytes != stored.size_bytes:
            raise RecoveryError(
                f"recomputed payload for {path!r} is {table.size_bytes:.0f} bytes, "
                f"stored size was {stored.size_bytes:.0f}"
            )
        self._files[path] = StoredFile(path, table, stored.size_bytes)
        self._lost.discard(path)
        return self._files[path]

    def peek(self, path: str) -> Table:
        """The payload regardless of replica damage — the journal's view.

        A write-ahead journal logs undo images *before* damage can strike;
        this models that: recovery machinery may read what a plain client
        cannot.
        """
        return self._get(path).table

    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    @property
    def used_bytes(self) -> float:
        return sum(f.size_bytes for f in self._files.values())

    @property
    def file_count(self) -> int:
        return len(self._files)

    def _get(self, path: str) -> StoredFile:
        try:
            return self._files[path]
        except KeyError:
            raise PoolError(f"no such file: {path!r}") from None
