"""Named table catalog.

The catalog maps base-relation names to :class:`~repro.engine.table.Table`
instances.  Materialized views live in the pool (``repro.storage.pool``),
not here; the executor resolves ``Relation`` leaves against the catalog and
``MaterializedScan`` leaves against the pool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.table import Table
from repro.errors import CatalogError

if TYPE_CHECKING:
    from repro.storage.journal import PoolJournal


class Catalog:
    """A registry of base tables.

    ``version`` changes on every mutation; the plan record and the
    estimate memo key on it, so an entry computed against one catalog
    state can never be served against another.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self.version: int = 0
        # Version numbers are drawn from this monotonic counter rather
        # than incrementing ``version`` directly: a journal rollback of an
        # aborted ingest restores ``version`` to its pre-transaction value
        # but never rewinds the counter, so a version stamped by the
        # aborted transaction can never be re-issued for different
        # content — memo entries keyed on it are stranded, not aliased.
        self._version_seq: int = 0

    def _bump_version(self) -> None:
        self._version_seq += 1
        self.version = self._version_seq

    def register(self, name: str, table: Table) -> None:
        if name in self._tables:
            raise CatalogError(f"table already registered: {name!r}")
        self._tables[name] = table
        self._bump_version()

    def replace(self, name: str, table: Table) -> None:
        """Register or overwrite (used by tests and workload rescaling)."""
        self._tables[name] = table
        self._bump_version()

    # ------------------------------------------------------------------
    # Incremental ingest (micro-batch appends)
    # ------------------------------------------------------------------
    def batch_table(self, name: str, rows: "Table | dict") -> Table:
        """Coerce a micro-batch into a table appendable to ``name``.

        A dict of column sequences is built against the base table's
        schema; either form inherits the base *scale* so ``size_bytes``
        accounting stays consistent across the append.
        """
        base = self.get(name)
        if isinstance(rows, Table):
            if rows.schema.names != base.schema.names:
                raise CatalogError(
                    f"batch schema {rows.schema.names} does not match "
                    f"{name!r} schema {base.schema.names}"
                )
            if rows.scale == base.scale:
                return rows
            return Table(rows.schema, dict(rows.columns), base.scale)
        return Table.from_dict(base.schema, rows, scale=base.scale)

    def ingest(
        self, name: str, rows: "Table | dict", *, journal: "PoolJournal | None" = None
    ) -> Table:
        """Append a micro-batch to base table ``name`` and bump the version.

        The prior table object is never mutated (readers holding a
        reference — snapshot leases, cached fixtures sharing the catalog's
        tables — keep their rows): :meth:`Table.append` installs a new
        table whose first rows are the old one's, sharing its storage
        whenever this catalog is the only one growing it.  When ``journal``
        has an open transaction the pre-batch table and version are logged
        first (WAL discipline), so a crash mid-ingest rolls the catalog
        back exactly.  Returns the batch as appended.
        """
        base = self.get(name)
        batch = self.batch_table(name, rows)
        if journal is not None:
            journal.record_ingest(self, name, base, self.version)
        self._tables[name] = base.append(batch)
        self._bump_version()
        return batch

    def fork(self, _ident: "tuple | None" = None) -> "Catalog":
        """An independent catalog holding the same (immutable) tables.

        Ingest benchmarks and determinism tasks append to *forks* of the
        shared benchmark fixtures: tables are never mutated (``ingest``
        installs a new table; two forks growing one parent each get their
        own storage for the rows they add), so sharing the table objects
        is safe, while versions and registrations diverge freely.
        The fork starts with this catalog's version counter.  ``_ident``
        is accepted and ignored: ``perfbench/workloads.py`` still passes
        one positionally.
        """
        fork = Catalog()
        fork._tables = dict(self._tables)
        fork.version = self.version
        fork._version_seq = self._version_seq
        return fork

    def rollback_ingest(self, name: str, table: Table, version: int) -> None:
        """Undo one journaled append: re-install the pre-batch table and
        version (the version *counter* is deliberately left alone)."""
        self._tables[name] = table
        self.version = version

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def names(self) -> list[str]:
        return sorted(self._tables)

    @property
    def total_size_bytes(self) -> float:
        """Combined nominal size of all base tables."""
        return sum(t.size_bytes for t in self._tables.values())
