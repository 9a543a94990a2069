"""The materialized-view pool — DeepSea's *configuration* (Definition 3).

The pool holds the set of views ``V`` currently materialized and, for each
view and partition attribute, the set of fragment intervals ``P(V, A)``.
Pool entries are managed at fragment granularity, which is what enables
DeepSea's fine-grained eviction: a single fragment of a partitioned view
can be dropped while its siblings stay resident.  An unpartitioned view
(the NP baseline, or a view the selector chose not to partition) is stored
as a single *whole-view* entry.

The pool enforces the storage bound ``S(C) ≤ S_max`` as a hard invariant:
additions that would exceed the limit raise, because the selection step
(§7.3) must have made room first.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.table import Table
from repro.errors import BlockLostError, PoolError, RecoveryError
from repro.partitioning.intervals import Interval, IntervalIndex, sort_key
from repro.query.algebra import Plan
from repro.storage.hdfs import SimulatedHDFS, StoredFile
from repro.storage.journal import PoolJournal

if TYPE_CHECKING:
    from repro.engine.cost import CostLedger
    from repro.faults.recovery import FragmentRecovery

WHOLE_VIEW_ATTR = None


@dataclass(frozen=True)
class FragmentKey:
    """Stable identity of a pool entry: (view, partition attribute, interval).

    ``attr=None`` identifies the whole-view entry of an unpartitioned view.
    """

    view_id: str
    attr: str | None
    interval: Interval | None

    def __post_init__(self) -> None:
        if (self.attr is None) != (self.interval is None):
            raise PoolError("attr and interval must both be set or both be None")


@dataclass
class FragmentEntry:
    """A resident pool entry (fragment or whole view)."""

    fragment_id: str
    key: FragmentKey
    path: str
    size_bytes: float
    # The immutable file written at admission.  After an eviction deletes
    # the file, the entry still holds its payload: a snapshot lease that
    # pinned the entry reads the exact bytes for as long as it is held.
    stored: StoredFile = field(compare=False, repr=False)
    # [min, max] of the payload on the partition attribute, filled by the
    # first pruned scan that needs it (repro.engine.prune).  A payload never
    # changes under its fragment id, so the slot lives and dies with the
    # entry; leases share entry objects, so concurrent fills agree.
    observed: "Interval | None" = field(default=None, compare=False, repr=False)


@dataclass
class ViewDefinition:
    """Registered definition of a (potential) view: its defining plan."""

    view_id: str
    plan: Plan
    creation_cost_s: float = 0.0
    size_bytes: float = 0.0


@dataclass
class _PooledView:
    definition: ViewDefinition
    # attr -> list of fragment_ids, kept sorted by interval
    partitions: dict[str, list[str]] = field(default_factory=dict)
    whole_id: str | None = None
    # attr -> (cover version, IntervalIndex over the partition's intervals)
    indexes: dict[str, tuple[int, IntervalIndex]] = field(default_factory=dict)


class MaterializedViewPool:
    """Pool of partitioned materialized views with a storage budget."""

    def __init__(self, smax_bytes: float | None = None, hdfs: SimulatedHDFS | None = None):
        self.smax_bytes = smax_bytes
        self.hdfs = hdfs or SimulatedHDFS()
        # ``epoch`` increments on *every* residency mutation — admit,
        # evict, rollback restore; snapshot leases pin it.
        self.epoch: int = 0
        # Per-view cover versions: the epoch value of the view's last
        # residency mutation.  Every bump feeds the global epoch (a view
        # mutation is also a pool mutation), but memos key on the
        # *per-view* version so a mutation of view V invalidates only
        # V's entries.  Version values are epochs, hence globally unique:
        # after a rollback restores a view's pre-transaction version, no
        # later mutation can re-issue a mid-transaction value.
        self._cover_versions: dict[str, int] = {}
        self._views: dict[str, _PooledView] = {}
        self._definitions: dict[str, ViewDefinition] = {}
        self._fragments: dict[str, FragmentEntry] = {}
        self._used_memo: tuple[int, float] = (-1, 0.0)  # (epoch, used_bytes)
        # Keyed lookup index: FragmentKey -> fragment_id.  Replaces the
        # linear interval scan in find_fragment, which sits on the hot
        # path of refinement planning and re-creation checks.
        self._by_key: dict[FragmentKey, str] = {}
        self._counter = itertools.count()
        # Crash consistency: mutations inside an open transaction are
        # journaled with undo images; rollback() restores the exact
        # pre-transaction configuration (see repro.storage.journal).
        self.journal = PoolJournal()
        # Degradation path when every replica of an entry is lost: a
        # repro.faults.recovery.FragmentRecovery recomputes the payload
        # from base tables.  None (the default) surfaces the loss.
        self.recovery: "FragmentRecovery | None" = None

    # ------------------------------------------------------------------
    # Per-view cover versions
    # ------------------------------------------------------------------
    def cover_version(self, view_id: str) -> int:
        """The view's cover version: epoch of its last residency mutation.

        ``0`` for a view never mutated in this pool.  Memo entries keyed
        on ``(view_id, cover_version)`` stay valid across mutations of
        *other* views, and become valid again when a journal rollback
        restores the exact pre-transaction configuration and versions.
        """
        return self._cover_versions.get(view_id, 0)

    def _bump(self, view_id: str) -> None:
        """Advance the epoch and stamp it as the view's cover version."""
        self.epoch += 1
        self._cover_versions[view_id] = self.epoch

    # ------------------------------------------------------------------
    # View definitions (exist independently of residency)
    # ------------------------------------------------------------------
    def define_view(self, view_id: str, plan: Plan) -> ViewDefinition:
        """Register a view definition (idempotent for identical plans)."""
        existing = self._definitions.get(view_id)
        if existing is not None:
            if existing.plan != plan:
                raise PoolError(f"view id collision: {view_id!r}")
            return existing
        definition = ViewDefinition(view_id, plan)
        self._definitions[view_id] = definition
        return definition

    def definition(self, view_id: str) -> ViewDefinition:
        try:
            return self._definitions[view_id]
        except KeyError:
            raise PoolError(f"unknown view: {view_id!r}") from None

    # ------------------------------------------------------------------
    # Residency queries
    # ------------------------------------------------------------------
    def is_resident(self, view_id: str) -> bool:
        """True iff any entry of the view (whole or fragment) is in the pool."""
        return view_id in self._views

    def resident_view_ids(self) -> list[str]:
        return sorted(self._views)

    def whole_view_entry(self, view_id: str) -> FragmentEntry | None:
        view = self._views.get(view_id)
        if view is None or view.whole_id is None:
            return None
        return self._fragments[view.whole_id]

    def partition_attrs(self, view_id: str) -> list[str]:
        view = self._views.get(view_id)
        return sorted(view.partitions) if view else []

    def fragments_of(self, view_id: str, attr: str) -> list[FragmentEntry]:
        """Resident fragments of ``P(view, attr)``, sorted by interval."""
        view = self._views.get(view_id)
        if view is None or attr not in view.partitions:
            return []
        return [self._fragments[fid] for fid in view.partitions[attr]]

    def intervals_of(self, view_id: str, attr: str) -> list[Interval]:
        return [f.key.interval for f in self.fragments_of(view_id, attr)]

    def cover_index(self, view_id: str, attr: str) -> IntervalIndex:
        """``P(view, attr)`` indexed for ``greedy_cover``.

        Built without a sort (the partition list is kept in ``sort_key``
        order) and reused while the view's cover version stands.  A
        rollback restores the pre-transaction versions, so an index built
        before the transaction is valid again.
        """
        view = self._views.get(view_id)
        if view is None or attr not in view.partitions:
            return IntervalIndex.from_sorted([])
        version = self.cover_version(view_id)
        memo = view.indexes.get(attr)
        if memo is None or memo[0] != version:
            index = IntervalIndex.from_sorted(self.intervals_of(view_id, attr))
            memo = view.indexes[attr] = (version, index)
        return memo[1]

    def get_fragment(self, fragment_id: str) -> FragmentEntry:
        try:
            return self._fragments[fragment_id]
        except KeyError:
            raise PoolError(f"unknown fragment: {fragment_id!r}") from None

    def find_fragment(self, key: FragmentKey) -> FragmentEntry | None:
        """Locate a resident entry by its stable key (O(1) keyed lookup)."""
        if key.attr is None:
            return self.whole_view_entry(key.view_id)
        fid = self._by_key.get(key)
        return self._fragments[fid] if fid is not None else None

    def all_entries(self) -> list[FragmentEntry]:
        return list(self._fragments.values())

    def entries_snapshot(self) -> dict[str, FragmentEntry]:
        """Shallow copy of the fragment-id → entry map, for epoch-pinned
        readers: each entry holds its immutable file, so the copy keeps
        every pinned payload readable for as long as it is held."""
        return dict(self._fragments)

    def cover_versions_snapshot(self) -> dict[str, int]:
        """Copy of the per-view cover versions, for epoch-pinned readers."""
        return dict(self._cover_versions)

    @property
    def used_bytes(self) -> float:
        # Every residency mutation bumps the epoch, so the sum is redone
        # once per pool change rather than once per query report.  Not a
        # running total: re-associated float additions would drift from
        # this sum, and pool_bytes reaches the determinism fingerprints.
        epoch, used = self._used_memo
        if epoch != self.epoch:
            used = sum(f.size_bytes for f in self._fragments.values())
            self._used_memo = (self.epoch, used)
        return used

    def fits(self, extra_bytes: float) -> bool:
        if self.smax_bytes is None:
            return True
        return self.used_bytes + extra_bytes <= self.smax_bytes + 1e-6

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_whole_view(self, view_id: str, table: Table) -> FragmentEntry:
        """Admit an unpartitioned view as a single pool entry."""
        self._require_definition(view_id)
        key = FragmentKey(view_id, None, None)
        return self._admit(key, table)

    def add_fragment(
        self, view_id: str, attr: str, interval: Interval, table: Table
    ) -> FragmentEntry:
        """Admit one fragment of ``P(view_id, attr)``."""
        self._require_definition(view_id)
        key = FragmentKey(view_id, attr, interval)
        if self.find_fragment(key) is not None:
            raise PoolError(f"fragment already resident: {key}")
        return self._admit(key, table)

    def evict(self, fragment_id: str) -> None:
        """Remove one entry (fragment or whole view) from the pool."""
        entry = self.get_fragment(fragment_id)
        if self.journal.journaling:
            # Undo image first — classic WAL discipline: log before act.
            self.journal.record_evict(entry, self.hdfs.peek(entry.path))
        self._remove_entry(entry)

    def patch_entry(self, fragment_id: str, table: Table) -> FragmentEntry:
        """Replace one entry's payload under the same :class:`FragmentKey`.

        Delta maintenance (repro.storage.ingest) appends ingested rows to
        the fragments they route to.  The replacement is deliberately an
        evict + re-admit — never an in-place overwrite — because two
        things rely on payload immutability per fragment id: the entry's
        ``observed`` min/max and epoch-pinned snapshot leases.  The new
        entry gets a fresh fragment id and path; rollback restores the old
        entry via the standard journal replay.
        """
        entry = self.get_fragment(fragment_id)
        if self.journal.journaling:
            self.journal.record_evict(entry, self.hdfs.peek(entry.path))
        self._remove_entry(entry)
        return self._admit(entry.key, table)

    def _remove_entry(self, entry: FragmentEntry) -> None:
        view = self._views[entry.key.view_id]
        if entry.key.attr is None:
            view.whole_id = None
        else:
            view.partitions[entry.key.attr].remove(entry.fragment_id)
            if not view.partitions[entry.key.attr]:
                del view.partitions[entry.key.attr]
        if view.whole_id is None and not view.partitions:
            del self._views[entry.key.view_id]
        self.hdfs.delete(entry.path)
        del self._fragments[entry.fragment_id]
        self._by_key.pop(entry.key, None)
        self._bump(entry.key.view_id)

    def read_entry(self, fragment_id: str, ledger: "CostLedger | None" = None) -> Table:
        """Payload of an entry, without charging the base read (executor charges).

        ``ledger`` is the fault-accounting context: replica-damage
        penalties and — when every replica is gone and a recovery is
        attached — the full recompute-from-base-tables cost land on it.
        """
        entry = self.get_fragment(fragment_id)
        try:
            return self.hdfs.read(entry.path, ledger, charge_payload=False)
        except BlockLostError:
            if self.recovery is None:
                raise RecoveryError(
                    f"entry {fragment_id!r} lost all replicas and no recovery "
                    f"path is attached"
                ) from None
            return self.recovery.recover(self, entry, ledger)

    # ------------------------------------------------------------------
    # Crash consistency (write-ahead journal)
    # ------------------------------------------------------------------
    def begin(self, tag: str) -> None:
        """Open a journaled transaction around one repartitioning step.

        The per-view cover versions are snapshotted into the transaction:
        a rollback restores the exact pre-step configuration, so it must
        restore the exact pre-step versions too — anything keyed on them
        (cover indexes, estimate and result memos) becomes valid again,
        and mid-transaction versions are never re-issued because versions
        are drawn from the monotonic epoch.
        """
        self.journal.begin(tag, cover_versions=dict(self._cover_versions))

    def commit(self) -> None:
        self.journal.commit()

    def rollback(self, ledger: "CostLedger | None" = None) -> int:
        """Undo the open transaction, restoring the pre-step configuration.

        Replaying an evicted entry re-writes its bytes (charged to
        ``ledger`` — journal replay is real cluster work); undoing an
        admit deletes the file it created.  Returns the number of
        operations undone.
        """
        txn = self.journal.take_for_rollback()
        for op in reversed(txn.ops):
            if op.op == "admit":
                self._remove_entry(op.entry)
            elif op.op == "evict":
                self._restore_entry(op.entry, op.payload, ledger)
            else:  # "ingest": catalog undo image (see journal.record_ingest)
                op.catalog.rollback_ingest(op.table_name, op.payload, op.prior_version)
        # The configuration is now byte-identical to the pre-transaction
        # one, so the cover versions must be too: memo entries keyed on
        # them were computed against exactly this configuration.
        self._cover_versions = dict(txn.cover_versions)
        return len(txn.ops)

    def _restore_entry(
        self, entry: FragmentEntry, payload: Table, ledger: "CostLedger | None"
    ) -> None:
        self.hdfs.write(entry.path, payload)
        self._fragments[entry.fragment_id] = entry
        view = self._views.setdefault(
            entry.key.view_id, _PooledView(self.definition(entry.key.view_id))
        )
        if entry.key.attr is None:
            view.whole_id = entry.fragment_id
        else:
            ids = view.partitions.setdefault(entry.key.attr, [])
            insort(
                ids,
                entry.fragment_id,
                key=lambda f: sort_key(self._fragments[f].key.interval),
            )
            self._by_key[entry.key] = entry.fragment_id
        self._bump(entry.key.view_id)
        if ledger is not None:
            ledger.charge_write(entry.size_bytes, nfiles=1)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_definition(self, view_id: str) -> None:
        if view_id not in self._definitions:
            raise PoolError(f"view {view_id!r} has no registered definition")

    def _admit(self, key: FragmentKey, table: Table) -> FragmentEntry:
        size = table.size_bytes
        if not self.fits(size):
            raise PoolError(f"admitting {size:.0f} bytes would exceed S_max={self.smax_bytes}")
        fid = f"frag-{next(self._counter)}"
        path = f"/pool/{key.view_id}/{key.attr or '_whole'}/{fid}"
        entry = FragmentEntry(fid, key, path, size, self.hdfs.write(path, table))
        self._fragments[fid] = entry
        view = self._views.setdefault(key.view_id, _PooledView(self.definition(key.view_id)))
        if key.attr is None:
            if view.whole_id is not None:
                raise PoolError(f"whole view already resident: {key.view_id!r}")
            view.whole_id = fid
        else:
            ids = view.partitions.setdefault(key.attr, [])
            # Keep the per-attribute list interval-ordered with one bisected
            # insertion instead of re-sorting the whole list on every admit.
            insort(ids, fid, key=lambda f: sort_key(self._fragments[f].key.interval))
            self._by_key[key] = fid
        self._bump(key.view_id)
        self.journal.record_admit(entry)
        return entry

    # ------------------------------------------------------------------
    # Inspection (Definition 3 snapshot)
    # ------------------------------------------------------------------
    def configuration(self) -> dict:
        """A ``(V, P)`` snapshot of the pool, for tests and reporting."""
        snapshot: dict = {}
        for view_id, view in self._views.items():
            snapshot[view_id] = {
                "whole": view.whole_id is not None,
                "partitions": {
                    attr: [self._fragments[fid].key.interval for fid in fids]
                    for attr, fids in view.partitions.items()
                },
            }
        return snapshot
