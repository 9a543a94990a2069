"""Cross-query join-key index caches.

Every equi-join in :func:`repro.engine.executor.hash_join` needs the build
side's key column in sorted order (argsort + sorted keys) before it can
binary-search the probe keys.  Base tables and resident view fragments are
immutable and joined over and over across a workload — on the SDSS
benchmarks the same dimension table is re-argsorted hundreds of times —
so this module keeps one :class:`SortIndex` per ``(table, column)`` pair
and hands it back on every subsequent join.

Invalidation is by *table identity*: tables are immutable by convention
(operators always allocate new tables), so an index is valid exactly as
long as its table object is alive.  The cache is a
:class:`weakref.WeakKeyDictionary`, which drops a table's indexes the
moment the table itself is garbage collected — nothing pins result tables
in memory, and there is no explicit invalidation protocol to get wrong.

The cache is **semantically transparent**: :func:`sort_index` computes
exactly the ``np.argsort(keys, kind="stable")`` the executor used to run
inline, so join outputs (row order included) and every simulated-cost
ledger are byte-identical with the cache hot, cold, or disabled.

Appends do not start a table cold.  :meth:`Table.append` returns a new
table object (a new identity, so no entry can go stale) that remembers
the table it grew from, whose rows are its own first rows.  On a miss
both caches look for an entry of a live append-ancestor and extend it by
the appended rows alone — a stable merge of the new keys into the sort
order, a binary search of the new probe keys — which is integer index
arithmetic over the same comparisons and therefore equal, element for
element, to building the entry from scratch.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.caches import register_cache
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import decoded, sort_key

# A cached probe is held as a two-column table so that a grown root's
# entry is its parent's entry plus Table.append: the same tail buffer
# that lets table versions share rows lets their probes share them.
_PROBE_SCHEMA = Schema.of(Column("starts"), Column("ends"))


@dataclass(frozen=True)
class SortIndex:
    """Sorted-key index of one column: stable argsort order + sorted keys."""

    order: np.ndarray
    sorted_keys: np.ndarray

    def extended(self, keys, start: int) -> "SortIndex":
        """The index of ``keys``, given this index of ``keys[:start]``.

        A stable sort puts an appended row after every older row with an
        equal key (``side="right"``) and keeps appended rows with equal
        keys in row order (their own stable sort; ``np.insert`` keeps the
        given order among values bound for one slot).
        """
        tail = keys[start:]
        tail_order = np.argsort(sort_key(tail), kind="stable")
        tail_sorted = decoded(tail)[tail_order]
        slots = np.searchsorted(self.sorted_keys, tail_sorted, side="right")
        return SortIndex(
            np.insert(self.order, slots, tail_order + start),
            np.insert(self.sorted_keys, slots, tail_sorted),
        )


class IndexCache:
    """Per-``(table, column)`` sort indexes, weakly keyed by table identity."""

    def __init__(self) -> None:
        self._indexes: "weakref.WeakKeyDictionary[Table, dict[str, SortIndex]]" = (
            weakref.WeakKeyDictionary()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _track_eviction(self, table: Table, per_table: dict) -> None:
        # Entries die with their table (weak keys); the finalizer closes
        # over the inner dict — not the table — so it counts exactly the
        # entries that were live at collection time.
        weakref.finalize(table, self._on_table_dead, per_table)

    def _on_table_dead(self, per_table: dict) -> None:
        self.evictions += len(per_table)

    def sort_index(self, table: Table, column: str) -> SortIndex:
        """The cached stable-sort index of ``table[column]``, building it once."""
        per_table = self._indexes.get(table)
        if per_table is None:
            per_table = {}
            self._indexes[table] = per_table
            self._track_eviction(table, per_table)
        index = per_table.get(column)
        if index is None:
            self.misses += 1
            keys = table.column(column)
            index = self._inherited(table, column, keys)
            if index is None:
                # Encoded string columns sort by their int32 codes (sorted
                # dictionary ⇒ identical order); sorted_keys stays decoded
                # so probes from *other* dictionaries binary-search
                # correctly.
                order = np.argsort(sort_key(keys), kind="stable")
                index = SortIndex(order, decoded(keys)[order])
            per_table[column] = index
        else:
            self.hits += 1
        return index

    def _inherited(self, table: Table, column: str, keys) -> "SortIndex | None":
        """The nearest append-ancestor's index grown by the appended rows."""
        for ancestor in table.append_ancestors():
            index = self._indexes.get(ancestor, {}).get(column)
            if index is not None:
                return index.extended(keys, ancestor.nrows)
        return None

    def clear(self) -> None:
        # Empty the inner dicts so outstanding finalizers (which hold
        # them) cannot count already-cleared entries as later evictions.
        for per_table in self._indexes.values():
            per_table.clear()
        self._indexes.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        """Counter snapshot for :func:`repro.caches.cache_stats`."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self),
        }

    def __len__(self) -> int:
        return sum(len(d) for d in self._indexes.values())


class _PairBox:
    """Per-(probe root, build root) count of cached probes, for evictions."""

    __slots__ = ("cached", "fired")

    def __init__(self) -> None:
        self.cached = 0
        self.fired = False


class ProbeCache:
    """Cached binary-search results of full probe columns against a build side.

    For a join ``L ⋈ R`` the executor binary-searches every probe key of
    ``L`` into ``R``'s sorted keys.  When ``L`` is derived from a long-lived
    root table (a base relation or resident fragment) by selection — the
    shape of every workload query — the searchsorted of the *root's full
    key column* is the same for every query, and the per-query result is
    just a row-indexed slice of it:

        searchsorted(sk, root_keys)[rows] == searchsorted(sk, root_keys[rows])

    elementwise, so cached probes are bit-identical to direct ones.  Both
    ends of an entry are weakly referenced via the outer/inner weak dicts:
    an entry dies with either table.

    Admission is *two-strikes*: probing the full root column costs more
    than probing the query's selected rows, and many build sides are
    per-query temporaries that will never be joined against again.  The
    first sighting of a ``(root, build, attrs)`` pair therefore returns
    ``None`` (caller probes directly, exactly as without the cache); only
    a pair seen twice pays the one-time full-root probe and serves every
    later join from the cache.

    A root grown by :meth:`Table.append` takes over where its parent
    stood: a cached probe is extended by a binary search of the appended
    keys only, and a first strike against the parent counts against the
    grown table too — to the workload they are one relation.
    """

    def __init__(self) -> None:
        # root -> right -> {(left_attr, right_attr): None (seen once)
        #                   | Table of (starts, ends) (cached)}
        self._probes: "weakref.WeakKeyDictionary[Table, weakref.WeakKeyDictionary]" = (
            weakref.WeakKeyDictionary()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _on_pair_dead(self, box: "_PairBox") -> None:
        # Either end of a (probe root, build root) pair dying drops every
        # cached probe of the pair; count the batch exactly once.
        if not box.fired:
            box.fired = True
            self.evictions += box.cached
            box.cached = 0

    def starts_ends(
        self, root: Table, left_attr: str, right: Table, right_attr: str,
        sorted_rkeys: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """(starts, ends) of every root row's key in the build side's sorted
        keys, or ``None`` on a pair's first sighting (caller probes directly).
        """
        per_root = self._probes.get(root)
        if per_root is None:
            per_root = weakref.WeakKeyDictionary()
            self._probes[root] = per_root
        pair = per_root.get(right)
        if pair is None:
            # The eviction finalizers close over a tiny counter box — not
            # the probe arrays — so a dead pair's payload is never pinned.
            box = _PairBox()
            pair = ({}, box)
            per_root[right] = pair
            weakref.finalize(root, self._on_pair_dead, box)
            weakref.finalize(right, self._on_pair_dead, box)
        per_right, box = pair
        attrs = (left_attr, right_attr)
        if attrs not in per_right:
            for ancestor in root.append_ancestors():
                known = self._probes.get(ancestor, {}).get(right)
                if known is not None and attrs in known[0]:
                    # What the table this root grew from knew of the pair
                    # carries over: its strike (None), or its probe —
                    # valid as it stands for this root's first rows.
                    per_right[attrs] = known[0][attrs]
                    if per_right[attrs] is not None:
                        box.cached += 1
                    break
            else:
                per_right[attrs] = None  # first strike: probe directly
                return None
        entry = per_right[attrs]
        if entry is None or entry.nrows < root.nrows:
            self.misses += 1
            done = 0 if entry is None else entry.nrows
            keys = decoded(root.column(left_attr)[done:])
            probed = Table(
                _PROBE_SCHEMA,
                {
                    "starts": np.searchsorted(sorted_rkeys, keys, side="left"),
                    "ends": np.searchsorted(sorted_rkeys, keys, side="right"),
                },
            )
            if entry is None:
                box.cached += 1
                entry = probed
            else:
                entry = entry.append(probed)
            per_right[attrs] = entry
        else:
            self.hits += 1
        return entry.columns["starts"], entry.columns["ends"]

    def clear(self) -> None:
        # Disarm outstanding finalizers so cleared entries are not counted
        # as later evictions, and empty the inner dicts they reference.
        for per_root in self._probes.values():
            for per_right, box in per_root.values():
                per_right.clear()
                box.fired = True
                box.cached = 0
        self._probes.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        """Counter snapshot for :func:`repro.caches.cache_stats`."""
        entries = sum(
            sum(1 for v in per_right.values() if v is not None)
            for per_root in self._probes.values()
            for per_right, _ in per_root.values()
        )
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": entries,
        }


# One process-wide cache: tables are keyed by identity, so separate systems
# (separate catalogs) never collide, and weak keys bound the footprint to
# live tables only.
_GLOBAL_CACHE = IndexCache()
_PROBE_CACHE = ProbeCache()


def sort_index(table: Table, column: str) -> SortIndex:
    """Module-level accessor used by the executor's hot path."""
    return _GLOBAL_CACHE.sort_index(table, column)


def join_probe(
    left: Table, right: Table, left_attr: str, right_attr: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Everything ``hash_join`` needs: per-probe-row (starts, ends) match
    ranges into the build side's stable-sorted keys, plus the build side's
    stable sort order (rank → build row).

    Both join inputs are resolved through their row lineage:

    * Probe side — when ``left`` selects rows of a long-lived root, the
      root's full-column binary search against the build keys is cached
      (two-strikes) and sliced per query, elementwise identical to probing
      ``left`` directly.
    * Build side — when ``right`` is a *monotonic* selection of a root
      (filters/projections, the shape every pushed-down dimension select
      has), the subset's stable sort order and the probe positions into it
      are derived from the root's cached sort index and the cached
      root-vs-root probe by pure integer arithmetic: a prefix sum of
      subset membership in root-sorted order converts full-table match
      counts into subset match counts.  Stable sort of a monotonic subset
      preserves tie order, so the derived order equals the direct
      ``np.argsort(keys, kind="stable")`` exactly — no float operation is
      involved anywhere, making the fast path bit-identical.
    """
    lin_l = left._lineage
    if lin_l is None:
        lroot, lrows = left, None
    else:
        lroot, lrows = lin_l[0], lin_l[1]

    lin_r = right._lineage
    if lin_r is None:
        rroot, rrows = right, None
    else:
        rroot, rrows, rmono = lin_r
        if rrows is not None and not rmono:
            rroot, rrows = right, None  # reordered subset: underivable

    root_index = sort_index(rroot, right_attr)
    entry = _PROBE_CACHE.starts_ends(lroot, left_attr, rroot, right_attr, root_index.sorted_keys)

    if entry is None:
        # First sighting of this (probe root, build root) pair: compute
        # directly on the query's own tables — identical to the uncached
        # executor.
        if rrows is None:
            order, sorted_rkeys = root_index.order, root_index.sorted_keys
        else:
            index = _GLOBAL_CACHE.sort_index(right, right_attr)
            order, sorted_rkeys = index.order, index.sorted_keys
        keys = decoded(left.column(left_attr))
        return (
            np.searchsorted(sorted_rkeys, keys, side="left"),
            np.searchsorted(sorted_rkeys, keys, side="right"),
            order,
        )

    starts_full, ends_full = entry
    if lrows is not None:
        starts_full, ends_full = starts_full[lrows], ends_full[lrows]
    if rrows is None:
        return starts_full, ends_full, root_index.order

    # Derive the subset probe: cum[j] = how many of the first j root-sorted
    # keys belong to the subset, so a "matches among root keys < x" count
    # becomes a "matches among subset keys < x" count.
    member = np.zeros(rroot.nrows, dtype=bool)
    member[rrows] = True
    member_sorted = member[root_index.order]
    cum = np.zeros(rroot.nrows + 1, dtype=np.int64)
    np.cumsum(member_sorted, out=cum[1:])
    starts = cum[starts_full]
    ends = cum[ends_full]
    # rank in subset-sorted order -> row of `right`
    order = np.searchsorted(rrows, root_index.order[member_sorted])
    return starts, ends, order


def cache_stats() -> tuple[int, int]:
    """(hits, misses) of the global sort-index cache — for tests and profiling."""
    return _GLOBAL_CACHE.hits, _GLOBAL_CACHE.misses


def probe_cache_stats() -> tuple[int, int]:
    """(hits, misses) of the global probe cache — for tests and profiling."""
    return _PROBE_CACHE.hits, _PROBE_CACHE.misses


def clear_caches() -> None:
    """Drop all cached indexes (tests / long-lived sessions)."""
    _GLOBAL_CACHE.clear()
    _PROBE_CACHE.clear()


register_cache("engine.indexes.sort", _GLOBAL_CACHE.clear, _GLOBAL_CACHE.stats)
register_cache("engine.indexes.probe", _PROBE_CACHE.clear, _PROBE_CACHE.stats)
