"""Cross-query join-key index caches.

Every equi-join in :func:`repro.engine.executor.hash_join` needs the build
side's key column in sorted order (argsort + sorted keys) before it can
find each probe key's match range in it.  Base tables and resident view fragments are
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

Each index also records, once, whether its keys are all distinct.  A
join whose build root has distinct keys is a foreign-key join: every
probe row matches at most one build row, so the probe cache keeps, per
probe-root row, the *row id* of that build row (or -1) instead of a
match range, and a query's join is one gather of it and one membership
test against the build side's selection (:func:`join_probe`).

Every probe is one call, :meth:`SortIndex.search`.  A join key is
almost always an int64 surrogate key whose values fill a compact range
(:func:`direct_addressable`), and for those the index also holds a
*position table* — per value in the key range, the number of keys below
it — so a probe key's match range is two gathers, not two binary
searches.  Any other key column (float, string, a sparse span) and any
probe of another dtype binary-searches; both give exactly
``np.searchsorted``'s answer.

:meth:`Table.append` returns a new table object, a new identity, so no
entry can go stale: a grown table's probes and sort indexes are built
afresh, exactly as for any other table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.caches import register_cache
from repro.engine.schema import Column, Schema
from repro.engine.table import Table

# A cached probe is a table.  Against a build root with distinct keys it
# holds the matched build row per probe row (-1: none); otherwise each
# probe key's match range.
_MATCH_SCHEMA = Schema.of(Column("match"))
_RANGE_SCHEMA = Schema.of(Column("starts"), Column("ends"))


def _strictly_increasing(sorted_keys: np.ndarray) -> bool:
    # Conservative for NaN (compares False): a NaN key just means the
    # general path, never a wrong answer.
    return bool(np.all(sorted_keys[1:] > sorted_keys[:-1]))


def direct_addressable(span: int, n: int) -> bool:
    """Whether ``span`` integer slots are few enough to address ``n`` rows
    directly: an array over the whole key range costs O(rows).  The one
    density rule of the engine — the position table here and the
    bincount grouping of ``executor.aggregate`` both apply it."""
    return span <= 8 * n + 1024


_INT64 = np.dtype(np.int64)
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _position_table(sorted_keys: np.ndarray) -> "tuple[int, int, np.ndarray] | None":
    """``(base, top, below)`` for int64 keys of compact span, else ``None``.

    ``below[i]`` counts the keys less than ``base + i``, for every value
    from ``base`` (one below the smallest key) to ``top`` (one above the
    largest) and one past it, so a probe key ``v`` clipped into
    ``[base, top]`` has ``searchsorted`` positions ``below[v - base]``
    (left) and ``below[v - base + 1]`` (right).  Clipping is exact —
    every key below ``base`` has the positions of ``base`` and every key
    above ``top`` those of ``top`` — and keeps the subtraction in range
    near ±2⁶³.
    """
    if sorted_keys.dtype != _INT64:
        return None
    n = len(sorted_keys)
    if n == 0:
        return 0, 0, np.zeros(2, dtype=np.intp)
    lo, hi = int(sorted_keys[0]), int(sorted_keys[-1])
    if not direct_addressable(hi - lo + 1, n):
        return None
    base, top = max(lo - 1, _INT64_MIN), min(hi + 1, _INT64_MAX)
    counts = np.bincount(sorted_keys - base, minlength=top - base + 1)
    below = np.zeros(top - base + 2, dtype=np.intp)
    np.cumsum(counts, out=below[1:])
    return base, top, below


@dataclass(frozen=True)
class SortIndex:
    """Sorted-key index of one column: stable argsort order + sorted keys,
    whether the keys are all distinct, and — for int64 keys of compact
    span — a position table that answers :meth:`search` by address."""

    order: np.ndarray
    sorted_keys: np.ndarray
    unique: bool
    positions: "tuple[int, int, np.ndarray] | None" = None

    @classmethod
    def build(cls, keys: np.ndarray) -> "SortIndex":
        """The index of one key column of any kind: numeric and string
        (object) columns sort and binary-search alike."""
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        return cls(
            order, sorted_keys, _strictly_increasing(sorted_keys), _position_table(sorted_keys)
        )

    def search(self, keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(starts, ends)``: element for element the ``searchsorted`` of
        ``keys`` into the sorted keys, sides ``"left"`` and ``"right"``.

        int64 probe keys against a position table are two gathers; any
        other probe (float, string or mixed-dtype keys, a sparse key
        span) is the binary search itself.  Counted in the probe cache's
        stats as ``positional`` / ``binary``.
        """
        if self.positions is None or keys.dtype != _INT64:
            _PROBE_CACHE.binary += 1
            return (
                np.searchsorted(self.sorted_keys, keys, side="left"),
                np.searchsorted(self.sorted_keys, keys, side="right"),
            )
        _PROBE_CACHE.positional += 1
        base, top, below = self.positions
        slots = np.clip(keys, base, top)
        slots -= base
        return below[slots], below[1:][slots]


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
            index = per_table[column] = SortIndex.build(table.column(column))
        else:
            self.hits += 1
        return index

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
    """Cached probe results of full probe columns against a build side.

    For a join ``L ⋈ R`` the executor searches every probe key of ``L``
    in ``R``'s sort index.  When ``L`` is derived from a long-lived
    root table (a base relation or resident fragment) by selection — the
    shape of every workload query — the search of the *root's full
    key column* is the same for every query, and the per-query result is
    just a row-indexed slice of it:

        searchsorted(sk, root_keys)[rows] == searchsorted(sk, root_keys[rows])

    elementwise, so cached probes are bit-identical to direct ones.  An
    entry is a one-column ``match`` table when the build root's keys are
    distinct (the build-root row each probe-root row joins, or -1) and a
    ``(starts, ends)`` range table otherwise.  Both ends of an entry are
    weakly referenced via the outer/inner weak dicts: an entry dies with
    either table.

    Admission is *two-strikes*: probing the full root column costs more
    than probing the query's selected rows, and many build sides are
    per-query temporaries that will never be joined against again.  The
    first sighting of a ``(root, build, attrs)`` pair therefore returns
    ``None`` (caller probes directly, exactly as without the cache); only
    a pair seen twice pays the one-time full-root probe and serves every
    later join from the cache.

    A root grown by :meth:`Table.append` is a new table and starts cold:
    its own two strikes, then one full-root probe.

    ``fk_rows`` counts joins :func:`join_probe` served by row id and
    ``fk_fallback`` joins whose build key was not distinct;
    ``positional`` counts :meth:`SortIndex.search` calls answered by the
    position table and ``binary`` those that binary-searched.
    """

    def __init__(self) -> None:
        # root -> right -> {(left_attr, right_attr): None (seen once)
        #                   | Table of (match) or (starts, ends) (cached)}
        self._probes: "weakref.WeakKeyDictionary[Table, weakref.WeakKeyDictionary]" = (
            weakref.WeakKeyDictionary()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fk_rows = 0
        self.fk_fallback = 0
        self.positional = 0
        self.binary = 0

    def _on_pair_dead(self, box: "_PairBox") -> None:
        # Either end of a (probe root, build root) pair dying drops every
        # cached probe of the pair; count the batch exactly once.
        if not box.fired:
            box.fired = True
            self.evictions += box.cached
            box.cached = 0

    def probe(
        self, root: Table, left_attr: str, right: Table, right_attr: str, index: SortIndex
    ) -> "Table | None":
        """The cached probe of every root row against ``right``'s sort
        ``index``, or ``None`` on a pair's first sighting (caller probes
        directly)."""
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
            per_right[attrs] = None  # first strike: probe directly
            return None
        entry = per_right[attrs]
        if entry is None:
            self.misses += 1
            box.cached += 1
            entry = per_right[attrs] = _probe_rows(index, root.column(left_attr))
        else:
            self.hits += 1
        return entry

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
        self.fk_rows = 0
        self.fk_fallback = 0
        self.positional = 0
        self.binary = 0

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
            "fk_rows": self.fk_rows,
            "fk_fallback": self.fk_fallback,
            "positional": self.positional,
            "binary": self.binary,
        }


def _probe_rows(index: SortIndex, keys: np.ndarray) -> Table:
    """The probe-cache entry rows for probe ``keys`` against ``index``."""
    starts, ends = index.search(keys)
    if not index.unique:
        return Table(_RANGE_SCHEMA, {"starts": starts, "ends": ends})
    match = np.full(len(keys), -1, dtype=index.order.dtype)
    found = ends > starts
    match[found] = index.order[starts[found]]
    return Table(_MATCH_SCHEMA, {"match": match})


# One process-wide cache: tables are keyed by identity, so separate systems
# (separate catalogs) never collide, and weak keys bound the footprint to
# live tables only.
_GLOBAL_CACHE = IndexCache()
_PROBE_CACHE = ProbeCache()


def sort_index(table: Table, column: str) -> SortIndex:
    """Module-level accessor used by the executor's hot path."""
    return _GLOBAL_CACHE.sort_index(table, column)


class RowIdMatch(NamedTuple):
    """A foreign-key join resolved by row id: probe row ``left_idx[i]``
    (ascending) joins row ``rows[i]`` of the build root ``source``, whose
    rows ``right`` selects."""

    left_idx: np.ndarray
    source: Table
    rows: np.ndarray


def join_probe(
    left: Table, right: Table, left_attr: str, right_attr: str
) -> "RowIdMatch | tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Everything ``hash_join`` needs to pair probe rows with build rows.

    Both join inputs are resolved through their row lineage — ``left`` to
    the long-lived root it selects rows of, ``right`` to its root when it
    is that root's *monotonic* selection (filters/projections, the shape
    every pushed-down dimension select has; a reordered subset is its own
    root).  Once the pair is cached (:class:`ProbeCache`, two strikes):

    * Distinct build-root keys return a :class:`RowIdMatch`.  The cached
      ``match`` column sliced to ``left``'s rows names each probe row's
      build-root row; a membership test against ``right``'s rows keeps
      the probe rows whose partner ``right`` holds.  A ``member`` array
      one slot longer than the root, last slot ``False``, absorbs the -1
      of an unmatched key.  Probe rows stay ascending — exactly the rows
      and order of the range expansion.
    * Otherwise, when ``right`` is its whole root, the cached match ranges
      sliced to ``left``'s rows plus the root's stable sort order:
      per-probe-row ``(starts, ends, order)``.

    Everything else — a first sighting, a subset of a non-distinct root —
    probes ``right``'s own sort index directly and returns the same
    triple, identical to the uncached executor.  No float operation is
    involved anywhere, so every path is bit-identical to the others.
    """
    lin_l = left._lineage
    if lin_l is None:
        lroot, lrows = left, None
    else:
        lroot, lrows = lin_l[0], lin_l[1]

    lin_r = right._lineage
    if lin_r is None or (lin_r[1] is not None and not lin_r[2]):
        rroot, rrows = right, None  # reordered subset: its own root
    else:
        rroot, rrows = lin_r[0], lin_r[1]

    root_index = sort_index(rroot, right_attr)
    if not root_index.unique:
        _PROBE_CACHE.fk_fallback += 1
    entry = None
    if rrows is None or root_index.unique:
        entry = _PROBE_CACHE.probe(lroot, left_attr, rroot, right_attr, root_index)

    if entry is None:
        index = root_index if rrows is None else sort_index(right, right_attr)
        starts, ends = index.search(left.column(left_attr))
        return starts, ends, index.order

    if not root_index.unique:
        starts, ends = entry.columns["starts"], entry.columns["ends"]
        if lrows is not None:
            starts, ends = starts[lrows], ends[lrows]
        return starts, ends, root_index.order

    match = entry.columns["match"]
    if lrows is not None:
        match = match[lrows]
    if rrows is None:
        keep = match >= 0
    else:
        member = np.zeros(rroot.nrows + 1, dtype=bool)
        member[rrows] = True
        keep = member[match]
    left_idx = np.flatnonzero(keep)
    _PROBE_CACHE.fk_rows += 1
    return RowIdMatch(left_idx, rroot, match[left_idx])


register_cache("engine.indexes.sort", _GLOBAL_CACHE.clear, _GLOBAL_CACHE.stats)
register_cache("engine.indexes.probe", _PROBE_CACHE.clear, _PROBE_CACHE.stats)
