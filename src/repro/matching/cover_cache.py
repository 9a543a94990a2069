"""Cover-delta invalidated memo for Algorithm 2 greedy covers.

``greedy_cover`` is pure in ``(θ, fragment intervals)``, but its second
argument is the pool's residency state — so a naive memo would have to be
dropped on *every* pool mutation, and rebuilding the per-call
:class:`IntervalIndex` from scratch was the matching stage's residual hot
spot.  This module keys cover results on the **per-view cover version**
published by the pool (:class:`repro.storage.pool.CoverDelta`):

* a mutation of view V invalidates only V's memo bucket entries — covers
  for every other view stay live;
* the sorted interval mirror for each ``(view, attr)`` partition is
  *patched in place* from the delta (one bisected insertion or removal)
  instead of re-sorted, and the bisect index is rebuilt sort-free via
  :meth:`IntervalIndex.from_sorted`;
* a journal rollback restores the pre-transaction versions exactly
  (versions are drawn from the monotonic pool epoch, so mid-transaction
  values are never re-issued), which re-validates every memo entry
  computed before the step without any recomputation.

Validation is *lazy*: entries store the version they were computed at and
a lookup compares it against the pool's current version.  Eager dropping
on delta would destroy the rollback re-validation property.

Determinism: ``sort_key`` is injective over distinct intervals and the
pool rejects duplicate fragments per ``(view, attr)``, so the patched
mirror has exactly one canonical order — identical to a fresh
``IntervalIndex`` sort — and memoized covers are bit-identical to
recomputed ones.
"""

from __future__ import annotations

import weakref
from bisect import insort

from repro.caches import register_cache
from repro.matching.partition_match import CoveredFragment, greedy_cover
from repro.partitioning.intervals import Interval, IntervalIndex, sort_key
from repro.storage.pool import CoverDelta, MaterializedViewPool

# Bound on memoized covers per view: fig-5a workloads produce a handful of
# distinct (attr, θ) pairs per view; the bound only guards degenerate
# workloads.  FIFO eviction (dict preserves insertion order).
_MAX_COVERS_PER_VIEW = 512

_ABSENT = object()

# Live instances, for the process-wide registry (clear_all_caches / stats).
_INSTANCES: "weakref.WeakSet[CoverCache]" = weakref.WeakSet()


class CoverCache:
    """Per-view-versioned greedy-cover memo fed by pool deltas."""

    def __init__(self, pool: MaterializedViewPool) -> None:
        self.pool = pool
        # (view_id, attr) -> interval list in canonical sort_key order,
        # patched in place by _on_delta once seeded.
        self._mirrors: dict[tuple[str, str], list[Interval]] = {}
        # (view_id, attr) -> (version, IntervalIndex over the mirror).
        self._indexes: dict[tuple[str, str], tuple[int, IntervalIndex]] = {}
        # view_id -> {(attr, θ): (version, cover-or-None)}.  Bucketed per
        # view so invalidation accounting is per-view too.
        self._covers: dict[str, dict[tuple[str, Interval], tuple]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidations_by_view: dict[str, int] = {}
        pool.subscribe(self._on_delta)
        _INSTANCES.add(self)

    # ------------------------------------------------------------------
    # Delta application (in-place index patching)
    # ------------------------------------------------------------------
    def _on_delta(self, delta: CoverDelta) -> None:
        if delta.attr is None:
            return  # whole-view entries carry no fragment cover
        key = (delta.view_id, delta.attr)
        mirror = self._mirrors.get(key)
        if mirror is None:
            return  # not seeded yet; the first cover() call scans the pool
        if delta.kind == "evict":
            mirror.remove(delta.interval)
        else:  # "admit" | "restore"
            insort(mirror, delta.interval, key=sort_key)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def cover(self, view_id: str, attr: str, theta: Interval) -> list[CoveredFragment] | None:
        """Memoized ``greedy_cover(θ, P(view, attr))`` at the current version."""
        version = self.pool.cover_version(view_id)
        bucket = self._covers.setdefault(view_id, {})
        memo_key = (attr, theta)
        entry = bucket.get(memo_key, _ABSENT)
        if entry is not _ABSENT:
            stored_version, result = entry
            if stored_version == version:
                self.hits += 1
                return result
            self.invalidations += 1
            self.invalidations_by_view[view_id] = self.invalidations_by_view.get(view_id, 0) + 1
        self.misses += 1
        result = greedy_cover(theta, [], index=self._index_for(view_id, attr, version))
        if len(bucket) >= _MAX_COVERS_PER_VIEW:
            bucket.pop(next(iter(bucket)))
            self.evictions += 1
        bucket[memo_key] = (version, result)
        return result

    def _index_for(self, view_id: str, attr: str, version: int) -> IntervalIndex:
        key = (view_id, attr)
        cached = self._indexes.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        mirror = self._mirrors.get(key)
        if mirror is None:
            # Seed from the pool's per-attribute list (already in canonical
            # order); deltas patch it from here on.
            mirror = list(self.pool.intervals_of(view_id, attr))
            self._mirrors[key] = mirror
        index = IntervalIndex.from_sorted(mirror)
        self._indexes[key] = (version, index)
        return index

    # ------------------------------------------------------------------
    # Registry plumbing
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._mirrors.clear()
        self._indexes.clear()
        self._covers.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidations_by_view.clear()

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": sum(len(b) for b in self._covers.values()),
            "by_view": dict(sorted(self.invalidations_by_view.items())),
        }


def _clear_all() -> None:
    for cache in list(_INSTANCES):
        cache.clear()


def _aggregate_stats() -> dict:
    total = {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "invalidations": 0,
        "entries": 0,
        "by_view": {},
    }
    for cache in list(_INSTANCES):
        stats = cache.stats()
        total["hits"] += stats["hits"]
        total["misses"] += stats["misses"]
        total["evictions"] += stats["evictions"]
        total["invalidations"] += stats["invalidations"]
        total["entries"] += stats["entries"]
        for view_id, count in stats["by_view"].items():
            total["by_view"][view_id] = total["by_view"].get(view_id, 0) + count
    total["by_view"] = dict(sorted(total["by_view"].items()))
    return total


register_cache("matching.cover_cache", _clear_all, _aggregate_stats)
