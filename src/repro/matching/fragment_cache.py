"""Fragment-level partition cache with predicate-intersection pruning.

PartitionCache-style layer between the cover cache and the result cache:
for one materialized-view partition scan under a conjunction of range
predicates, remember — per ``(pool uid, view id, attr, conjunct shape,
conjunct constants)`` — how each cover fragment relates to the
intersection of the predicate intervals:

* ``FULL``    — the fragment's rows all satisfy the conjunction (its key
  interval, clipped, lies inside the predicate intersection): the
  executor passes the piece through without evaluating a mask;
* ``PARTIAL`` — some rows may survive: the executor applies one fused
  mask (predicates ∧ clip) at the scan instead of a clip mask followed
  by a post-concat selection mask;
* ``EMPTY``   — provably no row can satisfy the conjunction (the clipped
  predicate intersection misses the fragment's interval, or the
  fragment's observed min/max on the attribute): the payload is never
  read.

Entries are validated by the per-view **cover version** published through
the pool's CoverDelta stream (PR 5): repartitioning view V bumps V's
version and invalidates exactly V's entries at their next lookup, while
every other view's entries stay live.  A journal rollback restores the
prior version numbers, so entries recorded before the transaction
re-validate for free — no flush, no recomputation.

Semantic transparency (the same contract every cache in
:mod:`repro.caches` signs): pruning is **wall-clock only**.  The executor
still accounts every cover fragment's bytes and file count into
``charge_read``, and the rewriter's cost estimates are computed over the
full cover, so simulated-second ledgers and result tables are
byte-identical to the unpruned execution — the determinism fingerprint
proves it.  What the cache removes is real work: payload reads of empty
fragments, per-piece clip masks, and the post-concat selection pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.caches import register_cache
from repro.partitioning.intervals import Interval
from repro.query.predicates import RangePredicate

# Piece states.  Small ints, compared with ``is``-free equality in the
# executor's hot loop.
FULL = 0
PARTIAL = 1
EMPTY = 2


@lru_cache(maxsize=16_384)
def normalize_conjuncts(
    predicates: tuple[RangePredicate, ...],
) -> "tuple[tuple[str, ...], tuple, Interval | None] | None":
    """``(shape, constants, intersection)`` of a single-attribute conjunction.

    The *shape* is the predicate attribute tuple (all conjuncts must name
    the same attribute for fragment pruning to be sound against that
    attribute's partition intervals); the *constants* are the interval
    bound keys, which together with the shape identify the conjunction up
    to the predicate constants — the memo key granularity the
    PartitionCache line of work prescribes.  The intersection is the
    fused interval (``None`` when the conjunction is unsatisfiable).

    Returns ``None`` when the conjunction spans several attributes; the
    caller falls back to unpruned evaluation.

    Memoized on the predicate tuple: this is the cache's *plan-pure*
    tier, a function of the plans alone.
    """
    if not predicates:
        return None
    attr = predicates[0].attr
    shape = []
    constants = []
    intersection: Interval | None = predicates[0].interval
    for pred in predicates:
        if pred.attr != attr:
            return None
        shape.append(pred.attr)
        constants.append(pred.interval._lkey + pred.interval._ukey)
        if intersection is not None and pred.interval is not intersection:
            intersection = intersection.intersect(pred.interval)
    return tuple(shape), tuple(constants), intersection


@dataclass(frozen=True)
class PieceDecision:
    """How one ``(fragment, clip)`` pair relates to the conjunction."""

    state: int  # FULL / PARTIAL / EMPTY
    eff: Interval | None  # fused mask interval (PARTIAL only)


class FragmentPruneCache:
    """Per-view, cover-version-validated fragment prune decisions.

    ``_entries`` maps the conjunct key to ``(cover_version, decisions)``
    where ``decisions`` accumulates one :class:`PieceDecision` per
    ``(fragment id, clip)`` pair.  Fragment entries are immutable after
    admission and every admit/evict/restore bumps the owning view's cover
    version, so a version match guarantees every cached decision is
    current.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[int, dict]] = {}
        # (pool uid, fragment id) -> (min, max) of the partition column,
        # or None when the payload is empty.  Payloads are immutable, so
        # this never invalidates; it feeds the EMPTY/FULL upgrades that
        # interval algebra alone cannot prove.
        self._minmax: dict[tuple, "tuple[float, float] | None"] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.invalidations_by_view: dict[str, int] = {}
        self.pruned_fragments = 0
        self.rows_pruned = 0
        self.rows_scanned = 0
        self.enabled = True

    # -- classification ------------------------------------------------
    def classify(self, pool, scan, predicates) -> "list[PieceDecision] | None":
        """Prune decisions for ``scan`` under ``predicates``, or ``None``.

        ``None`` means the scan is not prunable through this cache (no
        fragment list, no partition attribute, multi-attribute
        conjunction, or the cache is disabled for an A/B test) and the
        caller must use the unpruned path.
        """
        if not self.enabled or not scan.fragment_ids or scan.attr is None:
            return None
        if scan.clips and len(scan.clips) != len(scan.fragment_ids):
            return None  # malformed scan: let the unpruned path raise
        normalized = normalize_conjuncts(predicates)
        if normalized is None or normalized[0][0] != scan.attr:
            return None
        shape, constants, intersection = normalized
        key = (pool.uid, scan.view_id, scan.attr, shape, constants)
        version = pool.cover_version(scan.view_id)
        entry = self._entries.get(key)
        if entry is not None and entry[0] != version:
            self.invalidations += 1
            view_counts = self.invalidations_by_view
            view_counts[scan.view_id] = view_counts.get(scan.view_id, 0) + 1
            entry = None
        if entry is None:
            decisions = {}
            self._entries[key] = (version, decisions)
            self.misses += 1
        else:
            decisions = entry[1]
            self.hits += 1
        clips = scan.clips or (None,) * len(scan.fragment_ids)
        out = []
        for fid, clip in zip(scan.fragment_ids, clips):
            decision = decisions.get((fid, clip))
            if decision is None:
                decision = self._decide(pool, scan.attr, fid, clip, intersection)
                decisions[(fid, clip)] = decision
            out.append(decision)
        return out

    def _decide(self, pool, attr: str, fid: str, clip, intersection) -> PieceDecision:
        eff = intersection
        if eff is not None and clip is not None:
            eff = eff.intersect(clip)
        if eff is None:
            return PieceDecision(EMPTY, None)
        fiv = pool.get_fragment(fid).key.interval
        if fiv is not None:
            clamped = eff.intersect(fiv)
            if clamped is None:
                return PieceDecision(EMPTY, None)
            if clamped == fiv:
                return PieceDecision(FULL, None)
        minmax = self._fragment_minmax(pool, attr, fid)
        if minmax is None:
            # Empty payload: nothing to mask, nothing to prune.
            return PieceDecision(FULL, None)
        observed = Interval.closed(minmax[0], minmax[1])
        clamped = eff.intersect(observed)
        if clamped is None:
            return PieceDecision(EMPTY, None)
        if clamped == observed:
            return PieceDecision(FULL, None)
        return PieceDecision(PARTIAL, eff)

    def _fragment_minmax(self, pool, attr: str, fid: str):
        key = (pool.uid, fid)
        cached = self._minmax.get(key, _ABSENT)
        if cached is not _ABSENT:
            return cached
        entry = pool.get_fragment(fid)
        payload = pool.hdfs.peek(entry.path)
        if payload.nrows == 0 or attr not in payload.schema:
            minmax = None
        else:
            values = payload.column(attr)
            minmax = (float(np.min(values)), float(np.max(values)))
        self._minmax[key] = minmax
        return minmax

    # -- executor accounting -------------------------------------------
    def note_empty(self) -> None:
        self.pruned_fragments += 1

    def note_rows(self, scanned: int, kept: int) -> None:
        self.rows_scanned += scanned
        self.rows_pruned += scanned - kept

    # -- registry hooks ------------------------------------------------
    def clear(self) -> None:
        normalize_conjuncts.cache_clear()
        self._entries.clear()
        self._minmax.clear()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.invalidations_by_view = {}
        self.pruned_fragments = 0
        self.rows_pruned = 0
        self.rows_scanned = 0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": 0,
            "invalidations": self.invalidations,
            "invalidations_by_view": dict(self.invalidations_by_view),
            "pruned_fragments": self.pruned_fragments,
            "rows_pruned": self.rows_pruned,
            "rows_scanned": self.rows_scanned,
            "entries": len(self._entries),
        }


_ABSENT = object()

# One process-wide cache: keys carry the pool uid, so separate systems
# (H/NP/DS pools, test pools) can never collide.
GLOBAL = FragmentPruneCache()

register_cache("matching.fragment_cache", GLOBAL.clear, GLOBAL.stats)
