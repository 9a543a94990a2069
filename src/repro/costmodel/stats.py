"""View and fragment statistics — the ``STAT`` structure of Definition 5.

``STAT = (VSTAT, PSTAT, Σ)``: a set of views, a mapping from (view,
attribute) to fragment intervals, and per-view / per-fragment bookkeeping.
Statistics are kept for every candidate *whether or not it is resident in
the pool* — that is what lets DeepSea estimate the value of re-admitting
an evicted fragment, and lets partition candidates accumulate evidence
before being materialized.

Per view (§7.1): size ``S(V)``, creation cost ``COST(V)``, the timestamped
benefit events ``(T, B)``, and the last access time (used by the Nectar
baselines' ``ΔT``).  Sizes and costs start as estimates and are replaced
with actuals after the first materialization.

Per fragment: size ``S(I)`` and hit timestamps ``T(I)``; cost and benefit
derive from the owning view (§7.1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.partitioning.intervals import Interval, sort_key
from repro.query.algebra import Plan


@dataclass(frozen=True)
class BenefitEvent:
    """One potential use of a view: at time ``t`` it would have saved ``saving_s``."""

    t: float
    saving_s: float


@dataclass
class ViewStats:
    """Σ entry for one view (candidate or resident)."""

    view_id: str
    plan: Plan
    size_bytes: float = 0.0
    creation_cost_s: float = 0.0
    size_is_actual: bool = False
    cost_is_actual: bool = False
    benefit_events: list[BenefitEvent] = field(default_factory=list)
    last_access_t: float = 0.0
    _events_arr: "tuple[np.ndarray, np.ndarray] | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    # (decay, t_now, value) memo for view_benefit — see repro.costmodel.value
    _benefit_memo: "tuple | None" = field(default=None, init=False, repr=False, compare=False)

    def record_benefit(self, t: float, saving_s: float) -> None:
        self.benefit_events.append(BenefitEvent(t, saving_s))
        self.last_access_t = max(self.last_access_t, t)
        self._events_arr = None
        self._benefit_memo = None

    def events_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """(times, savings) as float arrays, cached until the next event."""
        if self._events_arr is None:
            self._events_arr = (
                np.array([ev.t for ev in self.benefit_events], dtype=np.float64),
                np.array([ev.saving_s for ev in self.benefit_events], dtype=np.float64),
            )
        return self._events_arr

    def set_actual_size(self, size_bytes: float) -> None:
        self.size_bytes = size_bytes
        self.size_is_actual = True

    def set_actual_cost(self, cost_s: float) -> None:
        self.creation_cost_s = cost_s
        self.cost_is_actual = True


@dataclass
class FragmentStats:
    """Σ entry for one fragment (candidate or resident).

    ``hit_ranges`` parallels ``hit_times``: the selection interval of the
    query that produced the hit (``None`` when the query had no range on
    the partition attribute).  The refinement filter uses it to count only
    the queries a candidate piece would fully serve.
    """

    view_id: str
    attr: str
    interval: Interval
    size_bytes: float = 0.0
    size_is_actual: bool = False
    hit_times: list[float] = field(default_factory=list)
    hit_ranges: list["Interval | None"] = field(default_factory=list)
    last_access_t: float = 0.0
    _times_arr: "np.ndarray | None" = field(default=None, init=False, repr=False, compare=False)
    # (decay, t_now, value) memo for fragment_hits — see repro.costmodel.value
    _hits_memo: "tuple | None" = field(default=None, init=False, repr=False, compare=False)
    # Shared per-partition revision cell (a one-element list owned by the
    # StatisticsStore), bumped on every recorded hit; lets
    # StatisticsStore.partition_times validate its per-partition cache
    # with one integer compare instead of walking the fragment list.
    _hit_cell: "list[int] | None" = field(default=None, init=False, repr=False, compare=False)

    def record_hit(self, t: float, theta: "Interval | None" = None) -> None:
        self.hit_times.append(t)
        self.hit_ranges.append(theta)
        self.last_access_t = max(self.last_access_t, t)
        self._times_arr = None
        self._hits_memo = None
        if self._hit_cell is not None:
            self._hit_cell[0] += 1

    def times_array(self) -> np.ndarray:
        """``hit_times`` as a float array, cached until the next hit."""
        if self._times_arr is None:
            self._times_arr = np.array(self.hit_times, dtype=np.float64)
        return self._times_arr

    def inherit_hits(self, parent: "FragmentStats", piece: Interval) -> None:
        """Copy the parent's hits whose recorded range touches ``piece``.

        Hits without a range are copied wholesale.  Equivalent to calling
        :meth:`record_hit` per qualifying hit, with the cache resets and
        the revision-cell bump applied once per batch instead of per hit
        (split inheritance replays whole histories, so the per-call
        overhead was measurable).
        """
        pl, pu = piece._lkey, piece._ukey
        times, ranges = self.hit_times, self.hit_ranges
        last = self.last_access_t
        added = 0
        for t, theta in zip(parent.hit_times, parent.hit_ranges):
            if theta is None or (theta._lkey <= pu and pl <= theta._ukey):
                times.append(t)
                ranges.append(theta)
                if t > last:
                    last = t
                added += 1
        if added:
            self.last_access_t = last
            self._times_arr = None
            self._hits_memo = None
            if self._hit_cell is not None:
                self._hit_cell[0] += added

    def set_actual_size(self, size_bytes: float) -> None:
        self.size_bytes = size_bytes
        self.size_is_actual = True


FragmentStatsKey = tuple[str, str, Interval]


def _insert_bound_row(arr: np.ndarray, pos: int, row: tuple[float, int]) -> np.ndarray:
    """``np.insert(arr, pos, row, axis=0)`` without its Python overhead.

    The bound-key arrays are patched on nearly every query (candidate
    tracking), and ``np.insert``'s generic argument handling cost more
    than the copy itself.  Same float64 rows in the same order.
    """
    n = arr.shape[0]
    out = np.empty((n + 1, 2), dtype=np.float64)
    out[:pos] = arr[:pos]
    out[pos] = row
    out[pos + 1 :] = arr[pos:]
    return out


class StatisticsStore:
    """In-memory STAT: keyed views and fragments, resident or not."""

    def __init__(self) -> None:
        self._views: dict[str, ViewStats] = {}
        self._fragments: dict[FragmentStatsKey, FragmentStats] = {}
        # (view_id, attr) -> set of intervals with stats (PSTAT(V, A))
        self._partitions: dict[tuple[str, str], list[Interval]] = {}
        # (view_id, attr) -> (interval snapshot, lower keys [n,2], upper
        # keys [n,2]) for the vectorized overlap scan; rebuilt lazily after
        # any partition-list mutation.
        self._bounds_cache: dict[tuple[str, str], tuple] = {}
        # (view_id, attr) -> (hit revision, fragment snapshot, per-fragment
        # hit-time arrays, their concatenation, distinct hit times) for the
        # batched decay pass in costmodel.value; validated against the
        # partition's shared hit-revision cell, and popped whenever the
        # fragment list itself changes.
        self._times_cache: dict[tuple[str, str], tuple] = {}
        # (view_id, attr) -> [hit revision]; shared with every FragmentStats
        # of the partition so record_hit can bump it without knowing the store.
        self._hit_cells: dict[tuple[str, str], list[int]] = {}
        # (view_id, attr) -> fragment-stats list in partition order; popped
        # alongside the bounds cache on any fragment-list mutation.
        self._frags_cache: dict[tuple[str, str], list[FragmentStats]] = {}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(self, view_id: str) -> ViewStats | None:
        return self._views.get(view_id)

    def ensure_view(self, view_id: str, plan: Plan) -> ViewStats:
        stats = self._views.get(view_id)
        if stats is None:
            stats = ViewStats(view_id, plan)
            self._views[view_id] = stats
        return stats

    def all_views(self) -> list[ViewStats]:
        return list(self._views.values())

    # ------------------------------------------------------------------
    # Fragments
    # ------------------------------------------------------------------
    def fragment(self, view_id: str, attr: str, interval: Interval) -> FragmentStats | None:
        return self._fragments.get((view_id, attr, interval))

    def ensure_fragment(self, view_id: str, attr: str, interval: Interval) -> FragmentStats:
        key = (view_id, attr, interval)
        stats = self._fragments.get(key)
        if stats is None:
            stats = FragmentStats(view_id, attr, interval)
            stats._hit_cell = self._hit_cells.setdefault((view_id, attr), [0])
            self._fragments[key] = stats
            ivs = self._partitions.setdefault((view_id, attr), [])
            # sort_key is injective over the distinct intervals of a
            # partition, so a bisected insert lands exactly where a full
            # re-sort would place it — at O(n) instead of O(n log n).
            pos = bisect_right(ivs, sort_key(interval), key=sort_key)
            ivs.insert(pos, interval)
            # Patch the derived caches in place of popping them: candidate
            # tracking adds a fragment on most queries, and the from-scratch
            # rebuilds (Python listcomps over every interval) dominated the
            # warm profile.  Each patched entry is element-for-element what
            # a rebuild would produce — the new interval's bound keys slot
            # in at the same bisected position, and a fragment with no hits
            # contributes nothing to the concatenated or distinct hit
            # times.  Fresh copies replace the cached tuples so snapshots
            # already handed to callers stay internally consistent.
            cache_key = (view_id, attr)
            bounds = self._bounds_cache.get(cache_key)
            if bounds is not None:
                civs, lk, uk = bounds
                civs = civs.copy()
                civs.insert(pos, interval)
                self._bounds_cache[cache_key] = (
                    civs,
                    _insert_bound_row(lk, pos, interval._lower_key()),
                    _insert_bound_row(uk, pos, interval._upper_key()),
                )
            frags = self._frags_cache.get(cache_key)
            if frags is not None:
                frags = frags.copy()
                frags.insert(pos, stats)
                self._frags_cache[cache_key] = frags
            times = self._times_cache.get(cache_key)
            if times is not None:
                rev, tfrags, lens, concat, distinct = times
                tfrags = tfrags.copy()
                tfrags.insert(pos, stats)
                lens = lens.copy()
                lens.insert(pos, 0)
                self._times_cache[cache_key] = (rev, tfrags, lens, concat, distinct)
        return stats

    def drop_fragment(self, view_id: str, attr: str, interval: Interval) -> None:
        """Forget a fragment's statistics (used when a split retires a parent)."""
        key = (view_id, attr, interval)
        if key in self._fragments:
            del self._fragments[key]
            self._partitions[(view_id, attr)].remove(interval)
            self._bounds_cache.pop((view_id, attr), None)
            self._times_cache.pop((view_id, attr), None)
            self._frags_cache.pop((view_id, attr), None)

    def intervals_for(self, view_id: str, attr: str) -> list[Interval]:
        """PSTAT(V, A): all fragment intervals tracked for this partition."""
        return list(self._partitions.get((view_id, attr), []))

    def partition_bounds(
        self, view_id: str, attr: str
    ) -> "tuple[list[Interval], np.ndarray, np.ndarray]":
        """PSTAT(V, A) with its ``[n, 2]`` lower/upper bound-key arrays.

        The arrays parallel :meth:`intervals_for` (and therefore
        :meth:`fragments_for`) element for element; they change only when
        the fragment list itself does, so the cache entry survives hit
        recording and is popped by ``ensure_fragment``/``drop_fragment``.
        """
        key = (view_id, attr)
        cached = self._bounds_cache.get(key)
        if cached is None:
            ivs = list(self._partitions.get(key, []))
            lk = np.array([iv._lower_key() for iv in ivs], dtype=np.float64)
            uk = np.array([iv._upper_key() for iv in ivs], dtype=np.float64)
            cached = (ivs, lk.reshape(len(ivs), 2), uk.reshape(len(ivs), 2))
            self._bounds_cache[key] = cached
        return cached

    def overlapping_intervals(self, view_id: str, attr: str, theta: Interval) -> list[Interval]:
        """The tracked intervals of PSTAT(V, A) that overlap ``theta``.

        Equivalent to ``[iv for iv in intervals_for(...) if
        iv.overlaps(theta)]`` — two intervals overlap exactly when each
        one's lower key is lexicographically ≤ the other's upper key — but
        evaluated as four vectorized comparisons over cached per-partition
        bound arrays instead of one ``intersect`` allocation per interval.
        The bound keys are ``(value, openness flag)`` pairs whose float
        comparisons match Python tuple comparison bit for bit, and
        ``flatnonzero`` walks the same sorted order as the scalar loop.
        """
        ivs, lk, uk = self.partition_bounds(view_id, attr)
        if not ivs:
            return []
        tl, tu = theta._lower_key(), theta._upper_key()
        lo_ok = (lk[:, 0] < tu[0]) | ((lk[:, 0] == tu[0]) & (lk[:, 1] <= tu[1]))
        hi_ok = (tl[0] < uk[:, 0]) | ((tl[0] == uk[:, 0]) & (tl[1] <= uk[:, 1]))
        return [ivs[i] for i in np.flatnonzero(lo_ok & hi_ok)]

    def record_overlapping_hits(self, view_id: str, attr: str, t: float, theta: Interval) -> None:
        """Record one hit on every PSTAT(V, A) fragment overlapping ``theta``.

        Equivalent to ``for iv in overlapping_intervals(...):
        fragment(...).record_hit(t, theta)`` but resolved through the
        cached aligned fragment list and applied inline — one overlap
        scan, no per-fragment key hashing, same appended state bit for
        bit.  This is the per-query statistics write (§8.4), hot enough
        that the scalar loop showed up in profiles.
        """
        ivs, lk, uk = self.partition_bounds(view_id, attr)
        if not ivs:
            return
        tl, tu = theta._lower_key(), theta._upper_key()
        lo_ok = (lk[:, 0] < tu[0]) | ((lk[:, 0] == tu[0]) & (lk[:, 1] <= tu[1]))
        hi_ok = (tl[0] < uk[:, 0]) | ((tl[0] == uk[:, 0]) & (tl[1] <= uk[:, 1]))
        fragments = self.fragments_for(view_id, attr)
        for i in np.flatnonzero(lo_ok & hi_ok):
            stats = fragments[i]
            stats.hit_times.append(t)
            stats.hit_ranges.append(theta)
            if t > stats.last_access_t:
                stats.last_access_t = t
            stats._times_arr = None
            stats._hits_memo = None
            if stats._hit_cell is not None:
                stats._hit_cell[0] += 1

    def fragments_for(self, view_id: str, attr: str) -> list[FragmentStats]:
        """Fragment stats in :meth:`intervals_for` order (shared list — don't mutate).

        Cached with the same lifetime as the bound arrays: the list changes
        only when a fragment is added or dropped, never on recorded hits.
        """
        key = (view_id, attr)
        frags = self._frags_cache.get(key)
        if frags is None:
            frags = [
                self._fragments[(view_id, attr, iv)] for iv in self._partitions.get(key, ())
            ]
            self._frags_cache[key] = frags
        return frags

    def hit_revision(self, view_id: str, attr: str) -> int:
        """Hits ever recorded on PSTAT(V, A): moves iff one of its hit lists did."""
        cell = self._hit_cells.get((view_id, attr))
        return cell[0] if cell is not None else 0

    def partition_times(
        self, view_id: str, attr: str
    ) -> "tuple[list[FragmentStats], list[int], np.ndarray, np.ndarray]":
        """Hit-time arrays of one partition, cached across selection steps.

        Returns ``(fragments, per-fragment hit counts, concatenated hit
        times, distinct times)``.  The MLE pass re-reads these arrays on
        every query while the underlying hit lists change only when a hit
        is recorded, so the concatenation and the distinct-time set are
        rebuilt only when the partition's shared hit-revision cell has
        moved (fragment-list changes pop the entry outright).  The
        distinct-time array is materialized from a freshly built set
        exactly as the uncached path did: ``set.update`` feeds the same
        insertion sequence as the element-at-a-time comprehension, and a
        set fed the same insertion sequence iterates in the same order,
        so the cached array is element-for-element the one a rebuild
        would give.
        """
        key = (view_id, attr)
        rev = self.hit_revision(view_id, attr)
        cached = self._times_cache.get(key)
        if cached is not None and cached[0] == rev:
            return cached[1], cached[2], cached[3], cached[4]
        frags = self.fragments_for(view_id, attr)
        lens = [len(f.hit_times) for f in frags]
        # One C loop builds the concatenation — the same floats in the same
        # fragment order as concatenating per-fragment arrays.
        concat = np.fromiter(
            chain.from_iterable(f.hit_times for f in frags), dtype=np.float64, count=sum(lens)
        )
        distinct_set: set[float] = set()
        for f in frags:
            distinct_set.update(f.hit_times)
        distinct = np.fromiter(distinct_set, dtype=np.float64, count=len(distinct_set))
        self._times_cache[key] = (rev, frags, lens, concat, distinct)
        return frags, lens, concat, distinct

    def partition_attrs(self, view_id: str) -> list[str]:
        return sorted(a for (v, a) in self._partitions if v == view_id)
