"""The per-fragment-list PSTAT, kept verbatim as the oracle of the hit log.

Before hits moved into one log per partition (``repro.costmodel.stats.HitLog``),
every fragment kept its own ``hit_times`` / ``hit_ranges`` lists and every
reader walked them.  This module is that code, copied unchanged: the store
and ``FragmentStats`` from ``repro/costmodel/stats.py``; ``fragment_hits``,
``realizing_hits``, ``RealizingHitsIndex`` and ``partition_distributions``
from ``repro/costmodel/value.py`` with the spread they fitted through
(``repro/costmodel/mle.py``); ``co_access_fraction`` from
``repro/core/merging.py``; and, as functions, the bodies that inherited a
split parent's hits (``Valuation.inherit_fragment_stats``), merged a pair's
(``Repartitioner.apply_merge``) and measured endpoint jitter
(``Selection.observed_jitter``).  ``tests/test_hit_log.py`` and the stateful
tight-pool run compare the log against it with ``==``.
"""

from __future__ import annotations

import math

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.costmodel.decay import Decay
from repro.costmodel.mle import FittedNormal, _fit_normal_arrays, _mids_for

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
        recording and is popped by ``ensure_fragment``.
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
        only when a fragment is added, never on recorded hits.
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


# ---- repro/costmodel/value.py ----
def fragment_hits(fragment: FragmentStats, t_now: float, decay: Decay) -> float:
    """Decayed hit count ``H(I)`` (vectorized, bit-equal to the event loop).

    Memoized per ``(decay, t_now)`` on the stats object: one selection or
    refinement step evaluates the same fragment against many candidates at
    a fixed logical time.  ``record_hit`` invalidates the memo.
    """
    memo = fragment._hits_memo
    if memo is not None and memo[1] == t_now and memo[0] == decay:
        return memo[2]
    times = fragment.times_array()
    if times.size == 0:
        value = 0.0
    else:
        value = sum(decay.weights(t_now, times).tolist())
    fragment._hits_memo = (decay, t_now, value)
    return value


def realizing_hits(
    parent: FragmentStats,
    parent_interval: Interval,
    piece: Interval,
    t_now: float,
    decay: Decay,
) -> float:
    """Decayed hits that would *realize* a refinement's saving (§7.2).

    Splitting ``piece`` out of ``parent_interval`` saves a query the
    parent read only when everything the query needs from that parent
    fits inside the piece: ``θ ∩ parent ⊆ piece``.  A query needing more
    of the parent still reads it (or other siblings), so its hit must not
    back the piece's creation cost.  This is what keeps jittering range
    endpoints from carving an endless stream of boundary slivers.
    """
    total = 0.0
    for t, theta in zip(parent.hit_times, parent.hit_ranges):
        if theta is None:
            continue
        needed = theta.intersect(parent_interval)
        if needed is not None and piece.contains(needed):
            total += decay(t_now, t)
    return total


class RealizingHitsIndex:
    """Precomputed :func:`realizing_hits` over many pieces of one parent.

    One refinement evaluation asks for the realizing hits of every hot
    piece of a split candidate against the same parent fragment.  The
    per-hit work that does not depend on the piece — intersecting each
    recorded query range with the parent interval and decaying the hit
    timestamps — happens once here; :meth:`hits_for` is then a vectorized
    containment test plus a left-to-right sum of exactly the decayed
    weights the scalar loop would have added, in the same order.

    Most candidates have exactly one hot piece, so the index builds its
    arrays *lazily*: the first :meth:`hits_for` call runs the scalar loop
    (nothing to amortize), and only a second call — same parent, more
    pieces — pays the one-time array construction that makes every later
    piece a few vectorized compares.  Both paths produce bit-identical
    sums (tests/test_value_functions.py).
    """

    __slots__ = ("_parent", "_interval", "_t_now", "_decay", "_calls", "_weights", "_lk", "_uk")

    def __init__(
        self,
        parent: FragmentStats,
        parent_interval: Interval,
        t_now: float,
        decay: Decay,
    ) -> None:
        self._parent = parent
        self._interval = parent_interval
        self._t_now = t_now
        self._decay = decay
        self._calls = 0
        self._weights = None

    def _build(self) -> None:
        lower_keys: list[tuple] = []
        upper_keys: list[tuple] = []
        times: list[float] = []
        for t, theta in zip(self._parent.hit_times, self._parent.hit_ranges):
            if theta is None:
                continue
            needed = theta.intersect(self._interval)
            if needed is None:
                continue
            lower_keys.append(needed._lkey)
            upper_keys.append(needed._ukey)
            times.append(t)
        if times:
            self._weights = self._decay.weights(self._t_now, np.array(times, dtype=np.float64))
            self._lk = np.array(lower_keys, dtype=np.float64)
            self._uk = np.array(upper_keys, dtype=np.float64)
        else:
            self._weights = np.empty(0, dtype=np.float64)

    def hits_for(self, piece: Interval) -> float:
        """Bit-identical to ``realizing_hits(parent, parent_interval, piece, …)``."""
        self._calls += 1
        if self._calls == 1:
            return realizing_hits(self._parent, self._interval, piece, self._t_now, self._decay)
        if self._weights is None:
            self._build()
        if not self._weights.size:
            return 0.0
        pl, pu = piece._lkey, piece._ukey
        lk, uk = self._lk, self._uk
        # piece.contains(needed) as two lexicographic key comparisons:
        # piece._lkey <= needed._lkey and needed._ukey <= piece._ukey.
        lo_ok = (pl[0] < lk[:, 0]) | ((pl[0] == lk[:, 0]) & (pl[1] <= lk[:, 1]))
        hi_ok = (uk[:, 0] < pu[0]) | ((uk[:, 0] == pu[0]) & (uk[:, 1] <= pu[1]))
        return sum(self._weights[lo_ok & hi_ok].tolist())


def partition_distributions(
    stats: StatisticsStore,
    partitions: "list[tuple[str, str, Interval]]",
    t_now: float,
    decay: Decay,
    n_parts: int = 256,
) -> "dict[tuple[str, str], tuple[FittedNormal, float] | None]":
    """Batched MLE fits for several ``(view_id, attr, domain)`` partitions.

    One ``decay.weights`` call covers every partition's concatenated
    fragment hit times *and* distinct hit times, instead of two calls per
    partition: the weight ops are elementwise, so each partition's slices
    are bitwise the arrays the one-at-a-time path would compute, and the
    per-fragment / per-partition scalar sums accumulate the identical
    floats in the identical order.  A partition with no hit mass maps to
    ``None`` (nothing to fit; callers fall back to raw hits).
    """
    prepared = []
    segments = []
    for view_id, attr, domain in partitions:
        frags, lens, concat, distinct = stats.partition_times(view_id, attr)
        _, lk, uk = stats.partition_bounds(view_id, attr)
        prepared.append((view_id, attr, domain, frags, lens, concat, distinct, lk, uk))
        if concat.size:
            segments.append(concat)
        if distinct.size:
            segments.append(distinct)
    if segments:
        w_all = decay.weights(
            t_now, np.concatenate(segments) if len(segments) > 1 else segments[0]
        )
    results: "dict[tuple[str, str], tuple[FittedNormal, float] | None]" = {}
    off = 0
    for view_id, attr, domain, frags, lens, concat, distinct, lk, uk in prepared:
        if not frags:
            results[(view_id, attr)] = None
            continue
        w_list = w_all[off : off + concat.size].tolist() if concat.size else []
        off += concat.size
        values = []
        frag_off = 0
        for f, n in zip(frags, lens):
            if n == 0:
                value = 0.0
            else:
                value = sum(w_list[frag_off : frag_off + n])
                frag_off += n
            f._hits_memo = (decay, t_now, value)
            values.append(value)
        # H_total is "the total number of queries that used at least one
        # fragment" (§7.1): count each hit timestamp once even when it
        # touched several (possibly overlapping) fragments.
        if distinct.size:
            total = sum(w_all[off : off + distinct.size].tolist())
            off += distinct.size
        else:
            total = 0.0
        if total <= 0:
            results[(view_id, attr)] = None
            continue
        # The cached bound-key arrays parallel ``frags`` element for
        # element, so this is fit_partition_distribution(domain,
        # [(f.interval, v) ...], n_parts) without re-walking the intervals.
        fitted: FittedNormal | None = fit_partition_bounds(
            domain, lk, uk, np.asarray(values, dtype=np.float64), n_parts
        )
        results[(view_id, attr)] = None if fitted is None else (fitted, total)
    return results


# ---- repro/costmodel/mle.py ----
def _spread_hits_arrays(
    domain: Interval,
    mids_arr: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    lo_open: np.ndarray,
    hi_open: np.ndarray,
    hits_arr: np.ndarray,
) -> np.ndarray:
    """:func:`spread_hits` over prebuilt per-fragment bound arrays.

    ``lows``/``highs`` carry ±inf for unbounded ends (the interval bound
    keys), so the searchsorted runs need no None special case.  Callers
    holding cached bound arrays (``StatisticsStore.partition_bounds``)
    skip the per-call Python attribute walk entirely.
    """
    weights = np.zeros(mids_arr.size, dtype=np.float64)
    keep = np.flatnonzero(hits_arr > 0)
    if keep.size == 0:
        return weights
    if keep.size != hits_arr.size:
        hits_arr = hits_arr[keep]
        lows, highs = lows[keep], highs[keep]
        lo_open, hi_open = lo_open[keep], hi_open[keep]
    # The midpoints are sorted, so the parts a fragment contains form a
    # contiguous run mapped by binary search: searchsorted side "left" is
    # bisect_left and "right" is bisect_right, reproducing the open/closed
    # endpoint logic of contains_point exactly.  Unbounded ends need no
    # special case — ±inf searches to 0 / n_parts on either side.
    start = np.where(
        lo_open,
        np.searchsorted(mids_arr, lows, side="right"),
        np.searchsorted(mids_arr, lows, side="left"),
    )
    end = np.where(
        hi_open,
        np.searchsorted(mids_arr, highs, side="left"),
        np.searchsorted(mids_arr, highs, side="right"),
    )
    # Degenerate fragments narrower than a part charge the nearest part;
    # argmin matches min()'s first-of-ties choice.  Rare, so the handful
    # of them keep the original scalar computation verbatim.
    for i in np.flatnonzero(end <= start):
        anchor = min(max(lows[i], domain.lo), domain.hi)
        idx = int(np.argmin(np.abs(mids_arr - anchor)))
        start[i], end[i] = idx, idx + 1
    # Scatter each fragment's equal share over its part run.  np.add.at is
    # unbuffered and applies the additions in index order, so every part
    # accumulates its shares in the same fragment order with the same IEEE
    # additions as the naive `weights[start:end] += share` loop — results
    # are bit-identical (tests/test_mle.py proves this against the scalar
    # oracle).
    lengths = end - start
    shares = hits_arr / lengths
    total = int(lengths.sum())
    flat_idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(lengths) - lengths, lengths)
        + np.repeat(start, lengths)
    )
    np.add.at(weights, flat_idx, np.repeat(shares, lengths))
    return weights


def fit_partition_bounds(
    domain: Interval,
    lower_keys: np.ndarray,
    upper_keys: np.ndarray,
    hits_arr: np.ndarray,
    n_parts: int = 256,
) -> FittedNormal | None:
    """:func:`fit_partition_distribution` over cached ``(value, flag)`` bound keys.

    ``lower_keys``/``upper_keys`` are the ``[n, 2]`` per-fragment bound-key
    arrays maintained by ``StatisticsStore.partition_bounds`` (column 0 the
    bound value with ±inf for unbounded ends, column 1 the openness flag),
    ``hits_arr`` the per-fragment decayed hit counts in the same order.
    Same floats, same order, no per-call interval-object walk — results
    are bit-identical to the fragment-list path (tests/test_mle.py).
    """
    mids, mids_arr = _mids_for(domain, n_parts)
    weights = _spread_hits_arrays(
        domain,
        mids_arr,
        lower_keys[:, 0],
        upper_keys[:, 0],
        lower_keys[:, 1] == 1.0,
        upper_keys[:, 1] == -1.0,
        hits_arr,
    )
    return _fit_normal_arrays(mids_arr, weights, mids)


# ---- repro/core/merging.py ----
def co_access_fraction(a: FragmentStats, b: FragmentStats, t_now: float, decay: Decay) -> float:
    """Decayed fraction of hits the two fragments share.

    A hit timestamp present on both fragments means one query touched
    both.  The fraction is taken against the *busier* fragment, so a hot
    fragment is never merged into a cold neighbour it rarely drags along.
    """
    times_a = set(a.hit_times)
    times_b = set(b.hit_times)
    if not times_a or not times_b:
        return 0.0
    shared = times_a & times_b
    weight = lambda times: sum(decay(t_now, t) for t in times)
    denominator = max(weight(times_a), weight(times_b))
    if denominator <= 0:
        return 0.0
    return weight(shared) / denominator


# ---- the bodies of three methods, as functions ----
def inherit_fragment_stats(stats, view_id, attr, parent_interval, pieces):
    """``Valuation.inherit_fragment_stats`` (fit settling aside)."""
    parent = stats.fragment(view_id, attr, parent_interval)
    for piece in pieces:
        piece_stats = stats.ensure_fragment(view_id, attr, piece)
        if parent is not None and not piece_stats.hit_times:
            piece_stats.inherit_hits(parent, piece)


def merge_hits(stats, view_id, attr, left, right, merged):
    """The hit half of ``Repartitioner.apply_merge`` (fit settling aside)."""
    merged_stats = stats.ensure_fragment(view_id, attr, merged)
    if not merged_stats.hit_times:
        events = set()
        for interval in (left, right):
            source = stats.fragment(view_id, attr, interval)
            if source is not None:
                events.update(zip(source.hit_times, source.hit_ranges))
        for time, theta in sorted(events, key=lambda e: e[0]):
            merged_stats.record_hit(time, theta)


def observed_jitter(stats, view_id: str, attr: str, parent: Interval, theta: Interval) -> float:
    """Standard deviation of recent query midpoints around ``theta``.

    Measured from the parent fragment's recorded hit ranges, so the
    widening below can cover the workload's actual endpoint jitter
    (heavy skew keeps ranges near one spot but their midpoints still
    wander by the distribution's sigma).
    """
    parent_stats = stats.fragment(view_id, attr, parent)
    if parent_stats is None:
        return 0.0
    # Inlined bounded/overlaps/width tests over the precomputed bound
    # keys — identical predicates to the Interval methods, without the
    # per-range attribute and property calls (this loop runs for every
    # candidate of every query).
    theta_width = theta.width
    half_width = 0.5 * theta_width
    tl, tu = theta._lkey, theta._ukey
    mids = []
    for rng in parent_stats.hit_ranges[-30:]:
        if rng is None:
            continue
        lk, uk = rng._lkey, rng._ukey
        lo, hi = lk[0], uk[0]
        if math.isinf(lo) or math.isinf(hi):
            continue
        if not (lk <= tu and tl <= uk):
            continue
        # same template family: comparable selection widths only
        if abs((hi - lo) - theta_width) <= half_width:
            mids.append((lo + hi) / 2.0)
    if len(mids) < 2:
        return 0.0
    mean = sum(mids) / len(mids)
    return (sum((m - mean) ** 2 for m in mids) / len(mids)) ** 0.5
