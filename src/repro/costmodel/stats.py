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
derive from the owning view (§7.1).  A query's hit is stored once per
partition, not once per fragment it touched: each (view, attribute)
partition keeps one :class:`HitLog`, and a fragment's ``T(I)`` is its
membership in that log.  This module is the only one that knows the
format — everything else reads hits through the accessors of
:class:`FragmentStats` and :class:`HitLog`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.costmodel.decay import Decay
from repro.costmodel.mle import part_runs
from repro.partitioning.intervals import Interval, keys_overlapping, sort_key
from repro.query.algebra import Plan

# Bound keys of a rangeless hit: it touches every fragment.
_NO_RANGE_KEYS = ((-math.inf, 0), (math.inf, 0))


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


class HitLog:
    """One partition's hit history: every query's hit once, and who holds it.

    Entry ``e`` is one query that hit the partition: its time and its
    range θ on the partition attribute (``None`` when it had none).  Each
    fragment of the partition owns a row ``r``, and ``member[e, r]`` says
    whether the fragment holds entry ``e``; the fragment's hit list is its
    member entries in log order.  Membership follows the rules the
    per-fragment lists of earlier versions followed, so every list reads
    back element for element:

    * a recorded query joins every fragment its θ overlaps (:meth:`append`);
    * a new fragment holds nothing (:meth:`add_row`);
    * an inheriting piece takes its parent's entries whose θ touches it,
      a rangeless entry touching everything (:meth:`inherit`);
    * a merged fragment holds the union of its pair's entries (:meth:`union`).

    Recording a hit is one append and one membership column; a fragment
    costs one row, however many hits its parent had.  The decayed hit
    counts of all fragments are one masked accumulation over the live
    entries (:meth:`decayed_hits`), memoized per time and revision.
    """

    def __init__(self) -> None:
        self._n = 0
        self._times = np.empty(16, dtype=np.float64)
        self._lower = np.empty((16, 2), dtype=np.float64)  # θ bound keys
        self._upper = np.empty((16, 2), dtype=np.float64)
        self._ranged = np.empty(16, dtype=bool)
        self._first = np.empty(16, dtype=np.intp)  # first holder in partition order, or -1
        self._ranges: list[Interval | None] = []
        self._member = np.zeros((16, 8), dtype=bool)  # [entry, row]
        self._held_count = np.zeros(8, dtype=np.intp)  # entries each row holds
        self._rows = np.empty(0, dtype=np.intp)  # rows in partition (interval) order
        self._pos = np.zeros(8, dtype=np.intp)  # each owned row's index in _rows
        self._next_row = 0
        # Moves whenever any fragment's hit list changes.
        self.revision = 0
        self._history: tuple | None = None  # (revision, held entries, distinct times)
        self._decayed: tuple | None = None  # (revision, decay, t_now, per row, H_total)

    # ------------------------------------------------------------------
    # Rows (fragments) and entries (hits)
    # ------------------------------------------------------------------
    def add_row(self, pos: int) -> int:
        """A row for a new fragment at partition position ``pos``; it holds nothing."""
        row = self._next_row
        self._next_row += 1
        if row == self._member.shape[1]:
            grown = np.zeros((self._member.shape[0], 2 * row), dtype=bool)
            grown[:, :row] = self._member
            self._member = grown
            self._pos = np.concatenate((self._pos, np.zeros(row, dtype=np.intp)))
            self._held_count = np.concatenate((self._held_count, np.zeros(row, dtype=np.intp)))
            self._decayed = None  # its per-row array no longer spans the rows
        rows = np.empty(self._rows.size + 1, dtype=np.intp)
        rows[:pos], rows[pos], rows[pos + 1 :] = self._rows[:pos], row, self._rows[pos:]
        self._rows = rows
        self._pos[rows[pos + 1 :]] += 1
        self._pos[row] = pos
        return row

    def rows(self) -> np.ndarray:
        """The fragments' rows in partition order (don't mutate)."""
        return self._rows

    def __len__(self) -> int:
        """Entries recorded — at most one per query that hit the partition."""
        return self._n

    def append(self, t: float, theta: Interval | None, rows) -> None:
        """Record one hit at ``t`` with range ``theta``, held by ``rows``."""
        e = self._n
        if e == self._times.size:
            self._grow_entries()
        rows = np.asarray(rows, dtype=np.intp)
        self._times[e] = t
        if theta is None:
            self._lower[e], self._upper[e] = _NO_RANGE_KEYS
        else:
            self._lower[e], self._upper[e] = theta._lkey, theta._ukey
        self._ranged[e] = theta is not None
        self._ranges.append(theta)
        self._member[e, rows] = True
        self._held_count[rows] += 1  # once per distinct row, as the membership
        self._first[e] = rows[self._pos[rows].argmin()] if rows.size else -1
        self._n = e + 1
        self.revision += 1

    def _grow_entries(self) -> None:
        cap = 2 * self._times.size
        for name in ("_times", "_lower", "_upper", "_ranged", "_first", "_member"):
            old = getattr(self, name)
            grown = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)

    def inherit(self, row: int, parent_row: int, piece: Interval) -> None:
        """Give ``row`` the entries of ``parent_row`` whose θ touches ``piece``."""
        n = self._n
        touching = keys_overlapping(self._lower[:n], self._upper[:n], piece)
        self._take(row, np.flatnonzero(self._member[:n, parent_row] & touching))

    def union(self, row: int, *sources: int) -> None:
        """Give ``row`` every entry some row of ``sources`` holds."""
        taken = np.zeros(self._n, dtype=bool)
        for source in sources:
            taken |= self._member[: self._n, source]
        self._take(row, np.flatnonzero(taken))

    def _take(self, row: int, taken: np.ndarray) -> None:
        held = self._member[: self._n, row]
        new = taken[~held[taken]]
        if new.size:
            held[new] = True
            self._held_count[row] += new.size
            first = self._first[new]
            ahead = (first < 0) | (self._pos[first] > self._pos[row])
            self._first[new[ahead]] = row
            self.revision += 1

    def entries(self, row: int) -> np.ndarray:
        """The entries ``row`` holds, in log order."""
        return np.flatnonzero(self._member[: self._n, row])

    def held_count(self, row: int) -> int:
        """How many entries ``row`` holds: ``len(entries(row))``, kept as the
        membership changes."""
        return int(self._held_count[row])

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def times(self, entries: np.ndarray) -> np.ndarray:
        return self._times[entries]

    def ranges(self, entries: np.ndarray) -> "list[Interval | None]":
        return [self._ranges[e] for e in entries.tolist()]

    def ranged_keys(self, entries: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(times, θ lower keys, θ upper keys)`` of the entries that have a range."""
        entries = entries[self._ranged[entries]]
        return self._times[entries], self._lower[entries], self._upper[entries]

    def _held(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(entries some fragment holds, their distinct times in H_total's order)``.

        H_total counts each hit time once (§7.1): the sum runs over a
        Python set of the partition's hit times, in the set's iteration
        order.  That order depends on the order in which the set first saw
        each time, so the set is built as the per-fragment lists built it:
        walking fragments in partition order and each one's hits in log
        order — i.e. entries ordered by their first holding fragment, then
        by log position.  A fragment added empty changes neither, so the
        revision is the whole key.
        """
        if self._history is None or self._history[0] != self.revision:
            first = self._first[: self._n]
            entries = np.flatnonzero(first >= 0)
            walk = entries[np.lexsort((entries, self._pos[first[entries]]))]
            distinct = set(self._times[walk].tolist())
            self._history = (
                self.revision,
                entries,
                np.fromiter(distinct, dtype=np.float64, count=len(distinct)),
            )
        return self._history[1], self._history[2]

    def decayed_hits(self, decay: Decay, t_now: float) -> "tuple[np.ndarray, float]":
        """``(H(I) of every row, H_total)`` at ``t_now``, memoized per revision.

        Every floating-point addition is one the per-fragment lists made:
        a fragment's sum runs left to right over its hits in log order,
        and an entry past ``t_max`` weighs exactly 0.0 — adding it leaves
        a non-negative sum unchanged, so it is skipped.  ``flatnonzero``
        walks the live block entry by entry and ``np.add.at`` accumulates
        unbuffered in operand order, so each row adds its weights in log
        order.  H_total sums the distinct times' weights in the set order
        of :meth:`_held`, zeros included, as before.
        """
        cached = self._decayed
        if (
            cached is None
            or cached[0] != self.revision
            or cached[2] != t_now
            or cached[1] != decay
        ):
            entries, distinct = self._held()
            per_row = np.zeros(self._member.shape[1], dtype=np.float64)
            if entries.size:
                weights = decay.weights(t_now, self._times[entries])
                nonzero = np.flatnonzero(weights)
                live, weights = entries[nonzero], weights[nonzero]
                if live.size:
                    width = self._next_row
                    if live[-1] - live[0] + 1 == live.size:  # one run: a view, no gather
                        block = self._member[live[0] : live[-1] + 1, :width]
                    else:
                        block = self._member[live, :width]
                    entry, row = np.divmod(np.flatnonzero(block), width)
                    np.add.at(per_row, row, weights[entry])
            total = sum(decay.weights(t_now, distinct).tolist()) if distinct.size else 0.0
            cached = self._decayed = (self.revision, decay, t_now, per_row, total)
        return cached[3], cached[4]


@dataclass(eq=False)
class FragmentStats:
    """Σ entry for one fragment (candidate or resident).

    The fragment's hits live in its partition's :class:`HitLog`; a
    fragment made outside a :class:`StatisticsStore` keeps a private log.
    Each hit carries the selection interval θ of the query that produced
    it (``None`` when the query had no range on the partition attribute);
    the refinement filter uses it to count only the queries a candidate
    piece would fully serve.
    """

    view_id: str
    attr: str
    interval: Interval
    size_bytes: float = 0.0
    size_is_actual: bool = False
    _log: "HitLog | None" = field(default=None, init=False, repr=False)
    _row: int = field(default=0, init=False, repr=False)

    def _hits(self) -> HitLog:
        if self._log is None:
            self._log = HitLog()
            self._row = self._log.add_row(0)
        return self._log

    def record_hit(self, t: float, theta: "Interval | None" = None) -> None:
        """One hit on this fragment alone (the store records a query's hits on
        every fragment it touched with ``record_overlapping_hits``)."""
        self._hits().append(t, theta, [self._row])

    def inherit_hits(self, parent: "FragmentStats", piece: Interval) -> None:
        """Hold the parent's hits whose recorded range touches ``piece``.

        Hits without a range are inherited wholesale.  The parent must be a
        fragment of the same partition: the pieces share its log entries.
        """
        log = self._hits()
        assert parent._log is log, "inheritance stays inside one partition"
        log.inherit(self._row, parent._row, piece)

    def union_hits(self, *sources: "FragmentStats | None") -> None:
        """Hold every hit any of ``sources`` (fragments of this partition) holds."""
        log = self._hits()
        rows = [s._row for s in sources if s is not None]
        assert all(s._log is log for s in sources if s is not None)
        log.union(self._row, *rows)

    def hit_count(self) -> int:
        return self._hits().held_count(self._row)

    def times_array(self) -> np.ndarray:
        """The hit times, in the order they were recorded."""
        log = self._hits()
        return log.times(log.entries(self._row))

    def hits(self) -> "list[tuple[float, Interval | None]]":
        """``(time, θ)`` of every hit, in the order they were recorded."""
        log = self._hits()
        entries = log.entries(self._row)
        return list(zip(log.times(entries).tolist(), log.ranges(entries)))

    def recent_ranges(self, k: int) -> "list[Interval | None]":
        """θ of the last ``k`` hits, oldest first."""
        log = self._hits()
        return log.ranges(log.entries(self._row)[-k:])

    def ranged_hit_keys(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(times, θ lower keys, θ upper keys)`` of the hits that carry a range."""
        log = self._hits()
        return log.ranged_keys(log.entries(self._row))

    @property
    def last_access_t(self) -> float:
        times = self.times_array()
        return max(0.0, float(times.max())) if times.size else 0.0

    def decayed_hits(self, decay: Decay, t_now: float) -> float:
        """``H(I)``: the hits' decayed weights summed in recorded order."""
        log = self._hits()
        return float(log.decayed_hits(decay, t_now)[0][self._row])

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
        # keys [n,2]) for the vectorized overlap scan; built lazily and
        # patched when a fragment is added.
        self._bounds_cache: dict[tuple[str, str], tuple] = {}
        # (view_id, attr) -> fragment-stats list in partition order; patched
        # alongside the bounds cache when a fragment is added.
        self._frags_cache: dict[tuple[str, str], list[FragmentStats]] = {}
        # (view_id, attr) -> the partition's hit log, rows in partition order.
        self._logs: dict[tuple[str, str], HitLog] = {}
        # (view_id, attr) -> (bounds tuple, (domain, n_parts), part runs)
        self._runs_cache: dict[tuple[str, str], tuple] = {}

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
            self._fragments[key] = stats
            cache_key = (view_id, attr)
            ivs = self._partitions.setdefault(cache_key, [])
            # sort_key is injective over the distinct intervals of a
            # partition, so a bisected insert lands exactly where a full
            # re-sort would place it — at O(n) instead of O(n log n).
            pos = bisect_right(ivs, sort_key(interval), key=sort_key)
            ivs.insert(pos, interval)
            log = self._logs.get(cache_key)
            if log is None:
                log = self._logs[cache_key] = HitLog()
            stats._log, stats._row = log, log.add_row(pos)
            # Patch the derived caches in place of popping them: candidate
            # tracking adds a fragment on most queries, and the from-scratch
            # rebuilds (Python listcomps over every interval) dominated the
            # warm profile.  Each patched entry is element-for-element what
            # a rebuild would produce — the new interval's bound keys slot
            # in at the same bisected position.  Fresh copies replace the
            # cached tuples so snapshots already handed to callers stay
            # internally consistent.
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
        recording and is patched by ``ensure_fragment``.
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

    def partition_runs(
        self, view_id: str, attr: str, domain: Interval, n_parts: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Each fragment's run of MLE parts (:func:`repro.costmodel.mle.part_runs`).

        A run depends on the fragment's bounds and the part grid only, so
        the runs of a partition are kept for as long as its bound arrays.
        """
        key = (view_id, attr)
        bounds = self.partition_bounds(view_id, attr)
        cached = self._runs_cache.get(key)
        if cached is None or cached[0] is not bounds or cached[1] != (domain, n_parts):
            runs = part_runs(domain, bounds[1], bounds[2], n_parts)
            cached = self._runs_cache[key] = (bounds, (domain, n_parts), runs)
        return cached[2]

    def overlapping_intervals(self, view_id: str, attr: str, theta: Interval) -> list[Interval]:
        """The tracked intervals of PSTAT(V, A) that overlap ``theta``.

        Equivalent to ``[iv for iv in intervals_for(...) if
        iv.overlaps(theta)]``, evaluated as four vectorized comparisons
        over the cached bound arrays; ``flatnonzero`` walks the same
        sorted order as the scalar loop.
        """
        ivs, lk, uk = self.partition_bounds(view_id, attr)
        if not ivs:
            return []
        return [ivs[i] for i in np.flatnonzero(keys_overlapping(lk, uk, theta))]

    def record_overlapping_hits(self, view_id: str, attr: str, t: float, theta: Interval) -> None:
        """Record one query's hit on every PSTAT(V, A) fragment overlapping ``theta``.

        The per-query statistics write (§8.4): one overlap scan, then one
        log entry held by the fragments it found.
        """
        ivs, lk, uk = self.partition_bounds(view_id, attr)
        if not ivs:
            return
        overlapping = keys_overlapping(lk, uk, theta)
        if overlapping.any():
            log = self._logs[(view_id, attr)]
            log.append(t, theta, log.rows()[overlapping])

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

    def hit_log(self, view_id: str, attr: str) -> HitLog | None:
        """PSTAT(V, A)'s hit log; its rows follow :meth:`intervals_for`."""
        return self._logs.get((view_id, attr))

    def hit_revision(self, view_id: str, attr: str) -> int:
        """Moves iff some hit list of PSTAT(V, A) did."""
        log = self._logs.get((view_id, attr))
        return log.revision if log is not None else 0

    def partition_attrs(self, view_id: str) -> list[str]:
        return sorted(a for (v, a) in self._partitions if v == view_id)
