"""Accumulated benefit ``B`` and value ``Φ`` for views and fragments (§7.1).

View value:

    B(V, t_now) = Σ_{Q used V at t} (COST(Q) − COST(Q/V)) · DEC(t_now, t)
    Φ(V, t_now) = COST(V) · B(V, t_now) / S(V)

Fragment value (benefit derives from the owning view):

    H(I)        = Σ_{Q used I at t} DEC(t_now, t)            (decayed hits)
    B(I, t_now) = H(I) · (S(I)/S(V)) · COST(V)
    Φ(I, t_now) = COST(V) · B(I, t_now) / S(I)

The *smoothed* fragment value replaces H(I) with the adjusted hits
``H_A(I)`` from the MLE model, which is what lets DeepSea keep
low-hit-count neighbours of hot fragments resident (§10.3).
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.decay import Decay
from repro.costmodel.mle import FittedNormal, adjusted_hits_many, fit_partition_runs
from repro.costmodel.stats import FragmentStats, StatisticsStore, ViewStats
from repro.partitioning.intervals import Interval, complex_keys, keys_overlapping

_EPS_BYTES = 1.0


def view_benefit(view: ViewStats, t_now: float, decay: Decay) -> float:
    """Accumulated, decayed benefit ``B(V, t_now)``.

    Decay weights are computed vectorized and the products summed
    left-to-right over Python floats — the exact additions of the naive
    per-event loop, at array speed.  The result is memoized per
    ``(decay, t_now)`` on the stats object (selection ranks the same view
    many times within one step) and invalidated by ``record_benefit``.
    """
    memo = view._benefit_memo
    if memo is not None and memo[1] == t_now and memo[0] == decay:
        return memo[2]
    times, savings = view.events_arrays()
    if times.size == 0:
        value = 0.0
    else:
        value = sum((savings * decay.weights(t_now, times)).tolist())
    view._benefit_memo = (decay, t_now, value)
    return value


def view_value(view: ViewStats, t_now: float, decay: Decay) -> float:
    """``Φ(V, t_now)`` — the cost-benefit ratio used for ranking."""
    size = max(view.size_bytes, _EPS_BYTES)
    return view.creation_cost_s * view_benefit(view, t_now, decay) / size


def fragment_hits(fragment: FragmentStats, t_now: float, decay: Decay) -> float:
    """Decayed hit count ``H(I)`` (vectorized, bit-equal to the event loop).

    Taken from the partition's one pass over its hit log, memoized per
    ``(decay, t_now)`` until a hit list of the partition changes: one
    selection or refinement step evaluates many fragments against many
    candidates at a fixed logical time.
    """
    return fragment.decayed_hits(decay, t_now)


def fragment_weighted_hits(
    fragment: FragmentStats, piece: Interval, t_now: float, decay: Decay
) -> float:
    """Decayed hits weighted by how much of the ``piece`` each query wanted.

    General-purpose smoothing helper: a query with ``θ ⊇ piece`` counts
    fully, a partial overlap counts as ``‖θ ∩ piece‖ / ‖piece‖``.  Hits
    recorded without a range (domain-wide use) count fully.
    """
    total = 0.0
    width = piece.width
    for t, theta in fragment.hits():
        if theta is None:
            total += decay(t_now, t)
            continue
        overlap = theta.intersect(piece)
        if overlap is None:
            continue
        weight = 1.0 if width <= 0 else min(overlap.width / width, 1.0)
        total += weight * decay(t_now, t)
    return total


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
    for t, theta in parent.hits():
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
    timestamps — happens once, over the parent's ranged hits as arrays, at
    the first :meth:`hits_for`; each call is then a vectorized containment
    test plus a left-to-right sum of exactly the decayed weights the
    scalar loop adds, in the same order (tests/test_value_functions.py).
    """

    __slots__ = ("_parent", "_interval", "_t_now", "_decay", "_weights", "_lk", "_uk")

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
        self._weights = None

    def _build(self) -> None:
        times, lower, upper = self._parent.ranged_hit_keys()
        # θ ∩ parent, as Interval.intersect forms it: empty exactly when the
        # two do not overlap, and otherwise bounded by the later lower key
        # and the earlier upper key (nested operands included).
        meets = keys_overlapping(lower, upper, self._interval)
        lower, upper = complex_keys(lower)[meets], complex_keys(upper)[meets]
        self._lk = np.maximum(lower, complex(*self._interval._lkey))
        self._uk = np.minimum(upper, complex(*self._interval._ukey))
        self._weights = self._decay.weights(self._t_now, times[meets])

    def hits_for(self, piece: Interval) -> float:
        """Bit-identical to ``realizing_hits(parent, parent_interval, piece, …)``."""
        if self._weights is None:
            self._build()
        if not self._weights.size:
            return 0.0
        # piece.contains(needed): piece._lkey <= needed._lkey and
        # needed._ukey <= piece._ukey, as complex keys
        contained = (complex(*piece._lkey) <= self._lk) & (self._uk <= complex(*piece._ukey))
        return sum(self._weights[contained].tolist())


def fragment_benefit(
    fragment: FragmentStats,
    view: ViewStats,
    t_now: float,
    decay: Decay,
    hits_override: float | None = None,
) -> float:
    """``B(I, t_now)`` — optionally with MLE-adjusted hits."""
    hits = fragment_hits(fragment, t_now, decay) if hits_override is None else hits_override
    view_size = max(view.size_bytes, _EPS_BYTES)
    return hits * (fragment.size_bytes / view_size) * view.creation_cost_s


def fragment_value(
    fragment: FragmentStats,
    view: ViewStats,
    t_now: float,
    decay: Decay,
    hits_override: float | None = None,
) -> float:
    """``Φ(I, t_now)``."""
    benefit = fragment_benefit(fragment, view, t_now, decay, hits_override)
    size = max(fragment.size_bytes, _EPS_BYTES)
    return view.creation_cost_s * benefit / size


def partition_distribution(
    stats: StatisticsStore,
    view_id: str,
    attr: str,
    domain: Interval,
    t_now: float,
    decay: Decay,
    n_parts: int = 256,
) -> tuple[FittedNormal, float] | None:
    """The MLE-fitted access distribution of a partition and its H_total.

    The partition's decayed fragment hits and H_total — "the total number
    of queries that used at least one fragment" (§7.1), each hit time
    counted once however many fragments it touched — come from one pass
    over its hit log (:meth:`~repro.costmodel.stats.HitLog.decayed_hits`),
    and its fragments' part runs are kept with its fragment list
    (``StatisticsStore.partition_runs``), so this is
    ``fit_partition_distribution(domain, [(f.interval, H(f)) ...],
    n_parts)`` without re-walking hits or intervals.  Returns ``None``
    when the partition has no hit mass yet (nothing to fit), in which
    case callers fall back to raw hits.
    """
    log = stats.hit_log(view_id, attr)
    if log is None:
        return None
    per_row, total = log.decayed_hits(decay, t_now)
    if total <= 0:
        return None
    start, end = stats.partition_runs(view_id, attr, domain, n_parts)
    fitted = fit_partition_runs(domain, start, end, per_row[log.rows()], n_parts)
    return None if fitted is None else (fitted, total)


def partition_adjusted_hits(
    stats: StatisticsStore,
    view_id: str,
    attr: str,
    domain: Interval,
    t_now: float,
    decay: Decay,
    n_parts: int = 256,
) -> dict[Interval, float] | None:
    """MLE-smoothed hit counts for every tracked fragment of a partition."""
    fit = partition_distribution(stats, view_id, attr, domain, t_now, decay, n_parts)
    if fit is None:
        return None
    fitted, total = fit
    intervals = stats.intervals_for(view_id, attr)
    return dict(zip(intervals, adjusted_hits_many(intervals, fitted, total, domain)))
