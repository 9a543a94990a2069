"""Partition matching — Algorithm 2 with overlap disjointification (§8.2).

Given a query's selection range θ on a view's partition attribute, find a
set of fragments whose union covers θ.  With overlapping fragments this is
a set-cover instance, so the paper matches greedily: starting at θ's lower
bound, repeatedly pick — among the fragments that cover the next uncovered
point — the one with the largest lower bound, until θ is covered.

Because chosen fragments may overlap, scanning them naively would emit
duplicate rows.  Each fragment after the first therefore carries a *clip*:
rows at or below the previously covered upper bound are discarded when the
fragment is read.  Every clipped-away row inside θ is guaranteed to be
present in an earlier selected fragment (the earlier union covers the
region up to the clip), so the clipped union is exactly θ's content, each
row once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.partitioning.intervals import Interval, IntervalIndex


@dataclass(frozen=True)
class CoveredFragment:
    """One fragment chosen by the greedy cover, with its dedup clip."""

    interval: Interval
    clip: Interval | None  # None: read the whole fragment


def greedy_cover(theta: Interval, index: IntervalIndex) -> list[CoveredFragment] | None:
    """Algorithm 2.  Returns ``None`` when no cover of θ exists.

    A fragment qualifies while the next uncovered point of θ lies inside
    it; among qualifying fragments the one with the largest lower bound is
    chosen (it wastes the least already-covered data).  Ties are broken
    toward the larger upper bound, which covers more of θ per fragment.

    The fragments are bisect-indexed by lower bound (O(n log n) overall
    instead of the naive O(n²) rescans): qualifying fragments form a
    prefix of the sorted order, and because the order *is* the greedy
    preference order, the best choice is the rightmost prefix element not
    yet consumed.  Fragments skipped over while scanning left are entirely
    inside the covered region and can never qualify again, so each is
    visited once (union-find style jump pointers keep rescans amortized
    constant).  Chosen fragments and clips are identical to the naive
    implementation's.

    The fragments come as an :class:`IntervalIndex`.  It is read-only
    here — per-call scan state lives in the local ``jump`` list — so the
    pool's per-partition index
    (:meth:`~repro.storage.pool.MaterializedViewPool.cover_index`) serves
    every call until the partition changes.
    """
    target_hi = theta._upper_key()
    lo_key = theta._lower_key()
    # Coverage state mirrors Fragmentation.union_covers: an upper key
    # (v, flag) with flag 0 = v covered, -1 = v excluded.
    covered = (lo_key[0], -1 if lo_key[1] == 0 else 0)
    chosen: list[CoveredFragment] = []
    # jump[p] = rightmost not-consumed position ≤ p (with path compression);
    # jump[0] == -1 means everything to the left is consumed.
    jump = list(range(-1, len(index)))  # position p maps to slot p + 1

    while covered < target_hi:
        v, flag = covered
        threshold = (v, 1 + flag)
        prefix = index.prefix_starting_at_or_before(threshold)
        best_pos = None
        pos = _find_live(jump, prefix - 1)
        while pos >= 0:
            if index.upper_keys[pos] > covered:
                best_pos = pos
                break
            # Fully inside the covered region: dead for all later steps.
            jump[pos + 1] = pos - 1
            pos = _find_live(jump, pos - 1)
        if best_pos is None:
            return None
        jump[best_pos + 1] = best_pos - 1  # consume
        best = index.intervals[best_pos]
        clip = None
        if chosen:
            # exclude everything at or below the covered upper bound
            clip = Interval(low=v, high=None, low_open=(flag == 0))
        chosen.append(CoveredFragment(best, clip))
        covered = max(covered, index.upper_keys[best_pos])
    return chosen


def _find_live(jump: list[int], position: int) -> int:
    """Rightmost not-consumed position ≤ ``position`` (-1 when none).

    ``jump`` uses slot ``p + 1`` for position ``p``; a slot holding its own
    position means "live", anything smaller is a shortcut left.  Paths are
    compressed on the way out, so repeated scans over consumed runs cost
    amortized O(α).
    """
    slot = position + 1
    root = slot
    while root > 0 and jump[root] != root - 1:
        root = jump[root] + 1
    live = root - 1
    while slot > 0 and jump[slot] != live:
        jump[slot], slot = live, jump[slot] + 1
    return live


def covered_bytes(cover: list[CoveredFragment], sizes: dict[Interval, float]) -> float:
    """Total bytes that must be read to scan a cover."""
    return sum(sizes[c.interval] for c in cover)
