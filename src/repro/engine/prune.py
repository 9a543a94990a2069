"""Fragment pruning for the executor's fused ``Select(MaterializedScan)``.

For one partition scan under a conjunction of range predicates on the
partition attribute, each cover fragment is classified against the
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

Each executed scan is classified once.  The only state kept across scans
is a pool entry's observed min/max (``FragmentEntry.observed``), which
lives and dies with the entry.

Pruning is wall-clock only: the executor still accounts every cover
fragment's bytes and file count into ``charge_read``, and the rewriter's
cost estimates are computed over the full cover, so ledgers and result
tables are byte-identical to the unpruned execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PoolError
from repro.partitioning.intervals import Interval
from repro.query.predicates import RangePredicate

# Piece states.
FULL = 0
PARTIAL = 1
EMPTY = 2


@dataclass
class PruneCounters:
    """What one executor's pruned scans skipped (check_fragment_prune.py)."""

    pruned_fragments: int = 0  # EMPTY pieces, payload never read
    rows_scanned: int = 0  # rows of the payloads read
    rows_pruned: int = 0  # of those, rows the fused mask dropped


@dataclass(frozen=True)
class PieceDecision:
    """How one ``(fragment, clip)`` pair relates to the conjunction."""

    state: int  # FULL / PARTIAL / EMPTY
    eff: Interval | None  # fused mask interval (PARTIAL only)


_FULL = PieceDecision(FULL, None)
_EMPTY = PieceDecision(EMPTY, None)


def classify(pool, scan, predicates: "tuple[RangePredicate, ...]") -> "list[PieceDecision] | None":
    """One decision per fragment of ``scan`` under ``predicates``, or ``None``.

    ``None`` means the scan is not prunable (no fragment list, no
    partition attribute, a conjunct on another attribute, or a fragment
    id the pool does not know) and the caller must use the unpruned path.
    """
    attr = scan.attr
    if not scan.fragment_ids or attr is None or not predicates:
        return None
    if scan.clips and len(scan.clips) != len(scan.fragment_ids):
        return None  # malformed scan: let the unpruned path raise
    if any(pred.attr != attr for pred in predicates):
        return None
    intersection: Interval | None = predicates[0].interval
    for pred in predicates[1:]:
        if intersection is None:
            break
        intersection = intersection.intersect(pred.interval)
    clips = scan.clips or (None,) * len(scan.fragment_ids)
    try:
        return [
            _decide(attr, pool.get_fragment(fid), clip, intersection)
            for fid, clip in zip(scan.fragment_ids, clips)
        ]
    except PoolError:
        return None


def _decide(attr: str, entry, clip, intersection) -> PieceDecision:
    eff = intersection
    if eff is not None and clip is not None:
        eff = eff.intersect(clip)
    if eff is None:
        return _EMPTY
    fiv = entry.key.interval
    if fiv is not None:
        clamped = eff.intersect(fiv)
        if clamped is None:
            return _EMPTY
        if clamped == fiv:
            return _FULL
    observed = entry.observed
    if observed is None:
        payload = entry.stored.table
        if payload.nrows == 0 or attr not in payload.schema:
            return _FULL  # nothing to mask, nothing to prune
        values = payload.column(attr)
        observed = entry.observed = Interval.closed(float(np.min(values)), float(np.max(values)))
    clamped = eff.intersect(observed)
    if clamped is None:
        return _EMPTY
    if clamped == observed:
        return _FULL
    return PieceDecision(PARTIAL, eff)
