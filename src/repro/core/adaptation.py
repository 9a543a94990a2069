"""The adaptation record: what Algorithm 1 derives from a recurring query's plan.

DeepSea runs VIEWSELECTION with ADDCANDIDATES (§7.2) after every query, and
a query that recurs proposes the same Definition-6 candidates and the same
Definition-7 splits each time.  Everything steps 2, 4 and 5 derive from
the plan, its matches and the pool's structure alone is kept here, beside
the query's planning record, each part valid while the tokens watching it
hold: the plan record's matches, the matched views' cover versions, the
domains' version, and the identity of each tentative design read
(designs are replaced, never mutated).  What time and new hits change —
benefit events, hit recording, the jitter of a parent's recent ranges,
each piece's §7.2 verdict — is redone on every query.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.costmodel.stats import FragmentStats
from repro.partitioning.candidates import SplitCandidate
from repro.partitioning.intervals import Interval
from repro.query.algebra import Plan
from repro.query.signature import Signature

# How many of the parent's latest hits the observed jitter reads.
RECENT_HITS = 30


def range_mids(ranges: "list[Interval | None]", theta: Interval) -> "list[float | None]":
    """Each hit range's midpoint where it speaks to ``theta``'s jitter, else ``None``.

    Inlined bounded/overlaps/width tests over the precomputed bound keys —
    identical predicates to the Interval methods, without the per-range
    attribute and property calls.
    """
    theta_width = theta.width
    half_width = 0.5 * theta_width
    tl, tu = theta._lkey, theta._ukey
    mids: "list[float | None]" = []
    for rng in ranges:
        mid = None
        if rng is not None:
            lk, uk = rng._lkey, rng._ukey
            lo, hi = lk[0], uk[0]
            # bounded, overlapping θ, and of the same template family:
            # comparable selection widths only
            if (
                not (math.isinf(lo) or math.isinf(hi))
                and lk <= tu
                and tl <= uk
                and abs((hi - lo) - theta_width) <= half_width
            ):
                mid = (lo + hi) / 2.0
        mids.append(mid)
    return mids


def spread(mids) -> float:
    """Standard deviation of the midpoints in ``mids`` (``None`` skipped)."""
    values = [m for m in mids if m is not None]
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return (sum([(m - mean) ** 2 for m in values]) / len(values)) ** 0.5


class JitterWindow:
    """:meth:`Selection.observed_jitter` of one (parent, θ), kept as the
    parent's hit list grows.

    The window holds :func:`range_mids` of the parent's last
    ``RECENT_HITS`` hits; hits appended since the last read shift in at
    its end.  Anything else (a first read, an inheritance into an empty
    parent) re-reads the list.  Either way the midpoints, their order and
    the sums over them are the ones a read from scratch takes.
    """

    __slots__ = ("mark", "mids", "jitter")

    def __init__(self) -> None:
        self.mark: "tuple[int, int] | None" = None
        self.mids: deque = deque(maxlen=RECENT_HITS)
        self.jitter = 0.0

    def read(self, parent: FragmentStats, theta: Interval) -> float:
        appended = parent.ranges_since(self.mark) if self.mark is not None else None
        self.mark = parent.hit_mark()
        if appended is None:
            self.mids.clear()
            self.mids.extend(range_mids(parent.recent_ranges(RECENT_HITS), theta))
        elif appended:
            self.mids.extend(range_mids(appended, theta))
        else:
            return self.jitter
        self.jitter = spread(self.mids)
        return self.jitter


@dataclass(eq=False, slots=True)
class CandidateRecord:
    """One Definition-7 candidate of a refinement site, and what it derives."""

    split: SplitCandidate
    hot: list[Interval]  # the pieces θ contains
    # Every piece holds a hit: ADDCANDIDATES is a no-op for good.
    held: bool = False
    jitter: "JitterWindow | None" = None  # None: read from scratch each time
    widened: "tuple[float, list[Interval]] | None" = None  # (jitter, hot widened by it)


@dataclass(eq=False, slots=True)
class RefinementRecord:
    """What :meth:`Selection.plan_refinements` derives from one query's matches.

    * ``sites`` — ``(view, attr, θ ∩ domain, domain)`` of each resident
      partition a match touches, in match order.  Valid for the
      ``matches`` object it was derived from, while each matched view's
      cover version (its residency and partition attributes) and the
      domains stand;
    * ``candidates`` — per ``(view, attr, θ)``: the tentative design the
      Definition-7 candidates were derived from, and a
      :class:`CandidateRecord` for each.  Designs are replaced, never
      mutated, so the design's identity is the token; a domain change
      drops them all.

    Nothing here depends on the query time or on a hit list, except
    through the tokens each :class:`CandidateRecord` keeps.
    """

    matches: object = None
    covers: tuple = ()
    domains_version: int = -1
    sites: list = field(default_factory=list)
    candidates: dict = field(default_factory=dict)


@dataclass(eq=False, slots=True)
class DesignSite:
    """One attribute with a domain that a query restricts on a candidate view."""

    attr: str
    domain: Interval
    theta: "Interval | None"  # the query's range ∩ domain
    design: object = None  # the tentative design ``splits`` were derived from
    splits: "list[SplitCandidate]" = field(default_factory=list)


@dataclass(eq=False, slots=True)
class CandidateDesigns:
    """Step 4's structure for one candidate view of one query: its
    :class:`DesignSite` list, derived from the view's signature and the
    domains (both tokens)."""

    signature: "Signature | None" = None
    domains_version: int = -1
    sites: "list[DesignSite]" = field(default_factory=list)


@dataclass(eq=False, slots=True)
class AdaptationRecord:
    """What Algorithm 1's steps 2, 4 and 5 derive from a recorded query's plan.

    Kept beside the query's planning record (:meth:`Rewriter.recorded`),
    made when that record answers a recurrence, carried over when the
    query is replanned, and dropped with it.  Only structure goes in, each
    part valid while its tokens hold:

    * step 4 — the Definition-6 candidate subplans, their view ids and the
      query's signature (pure in the plan), and per candidate view its
      :class:`CandidateDesigns`;
    * step 2 — for the ``QueryPlan`` it was read from and the domains:
      each matched view's best saving, and the ``(attr, θ ∩ domain)`` its
      hits are recorded with, over its tentative attributes (a saving
      input, so a new attribute gives a new ``QueryPlan``);
    * step 5 — a :class:`RefinementRecord`.

    Benefit events, hit recording, the jitter of the parent's recent
    ranges and the §7.2 verdict of each piece are redone every time.
    """

    query_sig: "Signature | None" = None
    candidates: "list[tuple[str, Plan, CandidateDesigns]] | None" = None
    registered: "list[tuple[str, Plan]]" = field(default_factory=list)
    # (QueryPlan, domains version, [(view id, saving, [(attr, θ)])])
    statistics: "tuple | None" = None
    refinements: RefinementRecord = field(default_factory=RefinementRecord)
