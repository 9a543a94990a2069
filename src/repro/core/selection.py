"""View and partition selection (§7.2-7.3, the §11 merging extension).

:class:`Selection` is the advisor half of Algorithm 1's ``VIEWSELECTION``:
it turns the statistics gathered so far into *decisions* —
:class:`ViewCreation`, :class:`Refinement`,
:class:`~repro.core.merging.MergeCandidate` — and keeps the tentative
designs and PSTAT in step with them (``ADDCANDIDATES``).  It never
mutates the pool; applying a decision is the repartitioner's job
(:mod:`repro.core.repartition`).
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from repro.core.domains import DomainResolver
from repro.core.merging import MergeCandidate, find_merge_candidates
from repro.core.policies import Policy
from repro.core.tentative import TentativePartitions
from repro.core.valuation import ResidentPartition, Valuation
from repro.costmodel.estimate import ResidentProfile
from repro.costmodel.mle import adjusted_hits
from repro.costmodel.stats import StatisticsStore
from repro.costmodel.value import RealizingHitsIndex, view_benefit
from repro.engine.cost import ClusterSpec
from repro.matching.partition_match import greedy_cover
from repro.matching.rewriter import ViewMatch
from repro.partitioning.candidates import SplitCandidate, partition_candidates
from repro.partitioning.intervals import Interval, IntervalIndex
from repro.query.algebra import Plan
from repro.storage.pool import FragmentKey, MaterializedViewPool


@dataclass
class ViewCreation:
    """Decision to materialize one candidate view during this query."""

    view_id: str
    plan: Plan
    attrs: tuple[str, ...]  # partition attributes (empty = store whole)


@dataclass
class Refinement:
    """Decision to refine one resident fragment (§6.2 / Example 2)."""

    view_id: str
    attr: str
    parent: Interval
    split_pieces: tuple[Interval, ...] | None  # split mode: replaces parent
    overlap_pieces: tuple[Interval, ...] | None  # overlap mode: parent kept


def _piece_refinement_passes(
    piece: Interval,
    *,
    estimator: ResidentProfile,
    resident_sizes: dict[Interval, float],
    resident_index: IntervalIndex,
    domain: Interval,
    cluster: ClusterSpec,
    realizing: "RealizingHitsIndex | None",
    dist_fn,
    safety: float,
    defer_fn=None,
) -> bool:
    """The §7.2 filter for one candidate piece.

    Pure in its arguments — it reads precomputed per-candidate indexes
    (:class:`ResidentProfile`, :class:`RealizingHitsIndex`) and computes,
    mutating nothing but value-transparent caches.  ``defer_fn`` is told
    when the MLE fit ``dist_fn`` would have produced was not needed.
    """
    # Everything up to the hit counting depends only on the piece and the
    # resident cover, not on the query time — and jittering workloads
    # re-propose the same pieces query after query, so the prefix is
    # memoized on the estimator (whose cache lifetime is exactly "resident
    # set unchanged").  A memo hit replays the identical floats.
    pre = estimator.piece_memo.get(piece)
    if pre is not None:
        if not pre[0]:
            return False
        _, size_est, cost_est, saving_per_hit = pre
    else:
        size_est, cost_est = estimator.estimate(piece)
        cover = greedy_cover(piece, resident_index)
        if cover is None:
            # hole in the partition: nothing to refine from
            estimator.piece_memo[piece] = (False, 0.0, 0.0, 0.0)
            return False
        cover_bytes = sum(resident_sizes[c.interval] for c in cover)
        if size_est > 0.5 * cover_bytes:
            # The range is already served by a reasonably tight cover;
            # shaving a sliver off it would recur forever under
            # endpoint jitter without a matching payoff.
            estimator.piece_memo[piece] = (False, 0.0, 0.0, 0.0)
            return False
        saving_per_hit = max(
            cluster.read_elapsed(cover_bytes, nfiles=len(cover))
            - cluster.read_elapsed(size_est, nfiles=1),
            0.0,
        )
        estimator.piece_memo[piece] = (True, size_est, cost_est, saving_per_hit)
    # Only queries whose need from this parent fits inside the
    # piece realize the per-hit margin; MLE smoothing tops this up
    # (capped, so the fitted tail cannot manufacture evidence).
    hits = realizing.hits_for(piece) if realizing is not None else 0.0
    needed = safety * cost_est
    if dist_fn is not None and hits > 0:
        # The smoothed count lies in [hits, 2·hits] and multiplying by the
        # non-negative margin is monotone in floats, so a verdict both
        # ends agree on is the verdict: no fit.
        floor, ceiling = hits * saving_per_hit, (2.0 * hits) * saving_per_hit
        if floor >= needed or ceiling < needed:
            if defer_fn is not None:
                defer_fn()
            return floor >= needed
        dist = dist_fn()
        if dist is not None:
            fitted, total = dist
            smoothed = adjusted_hits(piece, fitted, total, domain)
            hits = max(hits, min(smoothed, 2.0 * hits))
    return hits * saving_per_hit >= needed


@dataclass(eq=False)
class Selection:
    """Decides what to create, refine and merge; the pool is read-only here."""

    stats: StatisticsStore
    pool: MaterializedViewPool
    tentative: TentativePartitions
    domains: DomainResolver
    policy: Policy
    cluster: ClusterSpec
    valuation: Valuation
    predicted_upkeep_s: Callable[[str, Plan], float]
    _creation_cooldown: dict[str, float] = field(default_factory=dict, init=False)

    def _touched_partitions(self, matches: list[ViewMatch]) -> Iterator[tuple[ViewMatch, str]]:
        """``(match, attr)`` for every resident partition a match's view has."""
        for match in matches:
            if self.pool.is_resident(match.view_id):
                for attr in self.pool.partition_attrs(match.view_id):
                    yield match, attr

    # ------------------------------------------------------------------
    # View creation (§7.2 evidence test, §7.3 feasibility)
    # ------------------------------------------------------------------
    def plan_view_creations(
        self,
        candidates: list[tuple[str, Plan]],
        usable_views: set[str],
        t: float,
    ) -> list[ViewCreation]:
        creations: list[ViewCreation] = []
        for view_id, sub in candidates:
            if view_id in usable_views:
                continue  # already answerable from the pool
            if self.pool.whole_view_entry(view_id) is not None:
                continue
            if self._creation_cooldown.get(view_id, 0.0) > t:
                continue  # recent attempt could not win pool space
            vstats = self.stats.view(view_id)
            benefit = view_benefit(vstats, t, self.policy.effective_decay)
            # COST(V) plus predicted upkeep: under ingest, a candidate
            # must also amortize the maintenance its base tables' append
            # rate will cause (exactly 0.0 when no batch has arrived, so
            # static workloads gate bit-identically).
            upkeep = self.predicted_upkeep_s(view_id, sub)
            if benefit < self.policy.evidence_factor * (vstats.creation_cost_s + upkeep):
                continue
            attrs = self._choose_partition_attrs(view_id)
            # A first-ever attempt runs regardless (it establishes actual
            # sizes; a failure triggers the cooldown).  Re-attempts only
            # proceed when the Φ-ranked knapsack would actually admit the
            # hottest fragment — this is what bounds the small-pool
            # "oscillation" the paper observes at 5% (§10.1), because a
            # doomed creation costs a full unpushed instrumented query.
            if vstats.size_is_actual and not self.admission_feasible(
                view_id, attrs[0] if attrs else None, t
            ):
                self.cool_down(view_id, t)
                continue
            creations.append(ViewCreation(view_id, sub, attrs))
        return creations

    def cool_down(self, view_id: str, t: float) -> None:
        """An attempt at ``t`` could not win pool space: hold re-attempts off."""
        self._creation_cooldown[view_id] = t + self.policy.creation_cooldown

    def admission_feasible(self, view_id: str, attr: str | None, t: float) -> bool:
        """Would at least the hottest fragment win space in the pool?"""
        if self.pool.smax_bytes is None:
            return True
        vstats = self.stats.view(view_id)
        controller = self.valuation.controller(t)
        if attr is None:
            value = self.valuation.view_admission_value(vstats, t)
            return controller.plan_eviction(vstats.size_bytes, value) is not None
        domain = self.domains(attr)
        if domain is None or domain.width <= 0:
            return False
        intervals = [iv for iv in self.tentative.intervals(view_id, attr) if iv.overlaps(domain)]
        if not intervals:
            return False
        values = self.valuation.fragment_values(view_id, attr, intervals, t)
        value = max(values)
        hottest = intervals[values.index(value)]  # the first of equals, as a scan keeps it
        fstats = self.stats.fragment(view_id, attr, hottest)
        if fstats is not None and fstats.size_is_actual:
            # A previous materialization measured this fragment; the
            # width-proportional guess badly underestimates hot ranges
            # on skewed data.
            size_est = fstats.size_bytes
        else:
            size_est = vstats.size_bytes * (hottest.intersect(domain).width / domain.width)
        return controller.plan_eviction(size_est, value) is not None

    def _choose_partition_attrs(self, view_id: str) -> tuple[str, ...]:
        """Partition attributes for a new view.

        By default only the first (sorted) attribute with workload
        evidence is partitioned; with ``Policy.multi_attribute`` every
        attribute the workload restricted gets its own partition — §4
        permits several partitions of one view as long as they are on
        different attributes, and the rewriter picks the cheapest one per
        query.
        """
        if self.policy.partitioning == "none":
            return ()
        usable = tuple(
            attr
            for attr in self.tentative.attrs_of(view_id)
            if self.domains(attr) is not None
        )
        return usable if self.policy.multi_attribute else usable[:1]

    # ------------------------------------------------------------------
    # Refinement planning (§7.2 filter with adjusted hits)
    # ------------------------------------------------------------------
    def plan_refinements(self, matches: list[ViewMatch], t: float) -> list[Refinement]:
        if self.policy.partitioning != "adaptive":
            return []
        refinements: list[Refinement] = []
        seen: set[tuple[str, str, Interval]] = set()
        for match, attr in self._touched_partitions(matches):
            view_id = match.view_id
            theta = match.attr_ranges.get(attr)
            domain = self.domains(attr)
            if theta is None or domain is None:
                continue
            theta = theta.intersect(domain)
            if theta is None:
                continue
            design = self.tentative.ensure(view_id, attr, domain)
            for candidate in partition_candidates(theta, list(design.intervals), domain):
                key = (view_id, attr, candidate.parent)
                if key in seen:
                    continue
                seen.add(key)
                refinement = self._evaluate_refinement(view_id, attr, candidate, theta, domain, t)
                if refinement is not None:
                    refinements.append(refinement)
        return refinements

    def _evaluate_refinement(
        self,
        view_id: str,
        attr: str,
        candidate: SplitCandidate,
        theta: Interval,
        domain: Interval,
        t: float,
    ) -> Refinement | None:
        if self.stats.view(view_id) is None:
            return None
        hot = [p for p in candidate.pieces if theta.contains(p)]
        if not hot:
            return None
        # Track the candidate pieces in PSTAT immediately (ADDCANDIDATES):
        # even if the §7.2 filter rejects them now, they accumulate hit
        # evidence and may pass on a later query.
        self.valuation.inherit_fragment_stats(view_id, attr, candidate, t)
        if self.policy.overlapping:
            # Widen before filtering: the filter's realizing-hits test asks
            # which past queries the new fragment would have served, and
            # that must be judged against the fragment actually created.
            jitter = self.observed_jitter(view_id, attr, candidate.parent, theta)
            hot = [self.widen_piece(p, theta, candidate.parent, domain, jitter) for p in hot]
        part = self.valuation.partition(view_id, attr)
        if not self._refinement_passes(view_id, attr, candidate.parent, hot, part, t):
            return None
        if self.policy.overlapping:
            pieces = tuple(
                p
                for p in hot
                if self.pool.find_fragment(FragmentKey(view_id, attr, p)) is None
                and p not in self.tentative.intervals(view_id, attr)
            )
            if not pieces:
                return None
            for piece in pieces:
                self.tentative.add_overlapping(view_id, attr, piece)
            return Refinement(view_id, attr, candidate.parent, None, pieces)
        self.tentative.apply_split(view_id, attr, candidate)
        return Refinement(view_id, attr, candidate.parent, candidate.pieces, None)

    def observed_jitter(self, view_id: str, attr: str, parent: Interval, theta: Interval) -> float:
        """Standard deviation of recent query midpoints around ``theta``.

        Measured from the parent fragment's recorded hit ranges, so the
        widening below can cover the workload's actual endpoint jitter
        (heavy skew keeps ranges near one spot but their midpoints still
        wander by the distribution's sigma).
        """
        parent_stats = self.stats.fragment(view_id, attr, parent)
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
        for rng in parent_stats.recent_ranges(30):
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

    def widen_piece(
        self,
        piece: Interval,
        theta: Interval,
        parent: Interval,
        domain: Interval,
        jitter: float = 0.0,
    ) -> Interval:
        """Widen an overlapping piece to absorb endpoint jitter.

        The margin scales with the *query* width (endpoint jitter between
        instances of a template is proportional to the selection range,
        not to the possibly sliver-thin piece being carved) and with the
        jitter actually observed on the parent, whichever is larger.
        """
        margin = max(self.policy.refinement_margin * theta.width, 2.0 * jitter)
        if margin <= 0:
            return piece
        widened = Interval(piece.lo - margin, piece.hi + margin, False, False).intersect(parent)
        widened = widened.intersect(domain) if widened is not None else None
        return widened if widened is not None else piece

    def _refinement_passes(
        self,
        view_id: str,
        attr: str,
        parent: Interval,
        hot: list[Interval],
        part: ResidentPartition,
        t: float,
    ) -> bool:
        """§7.2: create the fragment only when its benefit covers its cost.

        The benefit of a refinement is *marginal*: it is what queries that
        hit the piece would save by reading the new small fragment instead
        of the cheapest resident cover of its range.  A range already
        served by tight fragments yields no benefit, which is what stops
        the system from re-carving the same hot spot query after query.
        """
        dist_fn = defer_fn = None
        if self.policy.smoothing_enabled:
            # Most candidate pieces fail the size/cover prefix before the
            # hit counting ever consults the MLE fit — defer the fit until
            # a piece actually reaches it with hits, and leave it owing
            # (see Valuation.settle_fit) when even then it cannot change
            # the verdict.
            dist_fn = partial(self.valuation.distribution, view_id, attr, t)
            defer_fn = partial(self.valuation.defer_fit, view_id, attr, t)
        parent_stats = self.stats.fragment(view_id, attr, parent)
        check = partial(
            _piece_refinement_passes,
            estimator=part.profile,
            resident_sizes=part.sizes,
            resident_index=self.pool.cover_index(view_id, attr),
            domain=part.domain,
            cluster=self.cluster,
            realizing=(
                RealizingHitsIndex(parent_stats, parent, t, self.policy.effective_decay)
                if parent_stats is not None
                else None
            ),
            dist_fn=dist_fn,
            safety=self.policy.refinement_safety,
            defer_fn=defer_fn,
        )
        return any(check(piece) for piece in hot)

    # ------------------------------------------------------------------
    # Fragment merging (§11 extension)
    # ------------------------------------------------------------------
    def plan_merges(self, matches: list[ViewMatch], t: float) -> list[MergeCandidate]:
        """Coalescing candidates for partitions the current query touched."""
        merges: list[MergeCandidate] = []
        seen: set[tuple[str, str]] = set()
        max_bytes = None
        for match, attr in self._touched_partitions(matches):
            view_id = match.view_id
            if (view_id, attr) in seen:
                continue
            seen.add((view_id, attr))
            vstats = self.stats.view(view_id)
            entries = self.pool.fragments_of(view_id, attr)
            stats_for = {
                e.key.interval: self.stats.fragment(view_id, attr, e.key.interval)
                for e in entries
            }
            stats_for = {k: v for k, v in stats_for.items() if v is not None}
            if self.policy.bounds is not None and vstats is not None:
                max_bytes = self.policy.bounds.max_bytes(vstats.size_bytes)
            merges.extend(
                find_merge_candidates(
                    entries,
                    stats_for,
                    t,
                    self.policy.effective_decay,
                    self.cluster,
                    threshold=self.policy.merge_threshold,
                    max_merged_bytes=max_bytes,
                    safety=self.policy.refinement_safety,
                )
            )
        return merges
