"""Query rewriting using (partitioned) materialized views (§8).

The rewriter drives three things per query:

* :meth:`Rewriter.find_matches` — every view in the statistics index whose
  signature matches some subquery of Q, *resident or not*.  Non-resident
  matches exist purely so DeepSea can record that the view "could have
  been used" (§8.4).
* :meth:`Rewriter.build_rewritings` — executable plans for matches whose
  view (or a fragment cover of the query's range) is resident in the
  pool, with estimated costs.
* :func:`estimate_plan_cost` — a cheap cost estimate used to rank
  rewritings and to compute benefit events (COST(Q) − COST(Q/V)).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

from repro.caches import register_cache
from repro.engine.catalog import Catalog
from repro.engine.cost import ClusterSpec
from repro.errors import MatchError
from repro.matching import fragment_cache
from repro.matching.cover_cache import CoverCache
from repro.matching.filter_tree import FilterTree
from repro.matching.matcher import Compensation, match_view, partition_attr_ranges
from repro.partitioning.intervals import Interval
from repro.query.algebra import (
    Aggregate,
    Join,
    MaterializedScan,
    Plan,
    Project,
    Relation,
    Select,
    replace_subplan,
)
from repro.query.analysis import SchemaMap, analyze_plan, job_boundaries
from repro.query.optimizer import push_down
from repro.query.predicates import RangePredicate
from repro.query.signature import Signature, compute_signature
from repro.query.subqueries import unique_subplans
from repro.storage.pool import MaterializedViewPool

DomainLookup = Callable[[str], "Interval | None"]

# Crude per-operator output-size factors for the estimator. Ranking only:
# rewritings differ mainly in leaf read volume and job count, which the
# estimator gets right; absolute intermediate sizes need not be accurate.
_SELECT_FACTOR = 0.2
_PROJECT_FACTOR = 0.8
_AGG_FACTOR = 0.05

# Live rewriter instances, for registry-driven clearing of the
# per-instance plan-cost memos (worker isolation, cold/warm tests).
_REWRITERS: "weakref.WeakSet[Rewriter]" = weakref.WeakSet()
_ESTIMATE_MEMO_STATS = {"hits": 0, "misses": 0}


def _clear_estimate_memos() -> None:
    for rewriter in _REWRITERS:
        rewriter._estimate_memo.clear()
    _ESTIMATE_MEMO_STATS["hits"] = 0
    _ESTIMATE_MEMO_STATS["misses"] = 0


def _estimate_memo_stats() -> dict:
    return {
        "hits": _ESTIMATE_MEMO_STATS["hits"],
        "misses": _ESTIMATE_MEMO_STATS["misses"],
        "evictions": 0,
        "entries": sum(len(r._estimate_memo) for r in _REWRITERS),
    }


register_cache("matching.estimate_memo", _clear_estimate_memos, _estimate_memo_stats)


@dataclass(frozen=True)
class ViewMatch:
    """A view whose signature matches a subquery of the current query."""

    view_id: str
    subplan: Plan
    compensation: Compensation
    attr_ranges: dict[str, Interval]

    def __hash__(self) -> int:  # attr_ranges is unhashable; identity is fine
        return hash((self.view_id, self.subplan))


@dataclass
class Rewriting:
    """An executable rewriting of the query over resident pool entries.

    ``replaced``/``replacement`` record the substitution performed, so the
    instrumentation can transform capture targets that contain the
    replaced subtree (§9).
    """

    plan: Plan
    view_id: str
    attr: str | None  # partition attribute used, None = whole view
    fragment_ids: tuple[str, ...]
    est_cost_s: float
    replaced: Plan | None = None
    replacement: Plan | None = None


@dataclass
class PlanEstimate:
    bytes_out: float
    cost_s: float
    jobs: int


class Rewriter:
    def __init__(
        self,
        schemas: SchemaMap,
        filter_tree: FilterTree,
        pool: MaterializedViewPool,
        catalog: Catalog,
        cluster: ClusterSpec,
        domain_lookup: DomainLookup,
    ) -> None:
        self.schemas = schemas
        self.filter_tree = filter_tree
        self.pool = pool
        self.catalog = catalog
        self.cluster = cluster
        self.domain_lookup = domain_lookup
        self._signature_cache: dict[Plan, Signature] = {}
        # Greedy-cover memo invalidated by pool cover deltas (per-view
        # versions), shared with DeepSea's reconstruction planning.
        self.cover_cache = CoverCache(pool)
        # Plan-cost memo keyed on everything the estimate reads: the plan,
        # the catalog version, and the cover versions of the views its
        # MaterializedScan leaves resolve against (see estimate_plan_cost).
        self._estimate_memo: dict[tuple, PlanEstimate] = {}
        _REWRITERS.add(self)

    # ------------------------------------------------------------------
    def signature_of(self, plan: Plan) -> Signature:
        sig = self._signature_cache.get(plan)
        if sig is None:
            sig = compute_signature(plan, self.schemas)
            self._signature_cache[plan] = sig
        return sig

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def find_matches(self, query: Plan) -> list[ViewMatch]:
        """All (subquery, view) signature matches, resident or not."""
        matches: list[ViewMatch] = []
        for sub in unique_subplans(query):
            if isinstance(sub, (Relation, MaterializedScan)):
                continue
            sub_sig = self.signature_of(sub)
            for view_id, view_sig in self.filter_tree.candidates(sub_sig):
                compensation = match_view(view_sig, sub_sig)
                if compensation is None:
                    continue
                matches.append(
                    ViewMatch(
                        view_id,
                        sub,
                        compensation,
                        partition_attr_ranges(view_sig, sub_sig),
                    )
                )
        return matches

    # ------------------------------------------------------------------
    # Rewriting construction
    # ------------------------------------------------------------------
    def build_rewritings(self, query: Plan, matches: list[ViewMatch]) -> list[Rewriting]:
        rewritings: list[Rewriting] = []
        for match in matches:
            if not self.pool.is_resident(match.view_id):
                continue
            if self.pool.whole_view_entry(match.view_id) is not None:
                rewritings.append(self._whole_view_rewriting(query, match))
            for attr in self.pool.partition_attrs(match.view_id):
                rewriting = self._partition_rewriting(query, match, attr)
                if rewriting is not None:
                    rewritings.append(rewriting)
        return rewritings

    def best_rewriting(self, query: Plan, rewritings: list[Rewriting]) -> Rewriting | None:
        """Q_best (Algorithm 1, step 3): the min-cost rewriting, kept only
        if it beats the pushed-down direct plan's estimate; else ``None``."""
        if not rewritings:
            return None
        direct_est = self.estimate_plan_cost(push_down(query, self.schemas)).cost_s
        best = min(rewritings, key=lambda r: r.est_cost_s)
        return best if best.est_cost_s < direct_est else None

    def _compensated(self, scan: Plan, compensation: Compensation) -> Plan:
        plan = scan
        if compensation.selections:
            plan = Select(plan, compensation.selections)
        if compensation.projection is not None:
            plan = Project(plan, compensation.projection)
        return plan

    def _whole_view_rewriting(self, query: Plan, match: ViewMatch) -> Rewriting:
        scan = MaterializedScan(match.view_id)
        replacement = self._compensated(scan, match.compensation)
        plan = replace_subplan(query, match.subplan, replacement)
        return Rewriting(
            plan,
            match.view_id,
            None,
            (),
            self.estimate_plan_cost(plan).cost_s,
            replaced=match.subplan,
            replacement=replacement,
        )

    def _partition_rewriting(self, query: Plan, match: ViewMatch, attr: str) -> Rewriting | None:
        entries = self.pool.fragments_of(match.view_id, attr)
        if not entries:
            return None
        theta = match.attr_ranges.get(attr)
        domain = self.domain_lookup(attr)
        if theta is None:
            # No selection on the partition attribute: must cover the domain.
            if domain is None:
                return None
            theta = domain
        elif domain is not None:
            clamped = theta.intersect(domain)
            if clamped is None:
                return None  # selection entirely outside the domain
            theta = clamped
        cover = self.cover_cache.cover(match.view_id, attr, theta)
        if cover is None:
            return None  # eviction holes: the partition cannot answer this
        by_interval = {e.key.interval: e for e in entries}
        fids = tuple(by_interval[c.interval].fragment_id for c in cover)
        clips = tuple(c.clip for c in cover)
        scan = MaterializedScan(match.view_id, fids, attr, clips)
        # Intersect the cached per-conjunct fragment sets before costing:
        # the compensating selection is the conjunction the executor will
        # evaluate over this scan, so classifying it here fills the
        # fragment cache (one miss); the execution of the winning
        # rewriting — and every later query with the same conjunct shape
        # and constants at this cover version — is a pure hit.  Pruning
        # is wall-clock-only: the estimate below still costs the full
        # cover, keeping the simulated economics byte-identical.
        if match.compensation.selections:
            fragment_cache.GLOBAL.classify(self.pool, scan, match.compensation.selections)
        replacement = self._compensated(scan, match.compensation)
        plan = replace_subplan(query, match.subplan, replacement)
        return Rewriting(
            plan,
            match.view_id,
            attr,
            fids,
            self.estimate_plan_cost(plan).cost_s,
            replaced=match.subplan,
            replacement=replacement,
        )

    # ------------------------------------------------------------------
    # Cost estimation
    # ------------------------------------------------------------------
    def estimate_plan_cost(self, plan: Plan) -> PlanEstimate:
        """Estimated simulated cost, including intermediate job-boundary writes.

        Memoized: the estimate is pure in the plan tree, the catalog
        version (base-relation sizes), and the cover versions of the
        views the plan reads (fragment entries are immutable, so a
        matching version pins every ``get_fragment``/``whole_view_entry``
        resolution).  Matching and statistics re-cost the same plans many
        times per query — and a memo hit replays the identical floats, so
        the simulated economics are unchanged.
        """
        analysis = analyze_plan(plan)
        key = (
            plan,
            self.catalog.version,
            tuple(self.pool.cover_version(v) for v in analysis.view_ids),
        )
        memo = self._estimate_memo
        est = memo.get(key)
        if est is not None:
            _ESTIMATE_MEMO_STATS["hits"] += 1
            return est
        _ESTIMATE_MEMO_STATS["misses"] += 1
        est = self._estimate(plan, analysis.boundaries)
        if est.jobs == 0:
            est = PlanEstimate(est.bytes_out, est.cost_s + self.cluster.job_overhead_s, 1)
        memo[key] = est
        return est

    def _estimate(self, plan: Plan, boundaries: set[Plan]) -> PlanEstimate:
        est = self._estimate_node(plan, boundaries)
        if plan in boundaries:
            est = PlanEstimate(
                est.bytes_out,
                est.cost_s + self.cluster.write_elapsed(est.bytes_out, nfiles=1),
                est.jobs,
            )
        return est

    def _estimate_node(self, plan: Plan, boundaries: set[Plan]) -> PlanEstimate:
        if isinstance(plan, Relation):
            size = self.catalog.get(plan.name).size_bytes
            return PlanEstimate(size, self.cluster.read_elapsed(size, 1), 0)
        if isinstance(plan, MaterializedScan):
            if plan.fragment_ids:
                sizes = [self.pool.get_fragment(f).size_bytes for f in plan.fragment_ids]
                nbytes, nfiles = sum(sizes), len(sizes)
            else:
                entry = self.pool.whole_view_entry(plan.view_id)
                if entry is None:
                    raise MatchError(f"view not resident: {plan.view_id!r}")
                nbytes, nfiles = entry.size_bytes, 1
            return PlanEstimate(nbytes, self.cluster.read_elapsed(nbytes, nfiles), 0)
        if isinstance(plan, Select):
            child = self._estimate(plan.child, boundaries)
            factor = _SELECT_FACTOR ** len(plan.predicates)
            return PlanEstimate(child.bytes_out * factor, child.cost_s, child.jobs)
        if isinstance(plan, Project):
            child = self._estimate(plan.child, boundaries)
            return PlanEstimate(child.bytes_out * _PROJECT_FACTOR, child.cost_s, child.jobs)
        if isinstance(plan, Join):
            left = self._estimate(plan.left, boundaries)
            right = self._estimate(plan.right, boundaries)
            out = max(left.bytes_out, right.bytes_out)
            cost = (
                left.cost_s
                + right.cost_s
                + self.cluster.job_overhead_s
                + self.cluster.shuffle_elapsed(out)
            )
            return PlanEstimate(out, cost, left.jobs + right.jobs + 1)
        if isinstance(plan, Aggregate):
            child = self._estimate(plan.child, boundaries)
            out = child.bytes_out * _AGG_FACTOR
            cost = child.cost_s + self.cluster.job_overhead_s + self.cluster.shuffle_elapsed(out)
            return PlanEstimate(out, cost, child.jobs + 1)
        raise MatchError(f"cannot estimate {type(plan).__name__}")

    # ------------------------------------------------------------------
    # Hypothetical savings (for statistics on non-resident views)
    # ------------------------------------------------------------------
    def estimate_saving(
        self,
        query: Plan,
        match: ViewMatch,
        view_size_bytes: float,
        partition_attrs: list[str],
    ) -> float:
        """Estimated COST(Q) − COST(Q/V) if the matched view existed.

        COST(Q) is what the optimizer would actually run *without* the
        view: the subexpression with the query's selection applied and
        pushed down.  COST(Q/V) reads only the selected fraction of the
        view when a (statistical) partition exists on a restricted
        attribute, the whole view otherwise.
        """
        enclosed: Plan = match.subplan
        if match.attr_ranges:
            predicates = tuple(
                RangePredicate(attr, interval)
                for attr, interval in sorted(match.attr_ranges.items())
            )
            enclosed = Select(enclosed, predicates)
        pushed = push_down(enclosed, self.schemas)
        sub_cost = self.estimate_plan_cost(pushed).cost_s
        frac = 1.0
        for attr in partition_attrs:
            theta = match.attr_ranges.get(attr)
            domain = self.domain_lookup(attr)
            if theta is None or domain is None or domain.width <= 0:
                continue
            clamped = theta.intersect(domain)
            width = clamped.width if clamped is not None else 0.0
            frac = min(frac, max(width / domain.width, 0.0))
        read_cost = self.cluster.read_elapsed(view_size_bytes * frac, 1)
        return max(sub_cost - read_cost, 0.0)
