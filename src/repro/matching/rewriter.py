"""Query rewriting using (partitioned) materialized views (§8).

:meth:`Rewriter.plan` is Algorithm 1's steps 1 and 3 for one query, and
the one entry point callers use.  It drives:

* :meth:`Rewriter.find_matches` — every view in the statistics index whose
  signature matches some subquery of Q, *resident or not*.  Non-resident
  matches exist purely so DeepSea can record that the view "could have
  been used" (§8.4).
* :meth:`Rewriter.build_rewritings` — executable plans for matches whose
  view (or a fragment cover of the query's range) is resident in the
  pool, with estimated costs; :meth:`Rewriter.best_rewriting` picks Q_best.
* :meth:`Rewriter.estimate_saving` — each match's benefit event
  (COST(Q) − COST(Q/V)), from :meth:`Rewriter.estimate_plan_cost`, a cheap
  cost estimate also used to rank rewritings.

Every planned query keeps a record of the answer, reused while nothing it
read has moved, and extended when a view it cannot use yet is registered
(:class:`_PlanRecord`).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable

from repro.caches import register_cache
from repro.engine.catalog import Catalog
from repro.engine.cost import ClusterSpec
from repro.errors import MatchError
from repro.matching.filter_tree import FilterTree
from repro.matching.matcher import Compensation, match_view, partition_attr_ranges
from repro.matching.partition_match import greedy_cover
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
from repro.query.analysis import SchemaMap, analyze_plan
from repro.query.optimizer import push_down
from repro.query.predicates import RangePredicate
from repro.query.signature import Signature, compute_signature
from repro.query.subqueries import unique_subplans
from repro.storage.pool import FragmentKey, MaterializedViewPool

DomainLookup = Callable[[str], "Interval | None"]
# view id -> what its saving reads besides the query: (S(V), its tentative
# partition attributes), or None for a view without statistics.
ViewInputs = Callable[[str], "tuple[float, tuple[str, ...]] | None"]

# Crude per-operator output-size factors for the estimator. Ranking only:
# rewritings differ mainly in leaf read volume and job count, which the
# estimator gets right; absolute intermediate sizes need not be accurate.
_SELECT_FACTOR = 0.2
_PROJECT_FACTOR = 0.8
_AGG_FACTOR = 0.05

# Bounds of the per-rewriter memos, least recently used out first: an entry
# stamped with a superseded catalog or cover version can never hit again,
# and a long-lived service would otherwise keep every one.
_ESTIMATE_MEMO_MAX = 4_096
_PLAN_RECORD_MAX = 1_024

# Live rewriter instances, for registry-driven clearing of the
# per-instance memos (worker isolation, cold/warm tests).
_REWRITERS: "weakref.WeakSet[Rewriter]" = weakref.WeakSet()
_ESTIMATE_MEMO_STATS = {"hits": 0, "misses": 0, "evictions": 0}
_PLAN_RECORD_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _clear_estimate_memos() -> None:
    for rewriter in _REWRITERS:
        rewriter._estimate_memo.clear()
    _ESTIMATE_MEMO_STATS.update(hits=0, misses=0, evictions=0)


def _estimate_memo_stats() -> dict:
    return {
        **_ESTIMATE_MEMO_STATS,
        "entries": sum(len(r._estimate_memo) for r in _REWRITERS),
    }


def _clear_plan_records() -> None:
    for rewriter in _REWRITERS:
        rewriter._records.clear()
    _PLAN_RECORD_STATS.update(hits=0, misses=0, evictions=0)


def _plan_record_stats() -> dict:
    return {
        **_PLAN_RECORD_STATS,
        "entries": sum(len(r._records) for r in _REWRITERS),
    }


register_cache("matching.estimate_memo", _clear_estimate_memos, _estimate_memo_stats)
register_cache("matching.plan_record", _clear_plan_records, _plan_record_stats)


def _no_view_inputs(view_id: str) -> None:
    return None


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


@dataclass(frozen=True)
class QueryPlan:
    """One query's Algorithm 1 steps 1 and 3 (:meth:`Rewriter.plan`).

    Every caller that plans the query at the same state shares one
    instance, so it is read-only.
    """

    matches: tuple[ViewMatch, ...]
    rewritings: tuple[Rewriting, ...]
    chosen: Rewriting | None  # Q_best; None = run the direct plan
    # estimate_saving of each match; None where the view has no statistics
    savings: tuple[float | None, ...]


@dataclass(eq=False, slots=True)
class _PlanRecord:
    """A :class:`QueryPlan` and everything it read that can move.

    * ``catalog_version`` — base-relation sizes, read by every estimate;
    * ``domains_version`` — the partition-attribute domains that clamp
      covers and savings;
    * ``covers`` — each matched view's cover version: its residency, its
      fragments and their sizes, hence its rewritings and their costs;
    * ``probes`` — for each subplan ``find_matches`` probed, its signature,
      the length of the filter-tree bucket it read, and the subplan.  A
      bucket grows only at its end between removals (``tree`` holds the
      tree's version and removal count last checked), so ``find_matches``
      now would return the record's matches with the appended views'
      matches of each subplan after that subplan's own: a non-resident
      one yields no rewriting and extends the record in place
      (:meth:`Rewriter._extend`), a resident one replans;
    * ``inputs`` — per match, the view's S(V) and tentative attributes its
      saving read (with the catalog version and the domains, all it reads).

    Nothing else is read: signatures, matching and pushdown are pure in
    the plans, and the cluster and schemas are fixed per rewriter.

    ``adaptation`` is the caller's: what it derives from the planned query
    and keeps for as long as the record lives (:meth:`Rewriter.recorded`).
    """

    planned: QueryPlan
    catalog_version: int
    domains_version: int
    covers: tuple[tuple[str, int], ...]
    tree: tuple[int, int]
    probes: list[list]  # [subplan signature, bucket length seen, subplan]
    inputs: tuple
    adaptation: object = None


class Rewriter:
    def __init__(
        self,
        schemas: SchemaMap,
        filter_tree: FilterTree,
        pool: MaterializedViewPool,
        catalog: Catalog,
        cluster: ClusterSpec,
        domain_lookup: DomainLookup,
        view_inputs: ViewInputs = _no_view_inputs,
    ) -> None:
        """``domain_lookup`` may carry a ``version`` that moves whenever an
        answer may change (:class:`~repro.core.domains.DomainResolver`); a
        plain function is taken to answer the same forever.  ``view_inputs``
        gives a view's S(V) and tentative attributes for its saving."""
        self.schemas = schemas
        self.filter_tree = filter_tree
        self.pool = pool
        self.catalog = catalog
        self.cluster = cluster
        self.domain_lookup = domain_lookup
        self.view_inputs = view_inputs
        # Plan-cost memo keyed on everything the estimate reads: the plan,
        # the catalog version, and the cover versions of the views its
        # MaterializedScan leaves resolve against (see estimate_plan_cost).
        self._estimate_memo: OrderedDict[tuple, PlanEstimate] = OrderedDict()
        # query -> its planning record (plan).
        self._records: OrderedDict[Plan, _PlanRecord] = OrderedDict()
        _REWRITERS.add(self)

    # ------------------------------------------------------------------
    def signature_of(self, plan: Plan) -> Signature:
        return compute_signature(plan, self.schemas)

    # ------------------------------------------------------------------
    # Planning (Algorithm 1, steps 1 and 3)
    # ------------------------------------------------------------------
    def plan(self, query: Plan) -> QueryPlan:
        """The query's matches, rewritings, Q_best and each match's saving.

        Computed by :meth:`find_matches`, :meth:`build_rewritings`,
        :meth:`best_rewriting` and :meth:`estimate_saving`, or read from the
        query's record while nothing the record read has moved
        (:class:`_PlanRecord`); a saving is recomputed alone when only its
        view's inputs moved, and a view registered since that matches the
        query but is not resident joins the record's matches.  Every
        planned query is recorded (the ``_PLAN_RECORD_MAX`` most recently
        used), so a serving reader and the writer plan a query once
        between them: whichever comes second reads the first one's record,
        extended by the candidates the writer registered for it.
        """
        record = self._records.get(query)
        if record is not None and self._still_valid(query, record):
            self._records.move_to_end(query)
            _PLAN_RECORD_STATS["hits"] += 1
            return self._with_current_savings(query, record)
        _PLAN_RECORD_STATS["misses"] += 1
        matches = self.find_matches(query)
        rewritings = self.build_rewritings(query, matches)
        chosen = self.best_rewriting(query, rewritings)
        inputs = tuple(self.view_inputs(m.view_id) for m in matches)
        planned = QueryPlan(
            tuple(matches),
            tuple(rewritings),
            chosen,
            tuple(self._saving(query, m, i) for m, i in zip(matches, inputs)),
        )
        self._record(query, planned, inputs)
        return planned

    def recorded(self, query: Plan) -> "_PlanRecord | None":
        """The query's record as it stands, checked against nothing.

        A caller keeping state beside a record reads it here before
        planning: the record answered the query when this returns the same
        object after :meth:`plan`.
        """
        return self._records.get(query)

    def _saving(self, query: Plan, match: ViewMatch, inputs) -> float | None:
        if inputs is None:
            return None
        return self.estimate_saving(query, match, *inputs)

    def _record(self, query: Plan, planned: QueryPlan, inputs: tuple) -> None:
        probes = []
        for sub in unique_subplans(query):
            if not isinstance(sub, (Relation, MaterializedScan)):
                sig = self.signature_of(sub)
                probes.append([sig, len(self.filter_tree.bucket(sig) or ()), sub])
        view_ids = dict.fromkeys(m.view_id for m in planned.matches)
        records = self._records
        records[query] = _PlanRecord(
            planned,
            self.catalog.version,
            getattr(self.domain_lookup, "version", 0),
            tuple((v, self.pool.cover_version(v)) for v in view_ids),
            (self.filter_tree.version, self.filter_tree.removals),
            probes,
            inputs,
        )
        records.move_to_end(query)
        if len(records) > _PLAN_RECORD_MAX:
            records.popitem(last=False)
            _PLAN_RECORD_STATS["evictions"] += 1

    def _still_valid(self, query: Plan, record: _PlanRecord) -> bool:
        """Whether the record still answers ``query``; matches of views
        appended since that are not resident are added to it on the way."""
        if record.catalog_version != self.catalog.version:
            return False
        if record.domains_version != getattr(self.domain_lookup, "version", 0):
            return False
        cover_version = self.pool.cover_version
        if any(cover_version(v) != version for v, version in record.covers):
            return False
        tree = self.filter_tree
        if record.tree != (tree.version, tree.removals):
            if record.tree[1] != tree.removals:
                return False
            appended: dict[int, list[ViewMatch]] = {}
            for i, probe in enumerate(record.probes):
                sig, seen, sub = probe
                bucket = tree.bucket(sig)
                if bucket is None or len(bucket) == seen:
                    continue
                for view_id, view_sig in islice(bucket.items(), seen, None):
                    compensation = match_view(view_sig, sig)
                    if compensation is None:
                        continue
                    if self.pool.is_resident(view_id):
                        return False  # it may rewrite the query: replan
                    ranges = partition_attr_ranges(view_sig, sig)
                    appended.setdefault(i, []).append(ViewMatch(view_id, sub, compensation, ranges))
                probe[1] = len(bucket)
            if appended:
                self._extend(query, record, appended)
            record.tree = (tree.version, tree.removals)
        return True

    def _extend(
        self, query: Plan, record: _PlanRecord, appended: dict[int, list[ViewMatch]]
    ) -> None:
        """Put the matches of views appended to the probed buckets where
        :meth:`find_matches` would: after the earlier matches of their
        subplan, before those of later subplans.  Their views are not
        resident, so rewritings and Q_best stand; each adds its saving,
        its inputs and its cover version."""
        planned = record.planned
        old = list(zip(planned.matches, planned.savings, record.inputs))
        merged, k = [], 0
        for i, probe in enumerate(record.probes):
            # The record's matches and probes come from one walk of one
            # query object, so a match's subplan *is* its probe's.
            while k < len(old) and old[k][0].subplan is probe[2]:
                merged.append(old[k])
                k += 1
            for match in appended.get(i, ()):
                inputs = self.view_inputs(match.view_id)
                merged.append((match, self._saving(query, match, inputs), inputs))
        matches, savings, inputs = zip(*merged)
        record.planned = replace(planned, matches=matches, savings=savings)
        record.inputs = inputs
        covers = dict(record.covers)
        for match in matches:
            if match.view_id not in covers:
                covers[match.view_id] = self.pool.cover_version(match.view_id)
        record.covers = tuple(covers.items())

    def _with_current_savings(self, query: Plan, record: _PlanRecord) -> QueryPlan:
        planned = record.planned
        inputs = tuple(self.view_inputs(m.view_id) for m in planned.matches)
        if inputs != record.inputs:
            savings = tuple(
                saving if now == then else self._saving(query, match, now)
                for match, saving, now, then in zip(
                    planned.matches, planned.savings, inputs, record.inputs
                )
            )
            record.planned = planned = replace(planned, savings=savings)
            record.inputs = inputs
        return planned

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
        cover = greedy_cover(theta, self.pool.cover_index(match.view_id, attr))
        if cover is None:
            return None  # eviction holes: the partition cannot answer this
        find = self.pool.find_fragment
        fids = tuple(find(FragmentKey(match.view_id, attr, c.interval)).fragment_id for c in cover)
        clips = tuple(c.clip for c in cover)
        scan = MaterializedScan(match.view_id, fids, attr, clips)
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
        the simulated economics are unchanged.  The memo keeps the
        ``_ESTIMATE_MEMO_MAX`` most recently used estimates.
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
            memo.move_to_end(key)
            _ESTIMATE_MEMO_STATS["hits"] += 1
            return est
        _ESTIMATE_MEMO_STATS["misses"] += 1
        est = self._estimate(plan, analysis.boundaries)
        if est.jobs == 0:
            est = PlanEstimate(est.bytes_out, est.cost_s + self.cluster.job_overhead_s, 1)
        memo[key] = est
        if len(memo) > _ESTIMATE_MEMO_MAX:
            memo.popitem(last=False)
            _ESTIMATE_MEMO_STATS["evictions"] += 1
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
