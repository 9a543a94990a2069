"""The DeepSea online partitioned-view manager — Algorithm 1.

:class:`DeepSea` processes a workload one query at a time.  For each query
it (numbers follow Algorithm 1 in the paper):

1. computes all view matches, resident or not (``COMPUTEREWRITINGS``);
2. records benefit events and fragment hits for every match
   (``UPDATESTATS``);
3. picks the cheapest executable rewriting, or direct execution
   (``SELECTREWRITING``);
4. registers Definition-6 view candidates and refines tentative partition
   designs with Definition-7 splits (``COMPUTEVIEWCAND`` /
   ``ADDCANDIDATES``);
5. filters candidates by the §7.2 evidence test and plans refinements of
   resident partitions (``VIEWSELECTION``);
6. executes the chosen plan, capturing the intermediate results it needs
   (``INSTRUMENTQUERY`` / ``EXECUTEQUERY``) — selections are pushed down
   only when nothing is being materialized, reproducing the paper's
   "selections are not pushed down" materialization cost;
7. materializes the selected views as (bounded) partitions, applies
   refinements (splits or overlapping fragments), evicting lower-value
   entries when the pool is full, and replaces size/cost estimates with
   actuals (``UPDATESTATS``).

All baselines (H, NP, E-k, NR, Nectar, Nectar+) are the same driver under
a different :class:`~repro.core.policies.Policy`.
"""

from __future__ import annotations

import math

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.admission import AdmissionController
from repro.core.merging import MergeCandidate, find_merge_candidates
from repro.core.domains import DomainResolver
from repro.core.policies import Policy
from repro.core.reports import QueryReport, WorkloadSummary
from repro.core.tentative import TentativePartitions
from repro.costmodel.estimate import ResidentProfile
from repro.costmodel.mle import adjusted_hits, adjusted_hits_density_many
from repro.costmodel.nectar import (
    nectar_fragment_value,
    nectar_plus_fragment_value,
    nectar_plus_view_value,
    nectar_view_value,
)
from repro.costmodel.stats import StatisticsStore, ViewStats
from repro.costmodel.value import (
    RealizingHitsIndex,
    fragment_value,
    partition_distribution,
    partition_distributions,
    view_benefit,
    view_value,
)
from repro.engine.catalog import Catalog
from repro.engine.cost import ClusterSpec, CostLedger
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.table import Table
from repro.errors import ControllerCrashError
from repro.matching.filter_tree import FilterTree
from repro.matching.matcher import partition_attr_ranges
from repro.matching.partition_match import greedy_cover
from repro.matching.rewriter import Rewriter, ViewMatch
from repro.partitioning.bounding import bound_fragment, merge_undersized
from repro.partitioning.candidates import SplitCandidate, partition_candidates
from repro.partitioning.equidepth import equidepth_intervals
from repro.partitioning.fragmentation import Fragmentation
from repro.partitioning.intervals import Interval, sort_key
from repro.query.algebra import Plan, replace_subplan
from repro.query.optimizer import push_down
from repro.query.signature import view_id_for
from repro.query.subqueries import view_candidate_subplans
from repro.storage.hdfs import SimulatedHDFS
from repro.storage.ingest import DeltaMaintainer, IngestReport
from repro.storage.pool import FragmentKey, MaterializedViewPool

# Cap on tentative-design fragmentation growth for views that accumulate
# evidence over very long workloads without being materialized.
_MAX_TENTATIVE_FRAGMENTS = 512

# _dist_cache marker: the tick's fit was asked for and found unnecessary.
_OWED = object()


class _Pieces:
    """One table cut by interval, each piece masked once.

    Lives for one repartitioning step: sizing, bounding and writing a
    creation's fragments share the cuts, and they go when the step does.
    """

    def __init__(self, table: Table, attr: str) -> None:
        self.table = table
        column = table.column(attr)
        if (
            isinstance(column, np.ndarray)
            and column.dtype.kind in "iu"
            and len(column)
            and -(2**53) <= column.min()
            and column.max() <= 2**53
        ):
            # Every bound comparison casts an integer column to float64
            # (exact in this range, where int and float order agree):
            # cast it once for all the cuts.
            column = column.astype(np.float64)
        self._column = column
        self._cut: dict[Interval, Table] = {}

    def __getitem__(self, interval: Interval) -> Table:
        piece = self._cut.get(interval)
        if piece is None:
            piece = self._cut[interval] = self.table.filter(interval.mask(self._column))
        return piece


def _piece_refinement_passes(
    piece: Interval,
    *,
    estimator: ResidentProfile,
    resident_sizes: dict[Interval, float],
    resident_intervals: list[Interval],
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
        cover = greedy_cover(piece, resident_intervals)
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


class DeepSea:
    """Online workload-aware partitioned-view manager over the simulated cluster."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        cluster: ClusterSpec | None = None,
        smax_bytes: float | None = None,
        policy: Policy | None = None,
        domains: dict[str, Interval] | None = None,
    ) -> None:
        self.catalog = catalog
        self.cluster = cluster or ClusterSpec()
        self.policy = policy or Policy()
        self.pool = MaterializedViewPool(smax_bytes, SimulatedHDFS())
        self.stats = StatisticsStore()
        self.filter_tree = FilterTree()
        # §8.3: the filter tree is also the statistics registry; its
        # per-view residency counters ride the pool's delta stream.
        self.filter_tree.subscribe_to(self.pool)
        self.domains = DomainResolver(catalog, domains)
        self.tentative = TentativePartitions()
        # (view, attr) -> the exact Fragmentation whose intervals have
        # been ensured in PSTAT.  Designs are replaced (never mutated) on
        # refinement and stats fragments are never dropped, so an `is`
        # match means the per-query ensure loop in
        # _update_match_statistics has nothing to add.
        self._pstat_synced: dict = {}
        self.schemas = {n: catalog.get(n).schema.names for n in catalog.names}
        self.rewriter = Rewriter(
            self.schemas, self.filter_tree, self.pool, catalog, self.cluster, self.domains
        )
        self.executor = Executor(ExecutionContext(catalog, self.pool, self.cluster))
        self.clock = 0
        self.reports: list[QueryReport] = []
        self._dist_cache: dict[tuple[int, str, str], tuple | None] = {}
        # (view_id, attr) -> (cover version, resident list, ResidentProfile):
        # the vectorized size/cost estimator over a partition's resident
        # fragments, reused across refinement evaluations until the pool's
        # cover (or any fragment size) changes.
        self._resident_profiles: dict[tuple[str, str], tuple] = {}
        # (view_id, attr) -> (cover version, resident list, sizes dict,
        # interval list).  Pool fragment entries are immutable after
        # admission and every admit/evict/restore bumps the view's cover
        # version, so a matching version guarantees the snapshot is current.
        self._resident_lists: dict[tuple[str, str], tuple] = {}
        # (view_id, attr) -> (cover version, design, domain, mean width) and
        # (view_id, attr) -> (validity token, {interval: Φ}): see
        # _mean_fragment_width and _entry_value.
        self._mean_widths: dict[tuple[str, str], tuple] = {}
        self._resident_values: dict[tuple[str, str], tuple] = {}
        self._creation_cooldown: dict[str, float] = {}
        # Optional stage recorder (perfbench/trace.py implements it): an
        # object with ``stage(name)`` returning a context manager and a
        # ``queries`` counter.  When attached, execute() wraps matching /
        # selection / execution / materialization in its stages.  None
        # costs one attribute read.
        self.profiler = None
        # Optional repro.faults.injector.FaultInjector (attach_faults).
        # None — the default, and the only configuration the seed
        # benchmarks use — keeps every path bit-identical to before.
        self.faults = None
        # True while a crashed repartitioning step is being retried: the
        # fresh controller that picks the step up does not immediately
        # die again, so the retry draws no crash decision.
        self._retrying = False
        # Journal every repartitioning step even without fault injection.
        # The serving layer's single writer sets this: concurrent snapshot
        # readers rely on each step being an atomic journaled transaction
        # (and on rollback restoring the exact pre-step configuration)
        # regardless of whether chaos is attached.  Off by default — the
        # batch benchmarks keep their zero-overhead path.
        self.always_journal = False
        # Incremental ingest (repro.storage.ingest): routes appended
        # micro-batches into resident fragments and prices the upkeep the
        # §7 selector weighs against read benefit.  Inert until the first
        # ingest() call — workloads without appends are bit-identical.
        self.maintenance = DeltaMaintainer(self)
        # Maintenance charged between queries lands on the *next* query's
        # creation ledger (upkeep is part of serving the workload, and
        # per-query ledgers are what the determinism fingerprints see).
        self._pending_maintenance: CostLedger | None = None

    _NULL_STAGE = nullcontext()

    def _stage(self, name: str):
        return self._NULL_STAGE if self.profiler is None else self.profiler.stage(name)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def attach_faults(self, faults):
        """Enable deterministic fault injection for the rest of this run.

        ``faults`` is a :class:`~repro.faults.schedule.FaultSchedule`, a
        built-in schedule name / JSON string, or a ready-made
        :class:`~repro.faults.injector.FaultInjector`.  Attaching wires
        all three recovery layers at once: task retry/speculation in the
        cost ledgers, replica damage and recompute-from-base-tables in
        the storage stack, and journaled crash/rollback/retry around
        repartitioning steps.  Returns the injector for inspection.
        """
        from repro.faults.injector import FaultInjector
        from repro.faults.recovery import FragmentRecovery
        from repro.faults.schedule import FaultSchedule

        injector = (
            faults
            if isinstance(faults, FaultInjector)
            else FaultSchedule.resolve(faults).injector()
        )
        self.faults = injector
        self.pool.hdfs.attach_faults(injector)
        self.pool.recovery = FragmentRecovery(self.catalog, self.cluster, injector)
        return injector

    def execute(self, plan: Plan) -> QueryReport:
        """Process one query (Algorithm 1) and return its report."""
        self.clock += 1
        t = float(self.clock)
        exec_ledger = CostLedger(self.cluster)
        creation_ledger = CostLedger(self.cluster)
        if self._pending_maintenance is not None:
            creation_ledger.merge(self._pending_maintenance)
            self._pending_maintenance = None
        if self.faults is not None:
            exec_ledger.faults = self.faults
            creation_ledger.faults = self.faults
            self._inject_pool_faults()

        if self.profiler is not None:
            self.profiler.queries += 1
        if not self.policy.materialize:
            return self._execute_direct(plan, exec_ledger, creation_ledger)

        with self._stage("matching"):
            # 4 (early). Register candidates so the current query contributes
            # its own evidence — the paper's final UPDATESTATS folded forward.
            candidates = self._register_candidates(plan)

            # 1-2. Matching and statistics.
            matches = self.rewriter.find_matches(plan)
            self._update_match_statistics(plan, matches, t)

            # 3. Choose Q_best.
            rewritings = self.rewriter.build_rewritings(plan, matches)
            chosen = self.rewriter.best_rewriting(plan, rewritings)

        with self._stage("selection"):
            # 5. Selection: creations and refinements.
            usable = {r.view_id for r in rewritings}
            creations = self._plan_view_creations(candidates, usable, t)
            refinements = self._plan_refinements(matches, t) if self.policy.repartition else []

        # 6. Execute (with capture for instrumentation).
        #
        # The expensive "selections are not pushed down" mode (§10.2) is
        # only needed when a *mid-plan* intermediate must be captured in
        # its unpushed form.  A creation whose definition is the whole
        # query (e.g. the per-range aggregate view) is satisfied by the
        # root result, which pushdown does not change.
        with self._stage("execution"):
            needs_unpushed = any(creation.plan != plan for creation in creations)
            plan_to_run = chosen.plan if chosen is not None else plan
            if chosen is None and not needs_unpushed:
                plan_to_run = push_down(plan, self.schemas)
            target_map: dict[str, Plan] = {}
            for creation in creations:
                if creation.plan == plan:
                    target_map[creation.view_id] = plan_to_run  # the root result
                    continue
                target = creation.plan
                if chosen is not None and chosen.replaced is not None:
                    target = replace_subplan(target, chosen.replaced, chosen.replacement)
                target_map[creation.view_id] = target
            result, captured = self.executor.execute_with_capture(
                plan_to_run, list(target_map.values()), exec_ledger
            )

        # 7. Materialize and refine.
        with self._stage("materialization"):
            views_created: list[str] = []
            evictions = 0
            for creation in creations:
                table = captured.get(target_map[creation.view_id])
                if table is None:
                    continue  # the rewriting bypassed this intermediate
                created, evicted = self._crash_safe(
                    "materialize",
                    partial(self._materialize_view, creation, table, t, creation_ledger),
                    creation_ledger,
                )
                evictions += evicted
                if created:
                    views_created.append(creation.view_id)
                else:
                    self._creation_cooldown[creation.view_id] = t + self.policy.creation_cooldown
            applied_refinements = 0
            for refinement in refinements:
                done, evicted = self._crash_safe(
                    "repartition",
                    partial(self._apply_refinement, refinement, t, creation_ledger),
                    creation_ledger,
                )
                evictions += evicted
                applied_refinements += int(done)
            if self.policy.merge_fragments:
                for merge in self._plan_merges(matches, t):
                    done, evicted = self._crash_safe(
                        "merge",
                        partial(self._apply_merge, merge, t, creation_ledger),
                        creation_ledger,
                    )
                    evictions += evicted
                    applied_refinements += int(done)
            if self.policy.multi_attribute:
                done, evicted = self._extend_partitions(matches, t, creation_ledger)
                evictions += evicted
                applied_refinements += done

        report = QueryReport(
            index=self.clock,
            plan=plan,
            result=result.table,
            execution_ledger=exec_ledger,
            creation_ledger=creation_ledger,
            view_used=chosen.view_id if chosen is not None else None,
            fragments_read=len(chosen.fragment_ids) if chosen is not None else 0,
            views_created=views_created,
            refinements=applied_refinements,
            evictions=evictions,
            pool_bytes=self.pool.used_bytes,
        )
        self.reports.append(report)
        return report

    def ingest(self, name: str, rows) -> IngestReport:
        """Append a micro-batch to base table ``name`` and maintain views.

        Always runs as a journaled pool transaction — unlike
        repartitioning steps, which only journal under fault injection or
        a serving writer — because the append mutates the *catalog* too:
        a crash mid-batch must restore the base table, the catalog
        version, and the pool configuration together, stranding every
        cache entry stamped with the aborted version.  The maintenance
        cost lands on the next query's creation ledger via
        ``_pending_maintenance``.
        """
        ledger = CostLedger(self.cluster)
        if self.faults is not None:
            ledger.faults = self.faults
        report = self._crash_safe(
            "ingest",
            partial(self.maintenance.apply, name, rows, ledger),
            ledger,
            force_journal=True,
        )
        # Accumulate into a ledger of our own: ``ledger`` belongs to the
        # returned report, and a second batch before the next query must
        # not inflate the first batch's numbers after the fact.
        if self._pending_maintenance is None:
            self._pending_maintenance = CostLedger(self.cluster)
        self._pending_maintenance.merge(ledger)
        return report

    def run_workload(self, plans: list[Plan]) -> WorkloadSummary:
        """Execute a sequence of queries and return the aggregate summary."""
        return WorkloadSummary([self.execute(p) for p in plans])

    @property
    def summary(self) -> WorkloadSummary:
        return WorkloadSummary(list(self.reports))

    # ------------------------------------------------------------------
    # Vanilla execution (H baseline)
    # ------------------------------------------------------------------
    def _execute_direct(
        self, plan: Plan, exec_ledger: CostLedger, creation_ledger: CostLedger
    ) -> QueryReport:
        with self._stage("execution"):
            result = self.executor.execute(push_down(plan, self.schemas), exec_ledger)
        report = QueryReport(
            index=self.clock,
            plan=plan,
            result=result.table,
            execution_ledger=exec_ledger,
            creation_ledger=creation_ledger,
            pool_bytes=self.pool.used_bytes,
        )
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # Fault injection and crash recovery (repro.faults)
    # ------------------------------------------------------------------
    def _inject_pool_faults(self) -> None:
        """Once per query, maybe lose every replica of one pool entry.

        The victim is drawn over the path-sorted entry list, so the draw
        sequence — and therefore the whole faulted run — is a pure
        function of the schedule seed.  The loss surfaces lazily: the
        next read of the entry raises, the attached
        :class:`~repro.faults.recovery.FragmentRecovery` recomputes it
        from base tables, and the answer path continues unchanged.
        """
        candidates = sorted(
            (e for e in self.pool.all_entries() if not self.pool.hdfs.is_lost(e.path)),
            key=lambda e: e.path,
        )
        index = self.faults.lose_fragment(len(candidates))
        if index is not None:
            self.pool.hdfs.lose_replicas(candidates[index].path)

    def _maybe_crash(self, site: str) -> None:
        """Die mid-step if the injector says so (never during a retry)."""
        if self.faults is None or self._retrying:
            return
        if self.faults.controller_crash(site):
            raise ControllerCrashError(site)

    def _crash_safe(self, site: str, fn, ledger: CostLedger, *, force_journal: bool = False):
        """Run one repartitioning step with journaled crash recovery.

        Without faults this is a plain call — no transaction, no
        overhead, bit-identical to the seed.  With faults the step runs
        inside a pool transaction; a mid-step controller crash rolls the
        journal back (restoring the exact pre-step configuration, with
        replayed re-writes charged to ``ledger``) and a fresh controller
        retries the step.  The retry starts from the same state the
        fault-free run saw, so it makes the same decisions — the crash
        costs time, never answers.  ``force_journal`` opens the
        transaction regardless of fault/serving configuration — ingest
        steps are always journaled (they mutate the catalog).
        """
        if self.faults is None and not self.always_journal and not force_journal:
            return fn()
        self.pool.begin(site)
        try:
            out = fn()
        except ControllerCrashError:
            self.pool.rollback(ledger)
            self.faults.record_recovery(site, "journal rollback, step retried")
            self._retrying = True
            self.pool.begin(site)
            try:
                out = fn()
                self.pool.commit()
            except BaseException:
                # Roll the retry back too: whatever happened, the journal
                # must not stay open (a wedged journal turns every later
                # step into a PoolError) and the pool must not stay
                # half-mutated under concurrent snapshot readers.
                self.pool.rollback(ledger)
                raise
            finally:
                self._retrying = False
            return out
        except BaseException:
            self.pool.rollback(ledger)
            raise
        self.pool.commit()
        return out

    # ------------------------------------------------------------------
    # Candidate registration (Definitions 6 and 7)
    # ------------------------------------------------------------------
    def _register_candidates(self, plan: Plan) -> list[tuple[str, Plan]]:
        query_sig = self.rewriter.signature_of(plan)
        registered: list[tuple[str, Plan]] = []
        for sub in view_candidate_subplans(plan):
            view_id = view_id_for(sub)
            if self.stats.view(view_id) is None:
                sub_sig = self.rewriter.signature_of(sub)
                self.filter_tree.add(view_id, sub_sig)
                self.pool.define_view(view_id, sub)
                vstats = self.stats.ensure_view(view_id, sub)
                estimate = self.rewriter.estimate_plan_cost(sub)
                vstats.size_bytes = max(estimate.bytes_out, 1.0)
                # COST(V) is the full recreation price: recompute the
                # defining query and write the partitioned result (§7.1).
                vstats.creation_cost_s = estimate.cost_s + self.cluster.write_elapsed(0.0, nfiles=4)
            self._refine_tentative_designs(view_id, query_sig)
            registered.append((view_id, sub))
        return registered

    def _refine_tentative_designs(self, view_id: str, query_sig) -> None:
        """Progressive partition design for a (not yet resident) view."""
        view_sig = self.filter_tree.signature(view_id)
        if view_sig is None:
            return
        ranges = partition_attr_ranges(view_sig, query_sig)
        for attr in sorted(ranges):
            domain = self.domains(attr)
            if domain is None:
                continue
            design = self.tentative.ensure(view_id, attr, domain)
            if self.policy.partitioning != "adaptive":
                continue
            if self.pool.is_resident(view_id):
                continue  # resident partitions refine via the cost filter
            if len(design) >= _MAX_TENTATIVE_FRAGMENTS:
                continue
            theta = ranges[attr].intersect(domain)
            if theta is None:
                continue
            for candidate in partition_candidates(theta, list(design.intervals), domain):
                self._inherit_fragment_stats(view_id, attr, candidate)
                current = self.tentative.get(view_id, attr)
                if current is not None and candidate.parent in current.intervals:
                    self.tentative.apply_split(view_id, attr, candidate)

    def _inherit_fragment_stats(self, view_id: str, attr: str, candidate: SplitCandidate) -> None:
        """Give split pieces the parent's hit history.

        Each piece inherits the hits whose recorded query range touched it
        (hits without a range are copied wholesale); decay and the MLE
        smoothing keep any residual over-count from distorting values.
        """
        parent = self.stats.fragment(view_id, attr, candidate.parent)
        for piece in candidate.pieces:
            piece_stats = self.stats.ensure_fragment(view_id, attr, piece)
            if parent is not None and not piece_stats.hit_times:
                self._settle_fit(view_id, attr)
                piece_stats.inherit_hits(parent, piece)

    # ------------------------------------------------------------------
    # Statistics update (§8.4)
    # ------------------------------------------------------------------
    def _update_match_statistics(
        self, plan: Plan, matches: list[ViewMatch], t: float
    ) -> None:
        # A view often matches several subqueries of the same query (e.g.
        # the bare join and the selection above it).  The view's best use
        # is the one with the largest saving; record exactly one benefit
        # event and one round of fragment hits per view per query.
        best: dict[str, tuple[float, ViewMatch]] = {}
        for match in matches:
            vstats = self.stats.view(match.view_id)
            if vstats is None:
                continue
            attrs = self.tentative.attrs_of(match.view_id)
            saving = self.rewriter.estimate_saving(plan, match, vstats.size_bytes, attrs)
            current = best.get(match.view_id)
            specificity = len(match.attr_ranges)
            if current is None or (saving, specificity) > (
                current[0],
                len(current[1].attr_ranges),
            ):
                best[match.view_id] = (saving, match)
        for view_id, (saving, match) in best.items():
            vstats = self.stats.view(view_id)
            vstats.record_benefit(t, saving)
            for attr in self.tentative.attrs_of(view_id):
                domain = self.domains(attr)
                if domain is None:
                    continue
                theta = match.attr_ranges.get(attr)
                theta = theta.intersect(domain) if theta is not None else domain
                if theta is None:
                    continue
                # Hits are recorded over PSTAT — every tracked fragment,
                # including unmaterialized candidate pieces — so that
                # refinement candidates accumulate their own evidence.
                design = self.tentative.get(view_id, attr)
                if design is not None and self._pstat_synced.get((view_id, attr)) is not design:
                    for interval in design.intervals:
                        self.stats.ensure_fragment(view_id, attr, interval)
                    self._pstat_synced[(view_id, attr)] = design
                self.stats.record_overlapping_hits(view_id, attr, t, theta)

    # ------------------------------------------------------------------
    # View selection (§7.2-7.3)
    # ------------------------------------------------------------------
    def _plan_view_creations(
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
            upkeep = self.maintenance.predicted_upkeep_s(view_id, sub)
            if benefit < self.policy.evidence_factor * (vstats.creation_cost_s + upkeep):
                continue
            attrs = self._choose_partition_attrs(view_id)
            # A first-ever attempt runs regardless (it establishes actual
            # sizes; a failure triggers the cooldown).  Re-attempts only
            # proceed when the Φ-ranked knapsack would actually admit the
            # hottest fragment — this is what bounds the small-pool
            # "oscillation" the paper observes at 5% (§10.1), because a
            # doomed creation costs a full unpushed instrumented query.
            if vstats.size_is_actual and not self._admission_feasible(
                view_id, attrs[0] if attrs else None, t
            ):
                self._creation_cooldown[view_id] = t + self.policy.creation_cooldown
                continue
            creations.append(ViewCreation(view_id, sub, attrs))
        return creations

    def _controller(self, t: float) -> AdmissionController:
        return AdmissionController(
            self.pool, lambda e: self._entry_value(e, t), self.policy.admission_hysteresis
        )

    def _admission_feasible(self, view_id: str, attr: str | None, t: float) -> bool:
        """Would at least the hottest fragment win space in the pool?"""
        if self.pool.smax_bytes is None:
            return True
        vstats = self.stats.view(view_id)
        controller = self._controller(t)
        if attr is None:
            value = self._view_admission_value(vstats, t)
            return controller.plan_eviction(vstats.size_bytes, value) is not None
        domain = self.domains(attr)
        if domain is None or domain.width <= 0:
            return False
        intervals = [iv for iv in self.tentative.intervals(view_id, attr) if iv.overlaps(domain)]
        if not intervals:
            return False
        values = self._fragment_values(view_id, attr, intervals, t)
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
        if not usable:
            return ()
        if self.policy.multi_attribute:
            return usable
        return usable[:1]

    # ------------------------------------------------------------------
    # Refinement planning (§7.2 filter with adjusted hits)
    # ------------------------------------------------------------------
    def _plan_refinements(self, matches: list[ViewMatch], t: float) -> list[Refinement]:
        if self.policy.partitioning != "adaptive":
            return []
        self._prefetch_distributions(matches, t)
        refinements: list[Refinement] = []
        seen: set[tuple[str, str, Interval]] = set()
        for match in matches:
            view_id = match.view_id
            if not self.pool.is_resident(view_id):
                continue
            for attr in self.pool.partition_attrs(view_id):
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
                    refinement = self._evaluate_refinement(
                        view_id, attr, candidate, theta, domain, t
                    )
                    if refinement is not None:
                        refinements.append(refinement)
        return refinements

    def _prefetch_distributions(self, matches: list[ViewMatch], t: float) -> None:
        """Batch the step's MLE fits into one decay pass (§7.1, vectorized).

        Every resident (view, attr) partition this repartitioning step will
        consult is known up front from the matches, so their fitted
        distributions are computed with a single concatenated
        ``decay.weights`` call via :func:`partition_distributions` and
        seeded into ``_dist_cache`` — each entry bit-identical to what the
        on-demand ``_partition_distribution`` call would have produced.

        A step touching a single partition gains nothing from batching and
        may not even evaluate a candidate, so it is left to the on-demand
        path (which fits at most once per step anyway); only multi-partition
        steps prefetch.
        """
        if not self.policy.smoothing_enabled:
            return
        pairs: list[tuple[str, str, Interval]] = []
        queued: set[tuple[str, str]] = set()
        for match in matches:
            if not self.pool.is_resident(match.view_id):
                continue
            for attr in self.pool.partition_attrs(match.view_id):
                domain = self.domains(attr)
                if match.attr_ranges.get(attr) is None or domain is None:
                    continue
                if (match.view_id, attr) in queued:
                    continue
                if (self.clock, match.view_id, attr) in self._dist_cache:
                    continue
                queued.add((match.view_id, attr))
                pairs.append((match.view_id, attr, domain))
        if len(pairs) < 2:
            return
        fits = partition_distributions(
            self.stats, pairs, t, self.policy.effective_decay, self.policy.mle_parts
        )
        for view_id, attr, _domain in pairs:
            self._dist_cache[(self.clock, view_id, attr)] = fits[(view_id, attr)]

    def _evaluate_refinement(
        self,
        view_id: str,
        attr: str,
        candidate: SplitCandidate,
        theta: Interval,
        domain: Interval,
        t: float,
    ) -> Refinement | None:
        vstats = self.stats.view(view_id)
        if vstats is None:
            return None
        resident, _, _ = self._resident_snapshot(view_id, attr)
        hot = [p for p in candidate.pieces if theta.contains(p)]
        if not hot:
            return None
        # Track the candidate pieces in PSTAT immediately (ADDCANDIDATES):
        # even if the §7.2 filter rejects them now, they accumulate hit
        # evidence and may pass on a later query.
        self._inherit_fragment_stats(view_id, attr, candidate)
        if self.policy.overlapping:
            # Widen before filtering: the filter's realizing-hits test asks
            # which past queries the new fragment would have served, and
            # that must be judged against the fragment actually created.
            jitter = self._observed_jitter(view_id, attr, candidate.parent, theta)
            hot = [self._widen_piece(p, theta, candidate.parent, domain, jitter) for p in hot]
        if not self._refinement_passes(
            view_id, attr, candidate.parent, hot, resident, domain, vstats, t
        ):
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

    def _observed_jitter(self, view_id: str, attr: str, parent: Interval, theta: Interval) -> float:
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

    def _widen_piece(
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

    def _resident_snapshot(
        self, view_id: str, attr: str
    ) -> "tuple[list[tuple[Interval, float]], dict[Interval, float], list[Interval]]":
        """Cached ``(resident list, sizes dict, interval list)`` for a partition.

        The three views of the resident set are rebuilt together whenever
        the view's cover version moves; between moves every refinement
        evaluation shares the same objects.
        """
        key = (view_id, attr)
        version = self.pool.cover_version(view_id)
        cached = self._resident_lists.get(key)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2], cached[3]
        resident = [(e.key.interval, e.size_bytes) for e in self.pool.fragments_of(view_id, attr)]
        sizes = {iv: s for iv, s in resident}
        entry = (version, resident, sizes, list(sizes))
        self._resident_lists[key] = entry
        return entry[1], entry[2], entry[3]

    def _resident_profile(
        self,
        view_id: str,
        attr: str,
        resident: list[tuple[Interval, float]],
        domain: Interval,
    ) -> ResidentProfile:
        """Cached :class:`ResidentProfile` for one partition's resident set.

        Candidate evaluations within a step (and across steps while the
        pool is stable) see the same resident fragments, so the estimator's
        precomputed bound/size/read-cost arrays are reused until the view's
        cover version moves or the resident list itself (intervals *or*
        sizes) differs from the cached snapshot.
        """
        key = (view_id, attr)
        version = self.pool.cover_version(view_id)
        cached = self._resident_profiles.get(key)
        if cached is not None and cached[0] == version and cached[1] == resident:
            return cached[2]
        profile = ResidentProfile(resident, domain, self.cluster)
        self._resident_profiles[key] = (version, resident, profile)
        return profile

    def _refinement_passes(
        self,
        view_id: str,
        attr: str,
        parent: Interval,
        hot: list[Interval],
        resident: list[tuple[Interval, float]],
        domain: Interval,
        vstats: ViewStats,
        t: float,
    ) -> bool:
        """§7.2: create the fragment only when its benefit covers its cost.

        The benefit of a refinement is *marginal*: it is what queries that
        hit the piece would save by reading the new small fragment instead
        of the cheapest resident cover of its range.  A range already
        served by tight fragments yields no benefit, which is what stops
        the system from re-carving the same hot spot query after query.
        """
        decay = self.policy.effective_decay
        dist_fn = defer_fn = None
        if self.policy.smoothing_enabled:
            # Most candidate pieces fail the size/cover prefix before the
            # hit counting ever consults the MLE fit — defer the fit until
            # a piece actually reaches it with hits, and leave it owing
            # (see _settle_fit) when even then it cannot change the verdict.
            dist_fn = lambda: self._partition_distribution(view_id, attr, domain, t)  # noqa: E731
            defer_fn = partial(self._dist_cache.setdefault, (self.clock, view_id, attr), _OWED)
        _, resident_sizes, resident_intervals = self._resident_snapshot(view_id, attr)
        parent_stats = self.stats.fragment(view_id, attr, parent)
        check = partial(
            _piece_refinement_passes,
            estimator=self._resident_profile(view_id, attr, resident, domain),
            resident_sizes=resident_sizes,
            resident_intervals=resident_intervals,
            domain=domain,
            cluster=self.cluster,
            realizing=(
                RealizingHitsIndex(parent_stats, parent, t, decay)
                if parent_stats is not None
                else None
            ),
            dist_fn=dist_fn,
            safety=self.policy.refinement_safety,
            defer_fn=defer_fn,
        )
        return any(check(piece) for piece in hot)

    # ------------------------------------------------------------------
    # Materialization (instrumented execution aftermath)
    # ------------------------------------------------------------------
    def _materialize_view(
        self,
        creation: ViewCreation,
        table: Table,
        t: float,
        ledger: CostLedger,
    ) -> tuple[bool, int]:
        vstats = self.stats.view(creation.view_id)
        vstats.set_actual_size(max(table.size_bytes, 1.0))

        if not creation.attrs:
            candidate_value = self._view_admission_value(vstats, t)
            result = self._controller(t).admit_whole_view(creation.view_id, table, candidate_value)
            if result.admitted:
                # whole-view payload: already written at the job boundary;
                # keeping it costs one extra file creation.
                ledger.charge_write(0.0, nfiles=1)
                if not vstats.cost_is_actual:
                    vstats.set_actual_cost(self.rewriter.estimate_plan_cost(creation.plan).cost_s)
            return result.admitted, len(result.evicted)

        evicted = 0
        total_files = 0
        for index, attr in enumerate(creation.attrs):
            self._maybe_crash("materialize")
            pieces = _Pieces(table, attr)
            intervals = self._creation_intervals(creation, attr, pieces, self.domains(attr))
            written_files, written_bytes, lost = self._admit_pieces(
                creation.view_id, attr, intervals, pieces, t
            )
            evicted += lost
            if written_files:
                # The view's bytes were already written at the job boundary
                # during execution (MapReduce materializes them anyway, §2),
                # so the primary partition only adds per-fragment file
                # overheads; a secondary partition on another attribute is
                # a full re-sort and re-write of the view's bytes.
                ledger.charge_write(0.0 if index == 0 else written_bytes, nfiles=written_files)
            total_files += written_files
        if total_files and not vstats.cost_is_actual:
            vstats.set_actual_cost(
                self.rewriter.estimate_plan_cost(creation.plan).cost_s
                + self.cluster.write_elapsed(0.0, nfiles=total_files)
            )
        return total_files > 0, evicted

    def _admit_pieces(
        self, view_id: str, attr: str, intervals, pieces: _Pieces, t: float
    ) -> tuple[int, float, int]:
        """Admit the fragments of ``intervals`` not yet resident.

        Returns ``(files written, bytes written, entries evicted)``.
        """
        controller = self._controller(t)
        written_files, written_bytes, evicted = 0, 0.0, 0
        for interval in intervals:
            if self.pool.find_fragment(FragmentKey(view_id, attr, interval)) is not None:
                continue  # re-creation: only write missing fragments
            piece = pieces[interval]
            self.stats.ensure_fragment(view_id, attr, interval).set_actual_size(piece.size_bytes)
            result = controller.admit_fragment(
                view_id,
                attr,
                interval,
                piece,
                self._fragment_admission_value(view_id, attr, interval, t),
            )
            evicted += len(result.evicted)
            if result.admitted:
                written_bytes += piece.size_bytes
                written_files += 1
        return written_files, written_bytes, evicted

    def _creation_intervals(
        self, creation: ViewCreation, attr: str, pieces: _Pieces, domain: Interval | None
    ) -> list[Interval]:
        if domain is None:
            return []
        table = pieces.table
        if self.policy.partitioning == "equidepth":
            intervals = equidepth_intervals(
                table.column(attr), self.policy.equidepth_fragments, domain
            )
            self.tentative.replace_design(
                creation.view_id, attr, Fragmentation(attr, domain, tuple(intervals))
            )
            return intervals
        design = self.tentative.ensure(creation.view_id, attr, domain)
        intervals = list(design.intervals)
        if self.policy.bounds is None:
            return intervals
        if design.is_disjoint():
            sizes = [pieces[iv].size_bytes for iv in intervals]
            intervals = merge_undersized(intervals, sizes, self.policy.bounds.min_bytes)
        bounded: list[Interval] = []
        for interval in intervals:
            bounded.extend(
                bound_fragment(
                    interval, pieces[interval].size_bytes, table.size_bytes, self.policy.bounds
                )
            )
        bounded = sorted(set(bounded), key=sort_key)
        self.tentative.replace_design(
            creation.view_id, attr, Fragmentation(attr, domain, tuple(bounded))
        )
        return bounded

    # ------------------------------------------------------------------
    # Secondary partitions (§4: multiple partitions on different attributes)
    # ------------------------------------------------------------------
    def _extend_partitions(
        self, matches: list[ViewMatch], t: float, ledger: CostLedger
    ) -> tuple[int, int]:
        """Add a partition on a newly restricted attribute to a resident view.

        Unlike creation, no recomputation is needed: the view's rows are
        reconstructed from an existing partition (or the whole-view entry)
        and re-written sorted by the new attribute — a full read + write
        of the view, charged as such.
        """
        extended = 0
        evictions = 0
        seen: set[tuple[str, str]] = set()
        for match in matches:
            view_id = match.view_id
            if not self.pool.is_resident(view_id):
                continue
            resident_attrs = set(self.pool.partition_attrs(view_id))
            if not resident_attrs and self.pool.whole_view_entry(view_id) is None:
                continue
            for attr in match.attr_ranges:
                if attr in resident_attrs or (view_id, attr) in seen:
                    continue
                if attr not in self.tentative.attrs_of(view_id):
                    continue
                domain = self.domains(attr)
                if domain is None:
                    continue
                seen.add((view_id, attr))
                table = self._reconstruct_view(view_id, ledger)
                if table is None or attr not in table.schema:
                    continue
                creation = ViewCreation(
                    view_id, self.pool.definition(view_id).plan, (attr,)
                )
                pieces = _Pieces(table, attr)
                intervals = self._creation_intervals(creation, attr, pieces, domain)
                written_files, written_bytes, lost = self._admit_pieces(
                    view_id, attr, intervals, pieces, t
                )
                evictions += lost
                if written_files:
                    ledger.charge_write(written_bytes, nfiles=written_files)
                    extended += 1
        return extended, evictions

    def _reconstruct_view(self, view_id: str, ledger: CostLedger):
        """The view's full content from resident entries, or ``None``."""
        whole = self.pool.whole_view_entry(view_id)
        if whole is not None:
            ledger.charge_read(whole.size_bytes, nfiles=1)
            return self.pool.read_entry(whole.fragment_id, ledger)
        for attr in self.pool.partition_attrs(view_id):
            domain = self.domains(attr)
            if domain is None:
                continue
            entries = self.pool.fragments_of(view_id, attr)
            cover = self.rewriter.cover_cache.cover(view_id, attr, domain)
            if cover is None:
                continue
            by_interval = {e.key.interval: e for e in entries}
            pieces = []
            total = 0.0
            for covered in cover:
                entry = by_interval[covered.interval]
                total += entry.size_bytes
                piece = self.pool.read_entry(entry.fragment_id, ledger)
                if covered.clip is not None:
                    piece = piece.filter(covered.clip.mask(piece.column(attr)))
                pieces.append(piece)
            ledger.charge_read(total, nfiles=len(cover))
            return Table.concat_many(pieces)
        return None

    # ------------------------------------------------------------------
    # Fragment merging (§11 extension)
    # ------------------------------------------------------------------
    def _plan_merges(self, matches: list[ViewMatch], t: float) -> list[MergeCandidate]:
        """Coalescing candidates for partitions the current query touched."""
        merges: list[MergeCandidate] = []
        seen: set[tuple[str, str]] = set()
        max_bytes = None
        for match in matches:
            view_id = match.view_id
            if not self.pool.is_resident(view_id):
                continue
            vstats = self.stats.view(view_id)
            for attr in self.pool.partition_attrs(view_id):
                if (view_id, attr) in seen:
                    continue
                seen.add((view_id, attr))
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

    def _apply_merge(self, merge: MergeCandidate, t: float, ledger: CostLedger) -> tuple[bool, int]:
        left = self.pool.find_fragment(FragmentKey(merge.view_id, merge.attr, merge.left))
        right = self.pool.find_fragment(FragmentKey(merge.view_id, merge.attr, merge.right))
        if left is None or right is None:
            return False, 0
        if self.pool.find_fragment(
            FragmentKey(merge.view_id, merge.attr, merge.merged)
        ) is not None:
            return False, 0
        left_table = self.pool.read_entry(left.fragment_id, ledger)
        right_table = self.pool.read_entry(right.fragment_id, ledger)
        ledger.charge_read(left.size_bytes, nfiles=1)
        ledger.charge_read(right.size_bytes, nfiles=1)
        merged_table = left_table.concat(right_table)
        # union the pair's hit history into the merged fragment's stats
        merged_stats = self.stats.ensure_fragment(merge.view_id, merge.attr, merge.merged)
        if not merged_stats.hit_times:
            self._settle_fit(merge.view_id, merge.attr)
            events = set()
            for interval in (merge.left, merge.right):
                source = self.stats.fragment(merge.view_id, merge.attr, interval)
                if source is not None:
                    events.update(zip(source.hit_times, source.hit_ranges))
            for time, theta in sorted(events, key=lambda e: e[0]):
                merged_stats.record_hit(time, theta)
        merged_stats.set_actual_size(merged_table.size_bytes)
        self.pool.evict(left.fragment_id)
        self.pool.evict(right.fragment_id)
        # Same dangerous window as refinement: both halves gone, the
        # merged entry not yet admitted.
        self._maybe_crash("merge")
        result = self._controller(t).admit_fragment(
            merge.view_id,
            merge.attr,
            merge.merged,
            merged_table,
            self._fragment_admission_value(merge.view_id, merge.attr, merge.merged, t),
        )
        if result.admitted:
            ledger.charge_write(merged_table.size_bytes, nfiles=1)
        # reflect the coalescing in the tentative design when it is disjoint
        domain = self.domains(merge.attr)
        design = self.tentative.get(merge.view_id, merge.attr)
        if domain is not None and design is not None:
            remaining = tuple(
                iv for iv in design.intervals if iv not in (merge.left, merge.right)
            ) + (merge.merged,)
            self.tentative.replace_design(
                merge.view_id, merge.attr, Fragmentation(merge.attr, domain, remaining)
            )
        return result.admitted, len(result.evicted)

    # ------------------------------------------------------------------
    # Refinement execution
    # ------------------------------------------------------------------
    def _apply_refinement(
        self, refinement: Refinement, t: float, ledger: CostLedger
    ) -> tuple[bool, int]:
        parent_entry = self.pool.find_fragment(
            FragmentKey(refinement.view_id, refinement.attr, refinement.parent)
        )
        if parent_entry is None:
            return False, 0  # parent evicted meanwhile: design-only refinement
        parent_table = self.pool.read_entry(parent_entry.fragment_id, ledger)
        ledger.charge_read(parent_entry.size_bytes, nfiles=1)

        if refinement.overlap_pieces is not None:
            new_intervals = refinement.overlap_pieces
        else:
            self.pool.evict(parent_entry.fragment_id)
            new_intervals = refinement.split_pieces
        # The dangerous window: the parent is gone, its pieces not yet
        # admitted.  A crash here must roll back to the parent or the
        # configuration has a hole the fault-free run never had.
        self._maybe_crash("repartition")

        written_files, written_bytes, evicted = self._admit_pieces(
            refinement.view_id,
            refinement.attr,
            new_intervals,
            _Pieces(parent_table, refinement.attr),
            t,
        )
        if written_files:
            ledger.charge_write(written_bytes, nfiles=written_files)
        return written_files > 0, evicted

    # ------------------------------------------------------------------
    # Entry values (admission and eviction ranking, §7.3 / §10.1)
    # ------------------------------------------------------------------
    def _partition_distribution(self, view_id: str, attr: str, domain: Interval, t: float):
        key = (self.clock, view_id, attr)
        fit = self._dist_cache.get(key, _OWED)
        if fit is _OWED:
            fit = self._dist_cache[key] = partition_distribution(
                self.stats,
                view_id,
                attr,
                domain,
                t,
                self.policy.effective_decay,
                self.policy.mle_parts,
            )
        return fit

    def _settle_fit(self, view_id: str, attr: str) -> None:
        """Compute a fit the §7.2 short-cut left owing, before a hit list it reads changes.

        A tick's fit is taken over the hit lists as they stand at its first
        demand; a skipped demand must not move that moment past a mutation.
        """
        if self._dist_cache.get((self.clock, view_id, attr)) is _OWED:
            self._partition_distribution(view_id, attr, self.domains(attr), float(self.clock))

    def _mean_fragment_width(self, view_id: str, attr: str, domain: Interval) -> float:
        """Mean resident fragment width — the density-normalization scale.

        Reads the view's resident intervals or, with none resident, the
        tentative design (replaced, never mutated), so it is memoized on
        the cover version and the design's identity.
        """
        version = self.pool.cover_version(view_id)
        design = self.tentative.get(view_id, attr)
        memo = self._mean_widths.get((view_id, attr))
        if memo is not None and memo[0] == version and memo[1] is design and memo[2] == domain:
            return memo[3]
        intervals = self.pool.intervals_of(view_id, attr) or self.tentative.intervals(view_id, attr)
        clamped = [iv.intersect(domain) for iv in intervals]
        positive = [c.width for c in clamped if c is not None and c.width > 0]
        width = sum(positive) / len(positive) if positive else domain.width
        self._mean_widths[(view_id, attr)] = (version, design, domain, width)
        return width

    def _view_admission_value(self, vstats: ViewStats, t: float) -> float:
        model = self.policy.value_model
        if model == "nectar":
            return nectar_view_value(vstats, t)
        if model == "nectar+":
            return nectar_plus_view_value(vstats, t)
        return view_value(vstats, t, self.policy.effective_decay)

    def _fragment_values(
        self, view_id: str, attr: str, intervals: list[Interval], t: float
    ) -> list[float]:
        """Φ(I) of several fragments of one partition — the one producer.

        Admission and eviction must speak the same currency (§7.3 ranks
        ALLCAND and resident fragments together): a cold fragment of a
        valuable view must not evict a hot fragment of another view.  The
        partition-level inputs (fit, mean width) are read once per pass.
        """
        vstats = self.stats.view(view_id)
        if vstats is None:
            return [0.0] * len(intervals)
        fragments = [self.stats.ensure_fragment(view_id, attr, iv) for iv in intervals]
        model = self.policy.value_model
        if model == "nectar":
            return [nectar_fragment_value(f, vstats, t) for f in fragments]
        if model == "nectar+":
            return [nectar_plus_fragment_value(f, vstats, t) for f in fragments]
        overrides: "list[float | None]" = [None] * len(intervals)
        domain = self.domains(attr) if self.policy.smoothing_enabled else None
        if domain is not None:
            dist = self._partition_distribution(view_id, attr, domain, t)
            if dist is not None:
                overrides = adjusted_hits_density_many(
                    intervals, *dist, domain, self._mean_fragment_width(view_id, attr, domain)
                )
        decay = self.policy.effective_decay
        return [fragment_value(f, vstats, t, decay, h) for f, h in zip(fragments, overrides)]

    def _fragment_admission_value(
        self, view_id: str, attr: str, interval: Interval, t: float
    ) -> float:
        return self._fragment_values(view_id, attr, [interval], t)[0]

    def _entry_value(self, entry, t: float) -> float:
        """Φ of a resident entry: a look-up in its partition's value pass.

        A partition's resident fragments are valued together, once per
        validity token.  The token names what Φ(I) reads at a fixed ``t``
        that can move — the view's size and cost, the cover version (mean
        width), the hit revision, the domain; the tick's fit is fixed
        once taken, and a resident fragment's size changes only with its
        admission (a new cover version) or in the pass itself.
        """
        view_id, attr = entry.key.view_id, entry.key.attr
        vstats = self.stats.view(view_id)
        if vstats is None:
            return 0.0
        if attr is None:
            return self._view_admission_value(vstats, t)
        token = (
            t,
            self.pool.cover_version(view_id),
            self.stats.hit_revision(view_id, attr),
            vstats.size_bytes,
            vstats.creation_cost_s,
            self.domains(attr),
        )
        memo = self._resident_values.get((view_id, attr))
        if memo is None or memo[0] != token:
            entries = self.pool.fragments_of(view_id, attr)
            for resident in entries:
                fstats = self.stats.ensure_fragment(view_id, attr, resident.key.interval)
                if not fstats.size_is_actual:
                    # before the value is formed: Φ reads this size
                    fstats.set_actual_size(resident.size_bytes)
            intervals = [e.key.interval for e in entries]
            values = dict(zip(intervals, self._fragment_values(view_id, attr, intervals, t)))
            memo = self._resident_values[(view_id, attr)] = (token, values)
        return memo[1][entry.key.interval]
