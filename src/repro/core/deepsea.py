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

This class is those seven steps and the stores they share.  What a
fragment is worth (step 5 and 7's Φ) is :mod:`repro.core.valuation`; what
to create, refine and merge (step 5) is :mod:`repro.core.selection`;
applying those decisions to the pool as journaled transactions (step 7)
is :mod:`repro.core.repartition`.

All baselines (H, NP, E-k, NR, Nectar, Nectar+) are the same driver under
a different :class:`~repro.core.policies.Policy`.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial

from repro.core.domains import DomainResolver
from repro.core.policies import Policy
from repro.core.repartition import Repartitioner
from repro.core.reports import QueryReport
from repro.core.selection import Selection
from repro.core.tentative import TentativePartitions
from repro.core.valuation import Valuation
from repro.costmodel.stats import StatisticsStore
from repro.engine.catalog import Catalog
from repro.engine.cost import ClusterSpec, CostLedger
from repro.engine.executor import ExecutionContext, Executor
from repro.matching.filter_tree import FilterTree
from repro.matching.matcher import partition_attr_ranges
from repro.matching.rewriter import QueryPlan, Rewriter, ViewMatch
from repro.partitioning.candidates import partition_candidates
from repro.partitioning.intervals import Interval
from repro.query.algebra import Plan, replace_subplan
from repro.query.optimizer import push_down
from repro.query.signature import view_id_for
from repro.query.subqueries import view_candidate_subplans
from repro.storage.hdfs import SimulatedHDFS
from repro.storage.ingest import DeltaMaintainer, IngestReport
from repro.storage.pool import MaterializedViewPool

# Cap on tentative-design fragmentation growth for views that accumulate
# evidence over very long workloads without being materialized.
_MAX_TENTATIVE_FRAGMENTS = 512


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
        self.domains = DomainResolver(catalog, domains)
        self.tentative = TentativePartitions()
        # (view, attr) -> the exact Fragmentation whose intervals have
        # been ensured in PSTAT.  Designs are replaced (never mutated) on
        # refinement and stats fragments are never dropped, so an `is`
        # match means the per-query ensure loop in
        # _update_match_statistics has nothing to add.
        self._pstat_synced: dict = {}
        self.schemas = {n: catalog.get(n).schema.names for n in catalog.names}
        stats, tentative = self.stats, self.tentative

        def saving_inputs(view_id: str):
            vstats = stats.view(view_id)
            if vstats is None:
                return None
            return vstats.size_bytes, tuple(tentative.attrs_of(view_id))

        self.rewriter = rewriter = Rewriter(
            self.schemas,
            self.filter_tree,
            self.pool,
            catalog,
            self.cluster,
            self.domains,
            saving_inputs,
        )
        self.executor = Executor(ExecutionContext(catalog, self.pool, self.cluster))
        self.clock = 0
        self.reports: list[QueryReport] = []
        # Optional stage recorder (perfbench/trace.py implements it): an
        # object with ``stage(name)`` returning a context manager and a
        # ``queries`` counter.  When attached, execute() wraps matching /
        # selection / execution / materialization in its stages.  None
        # costs one attribute read.
        self.profiler = None
        # Incremental ingest (repro.storage.ingest): routes appended
        # micro-batches into resident fragments and prices the upkeep the
        # §7 selector weighs against read benefit.  Inert until the first
        # ingest() call — workloads without appends are bit-identical.
        self.maintenance = DeltaMaintainer(self)
        # Maintenance charged between queries lands on the *next* query's
        # creation ledger (upkeep is part of serving the workload, and
        # per-query ledgers are what the determinism fingerprints see).
        self._pending_maintenance: CostLedger | None = None
        # Algorithm 1's collaborators, each built from the stores it reads.
        stores = (self.stats, self.pool, self.tentative, self.domains, self.policy, self.cluster)
        self.valuation = Valuation(*stores)
        self.selection = Selection(*stores, self.valuation, self.maintenance.predicted_upkeep_s)
        # The estimate is looked up per call: tracing wraps the rewriter's
        # method on the instance after construction.
        self.repartitioner = Repartitioner(
            *stores, self.valuation, lambda plan: rewriter.estimate_plan_cost(plan)
        )

    _NULL_STAGE = nullcontext()

    def _stage(self, name: str):
        return self._NULL_STAGE if self.profiler is None else self.profiler.stage(name)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def faults(self):
        """The attached fault injector, or ``None`` (held where crashes are drawn)."""
        return self.repartitioner.faults

    @faults.setter
    def faults(self, injector) -> None:
        self.repartitioner.faults = injector

    def attach_faults(self, faults):
        """Enable deterministic fault injection for the rest of this run.

        ``faults`` is a :class:`~repro.faults.schedule.FaultSchedule`, a
        built-in schedule name / JSON string, or a ready-made
        :class:`~repro.faults.injector.FaultInjector`.  Attaching wires
        all three recovery layers at once: task retry/speculation in the
        cost ledgers, replica damage and recompute-from-base-tables in
        the storage stack, and crash/rollback/retry around the journaled
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

    def execute(self, plan: Plan, *, answer: bool = True) -> QueryReport:
        """Process one query (Algorithm 1) and return its report.

        ``answer=False`` is for a caller that has the answer already (the
        serving writer learns from queries its readers answered): step 6
        runs the query only when step 7 has an intermediate to capture,
        and the report keeps no result table.
        """
        self.clock += 1
        t = float(self.clock)
        self.valuation.open_tick(t)
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

        chosen = result = None
        views_created: list[str] = []
        applied_refinements = evictions = 0
        if not self.policy.materialize:
            # The H baseline: vanilla execution, no pool.
            if answer:
                with self._stage("execution"):
                    result = self.executor.execute(push_down(plan, self.schemas), exec_ledger)
        else:
            selection, repartitioner = self.selection, self.repartitioner
            with self._stage("matching"):
                # 4 (early). Register candidates so the current query contributes
                # its own evidence — the paper's final UPDATESTATS folded forward.
                candidates = self._register_candidates(plan, t)

                # 1 and 3. Matches, their savings, and Q_best.
                planned = self.rewriter.plan(plan)
                matches, rewritings, chosen = planned.matches, planned.rewritings, planned.chosen

                # 2. Statistics: benefit events and PSTAT hits, which planning
                # never reads — so it may follow step 3.
                self._update_match_statistics(planned, t)

            with self._stage("selection"):
                # 5. Selection: creations and refinements.
                usable = {r.view_id for r in rewritings}
                creations = selection.plan_view_creations(candidates, usable, t)
                refinements = (
                    selection.plan_refinements(matches, t) if self.policy.repartition else []
                )

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
                captured = {}
                if answer or target_map:
                    result, captured = self.executor.execute_with_capture(
                        plan_to_run, list(target_map.values()), exec_ledger
                    )

            # 7. Materialize and refine: each step one journaled transaction.
            def step(site: str, apply, *decision):
                nonlocal evictions
                done, evicted = repartitioner.crash_safe(
                    site, partial(apply, *decision, t, creation_ledger), creation_ledger
                )
                evictions += evicted
                return done

            with self._stage("materialization"):
                for creation in creations:
                    table = captured.get(target_map[creation.view_id])
                    if table is None:
                        continue  # the rewriting bypassed this intermediate
                    if step("materialize", repartitioner.materialize_view, creation, table):
                        views_created.append(creation.view_id)
                    else:
                        selection.cool_down(creation.view_id, t)
                for refinement in refinements:
                    applied_refinements += int(
                        step("repartition", repartitioner.apply_refinement, refinement)
                    )
                if self.policy.merge_fragments:
                    for merge in selection.plan_merges(matches, t):
                        applied_refinements += int(step("merge", repartitioner.apply_merge, merge))
                if self.policy.multi_attribute:
                    applied_refinements += step("extend", repartitioner.extend_partitions, matches)

        report = QueryReport(
            index=self.clock,
            plan=plan,
            result=result.table if answer else None,
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

        One journaled pool transaction, like every repartitioning step —
        and the append mutates the *catalog* too: a crash mid-batch must
        restore the base table, the catalog version, and the pool
        configuration together, stranding every cache entry stamped with
        the aborted version.  The maintenance cost lands on the next
        query's creation ledger via ``_pending_maintenance``.
        """
        ledger = CostLedger(self.cluster)
        if self.faults is not None:
            ledger.faults = self.faults
        repartitioner = self.repartitioner
        report = repartitioner.crash_safe(
            "ingest",
            # a crash-retry replays apply(): it is told, to count the batch once
            lambda: self.maintenance.apply(name, rows, ledger, repartitioner.retrying),
            ledger,
        )
        # Accumulate into a ledger of our own: ``ledger`` belongs to the
        # returned report, and a second batch before the next query must
        # not inflate the first batch's numbers after the fact.
        if self._pending_maintenance is None:
            self._pending_maintenance = CostLedger(self.cluster)
        self._pending_maintenance.merge(ledger)
        return report

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
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

    # ------------------------------------------------------------------
    # Candidate registration (Definitions 6 and 7)
    # ------------------------------------------------------------------
    def _register_candidates(self, plan: Plan, t: float) -> list[tuple[str, Plan]]:
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
            self._refine_tentative_designs(view_id, query_sig, t)
            registered.append((view_id, sub))
        return registered

    def _refine_tentative_designs(self, view_id: str, query_sig, t: float) -> None:
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
                self.valuation.inherit_fragment_stats(view_id, attr, candidate, t)
                current = self.tentative.get(view_id, attr)
                if current is not None and candidate.parent in current.intervals:
                    self.tentative.apply_split(view_id, attr, candidate)

    # ------------------------------------------------------------------
    # Statistics update (§8.4)
    # ------------------------------------------------------------------
    def _update_match_statistics(self, planned: QueryPlan, t: float) -> None:
        # A view often matches several subqueries of the same query (e.g.
        # the bare join and the selection above it).  The view's best use
        # is the one with the largest saving; record exactly one benefit
        # event and one round of fragment hits per view per query.
        best: dict[str, tuple[float, ViewMatch]] = {}
        for match, saving in zip(planned.matches, planned.savings):
            if saving is None:
                continue  # the view has no statistics
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
