"""Incremental ingest with delta maintenance of materialized fragments.

Base tables in the paper are static; real workloads append.  This module
makes micro-batch appends first-class: :meth:`DeltaMaintainer.apply`
(called by ``DeepSea.ingest`` inside an open pool transaction) appends a
batch to one base table via :meth:`~repro.engine.catalog.Catalog.ingest`
and brings every resident materialized view whose definition reads that
table back in sync — without ever changing an answer.

Two maintenance paths:

* **Delta patch** — for views the ingested relation reaches the root of
  through ``Select``, ``Project`` and the *probe* (left) input of
  ``Join`` only (:func:`delta_source`).  Those operators are distributive
  over append *and* emit rows in the order of the rows they are fed, so
  the view of the grown table is exactly ``concat(view(old_rows),
  view(batch))`` (for a join, Δ(R ⋈ S) = ΔR ⋈ S).  The pass executes the
  view plan over a throwaway catalog that holds the batch in place of
  the ingested relation, routes the resulting delta rows to the affected
  fragments in one pass per partition attribute (one stable argsort of
  the column; each fragment's rows are then two binary searches over
  the sorted values, :func:`fragment_rows`), and appends each
  fragment's slice to its payload
  (:meth:`Table.append`: O(slice), the old payload's storage shared, not
  copied).  A patch is a journaled evict + re-admit under
  the same :class:`~repro.storage.pool.FragmentKey` — never an in-place
  overwrite — so payload-immutability invariants (an entry's observed
  min/max, epoch-pinned snapshot leases) hold, and the patched view's
  cover version moves like any other admit/evict: every memo invalidates
  by exact version, nothing flushes globally.
* **Rebuild from base** — the always-correct fallback for aggregates,
  build-side and self joins, and forced-rebuild benchmarking: re-run the
  defining plan
  against the (post-append) catalog and rewrite every resident entry
  from the fresh result.

All work is charged to ``CostLedger.maint_s`` (plus the routed/applied/
patched/rebuilt counters), and the maintainer's observed per-table ingest
rates feed :meth:`predicted_upkeep_s` — the upkeep term the §7 selector
adds to a candidate's creation cost, so views over hot append streams
must clear a higher evidence bar before winning ``S_max`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.cost import CostLedger
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.table import Table
from repro.query.algebra import Join, Plan, Project, Relation, Select, base_relations

if TYPE_CHECKING:
    from repro.partitioning.intervals import Interval
    from repro.storage.pool import FragmentEntry

# Queries of look-ahead when pricing upkeep against read benefit: the
# selector charges a candidate the maintenance it is predicted to cause
# over this many future queries at the observed ingest rate.
UPKEEP_HORIZON_QUERIES = 8.0


def delta_source(plan: Plan) -> str | None:
    """The one relation whose appends this plan absorbs by delta, if any.

    That is the relation at the bottom of the plan's *probe spine* — the
    path from the root down through ``Select`` / ``Project`` children and
    the left input of each ``Join`` — provided it appears nowhere else in
    the plan.  Every operator on the spine emits rows in the order of the
    rows it is fed from below (filter and project keep row order;
    ``hash_join`` emits matches in probe-row order), and appended rows
    come last, so ``view(base ++ batch) == view(base) ++ view(batch)``
    row for row, the other join inputs being the same tables on both
    sides.  ``None`` when the spine ends in anything else (an
    ``Aggregate`` re-orders and re-associates) or the relation occurs
    twice (a self-join: the batch would have to meet itself).  Ingest
    into any *other* relation of the plan — a join's build side — changes
    matches of old rows and takes the rebuild path.
    """
    node = plan
    while not isinstance(node, Relation):
        if isinstance(node, (Select, Project)):
            node = node.child
        elif isinstance(node, Join):
            node = node.left
        else:
            return None
    return node.name if base_relations(plan).count(node.name) == 1 else None


def route_rows(values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """One partition column of a delta, routed once: the stable order
    that sorts it, and the sorted values (:func:`fragment_rows`)."""
    order = np.argsort(values, kind="stable")
    return order, values[order]


def fragment_rows(route: "tuple[np.ndarray, np.ndarray]", interval: Interval) -> np.ndarray:
    """The ascending delta rows ``interval`` holds — exactly
    ``np.flatnonzero(interval.mask(values))`` — from ``route_rows(values)``:
    two binary searches over the sorted values and a sort of the slice."""
    order, sorted_values = route
    start, stop = interval.sorted_span(sorted_values)
    return np.sort(order[start:stop])


@dataclass
class IngestReport:
    """Outcome of one micro-batch append, for benchmarks and tests."""

    table: str
    rows: int
    clock: float
    ledger: CostLedger
    views_delta: tuple[str, ...]
    views_rebuilt: tuple[str, ...]
    fragments_dropped: int

    @property
    def maint_s(self) -> float:
        return self.ledger.maint_s

    @property
    def fragments_patched(self) -> int:
        return self.ledger.fragments_patched

    @property
    def fragments_rebuilt(self) -> int:
        return self.ledger.fragments_rebuilt


class DeltaMaintainer:
    """Routes ingested micro-batches into the materialized-view pool."""

    def __init__(self, system, *, force_rebuild: bool = False):
        self.system = system
        # Benchmarking lever: take the recompute-from-base path even for
        # delta-able views, so ``ingest-bench`` can price delta
        # maintenance against the fallback on identical scenarios.
        self.force_rebuild = force_rebuild
        self.reports: list[IngestReport] = []
        # name -> [rows_total, batches_total, first_clock]; cumulative
        # observed ingest pressure per base table (deterministic — no
        # decay constants to tune).
        self._observed: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Ingest-rate observation and upkeep prediction (§7 integration)
    # ------------------------------------------------------------------
    def _observe(self, name: str, nrows: int, clock: float) -> None:
        stats = self._observed.get(name)
        if stats is None:
            self._observed[name] = [float(nrows), 1.0, clock]
        else:
            stats[0] += nrows
            stats[1] += 1.0

    def per_query_rates(self, name: str, clock: float) -> tuple[float, float]:
        """Observed (rows, batches) appended to ``name`` per query tick."""
        stats = self._observed.get(name)
        if stats is None:
            return 0.0, 0.0
        span = max(1.0, clock - stats[2] + 1.0)
        return stats[0] / span, stats[1] / span

    def predicted_upkeep_s(self, view_id: str, plan: Plan) -> float:
        """Maintenance seconds this view is predicted to cost over the
        upkeep horizon, given observed ingest rates on its base tables.

        Exactly ``0.0`` when none of the plan's relations has seen a
        batch, so workloads without ingest price candidates bit-
        identically to before.  A view pays an append-write of its share
        of the per-query delta bytes for ingest into its
        :func:`delta_source` (probe-side joins included), and a full
        recompute + rewrite per observed batch for any other relation.
        """
        names = [n for n in set(base_relations(plan)) if n in self._observed]
        if not names:
            return 0.0
        system = self.system
        cluster = system.cluster
        clock = float(system.clock)
        src = delta_source(plan)
        upkeep_per_query = 0.0
        for name in sorted(names):
            rows_pq, batches_pq = self.per_query_rates(name, clock)
            if rows_pq <= 0.0:
                continue
            base = system.catalog.get(name)
            delta_bytes_pq = rows_pq * base.schema.row_bytes * base.scale
            estimate = system.rewriter.estimate_plan_cost(plan)
            if src == name and not self.force_rebuild:
                if base.size_bytes > 0:
                    share = min(1.0, estimate.bytes_out / base.size_bytes)
                else:
                    share = 1.0
                upkeep_per_query += cluster.write_elapsed(delta_bytes_pq * share, nfiles=1)
            else:
                upkeep_per_query += batches_pq * (
                    estimate.cost_s + cluster.write_elapsed(estimate.bytes_out, nfiles=1)
                )
        return UPKEEP_HORIZON_QUERIES * upkeep_per_query

    # ------------------------------------------------------------------
    # Batch application (runs inside an open pool transaction)
    # ------------------------------------------------------------------
    def apply(self, name: str, rows, ledger: CostLedger, retry: bool) -> IngestReport:
        """Append one micro-batch and maintain every affected view.

        ``retry`` says this call replays a batch whose first attempt
        crashed and was rolled back: its rows are observed once.

        Must run inside an open pool transaction (``DeepSea.ingest``
        arranges this): the catalog append and every fragment patch are
        journaled, so a mid-batch crash rolls the whole step back — the
        base table, the catalog version, and the pool configuration all
        return to their pre-batch state, stranding any cache entries
        stamped with the aborted version.
        """
        system = self.system
        pool = system.pool
        catalog = system.catalog
        clock = float(system.clock)
        batch = catalog.ingest(name, rows, journal=pool.journal)
        if not retry:
            self._observe(name, batch.nrows, clock)
        # Appending to the base table writes the batch bytes once,
        # regardless of what is materialized (H pays exactly this).
        ledger.charge_write(batch.size_bytes, nfiles=1)
        views_delta: list[str] = []
        views_rebuilt: list[str] = []
        dropped = 0
        for view_id in pool.resident_view_ids():
            plan = pool.definition(view_id).plan
            relations = base_relations(plan)
            if name not in relations:
                continue
            if not self.force_rebuild and delta_source(plan) == name:
                # The batch stands in for the ingested relation; the other
                # join inputs are the live table *objects*, so their cached
                # sort indexes are hit and only the batch's keys are probed.
                inputs = Catalog()
                for relation in sorted(set(relations)):
                    inputs.register(relation, batch if relation == name else catalog.get(relation))
                dropped += self._apply_delta(view_id, plan, inputs, ledger)
                views_delta.append(view_id)
            else:
                dropped += self._rebuild(view_id, plan, ledger)
                views_rebuilt.append(view_id)
        report = IngestReport(
            table=name,
            rows=batch.nrows,
            clock=clock,
            ledger=ledger,
            views_delta=tuple(views_delta),
            views_rebuilt=tuple(views_rebuilt),
            fragments_dropped=dropped,
        )
        self.reports.append(report)
        return report

    def _entries_of(self, view_id: str) -> "list[tuple[str | None, FragmentEntry]]":
        """All resident entries of a view in deterministic order, snapshotted
        (patching replaces entries, so iteration must not chase the lists)."""
        pool = self.system.pool
        out: "list[tuple[str | None, FragmentEntry]]" = []
        whole = pool.whole_view_entry(view_id)
        if whole is not None:
            out.append((None, whole))
        for attr in pool.partition_attrs(view_id):
            out.extend((attr, e) for e in pool.fragments_of(view_id, attr))
        return out

    def _patch(self, entry: "FragmentEntry", payload: Table) -> bool:
        """Replace ``entry``'s payload, or drop the entry when the grown
        payload no longer fits under ``S_max`` (correct either way: a
        missing fragment falls back to base tables at read time).
        Returns True when the entry was dropped."""
        pool = self.system.pool
        if not pool.fits(payload.size_bytes - entry.size_bytes):
            pool.evict(entry.fragment_id)
            return True
        pool.patch_entry(entry.fragment_id, payload)
        return False

    def _execute_once(self, plan: Plan, catalog: Catalog) -> "tuple[Table, float]":
        """A view's defining plan over ``catalog``: (rows, simulated seconds).

        Executor semantics (not a re-implementation) are what make a
        maintained payload byte-identical to a full recompute.
        """
        scratch = CostLedger(self.system.cluster)
        executor = Executor(ExecutionContext(catalog, None, self.system.cluster))
        table = executor.execute(plan, scratch).table
        return table, scratch.total_seconds

    def _apply_delta(self, view_id: str, plan: Plan, inputs: Catalog, ledger: CostLedger) -> int:
        """Route the batch's view rows to the fragments they belong to.

        ``inputs`` maps the ingested relation to the batch, so the
        defining plan over it yields exactly the rows the batch adds to
        the view — the tail of a full recompute.
        """
        system = self.system
        pool = system.pool
        cluster = system.cluster
        delta, seconds = self._execute_once(plan, inputs)
        # routed = delta rows entering the router; applied = rows landed
        # in payloads (overlapping fragments may land a row twice).
        applied = patched = dropped = 0
        routes: "dict[str, tuple[np.ndarray, np.ndarray]]" = {}
        for attr, entry in self._entries_of(view_id):
            if delta.nrows == 0:
                continue
            if attr is None:
                piece = delta
            else:
                route = routes.get(attr)
                if route is None:
                    route = routes[attr] = route_rows(delta.column(attr))
                rows = fragment_rows(route, entry.key.interval)
                if len(rows) == 0:
                    continue
                piece = delta.take(rows)
            old = pool.read_entry(entry.fragment_id, ledger)
            payload = old.append(piece)
            seconds += cluster.write_elapsed(piece.size_bytes, nfiles=1)
            applied += piece.nrows
            if self._patch(entry, payload):
                dropped += 1
            else:
                patched += 1
        ledger.charge_maintenance(seconds, routed=delta.nrows, applied=applied, patched=patched)
        return dropped

    def _rebuild(self, view_id: str, plan: Plan, ledger: CostLedger) -> int:
        """Recompute the view from (post-append) base tables and rewrite
        every resident entry — the always-correct fallback."""
        system = self.system
        cluster = system.cluster
        table, seconds = self._execute_once(plan, system.catalog)
        rebuilt = dropped = 0
        for attr, entry in self._entries_of(view_id):
            if attr is None:
                payload = table
            else:
                payload = table.filter(entry.key.interval.mask(table.column(attr)))
            seconds += cluster.write_elapsed(payload.size_bytes, nfiles=1)
            if self._patch(entry, payload):
                dropped += 1
            else:
                rebuilt += 1
        ledger.charge_maintenance(seconds, rebuilt=rebuilt)
        return dropped
