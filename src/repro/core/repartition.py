"""The journaled repartitioner: applies selection's decisions to the pool.

Materializing a view as (bounded) partitions, splitting or overlapping a
resident fragment, merging two, adding a secondary partition — each is a
multi-operation pool mutation (evict the parent, admit the pieces, evict
victims for space) that must never be observed, or left behind by a
crash, half-done.  :meth:`Repartitioner.crash_safe` is therefore the only
way a step runs: one ``begin`` / ``commit`` pool transaction that rolls
back on any exception.  Admission and eviction inside a step are ranked
by :class:`~repro.core.valuation.Valuation`'s Φ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.domains import DomainResolver
from repro.core.merging import MergeCandidate
from repro.core.policies import Policy
from repro.core.selection import Refinement, ViewCreation
from repro.core.tentative import TentativePartitions
from repro.core.valuation import Valuation
from repro.costmodel.stats import StatisticsStore
from repro.engine.cost import ClusterSpec, CostLedger
from repro.engine.table import Table
from repro.errors import ControllerCrashError
from repro.matching.partition_match import greedy_cover
from repro.matching.rewriter import ViewMatch
from repro.partitioning.bounding import bound_fragment, merge_undersized
from repro.partitioning.equidepth import equidepth_intervals
from repro.partitioning.fragmentation import Fragmentation
from repro.partitioning.intervals import Interval, sort_key
from repro.query.algebra import Plan
from repro.storage.pool import FragmentKey, MaterializedViewPool


class _Pieces:
    """One table cut by interval, each piece masked once.

    Lives for one repartitioning step: sizing, bounding and writing a
    creation's fragments share the cuts, and they go when the step does.
    """

    def __init__(self, table: Table, attr: str) -> None:
        self.table = table
        column = table.column(attr)
        if (
            column.dtype.kind in "iu"
            and len(column)
            and -(2**53) <= column.min()
            and column.max() <= 2**53
        ):
            # numpy compares float64 about 3× faster than int64, and in
            # this range the cast is exact: cast once for all the cuts.
            column = column.astype(np.float64)
        self._column = column
        self._cut: dict[Interval, Table] = {}

    def __getitem__(self, interval: Interval) -> Table:
        piece = self._cut.get(interval)
        if piece is None:
            piece = self._cut[interval] = self.table.filter(interval.mask(self._column))
        return piece


@dataclass(eq=False)
class Repartitioner:
    """Runs each repartitioning (and ingest) step as one pool transaction."""

    stats: StatisticsStore
    pool: MaterializedViewPool
    tentative: TentativePartitions
    domains: DomainResolver
    policy: Policy
    cluster: ClusterSpec
    valuation: Valuation
    estimate_plan_cost: Callable[[Plan], object]
    # Optional repro.faults.injector.FaultInjector (DeepSea.attach_faults).
    faults: object = field(default=None, init=False)
    # True while a crashed step is being retried: the fresh controller
    # that picks the step up does not immediately die again, so the
    # retry draws no crash decision.
    retrying: bool = field(default=False, init=False)

    # ------------------------------------------------------------------
    # Crash consistency
    # ------------------------------------------------------------------
    def maybe_crash(self, site: str) -> None:
        """Die mid-step if the injector says so (never during a retry)."""
        if self.faults is None or self.retrying:
            return
        if self.faults.controller_crash(site):
            raise ControllerCrashError(site)

    def crash_safe(self, site: str, fn, ledger: CostLedger):
        """Run one step as a journaled transaction, retried after a crash.

        An injected mid-step controller crash rolls the journal back
        (restoring the exact pre-step configuration, with replayed
        re-writes charged to ``ledger``) and a fresh controller retries
        the step.  The retry starts from the same state the fault-free run
        saw, so it makes the same decisions — the crash costs time, never
        answers.
        """
        try:
            return self._transact(site, fn, ledger)
        except ControllerCrashError:
            self.faults.record_recovery(site, "journal rollback, step retried")
            self.retrying = True
            try:
                return self._transact(site, fn, ledger)
            finally:
                self.retrying = False

    def _transact(self, site: str, fn, ledger: CostLedger):
        self.pool.begin(site)
        try:
            out = fn()
        except BaseException:
            # Whatever happened, the journal must not stay open (a wedged
            # journal turns every later step into a PoolError) and the
            # pool must not stay half-mutated under concurrent snapshot
            # readers.
            self.pool.rollback(ledger)
            raise
        self.pool.commit()
        return out

    # ------------------------------------------------------------------
    # Materialization (instrumented execution aftermath)
    # ------------------------------------------------------------------
    def materialize_view(
        self,
        creation: ViewCreation,
        table: Table,
        t: float,
        ledger: CostLedger,
    ) -> tuple[bool, int]:
        vstats = self.stats.view(creation.view_id)
        vstats.set_actual_size(max(table.size_bytes, 1.0))

        if not creation.attrs:
            candidate_value = self.valuation.view_admission_value(vstats, t)
            result = self.valuation.controller(t).admit_whole_view(
                creation.view_id, table, candidate_value
            )
            if result.admitted:
                # whole-view payload: already written at the job boundary;
                # keeping it costs one extra file creation.
                ledger.charge_write(0.0, nfiles=1)
                if not vstats.cost_is_actual:
                    vstats.set_actual_cost(self.estimate_plan_cost(creation.plan).cost_s)
            return result.admitted, len(result.evicted)

        evicted = 0
        total_files = 0
        for index, attr in enumerate(creation.attrs):
            self.maybe_crash("materialize")
            pieces = _Pieces(table, attr)
            intervals = self._creation_intervals(creation.view_id, attr, pieces)
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
                self.estimate_plan_cost(creation.plan).cost_s
                + self.cluster.write_elapsed(0.0, nfiles=total_files)
            )
        return total_files > 0, evicted

    def _admit_pieces(
        self, view_id: str, attr: str, intervals, pieces: _Pieces, t: float
    ) -> tuple[int, float, int]:
        """Admit the fragments of ``intervals`` not yet resident.

        Returns ``(files written, bytes written, entries evicted)``.
        """
        controller = self.valuation.controller(t)
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
                self.valuation.fragment_value(view_id, attr, interval, t),
            )
            evicted += len(result.evicted)
            if result.admitted:
                written_bytes += piece.size_bytes
                written_files += 1
        return written_files, written_bytes, evicted

    def _creation_intervals(self, view_id: str, attr: str, pieces: _Pieces) -> list[Interval]:
        domain = self.domains(attr)
        if domain is None:
            return []
        table = pieces.table
        if self.policy.partitioning == "equidepth":
            intervals = equidepth_intervals(
                table.column(attr), self.policy.equidepth_fragments, domain
            )
            self.tentative.replace_design(
                view_id, attr, Fragmentation(attr, domain, tuple(intervals))
            )
            return intervals
        design = self.tentative.ensure(view_id, attr, domain)
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
        self.tentative.replace_design(view_id, attr, Fragmentation(attr, domain, tuple(bounded)))
        return bounded

    # ------------------------------------------------------------------
    # Secondary partitions (§4: multiple partitions on different attributes)
    # ------------------------------------------------------------------
    def extend_partitions(
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
                if self.domains(attr) is None:
                    continue
                seen.add((view_id, attr))
                table = self.reconstruct_view(view_id, ledger)
                if table is None or attr not in table.schema:
                    continue
                pieces = _Pieces(table, attr)
                intervals = self._creation_intervals(view_id, attr, pieces)
                written_files, written_bytes, lost = self._admit_pieces(
                    view_id, attr, intervals, pieces, t
                )
                evictions += lost
                if written_files:
                    ledger.charge_write(written_bytes, nfiles=written_files)
                    extended += 1
        return extended, evictions

    def reconstruct_view(self, view_id: str, ledger: CostLedger):
        """The view's full content from resident entries, or ``None``."""
        whole = self.pool.whole_view_entry(view_id)
        if whole is not None:
            ledger.charge_read(whole.size_bytes, nfiles=1)
            return self.pool.read_entry(whole.fragment_id, ledger)
        for attr in self.pool.partition_attrs(view_id):
            domain = self.domains(attr)
            if domain is None:
                continue
            cover = greedy_cover(domain, self.pool.cover_index(view_id, attr))
            if cover is None:
                continue
            pieces = []
            total = 0.0
            for covered in cover:
                entry = self.pool.find_fragment(FragmentKey(view_id, attr, covered.interval))
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
    def apply_merge(self, merge: MergeCandidate, t: float, ledger: CostLedger) -> tuple[bool, int]:
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
        # the merged fragment holds the pair's hit history
        merged_stats = self.stats.ensure_fragment(merge.view_id, merge.attr, merge.merged)
        if not merged_stats.hit_count():
            self.valuation.settle_fit(merge.view_id, merge.attr, t)
            merged_stats.union_hits(
                self.stats.fragment(merge.view_id, merge.attr, merge.left),
                self.stats.fragment(merge.view_id, merge.attr, merge.right),
            )
        merged_stats.set_actual_size(merged_table.size_bytes)
        self.pool.evict(left.fragment_id)
        self.pool.evict(right.fragment_id)
        # Same dangerous window as refinement: both halves gone, the
        # merged entry not yet admitted.
        self.maybe_crash("merge")
        result = self.valuation.controller(t).admit_fragment(
            merge.view_id,
            merge.attr,
            merge.merged,
            merged_table,
            self.valuation.fragment_value(merge.view_id, merge.attr, merge.merged, t),
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
    def apply_refinement(
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
        self.maybe_crash("repartition")

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
