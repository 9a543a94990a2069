"""Plan execution.

The executor evaluates a logical plan against the catalog (base tables)
and the materialized-view pool (``MaterializedScan`` leaves), returning the
result :class:`~repro.engine.table.Table` and charging simulated time to a
:class:`~repro.engine.cost.CostLedger`:

* base-table and fragment scans charge read time (one map task per file /
  HDFS block);
* every join and aggregation charges one MapReduce job overhead plus a
  shuffle of its output;
* every *job boundary* writes its output to HDFS — MapReduce materializes
  intermediate results between jobs, which is exactly what DeepSea
  harvests as free view payloads (§2).  A job boundary is a join or
  aggregate, folded together with the projection chain directly above it
  (Hive applies projections inside the producing job);
* plans with no join/aggregate still cost one job (a map-only job).

All operators are numpy-vectorized; queries over the few-hundred-thousand
row scaled instances used in the benchmarks execute in milliseconds of
real time while reporting simulated cluster seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine import prune, result_cache
from repro.engine.catalog import Catalog
from repro.engine.cost import ClusterSpec, CostLedger
from repro.engine.indexes import RowIdMatch, join_probe
from repro.engine.schema import Column, Schema
from repro.engine.table import JoinView, Table, TableView, lazy_views_enabled
from repro.engine.types import ColumnKind, EncodedColumn, decoded, sort_key
from repro.errors import PlanError, SchemaError
from repro.query.algebra import (
    Aggregate,
    AggSpec,
    Join,
    MaterializedScan,
    Plan,
    Project,
    Relation,
    Select,
)
from repro.query.analysis import analyze_plan
from repro.query.predicates import conjunction_mask
from repro.storage.pool import MaterializedViewPool


@dataclass
class ExecutionContext:
    """Everything a plan needs to run."""

    catalog: Catalog
    pool: MaterializedViewPool | None = None
    cluster: ClusterSpec = field(default_factory=ClusterSpec)


@dataclass
class ExecutionResult:
    """A query answer plus its simulated cost."""

    table: Table
    ledger: CostLedger

    @property
    def elapsed_s(self) -> float:
        return self.ledger.total_seconds


class Executor:
    """Evaluates logical plans."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        self._capture_targets: set[Plan] = set()
        self._captured: dict[Plan, Table] = {}
        self._boundaries: frozenset[Plan] = frozenset()
        self.pruning = prune.PruneCounters()

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: Plan,
        ledger: CostLedger | None = None,
        *,
        use_cache: bool = True,
    ) -> ExecutionResult:
        """Run ``plan`` and return its result table and cost ledger.

        Whole-plan executions go through the cross-query result cache
        (:mod:`repro.engine.result_cache`) when it is safe: no live
        capture targets, no fault injection, and a pristine ledger to
        replay into.  A hit returns the cached table and merges the
        recorded simulated charges — bit-identical to re-executing.
        ``use_cache=False`` bypasses the cache entirely — one-shot
        executions against throwaway catalogs (the delta-maintenance pass
        runs view plans over batch-only catalogs whose uids never recur)
        would otherwise fill the LRU with unreachable entries.
        """
        ledger = ledger if ledger is not None else CostLedger(self.context.cluster)
        analysis = analyze_plan(plan)  # boundaries + job count, one traversal
        key = None
        if use_cache and not self._capture_targets and result_cache.eligible(ledger):
            key = result_cache.ResultCache.key_for(plan, analysis, self.context)
            if key is not None:
                entry = result_cache.GLOBAL.lookup(key)
                if entry is not None:
                    table = result_cache.ResultCache.replay(entry, ledger)
                    return ExecutionResult(table, ledger)
        self._boundaries = analysis.boundaries
        table = self._eval(plan, ledger)
        if analysis.job_ops == 0:
            ledger.charge_jobs(1)
        if key is not None:
            result_cache.GLOBAL.store(key, table, ledger)
        return ExecutionResult(table, ledger)

    def execute_with_capture(
        self,
        plan: Plan,
        targets: list[Plan],
        ledger: CostLedger | None = None,
    ) -> tuple[ExecutionResult, dict[Plan, Table]]:
        """Run ``plan``, also capturing the results of target subplans.

        This is DeepSea's instrumentation hook (§9): intermediate results
        that the query computes anyway are snapshotted as they are
        produced, so materializing them as views costs only the write.  A
        target that the (possibly rewritten) plan never computes is simply
        absent from the returned mapping.
        """
        self._capture_targets = set(targets)
        self._captured = {}
        try:
            result = self.execute(plan, ledger)
            return result, dict(self._captured)
        finally:
            self._capture_targets = set()
            self._captured = {}

    # ------------------------------------------------------------------
    def _eval(self, plan: Plan, ledger: CostLedger) -> Table:
        table = self._eval_node(plan, ledger)
        if plan in self._boundaries:
            ledger.charge_write(table.size_bytes, nfiles=1)
        if self._capture_targets and plan in self._capture_targets:
            self._captured[plan] = table
        return table

    def _eval_node(self, plan: Plan, ledger: CostLedger) -> Table:
        if isinstance(plan, Relation):
            return self._eval_relation(plan, ledger)
        if isinstance(plan, MaterializedScan):
            return self._eval_materialized(plan, ledger)
        if isinstance(plan, Select):
            fused = self._fused_materialized_select(plan, ledger)
            if fused is not None:
                return fused
            child = self._eval(plan.child, ledger)
            return child.filter(conjunction_mask(plan.predicates, child))
        if isinstance(plan, Project):
            child = self._eval(plan.child, ledger)
            return child.project(plan.columns)
        if isinstance(plan, Join):
            left = self._eval(plan.left, ledger)
            right = self._eval(plan.right, ledger)
            out = hash_join(left, right, plan.left_attr, plan.right_attr)
            ledger.charge_jobs(1)
            ledger.charge_shuffle(out.size_bytes)
            return out
        if isinstance(plan, Aggregate):
            child = self._eval(plan.child, ledger)
            out = aggregate(child, plan.group_by, plan.aggregates)
            ledger.charge_jobs(1)
            ledger.charge_shuffle(out.size_bytes)
            return out
        raise PlanError(f"cannot execute node of type {type(plan).__name__}")

    def _fused_materialized_select(self, plan: Select, ledger: CostLedger) -> "Table | None":
        """Selection fused into a pruned fragment scan (:mod:`repro.engine.prune`).

        ``Select`` directly over a fragmented ``MaterializedScan`` is the
        shape every partition rewriting produces.  The seed evaluation
        reads every fragment payload, clips each piece, concatenates, and
        then evaluates the selection conjunction over the concatenation.
        Here each piece is classified against the predicate intersection
        instead: ``EMPTY`` pieces skip the payload read entirely, ``FULL``
        pieces skip masking, and ``PARTIAL`` pieces get one fused
        (predicates ∧ clip) mask — so each surviving row is tested once,
        at the scan.

        Wall-clock only: the ledger charge is identical to the seed path
        (all fragment bytes, all files — see the charging invariant in
        :meth:`_eval_materialized`), and the returned rows match the
        unfused evaluation bit for bit.  Returns ``None`` when the shape
        or safety guards do not apply (faulted ledger, capture target or
        job boundary on the scan, multi-attribute conjunction), in which
        case the caller runs the seed path.
        """
        scan = plan.child
        if not isinstance(scan, MaterializedScan) or not scan.fragment_ids:
            return None
        if ledger.faults is not None:
            return None  # fault RNG draws on payload reads must replay
        if scan in self._capture_targets or scan in self._boundaries:
            return None  # the unselected scan output is observable
        pool = self.context.pool
        if pool is None:
            raise PlanError("MaterializedScan requires a pool")
        decisions = prune.classify(pool, scan, plan.predicates)
        if decisions is None:
            return None
        total_bytes = 0.0
        pieces: list[Table] = []
        pruned = scanned = kept = 0
        for fid, decision in zip(scan.fragment_ids, decisions):
            entry = pool.get_fragment(fid)
            total_bytes += entry.size_bytes
            if decision.state == prune.EMPTY:
                pruned += 1
                continue
            piece = pool.read_entry(fid, ledger)
            scanned += piece.nrows
            if decision.state == prune.PARTIAL:
                piece = piece.filter(decision.eff.mask(piece.column(scan.attr)))
            kept += piece.nrows
            pieces.append(piece)
        counters = self.pruning
        counters.pruned_fragments += pruned
        counters.rows_scanned += scanned
        counters.rows_pruned += scanned - kept
        ledger.charge_read(total_bytes, nfiles=len(scan.fragment_ids))
        if not pieces:
            # All pieces pruned: an empty selection over the first
            # fragment's payload preserves schema and column kinds.
            donor = pool.read_entry(scan.fragment_ids[0], ledger)
            return donor.filter(np.zeros(donor.nrows, dtype=bool))
        return Table.concat_many(pieces)

    def _eval_relation(self, plan: Relation, ledger: CostLedger) -> Table:
        table = self.context.catalog.get(plan.name)
        ledger.charge_read(table.size_bytes, nfiles=1)
        return table

    def _eval_materialized(self, plan: MaterializedScan, ledger: CostLedger) -> Table:
        # Charging invariant (audited, pinned by a regression test in
        # tests/test_executor_costing.py): the *executor* owns the base
        # read charge for pool scans — one ``charge_read`` for the whole
        # view, or one batched ``charge_read(total, nfiles=n)`` across all
        # fragments.  ``pool.read_entry`` reads the payload with
        # ``charge_payload=False``, so it contributes **zero** base read
        # seconds / map tasks / bytes; it exists to route *fault* costs
        # (replica-damage penalties, lost-block recovery) onto the same
        # ledger.  There is no double charge.
        pool = self.context.pool
        if pool is None:
            raise PlanError("MaterializedScan requires a pool")
        if not plan.fragment_ids:
            entry = pool.whole_view_entry(plan.view_id)
            if entry is None:
                raise PlanError(f"whole view not resident: {plan.view_id!r}")
            ledger.charge_read(entry.size_bytes, nfiles=1)
            return pool.read_entry(entry.fragment_id, ledger)
        total_bytes = 0.0
        pieces: list[Table] = []
        clips = plan.clips or (None,) * len(plan.fragment_ids)
        if len(clips) != len(plan.fragment_ids):
            raise PlanError("clips must parallel fragment_ids")
        for fid, clip in zip(plan.fragment_ids, clips):
            entry = pool.get_fragment(fid)
            total_bytes += entry.size_bytes
            piece = pool.read_entry(fid, ledger)
            if clip is not None:
                if plan.attr is None:
                    raise PlanError("clipped scan requires the partition attr")
                piece = piece.filter(clip.mask(piece.column(plan.attr)))
            pieces.append(piece)
        ledger.charge_read(total_bytes, nfiles=len(plan.fragment_ids))
        return Table.concat_many(pieces)


# ----------------------------------------------------------------------
# Physical operators
# ----------------------------------------------------------------------
def hash_join(left: Table, right: Table, left_attr: str, right_attr: str) -> Table:
    """Equi-join, fully vectorized, preserving bag semantics.

    When the two key columns share a name, the right copy is dropped; any
    other name collision is an error (workload schemas use unique names).

    The probe comes from the cross-query caches of
    :mod:`repro.engine.indexes`.  A foreign-key join (distinct build-root
    keys, pair seen before) arrives already resolved to row ids: the
    matched probe rows and the build-root row each joins, gathered
    directly.  Any other join arrives as per-probe-row match ranges into
    the build side's stable sort order and is expanded here.  Either way
    output rows (values *and* order: probe rows ascending, ties in build
    order) are those of the uncached sort-and-search join.
    """
    collisions = (set(left.schema.names) & set(right.schema.names)) - {right_attr}
    if collisions:
        raise SchemaError(f"join would duplicate columns: {sorted(collisions)}")
    drop_right = {right_attr} if right_attr == left_attr else set()
    schema = left.schema.concat(right.schema, drop=drop_right)
    scale = max(left.scale, right.scale)

    probe = join_probe(left, right, left_attr, right_attr)
    if isinstance(probe, RowIdMatch):
        left_idx, rsrc, right_idx = probe
        if len(left_idx) == 0:
            return Table.empty(schema, scale)
    else:
        starts, ends, order = probe
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            return Table.empty(schema, scale)
        if total == int(np.count_nonzero(counts)):
            # Every probe row matches at most one build row: the general
            # expansion degenerates to ``within ≡ 0``, so the match
            # indices collapse to two direct gathers.
            left_idx = np.flatnonzero(counts)
            right_idx = order[starts[left_idx]]
        else:
            left_idx = np.repeat(np.arange(left.nrows), counts)
            offsets = np.zeros(left.nrows, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
            right_idx = order[np.repeat(starts, counts) + within]
        rsrc, rrows = _gather_source(right)
        if rrows is not None:
            right_idx = rrows[right_idx]

    # Gather fusion: when an input is a late-materialized single-root
    # view, compose its selection vector with the join indices so output
    # columns gather straight from the view's root — the payload columns
    # of a Select→Project→Join chain are touched at most once.
    lsrc, lrows = _gather_source(left)
    if lrows is not None:
        left_idx = lrows[left_idx]

    if lazy_views_enabled():
        # The join output itself stays late-materialized: columns the
        # plan projects away downstream are never gathered at all.
        side_of = {name: 0 for name in left.schema.names}
        side_of.update({name: 1 for name in right.schema.names if name not in drop_right})
        return JoinView(schema, scale, [(lsrc, left_idx), (rsrc, right_idx)], side_of)

    cols: dict[str, np.ndarray] = {}
    for name in left.schema.names:
        cols[name] = lsrc.column(name)[left_idx]
    for name in right.schema.names:
        if name in drop_right:
            continue
        cols[name] = rsrc.column(name)[right_idx]
    return Table(schema, cols, scale)


def _gather_source(table: Table) -> "tuple[Table, np.ndarray | None]":
    """``(source, rows)`` such that ``table.column(n) == source.column(n)[rows]``
    (``rows is None`` meaning identity).  Multi-root views are their own
    source — their columns gather lazily per name."""
    if isinstance(table, TableView):
        return table.gather_plan()
    return table, None


def _agg_output_column(table: Table, spec: AggSpec) -> Column:
    if spec.func == "count":
        return Column(spec.alias, ColumnKind.INT64)
    if spec.func == "avg":
        return Column(spec.alias, ColumnKind.FLOAT64)
    return Column(spec.alias, table.schema.column(spec.attr).kind)


def _pack_group_codes(
    keys: "list[np.ndarray]",
) -> "tuple[np.ndarray, list[int], list[int]] | None":
    """Mixed-radix pack of compact integer keys into one int64 code.

    The *last* key varies fastest (stride 1), so ascending packed codes
    enumerate key tuples in exactly the lexicographic order that
    ``np.lexsort(keys[::-1])`` sorts rows into — the group order the
    general aggregation path produces.  Returns ``(codes, los, radices)``
    for unpacking, or ``None`` when the combined key space is too large
    for an O(rows)-ish bucket array (the accumulating guard runs in
    arbitrary-precision Python ints, so a huge first key bails out before
    any packing arithmetic could overflow).
    """
    n = len(keys[0])
    los: list[int] = []
    radices: list[int] = []
    span_product = 1
    for key in keys:
        lo = int(key.min())
        radix = int(key.max()) - lo + 1
        los.append(lo)
        radices.append(radix)
        span_product *= radix
        if span_product > 8 * n + 1024:
            return None
    codes = np.zeros(n, dtype=np.int64)
    for key, lo, radix in zip(keys, los, radices):
        codes *= radix
        codes += key.astype(np.int64) - lo
    return codes, los, radices


def _aggregate_bincount(
    table: Table,
    out_schema: Schema,
    group_by: tuple[str, ...],
    raw_keys: "list[np.ndarray]",
    keys: "list[np.ndarray]",
    aggregates: tuple[AggSpec, ...],
) -> "Table | None":
    """Sort-free grouping for compact integer keys, or ``None``.

    Multiple keys mixed-radix-pack into one int64 code
    (:func:`_pack_group_codes`); ``np.bincount`` then buckets rows
    directly, so the stable argsort/lexsort the general path pays per
    call disappears.  The result is **bit-identical** to
    sort+``reduceat``, which constrains when this path may run:

    * Bins come out in ascending packed-code order — exactly the
      lexicographic group order the sorted path produces.  ``count``
      (pure integer arithmetic) is always safe.
    * ``sum``/``avg`` accumulate through ``bincount``'s float64 weights,
      a *different addition order* than ``reduceat``.  That is only
      bit-safe when every partial sum is exact, i.e. for integer inputs
      whose absolute row total stays below 2**53 — then every
      intermediate in either order is an exactly-represented integer and
      the results are equal bit-for-bit, not just approximately.
      Float inputs, ``min``/``max``, and unbounded magnitudes fall back
      to the sorted path.
    * The combined key span must be small (compact dictionary codes or
      dense dimension keys) so the bucket array stays O(rows).
    """
    packed = _pack_group_codes(keys)
    if packed is None:
        return None
    shifted, los, radices = packed
    plans: list[tuple[AggSpec, "np.ndarray | None"]] = []
    for spec in aggregates:
        if spec.func == "count":
            plans.append((spec, None))
            continue
        if spec.func not in ("sum", "avg"):
            return None
        vals = decoded(table.column(spec.attr))
        if vals.dtype.kind not in "iu":
            return None
        if vals.size and int(np.abs(vals).max()) * vals.size >= 2**53:
            return None
        plans.append((spec, vals))

    bucket_counts = np.bincount(shifted)
    present = np.flatnonzero(bucket_counts)
    sizes = bucket_counts[present]

    cols: dict[str, np.ndarray] = {}
    remainder = present
    digits: "list[np.ndarray]" = []
    for radix in reversed(radices):
        digits.append(remainder % radix)
        remainder = remainder // radix
    digits.reverse()
    for name, raw, key, digit, lo in zip(group_by, raw_keys, keys, digits, los):
        head = (digit + lo).astype(key.dtype)
        if isinstance(raw, EncodedColumn):
            cols[name] = EncodedColumn(head, raw.values)
        else:
            cols[name] = head.astype(raw.dtype)
    for spec, vals in plans:
        if vals is None:
            cols[spec.alias] = sizes.astype(np.int64)
            continue
        sums = np.bincount(shifted, weights=vals)[present]
        if spec.func == "avg":
            cols[spec.alias] = sums / sizes
        else:
            out_dtype = vals.dtype if vals.dtype == np.uint64 else np.int64
            cols[spec.alias] = sums.astype(out_dtype)
    return Table(out_schema, cols, table.scale)


def aggregate(table: Table, group_by: tuple[str, ...], aggregates: tuple[AggSpec, ...]) -> Table:
    """Group-by aggregation via sort + ``reduceat``.

    Encoded string group keys sort and compare by their int32 codes
    (sorted dictionaries make code order equal value order), and the
    output group columns stay encoded — no decode anywhere.  The row
    gather for aggregate inputs is computed once per distinct source
    attribute, not once per :class:`AggSpec`.
    """
    out_schema = Schema(
        tuple(table.schema.column(g) for g in group_by)
        + tuple(_agg_output_column(table, spec) for spec in aggregates)
    )
    if table.nrows == 0:
        return Table.empty(out_schema, table.scale)

    if group_by:
        raw_keys = [table.column(g) for g in group_by]
        keys = [sort_key(k) for k in raw_keys]
        if all(k.dtype.kind in "iu" for k in keys):
            fast = _aggregate_bincount(
                table, out_schema, group_by, raw_keys, keys, aggregates
            )
            if fast is not None:
                return fast
        if len(keys) == 1:
            # Stable argsort is the same permutation lexsort produces for
            # a single key; spelled directly so integer keys can take
            # numpy's non-comparison stable path.
            order = np.argsort(keys[0], kind="stable")
        else:
            order = np.lexsort(keys[::-1])
        sorted_keys = [k[order] for k in keys]
        is_new = np.zeros(table.nrows, dtype=bool)
        is_new[0] = True
        for k in sorted_keys:
            is_new[1:] |= k[1:] != k[:-1]
        starts = np.flatnonzero(is_new)
    else:
        order = np.arange(table.nrows)
        starts = np.array([0])

    group_sizes = np.diff(np.append(starts, table.nrows))
    cols: dict[str, np.ndarray] = {}
    if group_by:
        for name, raw, k in zip(group_by, raw_keys, sorted_keys):
            head = k[starts]
            if isinstance(raw, EncodedColumn):
                head = EncodedColumn(head, raw.values)
            cols[name] = head

    # One gather per distinct aggregate input attribute: several AggSpecs
    # over the same column (sum+avg of sales is the workload's common
    # shape) share a single ``values[order]`` materialization.
    gathered: dict[str, np.ndarray] = {}

    def sorted_values(attr: str) -> np.ndarray:
        values = gathered.get(attr)
        if values is None:
            values = decoded(table.column(attr))[order]
            gathered[attr] = values
        return values

    for spec in aggregates:
        if spec.func == "count":
            cols[spec.alias] = group_sizes.astype(np.int64)
            continue
        values = sorted_values(spec.attr)
        if spec.func == "sum":
            acc = values
            # Accumulate narrow integers in int64 to rule out silent
            # overflow; int64/float64 inputs pass through unchanged, so
            # existing results stay bit-identical.
            if acc.dtype.kind in "iu" and acc.dtype.itemsize < 8:
                acc = acc.astype(np.int64)
            cols[spec.alias] = np.add.reduceat(acc, starts)
        elif spec.func == "avg":
            cols[spec.alias] = np.add.reduceat(values.astype(np.float64), starts) / group_sizes
        elif spec.func == "min":
            cols[spec.alias] = np.minimum.reduceat(values, starts)
        elif spec.func == "max":
            cols[spec.alias] = np.maximum.reduceat(values, starts)
    return Table(out_schema, cols, table.scale)
