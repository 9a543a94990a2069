"""Static plan analysis: output schemas, range collection, join classes.

These helpers underpin signature computation (§8.1), selection pushdown
(the vanilla-Hive baseline's optimizer behaviour), and candidate
generation.  They need to know base-table schemas, supplied as a mapping
``relation name -> ordered column names``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

from repro.caches import register_cache
from repro.errors import PlanError
from repro.partitioning.intervals import Interval
from repro.query.algebra import (
    Aggregate,
    Join,
    MaterializedScan,
    Plan,
    Project,
    Relation,
    Select,
    walk,
)

SchemaMap = dict[str, tuple[str, ...]]

# Schema maps by dict identity -> the id of their contents, interned so that
# equal maps share memo entries (signatures, pushdown) and a memo key hashes
# a small int instead of a snapshot of every column name.  Holding a strong
# reference to the dict pins its id (no reuse after GC), and the ``is``
# check rejects id collisions outright, so the only way to observe a stale
# id is in-place mutation of a schema map — which no caller does (schema
# maps are built once per catalog).  A content's id is never reused, so the
# memos keyed on ids need no common reset; clearing drops only the identity
# table, which re-derives the same ids.
_SCHEMA_IDS: dict[int, tuple[SchemaMap, int]] = {}
_SNAPSHOT_IDS: dict[tuple, int] = {}
_INTERNED: list[SchemaMap] = []  # id -> the first map seen with its contents
_INTERN_LOCK = threading.Lock()


def schema_id(schemas: SchemaMap) -> int:
    """A small int naming the contents of ``schemas``; equal maps share it."""
    entry = _SCHEMA_IDS.get(id(schemas))
    if entry is None or entry[0] is not schemas:
        with _INTERN_LOCK:
            snapshot = tuple(sorted(schemas.items()))
            sid = _SNAPSHOT_IDS.setdefault(snapshot, len(_INTERNED))
            if sid == len(_INTERNED):
                _INTERNED.append(schemas)
            entry = _SCHEMA_IDS[id(schemas)] = (schemas, sid)
    return entry[1]


def interned_schemas(sid: int) -> SchemaMap:
    """A schema map whose contents :func:`schema_id` named ``sid``."""
    return _INTERNED[sid]


def output_columns(plan: Plan, schemas: SchemaMap) -> tuple[str, ...]:
    """Ordered output column names of a plan (mirrors executor semantics)."""
    if isinstance(plan, Relation):
        try:
            return schemas[plan.name]
        except KeyError:
            raise PlanError(f"unknown relation in schema map: {plan.name!r}") from None
    if isinstance(plan, (Select,)):
        return output_columns(plan.child, schemas)
    if isinstance(plan, Project):
        return plan.columns
    if isinstance(plan, Join):
        left = output_columns(plan.left, schemas)
        right = output_columns(plan.right, schemas)
        drop = {plan.right_attr} if plan.right_attr == plan.left_attr else set()
        return left + tuple(c for c in right if c not in drop)
    if isinstance(plan, Aggregate):
        return plan.group_by + tuple(a.alias for a in plan.aggregates)
    if isinstance(plan, MaterializedScan):
        raise PlanError("output_columns over MaterializedScan requires the pool")
    raise PlanError(f"cannot infer schema of {type(plan).__name__}")


def collect_ranges(plan: Plan) -> dict[str, Interval]:
    """Per-attribute intersection of every range predicate in the plan.

    An unsatisfiable conjunction collapses to a point interval at +inf,
    which no finite value matches — semantically an empty selection, and
    (unlike NaN) equal to itself so signatures remain comparable.
    """
    ranges: dict[str, Interval] = {}
    for node in walk(plan):
        if not isinstance(node, Select):
            continue
        for pred in node.predicates:
            if pred.attr in ranges:
                merged = ranges[pred.attr].intersect(pred.interval)
                if merged is None:
                    merged = Interval.point(float("inf"))
                ranges[pred.attr] = merged
            else:
                ranges[pred.attr] = pred.interval
    return ranges


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self._parent.setdefault(x, x)
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)

    def classes(self) -> frozenset[frozenset[str]]:
        groups: dict[str, set[str]] = {}
        for member in self._parent:
            groups.setdefault(self.find(member), set()).add(member)
        return frozenset(frozenset(g) for g in groups.values() if len(g) > 1)


def join_equivalence_classes(plan: Plan) -> frozenset[frozenset[str]]:
    """Attribute equivalence classes induced by the plan's equi-joins."""
    uf = _UnionFind()
    for node in walk(plan):
        if isinstance(node, Join):
            uf.union(node.left_attr, node.right_attr)
    return uf.classes()


def class_representative(attr: str, classes: frozenset[frozenset[str]]) -> str:
    """Canonical member (sorted-first) of the class containing ``attr``."""
    for cls in classes:
        if attr in cls:
            return min(cls)
    return attr


def class_members(attr: str, classes: frozenset[frozenset[str]]) -> frozenset[str]:
    for cls in classes:
        if attr in cls:
            return cls
    return frozenset({attr})


@dataclass(frozen=True)
class PlanAnalysis:
    """Job structure of a plan, derived in one traversal.

    ``boundaries`` must be treated as read-only: instances are shared by
    the memo below across every caller that analyses an equal plan.
    """

    boundaries: frozenset[Plan]
    job_ops: int  # Join/Aggregate node count (each tree occurrence counts)
    # Whether any leaf reads the materialized-view pool.  The subplan
    # result cache keys such plans on a per-view cover-version vector and
    # pure base-relation plans on the catalog alone.
    has_materialized: bool = False
    # Sorted, deduplicated view ids of every MaterializedScan leaf — the
    # views whose pool state the plan's result can depend on.  The result
    # cache keys pool-reading plans on exactly these views' cover
    # versions, so mutations to disjoint views leave entries valid.
    view_ids: tuple[str, ...] = ()


@lru_cache(maxsize=4096)
def analyze_plan(plan: Plan) -> PlanAnalysis:
    """Job boundaries and job-operator count in a single plan traversal.

    Memoized on the (structurally hashed) plan: the executor, the cost
    estimator, and the instrumentation all ask the same question about the
    same plans many times per query, and plans are immutable.
    """
    nodes = list(walk(plan))
    projected = {node.child for node in nodes if isinstance(node, Project)}
    boundaries: set[Plan] = set()
    job_ops = 0
    view_ids = tuple(
        sorted({node.view_id for node in nodes if isinstance(node, MaterializedScan)})
    )
    has_materialized = bool(view_ids)
    for node in nodes:
        if isinstance(node, (Join, Aggregate)):
            job_ops += 1
            if node not in projected:
                boundaries.add(node)
            continue
        if isinstance(node, Project) and node not in projected:
            base = node.child
            while isinstance(base, Project):
                base = base.child
            if isinstance(base, (Join, Aggregate)):
                boundaries.add(node)
    return PlanAnalysis(frozenset(boundaries), job_ops, has_materialized, view_ids)


def job_boundaries(plan: Plan) -> frozenset[Plan]:
    """Nodes whose output a MapReduce engine writes to the file system.

    Every join and aggregation is its own MR job, and Hive folds a chain
    of projections directly above the operator into the same job — so the
    written output is the *projected* result.  These are exactly the
    intermediate results DeepSea can keep as views for free (§2), and the
    cost model charges an HDFS write for each of them, including the root
    (the final query result is written too).

    A selection between the projection and the operator is *not* folded:
    DeepSea deliberately keeps the query's range selection out of the
    materialized intermediate (§10.2), so the boundary payload is the
    pre-selection result.
    """
    return analyze_plan(plan).boundaries


def clear_analysis_cache() -> None:
    """Drop memoized plan analyses (tests / long-lived sessions)."""
    analyze_plan.cache_clear()
    with _INTERN_LOCK:
        _SCHEMA_IDS.clear()


def _analysis_cache_stats() -> dict:
    info = analyze_plan.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "evictions": 0,
        "entries": info.currsize,
    }


register_cache("query.analysis", clear_analysis_cache, _analysis_cache_stats)
