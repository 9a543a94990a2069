"""Selection pushdown — the conventional optimizer behaviour.

Vanilla Hive pushes selections below joins and aggregations to shrink
intermediate results; DeepSea deliberately keeps a selection *above* an
intermediate result it wants to materialize (§10.2: "our materialization
strategy requires that selections are not pushed down and hence we incur
a performance hit initially").  The baselines use :func:`push_down` for
every query; DeepSea uses it whenever the current query is not being
instrumented to materialize anything.
"""

from __future__ import annotations

from functools import lru_cache

from repro.caches import register_cache
from repro.query.algebra import Aggregate, Join, Plan, Project, Select
from repro.query.analysis import SchemaMap, interned_schemas, output_columns, schema_id
from repro.query.predicates import RangePredicate


def push_down(plan: Plan, schemas: SchemaMap) -> Plan:
    """Push every range selection as close to the leaves as possible.

    Pushdown is pure and plans are immutable, so results are memoized per
    ``(plan, schema_id(schemas))`` — each system optimizes the same query
    plan several times (cost estimation, instrumentation, direct execution).
    """
    return _push_down_cached(plan, schema_id(schemas))


@lru_cache(maxsize=16384)
def _push_down_cached(plan: Plan, sid: int) -> Plan:
    schemas = interned_schemas(sid)
    changed = True
    while changed:
        plan, changed = _push_once(plan, schemas)
    return plan


def _pushdown_cache_stats() -> dict:
    info = _push_down_cached.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "evictions": 0,
        "entries": info.currsize,
    }


register_cache("query.optimizer.pushdown", _push_down_cached.cache_clear, _pushdown_cache_stats)


def _with_select(plan: Plan, predicates: tuple[RangePredicate, ...]) -> Plan:
    return Select(plan, predicates) if predicates else plan


def _push_once(plan: Plan, schemas: SchemaMap) -> tuple[Plan, bool]:
    if isinstance(plan, Select):
        child, child_changed = _push_once(plan.child, schemas)
        pushed, self_changed = _push_select(Select(child, plan.predicates), schemas)
        return pushed, child_changed or self_changed
    if not plan.children:
        return plan, False
    new_children = []
    changed = False
    for c in plan.children:
        nc, ch = _push_once(c, schemas)
        new_children.append(nc)
        changed = changed or ch
    return (plan.with_children(tuple(new_children)) if changed else plan), changed


def _push_select(select: Select, schemas: SchemaMap) -> tuple[Plan, bool]:
    child = select.child
    preds = select.predicates

    if isinstance(child, Select):
        return Select(child.child, preds + child.predicates), True

    if isinstance(child, Join):
        left_cols = set(output_columns(child.left, schemas))
        right_cols = set(output_columns(child.right, schemas))
        to_left = tuple(p for p in preds if p.attr in left_cols)
        to_right = tuple(p for p in preds if p.attr not in left_cols and p.attr in right_cols)
        stay = tuple(p for p in preds if p.attr not in left_cols and p.attr not in right_cols)
        if not to_left and not to_right:
            return select, False
        new_join = Join(
            _with_select(child.left, to_left),
            _with_select(child.right, to_right),
            child.left_attr,
            child.right_attr,
        )
        return _with_select(new_join, stay), True

    if isinstance(child, Aggregate):
        below = tuple(p for p in preds if p.attr in child.group_by)
        stay = tuple(p for p in preds if p.attr not in child.group_by)
        if not below:
            return select, False
        new_agg = Aggregate(_with_select(child.child, below), child.group_by, child.aggregates)
        return _with_select(new_agg, stay), True

    if isinstance(child, Project):
        child_cols = set(output_columns(child.child, schemas))
        movable = tuple(p for p in preds if p.attr in child_cols)
        stay = tuple(p for p in preds if p.attr not in child_cols)
        if not movable:
            return select, False
        new_proj = Project(_with_select(child.child, movable), child.columns)
        return _with_select(new_proj, stay), True

    return select, False
