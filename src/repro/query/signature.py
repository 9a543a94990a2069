"""Query signatures in the style of Goldstein and Larson (§8.1).

A signature abstracts a plan away from its syntax: it records the multiset
of base relations, the attribute equivalence classes induced by the
equi-joins, per-attribute selection ranges (normalized onto each
equivalence class's representative), the ordered output columns, and the
aggregation shape.  Two plans that differ only in join order or in where
commuting selections sit produce the same signature, which is what makes
DeepSea's matching *logical* rather than physical (§2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from repro.caches import register_cache
from repro.errors import PlanError
from repro.partitioning.intervals import Interval
from repro.query.algebra import Aggregate, AggSpec, MaterializedScan, Plan, walk
from repro.query.analysis import (
    SchemaMap,
    class_representative,
    collect_ranges,
    join_equivalence_classes,
    output_columns,
    schema_id,
)
from repro.query.algebra import base_relations


@dataclass(frozen=True)
class Signature:
    """Syntax-independent description of a query or view."""

    relations: tuple[str, ...]
    join_classes: frozenset[frozenset[str]]
    ranges: tuple[tuple[str, Interval], ...]
    output: tuple[str, ...]
    group_by: tuple[str, ...] | None
    aggregates: tuple[AggSpec, ...] | None

    @property
    def output_set(self) -> frozenset[str]:
        return frozenset(self.output)

    @property
    def range_map(self) -> dict[str, Interval]:
        # Built once per instance (signatures are shared via the memo
        # below and matching reads this on every candidate check).
        # Callers treat the dict as read-only.  Direct __dict__ write:
        # the dataclass is frozen but instance dicts are writable.
        cached = self.__dict__.get("_range_map")
        if cached is None:
            cached = self.__dict__["_range_map"] = dict(self.ranges)
        return cached

    @property
    def agg_key(self) -> tuple:
        """Hashable aggregation shape, used as a filter-tree level.

        Built once per instance, like ``range_map``: every filter-tree
        lookup reads it, and sorting the aggregates by ``repr`` is dear.
        """
        cached = self.__dict__.get("_agg_key")
        if cached is None:
            if self.group_by is None:
                cached = ("none",)
            else:
                cached = (tuple(sorted(self.group_by)), tuple(sorted(self.aggregates, key=repr)))
            self.__dict__["_agg_key"] = cached
        return cached


# Signature computation is pure in (plan, schemas) and called repeatedly
# for the same subplans — by candidate registration, matching, and benefit
# estimation within a single query, and across queries for recurring plan
# shapes.  Memoize on plan identity (structural hash of the frozen plan
# tree) plus a small id naming the schema map's contents.
_SIGNATURE_CACHE: dict[tuple, Signature] = {}
_SIGNATURE_CACHE_MAX = 65_536
_SIGNATURE_COUNTERS = {"hits": 0, "misses": 0, "evictions": 0}


def compute_signature(plan: Plan, schemas: SchemaMap) -> Signature:
    """Build the signature of a plan over base relations (memoized).

    Plans containing ``MaterializedScan`` are rejected: signatures are
    only computed over *definitions* (queries and candidate views), never
    over already-rewritten plans.
    """
    key = (plan, schema_id(schemas))
    cached = _SIGNATURE_CACHE.get(key)
    if cached is not None:
        _SIGNATURE_COUNTERS["hits"] += 1
        return cached
    _SIGNATURE_COUNTERS["misses"] += 1
    signature = _compute_signature(plan, schemas)
    if len(_SIGNATURE_CACHE) >= _SIGNATURE_CACHE_MAX:
        _SIGNATURE_CACHE.pop(next(iter(_SIGNATURE_CACHE)))
        _SIGNATURE_COUNTERS["evictions"] += 1
    _SIGNATURE_CACHE[key] = signature
    return signature


def _compute_signature(plan: Plan, schemas: SchemaMap) -> Signature:
    if any(isinstance(n, MaterializedScan) for n in walk(plan)):
        raise PlanError("signatures are computed over base-relation plans only")

    aggregates = [n for n in walk(plan) if isinstance(n, Aggregate)]
    if len(aggregates) > 1:
        raise PlanError("at most one aggregation level is supported")
    agg = aggregates[0] if aggregates else None

    classes = join_equivalence_classes(plan)
    raw_ranges = collect_ranges(plan)
    normalized: dict[str, Interval] = {}
    for attr, interval in raw_ranges.items():
        rep = class_representative(attr, classes)
        if rep in normalized:
            merged = normalized[rep].intersect(interval)
            normalized[rep] = merged if merged is not None else Interval.point(float("inf"))
        else:
            normalized[rep] = interval

    return Signature(
        relations=base_relations(plan),
        join_classes=classes,
        ranges=tuple(sorted(normalized.items())),
        output=output_columns(plan, schemas),
        group_by=agg.group_by if agg else None,
        aggregates=agg.aggregates if agg else None,
    )


@lru_cache(maxsize=65_536)
def view_id_for(plan: Plan) -> str:
    """Deterministic short identifier for a view defined by ``plan``.

    Uses the structural repr of the frozen plan dataclasses, which is
    stable across processes.  Memoized: the repr of a deep plan tree is
    O(plan size) to build and candidate registration derives ids for the
    same subplans on every query.
    """
    digest = hashlib.blake2b(repr(plan).encode(), digest_size=6).hexdigest()
    return f"v_{digest}"


def clear_signature_caches() -> None:
    """Drop memoized signatures and view ids (tests / long-lived sessions)."""
    _SIGNATURE_CACHE.clear()
    for name in _SIGNATURE_COUNTERS:
        _SIGNATURE_COUNTERS[name] = 0
    view_id_for.cache_clear()


def _signature_cache_stats() -> dict:
    """The signature memo's own counters plus ``view_id_for``'s."""
    info = view_id_for.cache_info()
    return {
        "hits": _SIGNATURE_COUNTERS["hits"] + info.hits,
        "misses": _SIGNATURE_COUNTERS["misses"] + info.misses,
        "evictions": _SIGNATURE_COUNTERS["evictions"],
        "entries": len(_SIGNATURE_CACHE) + info.currsize,
    }


register_cache("query.signature", clear_signature_caches, _signature_cache_stats)
