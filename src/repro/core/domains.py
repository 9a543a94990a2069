"""Attribute-domain resolution.

Partition candidate generation needs the bounded domain ``D(A)`` of every
partition attribute (Definition 7 clamps selections to it).  Domains can
be declared up front by the workload; otherwise the resolver derives them
lazily from the base data (min/max over any catalog table carrying the
column) and caches the answer.
"""

from __future__ import annotations

from repro.engine.catalog import Catalog
from repro.partitioning.intervals import Interval

_UNKNOWN = object()


class DomainResolver:
    """Resolves attribute names to bounded domains."""

    def __init__(self, catalog: Catalog, declared: dict[str, Interval] | None = None):
        self._catalog = catalog
        self._cache: dict[str, Interval | None] = dict(declared or {})
        # Moves whenever an answer may change: on ``declare``.  A derived
        # domain is cached at its first lookup and never changes after.
        self.version = 0

    def declare(self, attr: str, domain: Interval) -> None:
        self._cache[attr] = domain
        self.version += 1

    def __call__(self, attr: str) -> Interval | None:
        if attr in self._cache:
            return self._cache[attr]
        domain = self._derive(attr)
        self._cache[attr] = domain
        return domain

    def _derive(self, attr: str) -> Interval | None:
        for name in self._catalog.names:
            table = self._catalog.get(name)
            if attr not in table.schema:
                continue
            column = table.column(attr)
            if len(column) == 0:
                continue
            try:
                return Interval.closed(float(column.min()), float(column.max()))
            except (TypeError, ValueError):
                return None  # non-numeric column: not partitionable
        return None
