"""Per-query execution reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cost import CostLedger
from repro.engine.table import Table
from repro.query.algebra import Plan


@dataclass
class QueryReport:
    """Everything observed while processing one query."""

    index: int
    plan: Plan
    result: Table | None  # None when the caller asked for no answer
    execution_ledger: CostLedger
    creation_ledger: CostLedger
    view_used: str | None = None
    fragments_read: int = 0
    views_created: list[str] = field(default_factory=list)
    refinements: int = 0
    evictions: int = 0
    pool_bytes: float = 0.0

    @property
    def execution_s(self) -> float:
        """Simulated time answering the query (including view reads)."""
        return self.execution_ledger.total_seconds

    @property
    def creation_s(self) -> float:
        """Simulated overhead materializing / repartitioning this round."""
        return self.creation_ledger.total_seconds

    @property
    def total_s(self) -> float:
        return self.execution_s + self.creation_s

    @property
    def reused_view(self) -> bool:
        return self.view_used is not None
