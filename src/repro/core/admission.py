"""Value-ranked admission and eviction (§7.3).

The selection step treats every pool entry — candidate or resident,
fragment or whole view — uniformly: rank by value ``Φ`` and keep the best
prefix that fits in ``S_max``.  Applied online this becomes: to admit a
new entry, evict resident entries of *strictly lower* value until it
fits; if the space cannot be freed by cheaper entries, the candidate
loses and is not admitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine.table import Table
from repro.storage.pool import FragmentEntry, MaterializedViewPool

ValueFn = Callable[[FragmentEntry], float]


@dataclass
class AdmissionResult:
    admitted: bool
    evicted: list[FragmentEntry]


class AdmissionController:
    """Greedy Φ-ranked knapsack, applied incrementally.

    ``hysteresis`` dampens churn: a resident entry is only sacrificed for
    a candidate whose value exceeds the resident's by that factor.  Two
    entries of near-equal value would otherwise evict each other in
    alternating queries — the small-pool "oscillation" of §10.1.
    """

    def __init__(
        self,
        pool: MaterializedViewPool,
        value_fn: ValueFn,
        hysteresis: float = 1.25,
    ):
        self.pool = pool
        self.value_fn = value_fn
        self.hysteresis = hysteresis

    def plan_eviction(
        self, needed_bytes: float, candidate_value: float
    ) -> list[FragmentEntry] | None:
        """Entries to evict so ``needed_bytes`` fit, or ``None`` if impossible.

        Only entries whose value is clearly below ``candidate_value`` may
        be sacrificed — evicting an equal-or-better entry would not
        improve the configuration.
        """
        if self.pool.fits(needed_bytes):
            return []
        assert self.pool.smax_bytes is not None
        budget = self.pool.smax_bytes - self.pool.used_bytes
        threshold = candidate_value / self.hysteresis
        entries = self.pool.all_entries()
        values = [self.value_fn(entry) for entry in entries]  # each entry valued once
        victims: list[FragmentEntry] = []
        # Nothing below the bar (the usual refusal): no ranking needed.
        if values and min(values) < threshold:
            # (value, position) sorts as the stable sort by value does.
            for value, _, entry in sorted(zip(values, range(len(entries)), entries)):
                if budget + 1e-6 >= needed_bytes or value >= threshold:
                    break
                victims.append(entry)
                budget += entry.size_bytes
        if budget + 1e-6 >= needed_bytes:
            return victims
        return None

    def admit_whole_view(
        self, view_id: str, table: Table, candidate_value: float
    ) -> AdmissionResult:
        victims = self.plan_eviction(table.size_bytes, candidate_value)
        if victims is None:
            return AdmissionResult(False, [])
        for entry in victims:
            self.pool.evict(entry.fragment_id)
        self.pool.add_whole_view(view_id, table)
        return AdmissionResult(True, victims)

    def admit_fragment(
        self,
        view_id: str,
        attr: str,
        interval,
        table: Table,
        candidate_value: float,
    ) -> AdmissionResult:
        victims = self.plan_eviction(table.size_bytes, candidate_value)
        if victims is None:
            return AdmissionResult(False, [])
        for entry in victims:
            self.pool.evict(entry.fragment_id)
        self.pool.add_fragment(view_id, attr, interval, table)
        return AdmissionResult(True, victims)
