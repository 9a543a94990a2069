"""Experiment harness: run system variants over workloads, collect series.

Every benchmark in ``benchmarks/`` is a thin wrapper around this module:
it builds an instance + workload, calls :func:`run_systems`, and renders
the paper-shaped table with :mod:`repro.bench.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import caches
from repro.core.deepsea import DeepSea
from repro.core.reports import QueryReport
from repro.partitioning.intervals import Interval
from repro.query.algebra import Plan
from repro.workloads.bigbench import BigBenchInstance, generate_bigbench
from repro.workloads.sdss import (
    SDSSConfig,
    generate_sdss_log,
    sample_values_from_ranges,
)

SystemFactory = Callable[..., DeepSea]


@dataclass
class RunResult:
    """Everything recorded from running one system over one workload."""

    label: str
    reports: list[QueryReport]
    # Fault-injection event log (repro.faults), one line per fired fault
    # or completed recovery; empty for fault-free runs.
    fault_events: tuple[str, ...] = ()

    @property
    def total_s(self) -> float:
        return sum(r.total_s for r in self.reports)

    @property
    def fault_s(self) -> float:
        return sum(r.execution_ledger.fault_s + r.creation_ledger.fault_s for r in self.reports)

    @property
    def execution_s(self) -> float:
        return sum(r.execution_s for r in self.reports)

    @property
    def creation_s(self) -> float:
        return sum(r.creation_s for r in self.reports)

    @property
    def per_query_s(self) -> list[float]:
        return [r.total_s for r in self.reports]

    @property
    def cumulative_s(self) -> list[float]:
        return list(np.cumsum(self.per_query_s))

    @property
    def map_tasks(self) -> int:
        return sum(r.execution_ledger.map_tasks + r.creation_ledger.map_tasks for r in self.reports)

    @property
    def reuse_count(self) -> int:
        return sum(1 for r in self.reports if r.reused_view)

    def recoup_point(self, baseline_per_query: list[float]) -> int | None:
        """First query index (1-based) where cumulative time drops below the
        baseline's — the Figure-7b "queries to recoup" metric."""
        mine = self.cumulative_s
        base = list(np.cumsum(baseline_per_query))
        for i in range(min(len(mine), len(base))):
            if mine[i] <= base[i]:
                return i + 1
        return None


def run_system(label: str, system: DeepSea, plans: list[Plan]) -> RunResult:
    """Execute a workload on one system instance."""
    reports = [system.execute(p) for p in plans]
    events = system.faults.event_log() if system.faults is not None else ()
    return RunResult(label, reports, events)


def run_systems(
    factories: dict[str, Callable[[], DeepSea]], plans: list[Plan]
) -> dict[str, RunResult]:
    """Run the same workload through several freshly built systems, in order.

    Parallel runs go through picklable :class:`repro.parallel.tasks.RunTask`
    specs and :func:`repro.parallel.pool.fan_out`.
    """
    return {label: run_system(label, make(), plans) for label, make in factories.items()}


# ----------------------------------------------------------------------
# Shared experiment fixtures
# ----------------------------------------------------------------------
@dataclass
class SDSSFixture:
    """The §10.1 setup: SDSS log + SDSS-distributed BigBench instance."""

    instance: BigBenchInstance
    log: list[Interval]

    @property
    def catalog(self):
        return self.instance.catalog

    @property
    def domains(self):
        return self.instance.domains

    @property
    def item_domain(self) -> Interval:
        return self.instance.item_domain


# Fixture caches are bounded: a fixture holds a full scaled BigBench
# instance (hundreds of thousands of rows), and a long session sweeping
# scales (Table 1, Figure 7a) would otherwise pin every instance it ever
# built.  Insertion order is eviction order (plain dict FIFO).
_MAX_CACHED_FIXTURES = 4

_FIXTURE_CACHE: dict[tuple, SDSSFixture] = {}


def _admit_fixture(cache: dict, key: tuple, value) -> None:
    while len(cache) >= _MAX_CACHED_FIXTURES:
        cache.pop(next(iter(cache)))
    cache[key] = value


def sdss_fixture(
    instance_gb: float = 500.0,
    *,
    log_queries: int = 10_000,
    seed: int = 1,
    item_domain: Interval = Interval.closed(0, 40_000),
) -> SDSSFixture:
    """Build (and cache) the SDSS-patterned BigBench instance."""
    key = (instance_gb, log_queries, seed, item_domain)
    if key not in _FIXTURE_CACHE:
        log = generate_sdss_log(SDSSConfig(n_queries=log_queries))
        rng = np.random.default_rng(seed)
        values = sample_values_from_ranges(log, 50_000, item_domain, rng)
        instance = generate_bigbench(
            instance_gb, seed=seed, item_domain=item_domain, item_sk_values=values
        )
        _admit_fixture(_FIXTURE_CACHE, key, SDSSFixture(instance, log))
    return _FIXTURE_CACHE[key]


@dataclass
class UniformFixture:
    """Table-1 synthetic setup: uniform item distribution."""

    instance: BigBenchInstance

    @property
    def catalog(self):
        return self.instance.catalog

    @property
    def domains(self):
        return self.instance.domains

    @property
    def item_domain(self) -> Interval:
        return self.instance.item_domain


_UNIFORM_CACHE: dict[tuple, UniformFixture] = {}


def uniform_fixture(
    instance_gb: float = 100.0,
    *,
    seed: int = 1,
    item_domain: Interval = Interval.closed(0, 40_000),
) -> UniformFixture:
    key = (instance_gb, seed, item_domain)
    if key not in _UNIFORM_CACHE:
        instance = generate_bigbench(instance_gb, seed=seed, item_domain=item_domain)
        _admit_fixture(_UNIFORM_CACHE, key, UniformFixture(instance))
    return _UNIFORM_CACHE[key]


def _clear_fixture_caches() -> None:
    _FIXTURE_CACHE.clear()
    _UNIFORM_CACHE.clear()


def _fixture_cache_stats() -> dict:
    return {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "entries": len(_FIXTURE_CACHE) + len(_UNIFORM_CACHE),
    }


caches.register_cache("bench.harness.fixtures", _clear_fixture_caches, _fixture_cache_stats)


def clear_caches() -> None:
    """Reset every cross-query cache layer in the process.

    Covers the benchmark fixture caches plus all engine- and query-layer
    acceleration caches (join indexes and probes, signatures, plan
    analysis, pushdown, matcher memo).  Each of those registers itself
    with :mod:`repro.caches` at import time — this function simply clears
    the registry, so there is exactly one list of caches in the codebase
    and a new cache cannot be forgotten here or in the parallel runner's
    worker startup (which calls the same registry).  Every registered
    cache is semantically transparent, so clearing is never required for
    correctness — this exists for memory-bounded sessions and for tests
    that compare cold vs warm behaviour.
    """
    caches.clear_all_caches()
