"""Experiment harness: run system variants over workloads, collect series.

Every benchmark in ``benchmarks/`` is a thin wrapper around this module:
it builds an instance + workload, calls :func:`run_systems`, and renders
the paper-shaped table with :mod:`repro.bench.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.bench.profile import WallClockProfiler

from repro import caches
from repro.core.deepsea import DeepSea
from repro.core.reports import QueryReport

# Re-exported for compatibility: the prewarm pass lives with the worker
# pools it serves.
from repro.parallel.prewarm import prewarm_shared_caches  # noqa: F401
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


@dataclass
class WorkerTelemetry:
    """What one fan-out unit observed about its own process."""

    pid: int
    profile: dict | None
    caches: dict


def run_system(
    label: str,
    system: DeepSea,
    plans: list[Plan],
    profiler: "WallClockProfiler | None" = None,
) -> RunResult:
    """Execute a workload on one system instance.

    An optional :class:`~repro.bench.profile.WallClockProfiler` is
    attached for the duration of the run, charging real seconds to the
    matching / selection / execution / materialization stages.  Profiling
    never touches the simulated ledgers.
    """
    if profiler is not None:
        system.profiler = profiler
    try:
        reports = [system.execute(p) for p in plans]
        events = system.faults.event_log() if system.faults is not None else ()
        return RunResult(label, reports, events)
    finally:
        if profiler is not None:
            system.profiler = None


def run_systems(
    factories: dict[str, Callable[[], DeepSea]],
    plans: list[Plan],
    profilers: "dict[str, WallClockProfiler] | None" = None,
    *,
    workers: int = 0,
    telemetry: "dict[str, WorkerTelemetry] | None" = None,
    scheduler: str = "static",
    stateless: "tuple[str, ...]" = (),
    worker_stats: "list[dict] | None" = None,
    catalog=None,
) -> dict[str, RunResult]:
    """Run the same workload through several freshly built systems.

    With ``workers >= 2`` each (system × workload) run becomes one task
    of a forked process pool (:func:`repro.parallel.pool.fan_out`): every
    worker starts cache-cold (per-worker ``clear_all_caches`` isolation)
    and results merge back in the factories' dict order, so ledgers and
    result tables are byte-identical to a serial run for any worker
    count.  ``workers <= 1`` is the unchanged serial path.

    ``scheduler="steal"`` (with ``workers >= 2``) replaces the static
    per-system split with the work-stealing pool
    (:func:`repro.parallel.pool.steal_map`): persistent *warm-forked*
    workers pull run units off a shared deque, and any system named in
    ``stateless`` — one whose per-query outputs don't depend on earlier
    queries, like the H baseline — is cut into contiguous query slices
    so its work load-balances across the pool instead of pinning one
    worker.  Results merge back identically (slices concatenate in query
    order); ``worker_stats``, when given, collects one per-worker dict of
    cache-counter deltas for the profile JSON.  With ``catalog`` supplied
    the parent runs :func:`prewarm_shared_caches` before forking, so the
    warm workers inherit the plan memos and base-table join indexes
    instead of each rebuilding them.

    ``profilers`` maps labels to :class:`WallClockProfiler` instances; in
    parallel mode each task profiles in its own process and the worker's
    totals are merged into the caller's profiler afterwards.  When a
    ``telemetry`` dict is supplied it is filled with one
    :class:`WorkerTelemetry` per label (worker pid, profile, cache
    counters) — the per-worker breakdown of ``python -m repro profile``
    (static/serial schedulers only; the steal pool reports per worker,
    not per label, via ``worker_stats``).
    """
    profilers = profilers or {}
    labels = list(factories)
    if scheduler not in ("static", "steal"):
        raise ValueError(f"unknown scheduler: {scheduler!r}")
    if scheduler == "steal" and workers >= 2 and len(labels) >= 1:
        from repro.bench.profile import WallClockProfiler
        from repro.parallel.pool import steal_map

        if catalog is not None:
            prewarm_shared_caches(plans, catalog)

        def whole_task(label: str, make: Callable[[], DeepSea], profiled: bool) -> Callable:
            def run() -> "tuple[list[QueryReport], WallClockProfiler | None, tuple]":
                prof = WallClockProfiler() if profiled else None
                result = run_system(label, make(), plans, prof)
                return result.reports, prof, result.fault_events

            return run

        def slice_task(
            label: str, make: Callable[[], DeepSea], profiled: bool, start: int, stop: int
        ) -> Callable:
            def run() -> "tuple[list[QueryReport], WallClockProfiler | None, tuple]":
                prof = WallClockProfiler() if profiled else None
                system = make()
                # Clock offset keeps slice report indexes identical to the
                # same queries inside a whole serial run.
                system.clock = start
                result = run_system(label, system, plans[start:stop], prof)
                return result.reports, prof, result.fault_events

            return run

        n_slices = max(2, workers)
        units: "list[tuple[str, int]]" = []  # (label, slice ordinal)
        thunks: list[Callable] = []
        for label, make in factories.items():
            profiled = label in profilers
            if label in stateless and len(plans) >= 2 * n_slices:
                bounds = np.linspace(0, len(plans), n_slices + 1).astype(int)
                for ordinal, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
                    units.append((label, ordinal))
                    thunks.append(slice_task(label, make, profiled, int(start), int(stop)))
            else:
                units.append((label, 0))
                thunks.append(whole_task(label, make, profiled))
        outputs = steal_map(thunks, workers, chunk_size=1, worker_stats=worker_stats)
        merged_reports: dict[str, list[QueryReport]] = {label: [] for label in labels}
        merged_events: dict[str, tuple] = {label: () for label in labels}
        for (label, _), (reports, prof, events) in zip(units, outputs):
            merged_reports[label].extend(reports)  # units are in slice order
            merged_events[label] = merged_events[label] + tuple(events)
            if prof is not None:
                profilers[label].merge(prof)
        return {
            label: RunResult(label, merged_reports[label], merged_events[label])
            for label in labels
        }
    if workers >= 2 and len(labels) > 1:
        from repro.bench.profile import WallClockProfiler
        from repro.parallel.pool import fan_out

        def task(label: str, make: Callable[[], DeepSea]) -> Callable:
            profiled = label in profilers

            def run() -> tuple[RunResult, "WallClockProfiler | None", WorkerTelemetry]:
                import os

                from repro.caches import cache_stats

                prof = WallClockProfiler() if profiled else None
                result = run_system(label, make(), plans, prof)
                info = WorkerTelemetry(os.getpid(), prof.report() if prof else None, cache_stats())
                return result, prof, info

            return run

        outputs = fan_out([task(l, m) for l, m in factories.items()], workers)
        results: dict[str, RunResult] = {}
        for label, (result, prof, info) in zip(labels, outputs):
            if prof is not None:
                profilers[label].merge(prof)
            if telemetry is not None:
                telemetry[label] = info
            results[label] = result
        return results

    results = {}
    for label, make in factories.items():
        results[label] = run_system(label, make(), plans, profilers.get(label))
        if telemetry is not None:
            import os

            from repro.caches import cache_stats

            prof = profilers.get(label)
            telemetry[label] = WorkerTelemetry(
                os.getpid(), prof.report() if prof else None, cache_stats()
            )
    return results


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
