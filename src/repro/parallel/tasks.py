"""Picklable task specs: rebuild work from configuration, not live objects.

A forked pool can inherit closures, but a spawned pool — and any future
distributed runner — needs units of work that survive ``pickle``.  A live
:class:`~repro.core.deepsea.DeepSea` instance drags a catalog of numpy
columns with it; a spec is a few dozen bytes that *rebuilds* the same
system deterministically on the other side:

* :class:`FixtureSpec` — which benchmark instance to (re)build; workers
  hit the fixture cache of :mod:`repro.bench.harness`, so repeated tasks
  on one worker share a single build.
* :class:`SystemSpec` — a factory *name* from :mod:`repro.baselines` plus
  keyword options.  ``pool_fraction`` is resolved against the fixture's
  catalog size at build time (the only option that needs the fixture).
* :class:`WorkloadSpec` — the seeded SDSS-mapped workload, rebuilt on
  the worker without shipping plan objects.
* :class:`RunTask` — one (system variant × workload) unit: what
  :func:`~repro.parallel.pool.fan_out` runs in parallel.

Everything here is frozen dataclasses of primitives, hashable and
byte-stable, which also makes task identity usable as a dedup/cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.bench.harness import RunResult
    from repro.core.deepsea import DeepSea
    from repro.query.algebra import Plan


@dataclass(frozen=True)
class FixtureSpec:
    """Recipe for one benchmark fixture (see ``repro.bench.harness``)."""

    kind: str  # "sdss" | "uniform"
    instance_gb: float
    seed: int = 1
    log_queries: int = 10_000  # sdss only

    def build(self):
        from repro.bench.harness import sdss_fixture, uniform_fixture

        if self.kind == "sdss":
            return sdss_fixture(self.instance_gb, log_queries=self.log_queries, seed=self.seed)
        if self.kind == "uniform":
            return uniform_fixture(self.instance_gb, seed=self.seed)
        raise ValueError(f"unknown fixture kind: {self.kind!r}")


@dataclass(frozen=True)
class SystemSpec:
    """A system variant by factory name, e.g. ``SystemSpec("deepsea")``.

    ``options`` are keyword arguments for the factory as a sorted tuple of
    pairs (kept hashable).  The virtual option ``pool_fraction`` becomes
    ``smax_bytes = fraction × catalog size`` at build time.
    """

    factory: str
    options: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, factory: str, **options: Any) -> "SystemSpec":
        return cls(factory, tuple(sorted(options.items())))

    def build(self, fixture) -> "DeepSea":
        import repro.baselines as baselines

        make = getattr(baselines, self.factory, None)
        if make is None or not callable(make):
            raise ValueError(f"unknown system factory: {self.factory!r}")
        kwargs = dict(self.options)
        fraction = kwargs.pop("pool_fraction", None)
        if fraction is not None:
            kwargs["smax_bytes"] = fixture.catalog.total_size_bytes * fraction
        return make(fixture.catalog, domains=fixture.domains, **kwargs)


@dataclass(frozen=True)
class WorkloadSpec:
    """A seeded SDSS-mapped workload."""

    n_queries: int
    seed: int = 2

    def build(self, fixture) -> "list[Plan]":
        from repro.workloads.generator import sdss_mapped_workload

        return sdss_mapped_workload(
            fixture.log, fixture.item_domain, n_queries=self.n_queries, seed=self.seed
        )


@dataclass(frozen=True)
class _ForkedFixture:
    """Fixture stand-in wrapping a forked catalog (ingest tasks)."""

    catalog: Any
    domains: Any


@dataclass(frozen=True)
class RunTask:
    """One fan-out unit: run ``system`` over ``workload`` on ``fixture``.

    ``faults`` is an optional fault-schedule reference — a built-in name
    or a ``FaultSchedule.to_json()`` string, kept as a plain string so
    the spec stays hashable and byte-stable across pickling.  The worker
    resolves it and mints a fresh seeded injector, so any worker count
    replays the identical fault sequence.
    """

    label: str
    system: SystemSpec
    fixture: FixtureSpec
    workload: WorkloadSpec
    faults: "str | None" = None
    # Ingest scenario name (repro.bench.ingest_bench.SCENARIOS): when
    # set, the run interleaves that scenario's deterministic micro-batch
    # schedule with the workload — batch k applies to ``store_sales``
    # right before its scheduled query — against a *fork* of the fixture
    # catalog (fixtures are cached and shared; appends must not leak into
    # other tasks).
    ingest: "str | None" = None

    def __call__(self) -> "RunResult":
        return self.run()

    def run(self) -> "RunResult":
        from repro.bench.harness import run_system

        fixture = self.fixture.build()
        plans = self.workload.build(fixture)
        if self.ingest is not None:
            return self._run_with_ingest(fixture, plans)
        system = self.system.build(fixture)
        if self.faults is not None:
            system.attach_faults(self.faults)
        return run_system(self.label, system, plans)

    def _run_with_ingest(self, fixture, plans) -> "RunResult":
        """Replay the scenario's batch schedule between the workload's
        queries — one deterministic interleaving for any worker count."""
        from repro.bench.harness import RunResult
        from repro.bench.ingest_bench import scenario_schedule

        catalog = fixture.catalog.fork()
        system = self.system.build(_ForkedFixture(catalog, fixture.domains))
        if self.faults is not None:
            system.attach_faults(self.faults)
        _, batches = scenario_schedule(
            self.ingest, len(plans), fixture.item_domain, self.workload.seed
        )
        by_index: dict[int, list] = {}
        for spec in batches:
            by_index.setdefault(spec.at, []).append(spec)
        id0 = catalog.get("store_sales").nrows

        reports = []
        for i, plan in enumerate(plans):
            for spec in by_index.get(i, ()):
                system.ingest("store_sales", spec.rows(id0))
            reports.append(system.execute(plan))
        events = system.faults.event_log() if system.faults is not None else ()
        return RunResult(self.label, reports, events)
