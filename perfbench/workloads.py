"""The six workloads: inputs made from a seed, the system under test, the
driver that times it, and the oracle that checks every answer.

The seed reaches only the input generators (``sdss_mapped_workload``,
the Zipf draws, ``scenario_schedule``); the system under test sees plans
and batches, never the seed.  The view pool starts empty in every
workload: adapting from nothing is what the paper measures and what a
user pays.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import caches
from repro.baselines import deepsea, hive
from repro.bench.harness import sdss_fixture
from repro.bench.ingest_bench import (
    BatchSpec,
    scenario_plans,
    scenario_schedule,
    verify_pool_identity,
)
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.types import decoded
from repro.query.optimizer import push_down
from repro.serve import QueryService
from repro.workloads.bigbench import TEMPLATES
from repro.workloads.generator import sdss_mapped_workload

from perfbench import trace

INSTANCE_GB = 500.0
WARMUP_QUERIES = 20
# serve_closed: a closed loop of this many outstanding tickets over as many
# reader threads.  The box has 2 cores; more clients would only queue.
SERVE_CLIENTS = 2
SERVE_QUEUE_DEPTH = 32
SERVE_DEADLINE_S = 5.0
HOT_PLANS_PER_TEMPLATE = 20  # times ten templates: 200 distinct plans
HOT_ZIPF_EXPONENT = 1.1
INGEST_EVERY = 6
INGEST_ROWS = 400
INGEST_TABLE = "store_sales"
# direct_engine is the oracle of the other workloads, so its own check is
# only a re-execution with the result cache bypassed, on a sample.
DIRECT_CHECK_EVERY = 25


@dataclass
class Inputs:
    """What one workload feeds the system, all of it made from the seed."""

    catalog: object
    domains: dict
    plans: list
    # query index -> rows to ingest into INGEST_TABLE before that query
    batches: dict = field(default_factory=dict)


@dataclass
class Stretch:
    """Everything observed during the measured stretch of one session."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    query_s: list = field(default_factory=list)  # wall seconds per attempted query
    sim_s: list = field(default_factory=list)  # simulated seconds per answered query
    answers: list = field(default_factory=list)  # result Table, or None when not answered
    ingest_s: list = field(default_factory=list)  # wall seconds per ingest batch
    maint_sim_s: list = field(default_factory=list)  # simulated upkeep per applied batch
    # (first query index, catalog as it was from that query on); ingest
    # installs new tables instead of mutating, so a fork is a frozen view.
    epochs: list = field(default_factory=list)
    # How many leading queries the exactly repeating numbers are read over.
    prefix: int = 0
    problems: list = field(default_factory=list)  # one line per failure
    failed: int = 0
    checks: int = 0  # invariants checked after the stretch; they can fail too
    service_metrics: "dict | None" = None

    @property
    def attempted(self) -> int:
        return len(self.answers) + len(self.ingest_s) + self.checks


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def sdss_plans(fx, n: int, seed: int) -> list:
    """``n`` SDSS-mapped plans in log order, every template equally often.

    ``sdss_mapped_workload`` draws a template per query; over the few
    hundred queries of one session that multinomial mix alone moved
    throughput by several percent between seeds, and ingest cost (which
    hinges on how many views read the ingested table) by far more.  So
    each template gets its own stream from the generator and query ``i``
    takes the next plan of template ``i mod 10``: the seed decides the
    ranges, not how often each template runs.
    """
    names = sorted(TEMPLATES)
    per_template = -(-n // len(names))
    streams = [
        sdss_mapped_workload(
            fx.log, fx.item_domain, n_queries=per_template, templates=[name],
            seed=seed * len(names) + k,
        )
        for k, name in enumerate(names)
    ]
    return [streams[i % len(names)][i // len(names)] for i in range(n)]


def _sdss_inputs(seed: int, n: int) -> Inputs:
    fx = sdss_fixture(INSTANCE_GB)
    return Inputs(fx.catalog, fx.domains, sdss_plans(fx, n, seed))


def _repeat_hot_inputs(seed: int, n: int) -> Inputs:
    """Templates equally popular, plans within a template Zipf-popular: the
    seed decides which ranges are hot, not which template is (a hot cheap
    template against a hot costly one moved throughput by half)."""
    fx = sdss_fixture(INSTANCE_GB)
    n_templates = len(TEMPLATES)
    distinct = sdss_plans(fx, HOT_PLANS_PER_TEMPLATE * n_templates, seed)
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, HOT_PLANS_PER_TEMPLATE + 1) ** HOT_ZIPF_EXPONENT
    ranks = rng.choice(HOT_PLANS_PER_TEMPLATE, size=n, p=popularity / popularity.sum())
    # distinct[t + 10 * j] is template t's j-th plan; shuffle which is hottest.
    hottest = [rng.permutation(HOT_PLANS_PER_TEMPLATE) for _ in range(n_templates)]
    plans = [
        distinct[i % n_templates + n_templates * hottest[i % n_templates][rank]]
        for i, rank in enumerate(ranks)
    ]
    return Inputs(fx.catalog, fx.domains, plans)


def _ingest_mix_inputs(seed: int, n: int) -> Inputs:
    fx = sdss_fixture(INSTANCE_GB)
    # Ingest replaces tables in the catalog; the fixture is cached and shared.
    catalog = fx.catalog.fork(("perfbench", "ingest_mix", seed, n))
    n_drip = (n + 1) // 2
    ranges, _ = scenario_schedule("drip", n_drip, fx.item_domain, seed)
    drip = scenario_plans(ranges)
    mapped = sdss_plans(fx, n - n_drip, seed)
    plans = [drip[i // 2] if i % 2 == 0 else mapped[i // 2] for i in range(n)]
    id0 = catalog.get(INGEST_TABLE).nrows
    lo, hi = int(fx.item_domain.lo), int(fx.item_domain.hi)
    batches = {
        at: BatchSpec(at, INGEST_ROWS, lo, hi, k * INGEST_ROWS, seed).rows(id0)
        for k, at in enumerate(range(INGEST_EVERY - 1, n, INGEST_EVERY))
    }
    return Inputs(catalog, fx.domains, plans, batches)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _failure(stretch: Stretch, what: str) -> None:
    stretch.failed += 1
    stretch.problems.append(f"{what}: {traceback.format_exc(limit=3).strip()}")


def drive_batch(system, inputs: Inputs, seconds: float, recorder) -> Stretch:
    """One caller, one query at a time, until the stream or the time ends."""
    if recorder is not None:
        trace.install(recorder, system)
    stretch = Stretch(epochs=[(0, system.catalog.fork())])
    batches = inputs.batches
    cpu0 = time.process_time()
    start = before = time.perf_counter()
    deadline = start + seconds
    for i, plan in enumerate(inputs.plans):
        rows = batches.get(i)
        if rows is not None:
            try:
                stretch.maint_sim_s.append(system.ingest(INGEST_TABLE, rows).maint_s)
            except Exception:
                _failure(stretch, f"ingest before query {i}")
            now = time.perf_counter()
            stretch.ingest_s.append(now - before)
            stretch.epochs.append((i, system.catalog.fork()))
            before = now
        try:
            report = system.execute(plan)
        except Exception:
            _failure(stretch, f"query {i}")
            stretch.answers.append(None)
        else:
            stretch.answers.append(report.result)
            stretch.sim_s.append(report.total_s)
        now = time.perf_counter()
        stretch.query_s.append(now - before)
        before = now
        if now >= deadline:
            break
    stretch.wall_s = before - start
    stretch.cpu_s = time.process_time() - cpu0
    return stretch


def drive_serve(system, inputs: Inputs, seconds: float, recorder) -> Stretch:
    """Closed loop: SERVE_CLIENTS tickets outstanding, the next submitted
    when the oldest resolves, against readers plus the adapting writer."""
    service = QueryService(
        system,
        workers=SERVE_CLIENTS,
        queue_depth=SERVE_QUEUE_DEPTH,
        deadline_s=SERVE_DEADLINE_S,
    )
    if recorder is not None:
        trace.install(recorder, system, service)
    stretch = Stretch(epochs=[(0, system.catalog.fork())])
    pending = iter(inputs.plans)
    outstanding: deque = deque()

    def submit() -> None:
        plan = next(pending, None)
        if plan is not None:
            outstanding.append(service.submit(plan))

    service.start()
    try:
        cpu0 = time.process_time()
        start = now = time.perf_counter()
        deadline = start + seconds
        for _ in range(SERVE_CLIENTS):
            submit()
        while outstanding:
            ticket = outstanding.popleft()
            outcome = ticket.result(timeout=4 * SERVE_DEADLINE_S)
            now = time.perf_counter()
            if outcome is not None and outcome.status == "answered":
                stretch.answers.append(outcome.table)
                stretch.sim_s.append(outcome.sim_cost_s)
                stretch.query_s.append(outcome.latency_s)
            else:
                what = "unresolved" if outcome is None else f"{outcome.status}, {outcome.error_kind}"
                stretch.failed += 1
                stretch.problems.append(f"query {len(stretch.answers)}: {what}")
                stretch.answers.append(None)
                stretch.query_s.append(time.monotonic() - ticket.submitted)
            if now < deadline:
                submit()
        stretch.wall_s = now - start
        stretch.cpu_s = time.process_time() - cpu0
    finally:
        # Adaptation the writer has not reached is not part of the stretch.
        service.stop(drain_writer=False)
    stretch.service_metrics = service.metrics()
    return stretch


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def reference_answer(plan, catalog, system):
    """Direct base-table execution: no pool, no result cache."""
    executor = Executor(ExecutionContext(catalog, None, system.cluster))
    return executor.execute(push_down(plan, system.schemas), None, use_cache=False).table


def rows_digest(table) -> bytes:
    """Order-free digest of an answer: its schema and its multiset of rows.

    ``repro.serve.driver.answer_digest`` settles the same question through
    the ``repr`` of every row; on the thousand-row answers of ingest_mix
    that took longer than the measured stretch.  This sorts and hashes
    the column arrays instead, and is as strict (1 is not 1.0).
    """
    names = table.schema.names
    columns = [decoded(table.column(name)) for name in names]
    columns = [c.astype(str) if c.dtype == object else c for c in columns]
    digest = hashlib.sha256(repr(names).encode())
    if columns:
        order = np.lexsort(columns[::-1])
        for column in columns:
            digest.update(np.ascontiguousarray(column[order]).tobytes())
    return digest.digest()


def mismatches(plans, answers, epochs, system, *, every: int = 1) -> list[int]:
    """Indexes of answered queries whose rows differ from the reference.

    Runs after the measured stretch, on cleared caches, so the reference
    cannot be a replay of the very answer it is checking.
    """
    caches.clear_all_caches()
    bad: list[int] = []
    bounds = [first for first, _ in epochs[1:]] + [len(answers)]
    for (first, catalog), stop in zip(epochs, bounds):
        references: dict = {}
        for i in range(first, stop):
            if answers[i] is None or i % every:
                continue
            plan = plans[i]
            if plan not in references:
                references[plan] = rows_digest(reference_answer(plan, catalog, system))
            if rows_digest(answers[i]) != references[plan]:
                bad.append(i)
    return bad


def verify(workload: "Workload", inputs: Inputs, system, stretch: Stretch) -> None:
    """Fold every wrong answer and broken invariant into the stretch."""
    for i in mismatches(
        inputs.plans, stretch.answers, stretch.epochs, system, every=workload.check_every
    ):
        stretch.failed += 1
        stretch.problems.append(f"query {i}: answer differs from direct execution")
    if inputs.batches:
        checked, problems = verify_pool_identity(system)
        stretch.checks += checked
        stretch.failed += len(problems)
        stretch.problems.extend(f"pool identity: {p}" for p in problems)
    metrics = stretch.service_metrics
    if metrics is not None:
        stretch.checks += 1
        if not metrics["accounting_ok"] or metrics["offered"] != len(stretch.answers):
            stretch.failed += 1
            stretch.problems.append(f"service accounting: {metrics}")


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named workload; ``queries`` and ``prefix`` are per session."""

    name: str
    # Stream length at --scale 1: more than this commit gets through in a
    # session's share of the measured seconds, so time ends the stretch,
    # not the stream.
    queries: int
    # The exactly repeating numbers (simulated seconds, counts) are read over
    # this many leading queries, which every session reaches with room to
    # spare.  0: the whole stretch (serve_closed, where threads keep counts
    # from repeating whatever they are read over).
    prefix: int
    inputs: Callable[[int, int], Inputs]
    system: Callable[[Inputs], object]
    drive: Callable = drive_batch
    check_every: int = 1  # verify every n-th answer

    def prefix_of(self, executed: int, scale: float) -> int:
        return min(round(self.prefix * scale), executed) if self.prefix else executed


def _unbounded(inputs: Inputs):
    return deepsea(inputs.catalog, domains=inputs.domains)


def _pool10(inputs: Inputs):
    return deepsea(
        inputs.catalog,
        domains=inputs.domains,
        smax_bytes=0.10 * inputs.catalog.total_size_bytes,
    )


def _direct(inputs: Inputs):
    return hive(inputs.catalog, domains=inputs.domains)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sdss_long", 1600, 500, _sdss_inputs, _unbounded),
        Workload("sdss_pool10", 1200, 300, _sdss_inputs, _pool10),
        Workload("direct_engine", 1600, 550, _sdss_inputs, _direct,
                 check_every=DIRECT_CHECK_EVERY),
        Workload("repeat_hot", 5000, 1500, _repeat_hot_inputs, _unbounded),
        Workload("serve_closed", 1200, 0, _sdss_inputs, _unbounded, drive_serve),
        Workload("ingest_mix", 300, 90, _ingest_mix_inputs, _unbounded),
    )
}


def set_up(workload: Workload, seed: int, scale: float):
    """Everything before the first timed call, from cold caches: fixture,
    plans, a throw-away warm-up on a scratch direct system, the system."""
    caches.clear_all_caches()
    inputs = workload.inputs(seed, max(WARMUP_QUERIES, round(workload.queries * scale)))
    scratch = hive(inputs.catalog, domains=inputs.domains)
    for plan in inputs.plans[:WARMUP_QUERIES]:
        scratch.execute(plan)
    caches.clear_all_caches()
    return inputs, workload.system(inputs)
