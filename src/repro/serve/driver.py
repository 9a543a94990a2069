"""Open-loop load driver for the serving layer (``python -m repro serve-bench``).

Open-loop means arrivals are *independent of completions*: the driver
submits on a seeded arrival schedule whether or not the service has kept
up, which is the only load shape that actually exercises admission
control (a closed loop self-throttles and can never overflow the queue).
Three phases, each against a fresh DeepSea instance:

* ``steady`` — exponential interarrivals at the target rate.
* ``burst``  — back-to-back bursts several times the queue depth with
  idle gaps between them; guarantees the shed path fires.
* ``chaos``  — steady arrivals with a fault schedule attached *and* the
  writer repartitioning throughout: worker crashes, replica damage,
  fragment loss, controller crashes mid-transaction.

Every answered query's digest is checked against a serial, fault-free,
direct execution of the same plan — the serving invariant in executable
form.  The driver also audits the accounting invariant
(``answered + shed + timed_out + failed == offered``).  It measures no
real seconds: throughput and latency of the serving layer are
``python3 -m perfbench``'s ``serve_closed`` workload.
"""

from __future__ import annotations

import hashlib
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import Overloaded
from repro.serve.service import QueryService

if TYPE_CHECKING:
    from repro.engine.table import Table

PHASES = ("steady", "burst", "chaos")

def answer_digest(table: "Table") -> str:
    """Canonical digest of an answer: order-free, byte-stable row repr."""
    return hashlib.sha256(repr(table.sorted_rows()).encode()).hexdigest()[:16]


def reference_digests(fixture, plans) -> list[str]:
    """Serial fault-free answers via direct base-table execution."""
    from repro.baselines import hive

    system = hive(fixture.catalog, domains=fixture.domains)
    return [answer_digest(system.execute(plan).result) for plan in plans]


def run_phase(
    name: str,
    fixture,
    plans,
    ref_digests: list[str],
    *,
    workers: int,
    queue_depth: int,
    deadline_s: "float | None",
    retries: int,
    chaos_schedule: str,
    rate_qps: float,
    arrival_seed: int,
) -> dict:
    """Drive one phase against a fresh adaptive system; return its report."""
    from repro.baselines import deepsea

    system = deepsea(fixture.catalog, domains=fixture.domains)
    if name == "chaos":
        system.attach_faults(chaos_schedule)
    service = QueryService(
        system,
        workers=workers,
        queue_depth=queue_depth,
        deadline_s=deadline_s,
        retries=retries,
    ).start()
    rng = np.random.default_rng(arrival_seed)
    burst_size = queue_depth * 3
    tickets: list = [None] * len(plans)
    try:
        for i, plan in enumerate(plans):
            if name == "burst":
                if i and i % burst_size == 0:
                    time.sleep(0.15)  # let the queue drain between volleys
            else:
                time.sleep(float(rng.exponential(1.0 / rate_qps)))
            try:
                tickets[i] = service.submit(plan)
            except Overloaded:
                pass  # counted by the admission queue
        outcomes = [
            (i, ticket.result(timeout=120.0))
            for i, ticket in enumerate(tickets)
            if ticket is not None
        ]
    finally:
        service.stop()
    metrics = service.metrics()

    mismatches: list[int] = []
    unresolved = 0
    for i, outcome in outcomes:
        if outcome is None:
            unresolved += 1
        elif outcome.status == "answered" and answer_digest(outcome.table) != ref_digests[i]:
            mismatches.append(i)

    report = {
        "phase": name,
        "queries": len(plans),
        **metrics,
        "digest_mismatches": mismatches,
        "unresolved": unresolved,
        "mean_sim_cost_s": round(
            float(
                np.mean(
                    [o.sim_cost_s for _, o in outcomes if o and o.status == "answered"]
                )
            ),
            3,
        )
        if metrics["answered"]
        else 0.0,
    }
    return report


def check_gates(phases: dict[str, dict]) -> list[str]:
    """The serving invariants, as a list of human-readable violations."""
    problems: list[str] = []
    for name, phase in phases.items():
        if phase["digest_mismatches"]:
            problems.append(
                f"{name}: answer digests diverged from the serial fault-free "
                f"run for queries {phase['digest_mismatches']}"
            )
        if not phase["accounting_ok"]:
            problems.append(
                f"{name}: accounting violated — answered {phase['answered']} "
                f"+ shed {phase['shed']} + timed_out {phase['timed_out']} "
                f"+ failed {phase['failed']} != offered {phase['offered']}"
            )
        if phase["failed"]:
            problems.append(f"{name}: {phase['failed']} queries failed outright")
        if phase["unresolved"]:
            problems.append(f"{name}: {phase['unresolved']} tickets never resolved")
        if phase.get("writer", {}).get("errors", 0):
            problems.append(f"{name}: {phase['writer']['errors']} writer steps failed")
    if "burst" in phases and phases["burst"]["shed"] == 0:
        problems.append("burst: no queries were shed — admission control never fired")
    if "chaos" in phases:
        chaos = phases["chaos"]
        if chaos["retries"] == 0:
            problems.append("chaos: no reader retries — worker-crash path never fired")
        if chaos.get("writer", {}).get("steps", 0) == 0:
            problems.append("chaos: writer applied no steps — no concurrent adaptation")
        if chaos["pool_epoch"] == 0:
            problems.append("chaos: pool epoch never advanced — nothing repartitioned")
    return problems


def run_serve_bench(
    *,
    queries: int = 120,
    instance_gb: float = 20.0,
    seed: int = 2,
    workers: int = 2,
    queue_depth: int = 16,
    deadline_s: "float | None" = 5.0,
    retries: int = 2,
    chaos_schedule: str = "perfect-storm",
    rate_qps: float = 150.0,
    phases: "tuple[str, ...]" = PHASES,
) -> dict:
    """Run the full serve benchmark; returns the JSON-ready report."""
    from repro.bench.harness import sdss_fixture
    from repro.workloads.generator import sdss_mapped_workload

    fixture = sdss_fixture(instance_gb)
    plans = sdss_mapped_workload(
        fixture.log, fixture.item_domain, n_queries=queries, seed=seed
    )
    digests = reference_digests(fixture, plans)
    phase_reports: dict[str, dict] = {}
    for i, name in enumerate(phases):
        phase_reports[name] = run_phase(
            name,
            fixture,
            plans,
            digests,
            workers=workers,
            queue_depth=queue_depth,
            deadline_s=deadline_s,
            retries=retries,
            chaos_schedule=chaos_schedule,
            rate_qps=rate_qps,
            arrival_seed=seed + 1000 * (i + 1),
        )
    problems = check_gates(phase_reports)
    return {
        "benchmark": "serve-bench: open-loop load over the concurrent serving layer",
        "params": {
            "queries": queries,
            "instance_gb": instance_gb,
            "seed": seed,
            "workers": workers,
            "queue_depth": queue_depth,
            "deadline_s": deadline_s,
            "retries": retries,
            "chaos_schedule": chaos_schedule,
            "rate_qps": rate_qps,
        },
        "phases": phase_reports,
        "problems": problems,
        "ok": not problems,
    }
