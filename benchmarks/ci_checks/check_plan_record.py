"""CI gate: a repeated query is planned once, a served query is planned and run once.

``Rewriter.plan`` (``repro/matching/rewriter.py``) records every query it
plans and answers the query from that record while nothing the record
read has moved; a view registered since that the query could use but is
not resident extends the record instead of replanning it.  Two runs
check both halves:

* **Repeat-heavy.**  DS over ``--queries`` draws, Zipf(1.1), from
  ``--plans`` distinct SDSS-mapped plans.  At least ``--floor`` of the
  queries must be answered from a record, and ``find_matches`` must run
  exactly once per record miss.  A validity token that moves when nothing
  changed (or a record that stops being admitted) drops the share; a
  second planning path shows up as extra ``find_matches`` calls.
* **Served once.**  A fault-free ``QueryService`` (two readers and the
  writer) over a stream without repeats.  A reader and the writer plan
  each query once between them: ``find_matches`` may run once per
  answered query plus once per record a pool move invalidated (a matched
  view's cover version moved, or a view that matches became resident;
  the stream has no ingest and no domain change, so nothing else can).
  And the writer learns without answering: its executor may run only in
  steps where ``plan_view_creations`` returned a creation to capture.

Runnable locally:

    PYTHONPATH=src python benchmarks/ci_checks/check_plan_record.py
"""

from __future__ import annotations

import argparse
import sys

# Tickets kept outstanding by the served run's closed loop.
_CLIENTS = 2


def check(repeat: dict, find_matches_calls: int, served: dict, floor: float) -> list[str]:
    """Violations of the gate, given the repeat run's ``matching.plan_record``
    counters and ``find_matches`` calls, and the served run's counts
    (empty = pass)."""
    problems = []
    planned = repeat.get("hits", 0) + repeat.get("misses", 0)
    if not planned:
        return ["no query was planned — the workload checked nothing"]
    share = repeat["hits"] / planned
    if share < floor:
        problems.append(f"record hit share {share:.3f} below floor {floor} ({planned} queries)")
    if find_matches_calls != repeat["misses"]:
        problems.append(
            f"find_matches ran {find_matches_calls} times for {repeat['misses']} record misses"
        )
    if not served.get("answered", 0):
        return problems + ["no query was served — the served run checked nothing"]
    allowed = served["answered"] + served["invalidations"]
    if served["find_matches"] > allowed:
        problems.append(
            f"served: find_matches ran {served['find_matches']} times for "
            f"{served['answered']} answered queries and {served['invalidations']} "
            "invalidated records"
        )
    if served["executes_without_creation"]:
        problems.append(
            f"served: the writer executed {served['executes_without_creation']} queries "
            "in steps that selected nothing to capture"
        )
    return problems


def _run(fx, plans) -> "tuple[dict, int]":
    from repro import caches
    from repro.baselines import deepsea

    caches.clear_all_caches()
    system = deepsea(fx.catalog, domains=fx.domains)
    rewriter, calls = system.rewriter, [0]
    find_matches = rewriter.find_matches

    def counted(query):
        calls[0] += 1
        return find_matches(query)

    rewriter.find_matches = counted
    for plan in plans:
        system.execute(plan)
    return caches.cache_stats()["matching.plan_record"], calls[0]


def _serve(fx, plans) -> dict:
    """Serve ``plans`` in a closed loop; count planning and writer runs.

    Every wrapped call runs under the service's plan lock (readers plan
    there, the writer steps there), so the counters need no lock."""
    from collections import deque

    from repro import caches
    from repro.baselines import deepsea
    from repro.serve import QueryService

    caches.clear_all_caches()
    system = deepsea(fx.catalog, domains=fx.domains)
    rewriter, selection, executor = system.rewriter, system.selection, system.executor
    counts = {"find_matches": 0, "invalidations": 0, "executes": 0, "executes_without_creation": 0}
    step = {"creations": 0}
    find_matches, plan, select, execute = (
        rewriter.find_matches,
        rewriter.plan,
        selection.plan_view_creations,
        executor.execute,
    )

    def counted_find_matches(query):
        counts["find_matches"] += 1
        return find_matches(query)

    def counted_plan(query):
        had_record, before = query in rewriter._records, counts["find_matches"]
        planned = plan(query)
        counts["invalidations"] += had_record and counts["find_matches"] > before
        return planned

    def counted_select(*args, **kwargs):
        creations = select(*args, **kwargs)
        step["creations"] = len(creations)
        return creations

    def counted_execute(*args, **kwargs):
        counts["executes"] += 1
        counts["executes_without_creation"] += not step["creations"]
        return execute(*args, **kwargs)

    rewriter.find_matches, rewriter.plan = counted_find_matches, counted_plan
    selection.plan_view_creations, executor.execute = counted_select, counted_execute
    service = QueryService(system, workers=_CLIENTS, queue_depth=4 * _CLIENTS).start()
    outstanding: deque = deque()
    try:
        for query in plans:
            outstanding.append(service.submit(query))
            if len(outstanding) == _CLIENTS:
                outstanding.popleft().result(timeout=120.0)
        for ticket in outstanding:
            ticket.result(timeout=120.0)
    finally:
        service.stop(timeout=120.0)
    metrics = service.metrics()
    return {
        **counts,
        "answered": metrics["answered"],
        "steps": metrics["writer"]["steps"],
        "views_created": sum(len(r.views_created) for r in system.reports),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=600)
    parser.add_argument("--plans", type=int, default=60)
    parser.add_argument("--instance-gb", type=float, default=100.0)
    parser.add_argument("--floor", type=float, default=0.7)
    args = parser.parse_args(argv)

    import numpy as np

    from repro.bench.harness import sdss_fixture
    from repro.workloads.generator import sdss_mapped_workload

    fx = sdss_fixture(args.instance_gb)
    distinct = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=args.plans, seed=2)
    popularity = 1.0 / np.arange(1, len(distinct) + 1) ** 1.1
    draws = np.random.default_rng(2).choice(
        len(distinct), size=args.queries, p=popularity / popularity.sum()
    )
    repeat, calls = _run(fx, [distinct[i] for i in draws])
    stream = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=args.queries, seed=3)
    served = _serve(fx, list(dict.fromkeys(stream)))
    print(
        f"repeat-heavy: {repeat['hits']} of {args.queries} queries from a record, "
        f"{calls} find_matches calls for {repeat['misses']} misses, "
        f"{repeat['entries']} records; served once: {served['answered']} answered, "
        f"{served['find_matches']} find_matches calls, {served['invalidations']} invalidated "
        f"records, writer executed {served['executes']} of {served['steps']} steps "
        f"({served['views_created']} views created)"
    )
    problems = check(repeat, calls, served, args.floor)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
