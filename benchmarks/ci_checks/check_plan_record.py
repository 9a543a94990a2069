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
  second planning path shows up as extra ``find_matches`` calls.  The
  same run gates the adaptation record DeepSea keeps beside a recurring
  query's planning record (``repro/core/adaptation.py``): the structural
  work of Algorithm 1's steps 4 and 5 runs at most once per adaptation
  miss.  ``view_candidate_subplans`` may run only for a query that
  arrived without an adaptation record, and ``partition_candidates``,
  in a query the adaptation record answered, only for a tentative design
  replaced since (its identity is the record's token).  A record that is
  not kept, or a token that moves when nothing changed, shows up as
  extra calls.
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


def check(
    repeat: dict, find_matches_calls: int, served: dict, floor: float, adapted: dict
) -> list[str]:
    """Violations of the gate, given the repeat run's ``matching.plan_record``
    counters, ``find_matches`` calls and adaptation counts, and the served
    run's counts (empty = pass)."""
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
    if not adapted.get("answered", 0):
        problems.append("no query was answered by an adaptation record")
    if adapted.get("view_candidate_subplans", 0) > adapted.get("misses", 0):
        problems.append(
            f"view_candidate_subplans ran {adapted['view_candidate_subplans']} times for "
            f"{adapted['misses']} adaptation misses"
        )
    if adapted.get("partition_candidates", 0) > adapted.get("designs_replaced", 0):
        problems.append(
            f"partition_candidates ran {adapted['partition_candidates']} times in queries "
            f"the adaptation record answered, for {adapted['designs_replaced']} tentative "
            "designs replaced"
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


def _run(fx, plans) -> "tuple[dict, int, dict]":
    """Run ``plans``; count ``find_matches`` calls and the adaptation record's
    answers, misses, structural calls and the designs replaced under it.

    A query is answered by the adaptation record when its planning record
    held one on arrival and that planning record answered the query too
    (a replanned query derives steps 2 and 5 afresh)."""
    import repro.core.deepsea as deepsea_module
    import repro.core.selection as selection_module
    from repro import caches
    from repro.baselines import deepsea

    caches.clear_all_caches()
    system = deepsea(fx.catalog, domains=fx.domains)
    rewriter, tentative, calls = system.rewriter, system.tentative, [0]
    find_matches = rewriter.find_matches
    adapted = {
        "answered": 0,
        "misses": 0,
        "view_candidate_subplans": 0,
        "partition_candidates": 0,
        "designs_replaced": 0,
    }
    structural = []  # calls of either structural function in the current query

    def counted(query):
        calls[0] += 1
        return find_matches(query)

    def tallied(name, function):
        def call(*args, **kwargs):
            structural.append(name)
            return function(*args, **kwargs)

        return call

    def replacing(function):
        def call(view_id, attr, arg):
            before = tentative.get(view_id, attr)
            function(view_id, attr, arg)
            replaced = before is not None and tentative.get(view_id, attr) is not before
            adapted["designs_replaced"] += replaced

        return call

    rewriter.find_matches = counted
    for name in ("apply_split", "add_overlapping", "replace_design"):
        setattr(tentative, name, replacing(getattr(tentative, name)))
    patched = [
        (deepsea_module, "view_candidate_subplans"),
        (deepsea_module, "partition_candidates"),
        (selection_module, "partition_candidates"),
    ]
    originals = [getattr(module, name) for module, name in patched]
    for (module, name), original in zip(patched, originals):
        setattr(module, name, tallied(name, original))
    try:
        for plan in plans:
            kept = rewriter.recorded(plan)
            arrived = kept is not None and kept.adaptation is not None
            structural.clear()
            system.execute(plan)
            adapted["misses"] += not arrived
            adapted["view_candidate_subplans"] += structural.count("view_candidate_subplans")
            if arrived and rewriter.recorded(plan) is kept:
                adapted["answered"] += 1
                adapted["partition_candidates"] += structural.count("partition_candidates")
    finally:
        for (module, name), original in zip(patched, originals):
            setattr(module, name, original)
    return caches.cache_stats()["matching.plan_record"], calls[0], adapted


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
    repeat, calls, adapted = _run(fx, [distinct[i] for i in draws])
    stream = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=args.queries, seed=3)
    served = _serve(fx, list(dict.fromkeys(stream)))
    print(
        f"repeat-heavy: {repeat['hits']} of {args.queries} queries from a record, "
        f"{calls} find_matches calls for {repeat['misses']} misses, "
        f"{repeat['entries']} records; adaptation: {adapted['answered']} queries answered, "
        f"{adapted['misses']} misses, {adapted['view_candidate_subplans']} "
        f"view_candidate_subplans calls, {adapted['partition_candidates']} partition_candidates "
        f"calls when answered for {adapted['designs_replaced']} designs replaced; "
        f"served once: {served['answered']} answered, "
        f"{served['find_matches']} find_matches calls, {served['invalidations']} invalidated "
        f"records, writer executed {served['executes']} of {served['steps']} steps "
        f"({served['views_created']} views created)"
    )
    problems = check(repeat, calls, served, args.floor, adapted)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
