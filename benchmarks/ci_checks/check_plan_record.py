"""CI gate: a repeated query is planned once, a unique stream keeps no record.

``Rewriter.plan`` (``repro/matching/rewriter.py``) answers a query it has
planned before from the query's record while nothing the record read has
moved, and makes a record only at a query's second sighting.  Two runs
check both halves:

* **Repeat-heavy.**  DS over ``--queries`` draws, Zipf(1.1), from
  ``--plans`` distinct SDSS-mapped plans.  At least ``--floor`` of the
  queries must be answered from a record, and ``find_matches`` must run
  exactly once per record miss.  A validity token that moves when nothing
  changed (or a record that stops being admitted) drops the share; a
  second planning path shows up as extra ``find_matches`` calls.
* **Unique ranges.**  DS over as many plans, each distinct.  No record may
  be admitted: two strikes keep a stream without repeats free of them.

Runnable locally:

    PYTHONPATH=src python benchmarks/ci_checks/check_plan_record.py
"""

from __future__ import annotations

import argparse
import sys


def check(repeat: dict, find_matches_calls: int, unique: dict, floor: float) -> list[str]:
    """Violations of the gate, given both runs' ``matching.plan_record``
    counters and the repeat run's ``find_matches`` calls (empty = pass)."""
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
    admitted = unique.get("entries", 0) + unique.get("evictions", 0)
    if admitted or unique.get("hits", 0):
        problems.append(f"{admitted} records admitted on a stream without repeats")
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
    unique_plans = list(dict.fromkeys(stream))
    unique, _ = _run(fx, unique_plans)
    print(
        f"repeat-heavy: {repeat['hits']} of {args.queries} queries from a record, "
        f"{calls} find_matches calls for {repeat['misses']} misses, "
        f"{repeat['entries']} records; unique ranges: {len(unique_plans)} queries, "
        f"{unique['entries']} records"
    )
    problems = check(repeat, calls, unique, args.floor)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
