"""CI gate: the matching-stage memo hit rate must clear a checked-in floor.

The `match_view` memo keys skeletons on range-free signature shapes, so
pool mutations never flush it.  On the fig-5a smoke this puts the
`matching.match_view` hit rate above 95% (from ~55% when the key held
whole signatures); the floor locks the property in and fails with the
observed rate so a regression is diagnosable from the CI log alone.

Runs the H / NP / DS systems over a small fig-5a workload in-process and
reads the cache registry.  Runnable locally:

    PYTHONPATH=src python benchmarks/ci_checks/check_matching_memo.py
"""

from __future__ import annotations

import argparse
import sys

DEFAULT_FLOOR = 0.80


def check(stats: dict, floor: float) -> list[str]:
    """Violations of the gate in one ``cache_stats()`` snapshot (empty = pass)."""
    memo = stats.get("matching.match_view")
    if memo is None:
        return ["matching.match_view not in cache stats"]
    calls = memo["hits"] + memo["misses"]
    if calls == 0:
        return ["no match_view calls recorded — the workload ran no matching"]
    rate = memo["hits"] / calls
    if rate < floor:
        return [f"match_view hit rate {rate:.3f} below floor {floor:.2f}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=150)
    parser.add_argument("--instance-gb", type=float, default=100.0)
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR,
        help=f"minimum match_view hit rate (default {DEFAULT_FLOOR})",
    )
    args = parser.parse_args(argv)

    from repro import caches
    from repro.baselines import deepsea, hive, non_partitioned
    from repro.bench.harness import run_systems, sdss_fixture
    from repro.workloads.generator import sdss_mapped_workload

    fx = sdss_fixture(args.instance_gb)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=args.queries, seed=2)
    run_systems(
        {
            "H": lambda: hive(fx.catalog, domains=fx.domains),
            "NP": lambda: non_partitioned(fx.catalog, domains=fx.domains),
            "DS": lambda: deepsea(fx.catalog, domains=fx.domains),
        },
        plans,
    )
    stats = caches.cache_stats()
    print(f"matching.match_view: {stats.get('matching.match_view')}")
    problems = check(stats, args.floor)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
