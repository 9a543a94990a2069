"""CI gate: a fig-5a rerun against a warm system hits the result cache.

Replays the same workload twice against one system instance: on the
second pass every query's plan, catalog version, and pool epoch are
unchanged, so it must be served from the result cache.  Zero hits means
the cache key or the epoch protocol broke (e.g. an epoch bump on a
non-mutation, which the per-view cover versions must not introduce).

Runnable locally:

    PYTHONPATH=src python benchmarks/ci_checks/check_result_cache_reuse.py
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--instance-gb", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args(argv)

    from repro.baselines import hive
    from repro.bench.harness import run_system, sdss_fixture
    from repro.engine import result_cache
    from repro.workloads.generator import sdss_mapped_workload

    fx = sdss_fixture(args.instance_gb)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=args.queries, seed=args.seed)
    system = hive(fx.catalog, domains=fx.domains)
    run_system("H", system, plans)  # cold: populates views + cache
    base = result_cache.GLOBAL.stats()
    run_system("H", system, plans)  # warm: same catalog/pool state
    stats = result_cache.GLOBAL.stats()
    hits = stats["hits"] - base["hits"]
    print(f"rerun result-cache hits: {hits}  (stats: {stats})")
    if hits <= 0:
        print(f"FAIL expected result-cache hits on fig-5a rerun, got {stats}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
