"""CI gate: fact ⋈ dimension joins take the row-id path.

Every workload join is a foreign-key join: the build side's root has
distinct keys, so once a (probe root, build root) pair is cached the
probe cache holds the build-root row each probe-root row joins
(``repro/engine/indexes.py``) and a query's join is one gather and one
membership test.  ``fk_rows`` counts joins served that way,
``fk_fallback`` joins whose build key turned out not to be distinct.
The gate requires ``fk_rows / (fk_rows + fk_fallback)`` above a floor,
so a change that quietly loses uniqueness (a dropped flag, an append
path that forgets it) fails here with the observed share instead of
shipping as a slowdown.

Runs the H (Hive: every query executed directly) system over a fig-5a
workload in-process and reads the cache registry.  Runnable locally:

    PYTHONPATH=src python benchmarks/ci_checks/check_join_fast_path.py
"""

from __future__ import annotations

import argparse
import sys

DEFAULT_FLOOR = 0.9


def check(stats: dict, floor: float) -> list[str]:
    """Violations of the gate in one ``cache_stats()`` snapshot (empty = pass)."""
    probe = stats.get("engine.indexes.probe")
    if probe is None:
        return ["engine.indexes.probe not in cache stats"]
    if "fk_rows" not in probe or "fk_fallback" not in probe:
        return [f"engine.indexes.probe lacks the row-id join counters: {sorted(probe)}"]
    joins = probe["fk_rows"] + probe["fk_fallback"]
    if joins == 0:
        return ["no cached joins recorded — the workload ran no repeated join"]
    share = probe["fk_rows"] / joins
    if share < floor:
        return [f"row-id join share {share:.3f} below floor {floor:.2f}"]
    return []


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=150)
    parser.add_argument("--instance-gb", type=float, default=100.0)
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR,
        help=f"minimum share of joins served by row id (default {DEFAULT_FLOOR})",
    )
    args = parser.parse_args(argv)

    from repro import caches
    from repro.baselines import hive
    from repro.bench.harness import run_system, sdss_fixture
    from repro.workloads.generator import sdss_mapped_workload

    fx = sdss_fixture(args.instance_gb)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=args.queries, seed=2)
    caches.clear_all_caches()
    run_system("H", hive(fx.catalog, domains=fx.domains), plans)
    stats = caches.cache_stats()
    print(f"engine.indexes.probe: {stats.get('engine.indexes.probe')}")
    problems = check(stats, args.floor)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
