"""CI gate: PSTAT stores each query's hit once per partition.

Every (view, attribute) partition keeps one hit log (``repro/costmodel/
stats.py``): one entry per query that hit it, held by every tracked
fragment the query touched, inherited by split pieces and united by merges
as membership, never as copies.  So however many fragments and candidate
pieces a partition tracks, its log can never hold more entries than the
stream had queries.  A change that brings per-fragment copies back — an
entry appended per touched fragment, or a piece given copies of its
parent's hits — breaks that bound at once and fails here with the
partition and its count.

Runs DS over SDSS-mapped queries at a 10 % pool in-process.  Runnable
locally:

    PYTHONPATH=src python benchmarks/ci_checks/check_hit_log.py
"""

from __future__ import annotations

import argparse
import sys


def check(entries: dict, queries: int) -> list[str]:
    """Violations of the gate, given each partition's log length (empty = pass)."""
    if not any(entries.values()):
        return ["no partition recorded a hit — the workload checked nothing"]
    return [
        f"{partition}: {count} log entries for {queries} queries"
        for partition, count in sorted(entries.items())
        if count > queries
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=600)
    parser.add_argument("--instance-gb", type=float, default=100.0)
    args = parser.parse_args(argv)

    from repro.baselines import deepsea
    from repro.bench.harness import sdss_fixture
    from repro.workloads.generator import sdss_mapped_workload

    fx = sdss_fixture(args.instance_gb)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=args.queries, seed=2)
    system = deepsea(
        fx.catalog, domains=fx.domains, smax_bytes=0.10 * fx.catalog.total_size_bytes
    )
    for plan in plans:
        system.execute(plan)
    stats = system.stats
    entries, held = {}, 0
    for view in stats.all_views():
        for attr in stats.partition_attrs(view.view_id):
            entries[f"{view.view_id}/{attr}"] = len(stats.hit_log(view.view_id, attr))
            held += sum(f.hit_count() for f in stats.fragments_for(view.view_id, attr))
    print(
        f"{len(entries)} partitions, {sum(entries.values())} log entries "
        f"(most in one: {max(entries.values(), default=0)}) for {len(plans)} queries; "
        f"{held} fragment hits held"
    )
    problems = check(entries, len(plans))
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
