"""CI gate: fragment-level pruning carries its weight on the fig-5a smoke.

Runs the DeepSea system over a scaled-down fig-5a workload and gates the
pruned-row fraction of the executor's fused scan
(``repro/engine/prune.py``): ``rows_pruned / rows_scanned``, the share of
concatenated cover rows the predicate intersection kills.  This is the
wall-clock payoff of pruning (measured ≈0.5–0.65 on smoke scales); a
collapse means pruning was silently disabled or the rewriter stopped
producing clipped covers worth pruning.

Ledger identity is *not* checked here — that is the determinism gate's
job; this gate only keeps the acceleration layer honest.

Runnable locally:

    PYTHONPATH=src python benchmarks/ci_checks/check_fragment_prune.py
"""

from __future__ import annotations

import argparse
import sys


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--instance-gb", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--pruned-floor", type=float, default=0.3)
    args = parser.parse_args(argv)

    from repro.baselines import deepsea
    from repro.bench.harness import run_system, sdss_fixture
    from repro.workloads.generator import sdss_mapped_workload

    fx = sdss_fixture(args.instance_gb)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=args.queries, seed=args.seed)
    system = deepsea(fx.catalog, domains=fx.domains)
    run_system("DS", system, plans)
    stats = vars(system.executor.pruning)
    print(f"fragment-prune counters: {stats}")
    if stats["rows_scanned"] == 0:
        print("FAIL no pruned scan ran on the fig-5a smoke", file=sys.stderr)
        return 1
    pruned_fraction = stats["rows_pruned"] / stats["rows_scanned"]
    print(f"pruned-row fraction: {pruned_fraction:.3f}")
    if pruned_fraction < args.pruned_floor:
        print(
            f"FAIL pruned-row fraction {pruned_fraction:.3f} below floor {args.pruned_floor}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
