"""Process-wide cache registry.

Every semantically transparent cache in the system — join-key indexes,
probe results, signature memos, plan-analysis memos, pushdown memos, the
matcher memo, benchmark fixtures — registers itself here at import time.
Having one registry serves two masters:

* **Worker isolation** (:mod:`repro.parallel`): a process-pool worker
  calls :func:`clear_all_caches` once at startup so no state forked from
  the parent can leak into its runs.  Because caches *auto-register* on
  import, a newly added cache cannot be missed by worker startup the way
  it could when ``clear_caches`` implementations were hand-maintained in
  two places.
* **Observability**: caches may register a ``stats`` callable; the
  aggregate :func:`cache_stats` snapshot is what ``python3 -m perfbench``
  and the ``benchmarks/ci_checks`` cache canaries read.

Registration is idempotent by name, which keeps module re-imports (e.g.
under ``importlib`` test harnesses) from duplicating entries.
"""

from __future__ import annotations

from typing import Callable

_CLEARERS: dict[str, Callable[[], None]] = {}
_STATS: dict[str, Callable[[], dict]] = {}


def register_cache(
    name: str,
    clear: Callable[[], None],
    stats: "Callable[[], dict] | None" = None,
) -> None:
    """Register one cache's ``clear`` (and optional ``stats``) callable.

    Called at module import time by every cache-bearing module; the
    ``name`` should be the dotted location of the cache so registry
    snapshots read like a map of the process.
    """
    _CLEARERS[name] = clear
    if stats is not None:
        _STATS[name] = stats
    else:
        _STATS.pop(name, None)


def registered_caches() -> tuple[str, ...]:
    """Names of every cache currently registered (sorted, for tests)."""
    return tuple(sorted(_CLEARERS))


def clear_all_caches() -> None:
    """Reset every registered cache in the process.

    All registered caches are semantically transparent, so clearing is
    never required for correctness — this exists for memory-bounded
    sessions, cold/warm comparisons in tests, and per-worker isolation in
    :mod:`repro.parallel`.
    """
    for clear in _CLEARERS.values():
        clear()


def cache_stats() -> dict[str, dict]:
    """Snapshot of every registered cache's counters (stable key order)."""
    return {name: dict(_STATS[name]()) for name in sorted(_STATS)}


def stats_delta(before: dict[str, dict], after: dict[str, dict]) -> dict[str, dict]:
    """Per-cache counter differences ``after − before``.

    A raw :func:`cache_stats` snapshot mixes everything the process has
    done so far; the delta isolates the work since ``before``.  Non-numeric
    entries (and gauges like ``entries`` that describe current state rather
    than traffic) are reported as their ``after`` value.
    """
    out: dict[str, dict] = {}
    for name in sorted(after):
        prior = before.get(name, {})
        entry = {}
        for key, value in after[name].items():
            base = prior.get(key, 0)
            if (
                key != "entries"
                and isinstance(value, (int, float))
                and isinstance(base, (int, float))
            ):
                entry[key] = value - base
            else:
                entry[key] = value
        out[name] = entry
    return out
