"""Cross-query subplan result cache (Nectar/Shark-style reuse, wall-clock only).

Workloads repeat themselves: the SDSS-mapped benchmark maps thousands of
log entries onto a handful of query templates, so the same pushed-down
plan — byte-for-byte the same :class:`~repro.query.algebra.Plan` object
graph — executes over and over against an unchanged catalog.  This cache
remembers whole-plan executions ``(result table, ledger charges)`` and
replays them, skipping the numpy evaluation entirely.

The cache is **wall-clock only**: a hit merges the *recorded simulated
charges* into the caller's ledger, so simulated seconds, map tasks, and
byte counters are identical to re-executing the plan.  DeepSea's
economics (what a query "costs" the modeled cluster) are never shortcut —
only the real CPU time of recomputing an identical answer is.

Safety rules (each mechanically enforced at lookup/store time):

* **Keying** — entries key on the memoized plan hash plus the catalog's
  ``(uid, version)``; plans containing a ``MaterializedScan`` leaf
  additionally key on the pool uid and the **per-view cover versions** of
  exactly the views the plan reads (its version vector).
  :class:`~repro.storage.pool.MaterializedViewPool` bumps a view's cover
  version on every admit/evict/rollback-restore touching it, so a stale
  fragment read can never be served — while mutations to *other* views
  leave the entry's vector unchanged and the entry live (the pool-wide
  epoch key this replaces flushed everything on any mutation).  The
  :class:`~repro.engine.cost.ClusterSpec` joins the key because the
  recorded charges embed its constants.
* **Pristine ledgers only** — replay adds recorded charges into the
  caller's ledger.  Starting from exact zero (``0.0 + x == x``) is the
  one case where the merged floats are bit-identical to re-running the
  individual charges, so only executions that both start *and* replay
  from a pristine ledger participate (the per-query ledgers DeepSea
  creates always qualify).
* **No fault injection** — a faulted ledger draws RNG inside every
  ``charge_read`` and may trigger recovery writes; skipping execution
  would desynchronize the fault stream.  Faulted runs bypass the cache.
* **No captures** — ``execute_with_capture`` with live targets must
  actually evaluate the tree to snapshot intermediates.

Entries are byte-bounded (in-process array bytes, LRU eviction) and the
cache registers with :mod:`repro.caches`, so hit/miss/eviction counters
surface in :func:`repro.caches.cache_stats` and pool workers start cache-cold
exactly like every other acceleration cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.caches import register_cache
from repro.engine.cost import CostLedger
from repro.engine.table import Table

if TYPE_CHECKING:
    from repro.engine.executor import ExecutionContext
    from repro.query.algebra import Plan
    from repro.query.analysis import PlanAnalysis

# Default byte budget for cached result tables.  Results are almost
# always small aggregate outputs; the bound exists so a pathological
# workload of huge select-only results cannot grow without limit.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


class _Entry:
    __slots__ = ("table", "charges", "nbytes")

    def __init__(self, table: Table, charges: CostLedger, nbytes: int):
        self.table = table
        self.charges = charges
        self.nbytes = nbytes


class ResultCache:
    """LRU, byte-bounded map from plan keys to (table, recorded charges)."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # The serving layer runs reader threads against the one GLOBAL
        # cache; LRU bookkeeping (move_to_end + the eviction loop) is a
        # compound mutation, so lookup/store/clear take this lock.  The
        # serial engine pays one uncontended acquire per query — noise.
        self._lock = threading.Lock()

    # -- keying --------------------------------------------------------
    @staticmethod
    def key_for(
        plan: "Plan", analysis: "PlanAnalysis", context: "ExecutionContext"
    ) -> "tuple | None":
        """Cache key for running ``plan`` under ``context`` — or ``None``
        when the execution is not cacheable (pool-reading plan without a
        pool attached).

        Plans that never touch the pool deliberately omit the pool
        component: their results are pool-independent, so H's direct
        plans and the identical unrewritten plans of NP/DS share entries.

        Pool-reading plans key on a **version vector**: the cover version
        of each view the plan's ``MaterializedScan`` leaves read (sorted
        view-id order), not the pool-wide epoch.  Admitting, evicting, or
        repartitioning fragments of view V bumps only V's cover version,
        so entries for plans reading disjoint views stay live across the
        mutation — and a journal rollback, which restores the prior
        version numbers, re-validates pre-transaction entries for free.
        """
        if analysis.has_materialized:
            pool = context.pool
            if pool is None:
                return None
            pool_key = (
                pool.uid,
                tuple(pool.cover_version(view_id) for view_id in analysis.view_ids),
                analysis.view_ids,
            )
        else:
            pool_key = None
        catalog = context.catalog
        return (catalog.uid, catalog.version, pool_key, context.cluster, plan)

    # -- lookup/store --------------------------------------------------
    def lookup(self, key: tuple) -> "_Entry | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: tuple, table: Table, ledger: CostLedger) -> None:
        charges = ledger.snapshot()
        nbytes = table.memory_bytes()
        if nbytes > self.max_bytes:
            return
        with self._lock:
            if key in self._entries:  # racing duplicate store; keep the first
                return
            self._entries[key] = _Entry(table, charges, nbytes)
            self._bytes += nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1

    @staticmethod
    def replay(entry: _Entry, ledger: CostLedger) -> Table:
        """Merge the recorded charges into a pristine ``ledger`` and return
        the cached table (shared, immutable by convention)."""
        ledger.merge(entry.charges)
        return entry.table

    # -- registry hooks ------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "bytes": self._bytes,
        }


# One process-wide cache: keys carry catalog/pool identities, so separate
# systems (and separate pool configurations) can never collide.
GLOBAL = ResultCache()


def eligible(ledger: CostLedger) -> bool:
    """May this execution go through the result cache at all?"""
    return ledger.faults is None and ledger.is_pristine


register_cache("engine.result_cache", GLOBAL.clear, GLOBAL.stats)
