"""Simulated cluster cost model.

DeepSea's decisions are driven by the *relative* costs of a Hive/Hadoop
deployment: every query pays per-MapReduce-job overhead; scans are split
into map tasks (at least one per file, one per HDFS block otherwise) that
run in waves over a bounded slot pool; and writing data — materializing a
view or a fragment — is far more expensive per byte than reading it
(``w_write >> w_read`` in §7.2).  :class:`ClusterSpec` encodes those
characteristics and converts byte counts into *simulated elapsed seconds*;
:class:`CostLedger` accumulates them per query.

Defaults are calibrated so that the paper's 32-node cluster magnitudes are
roughly reproduced: a scan-heavy BigBench query over a nominal 500 GB
instance costs a few hundred simulated seconds, and materializing a large
view costs tens of times more than a rewritten query that reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated cluster.

    Attributes:
        block_bytes: HDFS block size; one map task per block.
        map_slots: Concurrent map-task slots (31 nodes x 6 threads).
        job_overhead_s: Fixed startup cost per MapReduce job.
        task_overhead_s: Fixed scheduling cost per map task (paid per wave).
        read_s_per_byte: Serial read cost; parallelized over slots.
        write_s_per_byte: Serial write cost (HDFS replication); much larger
            than the read cost, as the paper requires.
        shuffle_s_per_byte: Cost of shuffling a job's output between
            phases; parallelized over slots.
        file_write_overhead_s: Fixed cost of creating one output file —
            what makes writing many small fragments expensive.
    """

    # The simulated block is 64 MB (HDFS's classic default).  One task
    # wave costs block_bytes x read_s_per_byte ≈ 16 s, so: full scans pay
    # waves proportional to bytes; multi-block fragment reads pay at least
    # one full wave; and sub-block fragments (DeepSea's refined hot
    # slivers) finish in a fraction of a wave — the granularity effects
    # the paper's experiments measure.
    block_bytes: float = 64 * 1024 * 1024
    map_slots: int = 186
    job_overhead_s: float = 20.0
    task_overhead_s: float = 0.5
    # Scheduling/JVM-launch cost per map task, saturating at the slot
    # count.  This makes a query over more/larger fragments genuinely
    # slower even when its tasks fit in one wave — the paper's
    # "equi-depth issues 40-50% more map tasks and uses more resources"
    # effect (§10.2).
    task_dispatch_s: float = 0.4
    read_s_per_byte: float = 2.5e-7
    write_s_per_byte: float = 4.0e-7
    shuffle_s_per_byte: float = 5.0e-7
    file_write_overhead_s: float = 5.0
    # Base wait before a failed map task is re-dispatched; doubles per
    # attempt (the classic exponential-backoff retry of the MR scheduler).
    # Only ever charged under fault injection (repro.faults).
    retry_backoff_s: float = 2.0

    # ------------------------------------------------------------------
    def map_tasks(self, nbytes: float, nfiles: int = 1) -> int:
        """Map tasks needed to read ``nbytes`` spread over ``nfiles`` files.

        Every file costs at least one task; large files cost one task per
        block.  This is the mechanism behind the paper's observation that
        equi-depth partitions trigger 40-50% more map tasks (§10.2).
        """
        if nbytes <= 0 or nfiles <= 0:
            return 0
        per_file = nbytes / nfiles
        return nfiles * max(1, math.ceil(per_file / self.block_bytes))

    def read_elapsed(self, nbytes: float, nfiles: int = 1) -> float:
        """Elapsed seconds to scan ``nbytes`` over ``nfiles`` files."""
        tasks = self.map_tasks(nbytes, nfiles)
        if tasks == 0:
            return 0.0
        waves = math.ceil(tasks / self.map_slots)
        parallelism = min(tasks, self.map_slots)
        return (
            waves * self.task_overhead_s
            + parallelism * self.task_dispatch_s
            + nbytes * self.read_s_per_byte / parallelism
        )

    def write_elapsed(self, nbytes: float, nfiles: int = 1) -> float:
        """Elapsed seconds to write ``nbytes`` into ``nfiles`` output files."""
        if nbytes <= 0 and nfiles <= 0:
            return 0.0
        tasks = max(1, self.map_tasks(nbytes, max(nfiles, 1)))
        parallelism = min(tasks, self.map_slots)
        return (
            max(nfiles, 1) * self.file_write_overhead_s
            + nbytes * self.write_s_per_byte / parallelism
        )

    def shuffle_elapsed(self, nbytes: float) -> float:
        """Elapsed seconds to shuffle ``nbytes`` between job phases."""
        if nbytes <= 0:
            return 0.0
        return nbytes * self.shuffle_s_per_byte / self.map_slots


@dataclass
class CostLedger:
    """Accumulates simulated time and resource counters for one execution.

    When a :class:`~repro.faults.injector.FaultInjector` is attached via
    ``faults``, every scan additionally draws map-task failures and
    stragglers from it and charges their retry/speculation cost to
    ``fault_s`` — cost accounting only; results are never touched.  With
    ``faults`` left ``None`` (the default, and the only configuration the
    seed benchmarks use) the ledger behaves bit-identically to before.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    read_s: float = 0.0
    write_s: float = 0.0
    shuffle_s: float = 0.0
    overhead_s: float = 0.0
    jobs: int = 0
    map_tasks: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    files_written: int = 0
    # Fault accounting (repro.faults): extra simulated seconds paid to
    # retries, backoff waits, speculative copies, replica re-reads, and
    # recovery work, plus how many tasks each mechanism touched.
    fault_s: float = 0.0
    task_retries: int = 0
    speculative_tasks: int = 0
    fault_events: int = 0
    # Maintenance accounting (repro.storage.ingest): simulated seconds
    # spent keeping materialized fragments consistent with ingested
    # micro-batches, plus how the delta pass spent them — rows routed
    # through the interval index, rows actually appended to payloads,
    # and fragments patched in place vs rebuilt from base tables.  The
    # §7 selector weighs this upkeep against read benefit.
    maint_s: float = 0.0
    delta_rows_routed: int = 0
    delta_rows_applied: int = 0
    fragments_patched: int = 0
    fragments_rebuilt: int = 0
    faults: object | None = field(default=None, repr=False, compare=False)

    @property
    def total_seconds(self) -> float:
        return (
            self.read_s
            + self.write_s
            + self.shuffle_s
            + self.overhead_s
            + self.fault_s
            + self.maint_s
        )

    # ------------------------------------------------------------------
    def charge_read(self, nbytes: float, nfiles: int = 1) -> None:
        self.read_s += self.cluster.read_elapsed(nbytes, nfiles)
        tasks = self.cluster.map_tasks(nbytes, nfiles)
        self.map_tasks += tasks
        self.bytes_read += nbytes
        if self.faults is not None and tasks > 0:
            self._inject_task_faults(nbytes, tasks)

    def _inject_task_faults(self, nbytes: float, tasks: int) -> None:
        """Draw map-task failures/stragglers for one scan and charge them.

        Each failed task re-executes serially after an exponential-backoff
        wait (`retry_backoff_s · 2^(attempt-1)`); each straggler spawns one
        speculative duplicate paying the task's full cost again.  Both are
        pure cost: the re-executed task reads the same block and produces
        the same rows, which is what keeps answers fault-invariant.
        """
        chains, stragglers = self.faults.map_task_faults(tasks)
        if not chains and not stragglers:
            return
        c = self.cluster
        per_task_s = c.task_overhead_s + c.task_dispatch_s + (nbytes / tasks) * c.read_s_per_byte
        extra = 0.0
        for attempts in chains:
            for attempt in range(1, attempts + 1):
                extra += per_task_s + c.retry_backoff_s * (2 ** (attempt - 1))
            self.task_retries += attempts
        extra += stragglers * per_task_s
        self.speculative_tasks += stragglers
        self.fault_s += extra
        self.fault_events += len(chains) + stragglers

    def charge_fault(self, seconds: float, events: int = 1) -> None:
        """Charge recovery/degradation time drawn by the fault layer."""
        self.fault_s += seconds
        self.fault_events += events

    def charge_write(self, nbytes: float, nfiles: int = 1) -> None:
        self.write_s += self.cluster.write_elapsed(nbytes, nfiles)
        self.bytes_written += nbytes
        self.files_written += max(nfiles, 1)

    def charge_shuffle(self, nbytes: float) -> None:
        self.shuffle_s += self.cluster.shuffle_elapsed(nbytes)

    def charge_maintenance(
        self,
        seconds: float,
        *,
        routed: int = 0,
        applied: int = 0,
        patched: int = 0,
        rebuilt: int = 0,
    ) -> None:
        """Charge delta-maintenance work (repro.storage.ingest).

        Kept out of read_s/write_s so benchmarks can isolate upkeep from
        serving cost; ``total_seconds`` still includes it.
        """
        self.maint_s += seconds
        self.delta_rows_routed += routed
        self.delta_rows_applied += applied
        self.fragments_patched += patched
        self.fragments_rebuilt += rebuilt

    def charge_jobs(self, njobs: int) -> None:
        self.jobs += njobs
        self.overhead_s += njobs * self.cluster.job_overhead_s

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's charges into this one."""
        self.read_s += other.read_s
        self.write_s += other.write_s
        self.shuffle_s += other.shuffle_s
        self.overhead_s += other.overhead_s
        self.jobs += other.jobs
        self.map_tasks += other.map_tasks
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.files_written += other.files_written
        self.fault_s += other.fault_s
        self.task_retries += other.task_retries
        self.speculative_tasks += other.speculative_tasks
        self.fault_events += other.fault_events
        self.maint_s += other.maint_s
        self.delta_rows_routed += other.delta_rows_routed
        self.delta_rows_applied += other.delta_rows_applied
        self.fragments_patched += other.fragments_patched
        self.fragments_rebuilt += other.fragments_rebuilt
