"""Tests for the deterministic fault-injection subsystem (repro.faults).

The contract under test everywhere: **faults may change cost, never
answers** — a faulted run's result tables and decision trail are
byte-identical to the fault-free run's, while its ledgers are strictly
costlier and its event log non-empty.
"""

import pickle
import sys
import threading

import pytest

from repro.engine.cost import CostLedger
from repro.errors import FaultError
from repro.faults import (
    BUILTIN_SCHEDULES,
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    builtin_schedule,
    builtin_schedule_names,
    verify_run,
)
from repro.parallel import (
    FixtureSpec,
    RunTask,
    SystemSpec,
    WorkloadSpec,
    fan_out,
    result_fingerprint,
)
from repro.parallel.determinism import report_fingerprint

QUERIES = 12
FIXTURE = FixtureSpec("sdss", 10.0, log_queries=500)
WORKLOAD = WorkloadSpec(QUERIES)

# A deliberately hot schedule so that even a 12-query workload fires
# every fault kind it carries — built-in rates are calibrated for the
# larger chaos-CLI workloads and may stay silent at this scale.
STORM = FaultSchedule.of(
    "test-storm",
    seed=5,
    task_failure=0.05,
    straggler=0.02,
    replica_loss=0.3,
    block_corruption=0.2,
    fragment_loss=0.5,
    controller_crash=0.5,
).to_json()

FLAKY = FaultSchedule.of("test-flaky", seed=9, task_failure=0.05, straggler=0.02).to_json()


def _task(label, factory, faults=None, **options):
    return RunTask(label, SystemSpec.of(factory, **options), FIXTURE, WORKLOAD, faults=faults)


_RUNS = {}


def _run(label, factory, faults=None):
    """Serial run of one (system, schedule) pair, memoized per module."""
    key = (label, factory, faults)
    if key not in _RUNS:
        _RUNS[key] = _task(label, factory, faults).run()
    return _RUNS[key]


class TestFaultSchedule:
    def test_builtin_registry_sanity(self):
        names = builtin_schedule_names()
        assert len(names) >= 3
        for name in names:
            sched = builtin_schedule(name)
            assert sched is FaultSchedule.resolve(name)
            # Every built-in carries a task-failure floor so every system
            # variant — even H, which never touches the pool — pays a
            # strictly positive fault cost.
            assert sched.rate("task_failure") > 0.0

    def test_unknown_builtin_raises(self):
        with pytest.raises(FaultError, match="no built-in schedule"):
            builtin_schedule("nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec("meteor_strike", 0.1)

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FaultError, match="rate"):
            FaultSpec("task_failure", 1.5)

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(FaultError, match="duplicate"):
            FaultSchedule("dup", 1, (FaultSpec("straggler", 0.1), FaultSpec("straggler", 0.2)))

    def test_json_roundtrip(self):
        for sched in BUILTIN_SCHEDULES.values():
            assert FaultSchedule.from_json(sched.to_json()) == sched

    def test_pickle_roundtrip(self):
        for sched in BUILTIN_SCHEDULES.values():
            clone = pickle.loads(pickle.dumps(sched))
            assert clone == sched
            assert hash(clone) == hash(sched)

    def test_resolve_accepts_json_and_passthrough(self):
        sched = FaultSchedule.resolve(STORM)
        assert sched.name == "test-storm"
        assert FaultSchedule.resolve(sched) is sched

    def test_resolve_rejects_garbage(self):
        with pytest.raises(FaultError, match="unknown schedule"):
            FaultSchedule.resolve("definitely-not-a-schedule")
        with pytest.raises(FaultError, match="invalid schedule JSON"):
            FaultSchedule.resolve("{not json")

    def test_rate_lookup_defaults_to_zero(self):
        sched = FaultSchedule.of("x", task_failure=0.25)
        assert sched.rate("task_failure") == 0.25
        assert sched.rate("controller_crash") == 0.0

    def test_kind_registry_is_closed(self):
        assert "worker_kill" in FAULT_KINDS
        assert len(FAULT_KINDS) == 7


class TestFaultInjector:
    def _drive(self, injector):
        """A fixed call sequence covering every injection site."""
        ledger = CostLedger()
        ledger.faults = injector
        for tasks in (40, 7, 120, 3):
            injector.map_task_faults(tasks)
        for path in ("/pool/a", "/pool/b", "/pool/c"):
            injector.block_read_faults(path, 5e8, ledger)
        sites = [injector.lose_fragment(6) for _ in range(8)]
        crashes = [injector.controller_crash("repartition") for _ in range(8)]
        plan = injector.worker_kill_plan(12)
        return injector.event_log(), sites, crashes, plan, ledger.fault_s

    def test_threads_share_one_injector(self):
        # The serving layer's readers and writer draw from one injector:
        # every event keeps its index in the log as its number.
        injector = FaultSchedule.of("kills", seed=3, worker_kill=0.5).injector()
        start = threading.Barrier(8)
        fired = []

        def draw():
            start.wait()
            fired.append(sum(injector.worker_crash("serve.reader") for _ in range(500)))

        threads = [threading.Thread(target=draw) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [event.seq for event in injector.events] == list(range(len(injector.events)))
        assert len(injector.events) == sum(fired) > 0

    def test_pickled_injector_draws_on(self):
        sched = FaultSchedule.resolve(STORM)
        injector = sched.injector()
        injector.map_task_faults(40)
        restored = pickle.loads(pickle.dumps(injector))
        assert restored.event_log() == injector.event_log()
        assert self._drive(restored) == self._drive(injector)

    def test_same_seed_same_decisions(self):
        sched = FaultSchedule.resolve(STORM)
        a = self._drive(sched.injector())
        b = self._drive(sched.injector())
        assert a == b
        assert len(a[0]) > 0  # the storm actually fired

    def test_different_seed_diverges(self):
        sched = FaultSchedule.resolve(STORM)
        hot = FaultSchedule.of("other", seed=6, **{s.kind: s.rate for s in sched.specs})
        assert self._drive(sched.injector()) != self._drive(hot.injector())

    def test_event_lines_are_sequential(self):
        injector = FaultSchedule.resolve(STORM).injector()
        self._drive(injector)
        for seq, event in enumerate(injector.events):
            assert event.seq == seq
            assert event.line().startswith(f"{seq}:")

    def test_ledger_charges_task_faults(self):
        sched = FaultSchedule.of("hot", seed=3, task_failure=0.2, straggler=0.1)
        ledger = CostLedger()
        ledger.faults = sched.injector()
        ledger.charge_read(2e9, nfiles=8)
        assert ledger.fault_s > 0
        assert ledger.task_retries + ledger.speculative_tasks > 0
        assert ledger.fault_events > 0
        assert ledger.total_seconds == pytest.approx(ledger.read_s + ledger.fault_s)

    def test_ledger_without_faults_unchanged(self):
        plain, faulted = CostLedger(), CostLedger()
        faulted.faults = FaultSchedule.of("cold", seed=1).injector()
        for ledger in (plain, faulted):
            ledger.charge_read(2e9, nfiles=8)
        assert faulted.fault_s == 0.0
        assert faulted.read_s == plain.read_s
        assert faulted.map_tasks == plain.map_tasks


class TestVerifyRun:
    def test_fault_free_pair_flagged_as_unexercised(self):
        base = _run("DS", "deepsea")
        report = verify_run(base, base, "noop")
        assert not report.ok
        assert any("no faults" in p for p in report.problems)

    def test_divergent_answers_flagged(self):
        # Two different systems disagree on the decision trail — exactly
        # what the checker must catch if a recovery path ever corrupted it.
        report = verify_run(_run("DS", "deepsea"), _run("NP", "non_partitioned"))
        assert not report.ok
        assert any("diverged" in p for p in report.problems)
        assert "FAIL" in report.summary()


class TestChaosInvariant:
    """End-to-end: real systems, real workload, hot schedule."""

    @pytest.mark.parametrize(
        "label,factory",
        [("DS", "deepsea"), ("NP", "non_partitioned"), ("H", "hive")],
    )
    def test_answers_unchanged_ledgers_costlier(self, label, factory):
        schedule = STORM if label != "H" else FLAKY
        report = verify_run(_run(label, factory), _run(label, factory, schedule), schedule)
        assert report.ok, report.summary()
        assert report.events > 0
        assert report.overhead_s > 0

    def test_fault_events_cover_recovery(self):
        # The storm must exercise recovery, not just injection: at least
        # one journal rollback or fragment recompute shows up in the log.
        faulted = _run("DS", "deepsea", STORM)
        kinds = {line.split(":")[2] for line in faulted.fault_events}
        assert "controller_crash" in kinds or "fragment_loss" in kinds
        assert "recovery" in kinds

    def test_ledger_masking_in_fingerprints(self):
        base = _run("DS", "deepsea")
        faulted = _run("DS", "deepsea", STORM)
        for b, f in zip(base.reports, faulted.reports):
            masked_b = report_fingerprint(b, include_ledgers=False)
            masked_f = report_fingerprint(f, include_ledgers=False)
            assert "<masked>" in masked_b
            assert masked_b == masked_f
        # Unmasked fingerprints must differ somewhere: the ledgers carry
        # the fault cost.
        assert any(
            report_fingerprint(b) != report_fingerprint(f)
            for b, f in zip(base.reports, faulted.reports)
        )

    def test_run_result_fault_accounting(self):
        faulted = _run("DS", "deepsea", STORM)
        assert faulted.fault_s > 0
        assert faulted.total_s > _run("DS", "deepsea").total_s
        assert len(faulted.fault_events) > 0


class TestFaultDeterminism:
    TASKS = (
        _task("DS", "deepsea", faults=STORM),
        _task("NP", "non_partitioned", faults=STORM),
        _task("H", "hive", faults=FLAKY),
    )

    def test_faulted_tasks_pickle_roundtrip(self):
        for task in self.TASKS:
            clone = pickle.loads(pickle.dumps(task))
            assert clone == task
            assert hash(clone) == hash(task)

    def test_workers_do_not_change_faulted_runs(self):
        tasks = list(self.TASKS)
        serial = fan_out(tasks, workers=0)
        parallel = fan_out(tasks, workers=2)
        for a, b in zip(serial, parallel):
            assert result_fingerprint(a) == result_fingerprint(b)
            assert a.fault_events == b.fault_events

    def test_worker_kills_do_not_change_faulted_runs(self):
        # Chaos squared: the schedule attacks the simulation while the
        # fault plan hard-kills each task's first worker.  Results must
        # still be byte-identical — the re-dispatched task replays the
        # identical seeded fault sequence.
        tasks = list(self.TASKS)
        serial = fan_out(tasks, workers=0)
        killed = fan_out(tasks, workers=2, fault_plan={0: 1, 1: 1, 2: 1})
        for a, b in zip(serial, killed):
            assert result_fingerprint(a) == result_fingerprint(b)
            assert a.fault_events == b.fault_events


class TestChaosCli:
    def test_list_schedules(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--list-schedules"]) == 0
        out = capsys.readouterr().out
        for name in builtin_schedule_names():
            assert name in out

    def test_bad_schedule_rejected(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--schedule", "definitely-not-real"]) == 2
        assert "bad --schedule" in capsys.readouterr().err

    def test_chaos_command_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "chaos",
                "--queries",
                "12",
                "--instance-gb",
                "10",
                "--schedule",
                STORM,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "byte-identical" in out
        assert "FAIL" not in out
