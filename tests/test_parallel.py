"""Tests for the deterministic process-parallel runner (repro.parallel)."""

import gc
import pickle

import numpy as np
import pytest

from repro import caches
from repro.baselines import deepsea, hive, non_partitioned
from repro.bench.harness import clear_caches, run_systems, sdss_fixture
from repro.engine.indexes import _GLOBAL_CACHE
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import WorkerCrashError
from repro.parallel import (
    FixtureSpec,
    RunTask,
    SystemSpec,
    WorkloadSpec,
    diff_results,
    fan_out,
    fingerprint,
    result_fingerprint,
)
from repro.workloads.generator import sdss_mapped_workload

QUERIES = 12


def _fixture():
    return sdss_fixture(10.0, log_queries=500)


def _factories(fx):
    return {
        "H": lambda: hive(fx.catalog, domains=fx.domains),
        "NP": lambda: non_partitioned(fx.catalog, domains=fx.domains),
        "DS": lambda: deepsea(fx.catalog, domains=fx.domains),
    }


def _plans(fx):
    return sdss_mapped_workload(fx.log, fx.item_domain, n_queries=QUERIES, seed=2)


class TestFanOut:
    def test_results_in_task_order(self):
        tasks = [(lambda i=i: i * i) for i in range(5)]
        assert fan_out(tasks, workers=0) == [0, 1, 4, 9, 16]
        assert fan_out(tasks, workers=2) == [0, 1, 4, 9, 16]

    def test_submission_order_permuted_results_unchanged(self):
        tasks = [(lambda i=i: i + 10) for i in range(4)]
        shuffled = fan_out(tasks, workers=2, submission_order=[3, 1, 0, 2])
        assert shuffled == [10, 11, 12, 13]

    def test_submission_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            fan_out([lambda: 1, lambda: 2], submission_order=[0, 0])

    def test_workers_start_with_empty_caches(self):
        # Worker isolation: whatever the parent cached before the fork, a
        # worker starts with every registered cache empty and its
        # counters zeroed.
        def counters_on_entry():
            return {
                name: (stats["entries"], stats["hits"], stats["misses"])
                for name, stats in caches.cache_stats().items()
            }

        fx = _fixture()
        clear_caches()
        system = _factories(fx)["H"]()
        for plan in _plans(fx):
            system.execute(plan)
        warm = counters_on_entry()
        assert any(entries > 0 for entries, _, _ in warm.values())
        for seen in fan_out([counters_on_entry] * 4, workers=2):
            assert seen.keys() == warm.keys()
            assert all(counts == (0, 0, 0) for counts in seen.values()), seen


class TestWorkerCrashRecovery:
    def test_fault_plan_crash_then_retry_succeeds(self):
        tasks = [(lambda i=i: i * i) for i in range(6)]
        out = fan_out(tasks, workers=3, fault_plan={2: 1, 5: 1})
        assert out == [0, 1, 4, 9, 16, 25]

    def test_retry_budget_exhausted_raises_typed(self):
        tasks = [(lambda i=i: i) for i in range(4)]
        with pytest.raises(WorkerCrashError, match="retry limit") as caught:
            fan_out(tasks, workers=2, retries=1, fault_plan={1: 99})
        assert caught.value.index == 1
        assert caught.value.dispatches == 2

    def test_retries_zero_fails_on_first_crash(self):
        with pytest.raises(WorkerCrashError):
            fan_out([lambda: 1, lambda: 2], workers=2, retries=0, fault_plan={0: 1})

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            fan_out([lambda: 1, lambda: 2], workers=2, retries=-1)

    def test_worker_death_mid_batch_recovered(self, tmp_path):
        # A task that hard-kills its own worker on the first dispatch
        # (os._exit: no exception, no cleanup — just EOF on the pipe)
        # must be re-dispatched and complete, never hang the pool.
        marker = tmp_path / "died-once"

        def victim():
            import os

            if not marker.exists():
                marker.write_text("x")
                os._exit(23)
            return "survived"

        out = fan_out([lambda: "a", victim, lambda: "c"], workers=3)
        assert out == ["a", "survived", "c"]

    def test_task_exception_propagates_to_caller(self):
        def boom():
            raise ValueError("boom in worker")

        with pytest.raises(ValueError, match="boom in worker"):
            fan_out([lambda: 1, boom, lambda: 3], workers=2)

    def test_crashes_do_not_change_engine_results(self):
        # Worker kills perturb scheduling only: a re-dispatched RunTask
        # rebuilds the same system and replays the same workload, so the
        # crashed run's fingerprints match the crash-free run's exactly.
        fixture = FixtureSpec("sdss", 10.0, log_queries=500)
        workload = WorkloadSpec(QUERIES)
        tasks = [
            RunTask(label, SystemSpec.of(name), fixture, workload)
            for label, name in (("H", "hive"), ("DS", "deepsea"))
        ]
        plain = fan_out(tasks, workers=0)
        crashed = fan_out(tasks, workers=2, fault_plan={0: 1, 1: 1})
        for a, b in zip(plain, crashed):
            assert result_fingerprint(a) == result_fingerprint(b)


    def test_task_timeout_kills_and_redispatches(self, tmp_path):
        marker = tmp_path / "slow-once"

        def slow_once():
            import time

            if not marker.exists():
                marker.write_text("x")
                time.sleep(60)
            return "done"

        out = fan_out([slow_once, lambda: "fast"], workers=2, task_timeout=3.0)
        assert out == ["done", "fast"]


class TestTaskSpecs:
    SPEC = RunTask(
        "DS",
        SystemSpec.of("deepsea"),
        FixtureSpec("sdss", 10.0, log_queries=500),
        WorkloadSpec(QUERIES),
    )

    def test_specs_pickle_roundtrip(self):
        clone = pickle.loads(pickle.dumps(self.SPEC))
        assert clone == self.SPEC
        assert hash(clone) == hash(self.SPEC)

    def test_spec_runs_like_direct_construction(self):
        fx = _fixture()
        direct = run_systems({"DS": _factories(fx)["DS"]}, _plans(fx))["DS"]
        from_spec = self.SPEC.run()
        assert result_fingerprint(from_spec) == result_fingerprint(direct)

    def test_unknown_factory_rejected(self):
        spec = SystemSpec.of("no_such_system")
        with pytest.raises(ValueError, match="unknown system factory"):
            spec.build(_fixture())

    def test_pool_fraction_resolved_against_catalog(self):
        fx = _fixture()
        system = SystemSpec.of("deepsea", pool_fraction=0.25).build(fx)
        assert system.pool.smax_bytes == pytest.approx(0.25 * fx.catalog.total_size_bytes)

    def test_table_pickle_strips_lineage(self):
        schema = Schema.of(Column("a"), Column("b"))
        base = Table.from_dict(schema, {"a": [3, 1, 2], "b": [9, 8, 7]})
        selected = base.filter(np.array([True, False, True]))
        assert selected._lineage is not None
        clone = pickle.loads(pickle.dumps(selected))
        assert clone._lineage is None
        assert clone.sorted_rows() == selected.sorted_rows()


class TestDeterminism:
    def test_shuffled_submission_same_fingerprints(self):
        fixture = FixtureSpec("sdss", 10.0, log_queries=500)
        workload = WorkloadSpec(QUERIES)
        tasks = [
            RunTask(label, SystemSpec.of(name), fixture, workload)
            for label, name in (
                ("H", "hive"),
                ("NP", "non_partitioned"),
                ("DS", "deepsea"),
            )
        ]
        serial = fan_out(tasks, workers=0)
        shuffled = fan_out(tasks, workers=2, submission_order=[2, 0, 1])
        for a, b in zip(serial, shuffled):
            assert result_fingerprint(a) == result_fingerprint(b)

    def test_diff_results_names_divergence(self):
        fx = _fixture()
        plans = _plans(fx)
        a = run_systems(_factories(fx), plans[:3])
        b = run_systems({"H": _factories(fx)["H"]}, plans[:3])
        lines = diff_results(a, b)
        assert any("present only in serial" in line for line in lines)


class TestCacheRegistry:
    def test_known_caches_registered(self):
        names = caches.registered_caches()
        for expected in (
            "bench.harness.fixtures",
            "engine.indexes.probe",
            "engine.indexes.sort",
            "matching.match_view",
            "query.analysis",
            "query.optimizer.pushdown",
            "query.signature",
        ):
            assert expected in names

    def test_registration_idempotent_latest_wins(self):
        calls = []
        try:
            caches.register_cache("test.dummy", lambda: calls.append("old"))
            caches.register_cache("test.dummy", lambda: calls.append("new"))
            caches.clear_all_caches()
            assert calls == ["new"]
        finally:
            caches._CLEARERS.pop("test.dummy", None)
            caches._STATS.pop("test.dummy", None)

    def test_stats_shape(self):
        for name, stats in caches.cache_stats().items():
            for key in ("hits", "misses", "evictions", "entries"):
                assert key in stats, f"{name} lacks {key!r}"
                assert stats[key] >= 0

    def test_harness_clear_caches_covers_registry(self):
        fx = _fixture()
        run_systems(_factories(fx), _plans(fx))
        assert any(s["entries"] > 0 for s in caches.cache_stats().values())
        clear_caches()
        stats = caches.cache_stats()
        assert all(s["entries"] == 0 for s in stats.values())
        assert all(s["hits"] == 0 and s["misses"] == 0 for s in stats.values())


class TestCacheCounters:
    def test_sort_index_hits_and_misses(self):
        schema = Schema.of(Column("k"))
        table = Table.from_dict(schema, {"k": [3, 1, 2]})
        before = _GLOBAL_CACHE.stats()
        _GLOBAL_CACHE.sort_index(table, "k")
        _GLOBAL_CACHE.sort_index(table, "k")
        after = _GLOBAL_CACHE.stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_sort_index_eviction_counted_on_table_death(self):
        schema = Schema.of(Column("k"))
        table = Table.from_dict(schema, {"k": [3, 1, 2]})
        _GLOBAL_CACHE.sort_index(table, "k")
        before = _GLOBAL_CACHE.stats()["evictions"]
        del table
        gc.collect()
        assert _GLOBAL_CACHE.stats()["evictions"] == before + 1

    def test_workload_populates_counters(self):
        clear_caches()
        fx = _fixture()
        run_systems(_factories(fx), _plans(fx))
        stats = caches.cache_stats()
        assert stats["engine.indexes.sort"]["hits"] > 0
        assert stats["engine.indexes.sort"]["misses"] > 0
        assert stats["query.signature"]["hits"] > 0


class TestCliDeterminism:
    def test_determinism_command_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "determinism",
                "--queries",
                "8",
                "--instance-gb",
                "10",
                "--workers",
                "1,2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "identical" in out

    @pytest.mark.parametrize("workers", ["", ",", "0,2", "two"])
    def test_empty_or_invalid_worker_list_is_rejected(self, workers, capsys):
        from repro.cli import main

        assert main(["determinism", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert "invalid --workers list" in captured.err
        assert "identical" not in captured.out


def _guarded(fn, timeout_s=60.0):
    """Run a pool call under a watchdog: a hang fails instead of wedging CI."""
    import threading

    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), "pool call hung past its guard timeout"
    if "error" in box:
        raise box["error"]
    return box["value"]


class _DeadSendConn:
    """A pipe whose far end died while the worker sat idle: send raises."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, *args, **kwargs):
        raise BrokenPipeError("stub: worker died while idle")

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _poison_first_spawn(monkeypatch):
    """First worker the pool spawns gets a dead pipe; the rest are healthy."""
    from repro.parallel import pool as pl

    real = pl._Worker
    state = {"poisoned": False}

    def factory(proc, conn, *args, **kwargs):
        if not state["poisoned"]:
            state["poisoned"] = True
            conn = _DeadSendConn(conn)
        return real(proc, conn, *args, **kwargs)

    monkeypatch.setattr(pl, "_Worker", factory)


class TestPoolEdgeCases:
    """Worker/task-count edges and the dead-idle-worker dispatch path."""

    def test_fan_out_zero_tasks(self):
        assert _guarded(lambda: fan_out([], workers=4)) == []

    def test_fan_out_more_workers_than_tasks(self):
        tasks = [(lambda i=i: i * 3) for i in range(2)]
        assert _guarded(lambda: fan_out(tasks, workers=8)) == [0, 3]

    def test_single_task_runs_serially_for_any_worker_count(self):
        assert _guarded(lambda: fan_out([lambda: 41], workers=16)) == [41]

    def test_fan_out_dead_idle_worker_redispatches(self, monkeypatch):
        # A worker that dies *between* tasks surfaces as a send failure on
        # its next dispatch — the task must keep its retry budget, move to
        # a fresh worker, and the pool must neither hang nor crash.
        _poison_first_spawn(monkeypatch)
        tasks = [(lambda i=i: i * i) for i in range(4)]
        assert _guarded(lambda: fan_out(tasks, workers=2)) == [0, 1, 4, 9]

    def test_fan_out_dead_idle_worker_keeps_retry_budget(self, monkeypatch):
        # retries=0: any *re-dispatch* would raise, so finishing proves the
        # failed send was not charged against the task's budget.
        _poison_first_spawn(monkeypatch)
        tasks = [(lambda i=i: i + 7) for i in range(3)]
        assert _guarded(lambda: fan_out(tasks, workers=2, retries=0)) == [7, 8, 9]
