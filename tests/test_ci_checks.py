"""The CI gate scripts in ``benchmarks/ci_checks`` are tier-1-tested.

Each gate is exercised through its real CLI (``subprocess``) on both the
pass and the fail path, so a broken gate fails the local suite instead of
surfacing as a red CI job after merge.  The JSON-reading gates get
synthetic report fixtures; the in-process cache canaries run a
scaled-down fig-5a workload.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKS = REPO / "benchmarks" / "ci_checks"


def run_check(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, str(CHECKS / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


GOOD_MATCHING = {
    "matching.match_view": {"hits": 95, "misses": 5, "evictions": 0, "entries": 5},
    "query.analysis": {"hits": 10, "misses": 20, "evictions": 0, "entries": 20},
}


class TestCheckMatchingMemo:
    """The verdict on synthetic ``cache_stats()`` snapshots, then one live run."""

    @staticmethod
    def problems(stats: dict, floor: float = 0.80) -> list[str]:
        spec = importlib.util.spec_from_file_location(
            "check_matching_memo", CHECKS / "check_matching_memo.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.check(stats, floor)

    def test_passes_above_floor(self):
        assert self.problems(GOOD_MATCHING) == []
        proc = run_check("check_matching_memo.py", "--queries", "40", "--instance-gb", "5")
        assert proc.returncode == 0, proc.stderr
        assert "matching.match_view" in proc.stdout

    def test_fails_below_floor_with_observed_rate(self):
        stats = dict(GOOD_MATCHING)
        stats["matching.match_view"] = {"hits": 5, "misses": 95, "evictions": 0, "entries": 95}
        (problem,) = self.problems(stats)
        assert "0.050" in problem  # the observed rate is in the failure

    def test_fails_when_memo_missing(self):
        assert self.problems({"query.analysis": {"hits": 1, "misses": 1}})

    def test_floor_flag(self):
        proc = run_check(
            "check_matching_memo.py", "--queries", "40", "--instance-gb", "5", "--floor", "0.999"
        )
        assert proc.returncode == 1
        assert "below floor" in proc.stderr


class TestCheckFragmentPrune:
    def test_scaled_down_run_clears_the_pruned_floor(self):
        proc = run_check(
            "check_fragment_prune.py", "--queries", "15", "--instance-gb", "5"
        )
        assert proc.returncode == 0, proc.stderr
        assert "pruned-row fraction:" in proc.stdout

    def test_unreachable_pruned_floor_fails(self):
        proc = run_check(
            "check_fragment_prune.py",
            "--queries", "15", "--instance-gb", "5", "--pruned-floor", "0.999",
        )
        assert proc.returncode == 1
        assert "pruned-row fraction" in proc.stderr


class TestCheckJoinFastPath:
    """The verdict on synthetic ``cache_stats()`` snapshots, then one live run."""

    @staticmethod
    def problems(probe: "dict | None", floor: float = 0.9) -> list[str]:
        spec = importlib.util.spec_from_file_location(
            "check_join_fast_path", CHECKS / "check_join_fast_path.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        stats = {} if probe is None else {"engine.indexes.probe": probe}
        return module.check(stats, floor)

    @staticmethod
    def probe(fk_rows: int, fk_fallback: int, binary: int = 0) -> dict:
        return {"hits": 9, "misses": 1, "evictions": 0, "entries": 1,
                "fk_rows": fk_rows, "fk_fallback": fk_fallback,
                "positional": 20, "binary": binary}

    def test_passes_at_and_above_floor(self):
        assert self.problems(self.probe(90, 10)) == []
        assert self.problems(self.probe(143, 0)) == []
        # At the gate's own instance size: a 5 GB instance samples 500 of
        # the 40,001 item keys, a span too sparse for a position table.
        proc = run_check("check_join_fast_path.py", "--queries", "40")
        assert proc.returncode == 0, proc.stderr
        assert "fk_rows" in proc.stdout and " 0 binary" in proc.stdout

    def test_fails_below_floor_with_observed_share(self):
        (problem,) = self.problems(self.probe(89, 11))
        assert "0.890" in problem

    def test_fails_on_any_binary_search_probe(self):
        (problem,) = self.problems(self.probe(143, 0, binary=1))
        assert "1 probes binary-searched (20 by position table)" in problem

    def test_fails_without_counters_or_joins(self):
        (missing,) = self.problems(None)
        assert "not in cache stats" in missing
        (counters,) = self.problems({"hits": 1, "misses": 1, "evictions": 0, "entries": 1})
        assert "lacks the join counters" in counters and "binary" in counters
        (idle,) = self.problems(self.probe(0, 0))
        assert "no cached joins" in idle

    def test_floor_flag(self):
        proc = run_check(
            "check_join_fast_path.py", "--queries", "40", "--instance-gb", "5", "--floor", "1.01"
        )
        assert proc.returncode == 1
        assert "below floor" in proc.stderr


class TestCheckHitLog:
    """The verdict on synthetic log lengths, then one live run."""

    @staticmethod
    def problems(entries: dict, queries: int) -> list[str]:
        spec = importlib.util.spec_from_file_location("check_hit_log", CHECKS / "check_hit_log.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.check(entries, queries)

    def test_passes_at_and_below_one_entry_per_query(self):
        assert self.problems({"v_a/x": 40, "v_b/x": 0}, 40) == []
        proc = run_check("check_hit_log.py", "--queries", "40", "--instance-gb", "5")
        assert proc.returncode == 0, proc.stderr
        assert "log entries" in proc.stdout

    def test_fails_naming_the_partition_that_holds_copies(self):
        (problem,) = self.problems({"v_a/x": 12, "v_b/x": 137}, 40)
        assert "v_b/x" in problem and "137" in problem

    def test_fails_when_nothing_was_recorded(self):
        (problem,) = self.problems({"v_a/x": 0}, 40)
        assert "no partition recorded a hit" in problem
        assert self.problems({}, 40)


class TestCheckPlanRecord:
    """The verdict on synthetic counters, then one live run."""

    @staticmethod
    def problems(
        repeat: dict, calls: int, served: dict, floor: float = 0.7, adapted: "dict | None" = None
    ) -> list[str]:
        spec = importlib.util.spec_from_file_location(
            "check_plan_record", CHECKS / "check_plan_record.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.check(repeat, calls, served, floor, adapted or TestCheckPlanRecord.adapted())

    @staticmethod
    def adapted(**over) -> dict:
        base = {
            "answered": 60,
            "misses": 40,
            "view_candidate_subplans": 40,
            "partition_candidates": 2,
            "designs_replaced": 5,
        }
        base.update(over)
        return base

    @staticmethod
    def counters(hits: int, misses: int, entries: int = 0, evictions: int = 0) -> dict:
        return {"hits": hits, "misses": misses, "evictions": evictions, "entries": entries}

    @staticmethod
    def served(**over) -> dict:
        base = {
            "answered": 50,
            "find_matches": 53,
            "invalidations": 3,
            "executes": 4,
            "executes_without_creation": 0,
        }
        base.update(over)
        return base

    def test_passes_at_and_above_floor(self):
        assert self.problems(self.counters(70, 30, 20), 30, self.served()) == []
        assert self.problems(self.counters(70, 30, 20), 30, self.served(find_matches=40)) == []
        proc = run_check(
            "check_plan_record.py", "--queries", "200", "--plans", "20", "--instance-gb", "5"
        )
        assert proc.returncode == 0, proc.stderr
        assert "from a record" in proc.stdout
        assert "adaptation:" in proc.stdout
        assert "served once" in proc.stdout

    def test_fails_below_floor_with_observed_share(self):
        (problem,) = self.problems(self.counters(69, 31, 20), 31, self.served())
        assert "0.690" in problem

    def test_fails_when_find_matches_runs_beside_the_record(self):
        (problem,) = self.problems(self.counters(80, 20, 20), 25, self.served())
        assert "25 times for 20 record misses" in problem

    def test_fails_when_a_served_query_is_planned_twice(self):
        (problem,) = self.problems(self.counters(80, 20), 20, self.served(find_matches=54))
        assert "54 times for 50 answered queries and 3 invalidated records" in problem

    def test_fails_when_the_writer_runs_a_query_to_capture_nothing(self):
        served = self.served(executes_without_creation=2)
        (problem,) = self.problems(self.counters(80, 20), 20, served)
        assert "the writer executed 2 queries" in problem

    def test_fails_when_structural_work_runs_beside_the_adaptation_record(self):
        adapted = self.adapted(view_candidate_subplans=41)
        (problem,) = self.problems(self.counters(80, 20), 20, self.served(), adapted=adapted)
        assert "view_candidate_subplans ran 41 times for 40 adaptation misses" in problem
        adapted = self.adapted(partition_candidates=6)
        (problem,) = self.problems(self.counters(80, 20), 20, self.served(), adapted=adapted)
        assert "partition_candidates ran 6 times" in problem
        assert "for 5 tentative designs replaced" in problem
        (problem,) = self.problems(
            self.counters(80, 20), 20, self.served(), adapted=self.adapted(answered=0)
        )
        assert "no query was answered by an adaptation record" in problem

    def test_fails_when_nothing_was_planned(self):
        (problem,) = self.problems(self.counters(0, 0), 0, self.served())
        assert "checked nothing" in problem
        (problem,) = self.problems(self.counters(80, 20), 20, self.served(answered=0))
        assert "served run checked nothing" in problem

    def test_floor_flag(self):
        proc = run_check(
            "check_plan_record.py",
            *("--queries", "200", "--plans", "20", "--instance-gb", "5", "--floor", "0.99"),
        )
        assert proc.returncode == 1
        assert "below floor" in proc.stderr


def serve_phase(**over) -> dict:
    base = {
        "offered": 20, "answered": 20, "shed": 0, "timed_out": 0,
        "failed": 0, "retries": 2,
        "digest_mismatches": [], "accounting_ok": True, "unresolved": 0,
        "pool_epoch": 4, "writer": {"steps": 9},
    }
    base.update(over)
    return base


def write_serve_report(tmp_path: Path, phases: dict) -> str:
    path = tmp_path / "serve.json"
    path.write_text(json.dumps({"phases": phases}))
    return str(path)


class TestServeInvariantsGate:
    def good_phases(self) -> dict:
        return {
            "steady": serve_phase(),
            "burst": serve_phase(shed=8, answered=12),
            "chaos": serve_phase(),
        }

    def test_passes_on_clean_report(self, tmp_path):
        report = write_serve_report(tmp_path, self.good_phases())
        proc = run_check("check_serve_invariants.py", report)
        assert proc.returncode == 0, proc.stderr
        assert "serving invariants hold" in proc.stdout

    def test_fails_on_digest_divergence(self, tmp_path):
        phases = self.good_phases()
        phases["chaos"] = serve_phase(digest_mismatches=[7])
        proc = run_check("check_serve_invariants.py", write_serve_report(tmp_path, phases))
        assert proc.returncode == 1
        assert "diverged" in proc.stderr

    def test_fails_on_broken_accounting(self, tmp_path):
        phases = self.good_phases()
        phases["steady"] = serve_phase(accounting_ok=False)
        proc = run_check("check_serve_invariants.py", write_serve_report(tmp_path, phases))
        assert proc.returncode == 1
        assert "accounting" in proc.stderr

    def test_fails_when_burst_shed_nothing(self, tmp_path):
        phases = self.good_phases()
        phases["burst"] = serve_phase(shed=0)
        proc = run_check("check_serve_invariants.py", write_serve_report(tmp_path, phases))
        assert proc.returncode == 1
        assert "admission control never fired" in proc.stderr

    def test_fails_when_chaos_never_retried(self, tmp_path):
        phases = self.good_phases()
        phases["chaos"] = serve_phase(retries=0)
        proc = run_check("check_serve_invariants.py", write_serve_report(tmp_path, phases))
        assert proc.returncode == 1
        assert "retries" in proc.stderr or "retry" in proc.stderr

    def test_fails_when_the_writer_failed_a_step(self, tmp_path):
        phases = self.good_phases()
        phases["steady"] = serve_phase(writer={"steps": 9, "errors": 1})
        proc = run_check("check_serve_invariants.py", write_serve_report(tmp_path, phases))
        assert proc.returncode == 1
        assert "1 writer steps failed" in proc.stderr

    def test_fails_on_empty_report(self, tmp_path):
        proc = run_check("check_serve_invariants.py", write_serve_report(tmp_path, {}))
        assert proc.returncode == 1


def ingest_result(
    scenario="drip",
    mode="delta",
    digest="abc123",
    batches=20,
    identity_ok=True,
    identity_checks=40,
    stale_reads=0,
    maint_s=120.5,
    fragments_patched=12,
    **extra,
):
    return {
        **extra,
        "scenario": scenario,
        "mode": mode,
        "answer_digest": digest,
        "batches": batches,
        "identity_ok": identity_ok,
        "identity_checks": identity_checks,
        "identity_problems": [] if identity_ok else ["v_x/frag_1: column k diverged"],
        "stale_reads": stale_reads,
        "maint_s": maint_s,
        "fragments_patched": fragments_patched,
    }


def write_ingest_report(tmp_path: Path, results: list) -> str:
    path = tmp_path / "ingest.json"
    path.write_text(json.dumps({"results": results}))
    return str(path)


class TestCheckIngestDelta:
    def good_results(self):
        return [
            ingest_result(mode="delta"),
            ingest_result(mode="rebuild", fragments_patched=0),
        ]

    def test_passes_on_clean_report(self, tmp_path):
        report = write_ingest_report(tmp_path, self.good_results())
        proc = run_check("check_ingest_delta.py", report)
        assert proc.returncode == 0, proc.stderr
        assert "ingest delta gate passed" in proc.stdout

    def test_fails_when_delta_diverges_from_recompute(self, tmp_path):
        results = [
            ingest_result(mode="delta", digest="aaa"),
            ingest_result(mode="rebuild", digest="bbb", fragments_patched=0),
        ]
        proc = run_check("check_ingest_delta.py", write_ingest_report(tmp_path, results))
        assert proc.returncode == 1
        assert "diverged" in proc.stderr

    def test_fails_on_identity_proof_failure(self, tmp_path):
        results = self.good_results()
        results[0] = ingest_result(mode="delta", identity_ok=False)
        proc = run_check("check_ingest_delta.py", write_ingest_report(tmp_path, results))
        assert proc.returncode == 1
        assert "identity proof failed" in proc.stderr

    def test_fails_on_stale_cache_reads(self, tmp_path):
        results = self.good_results()
        results[0] = ingest_result(mode="delta", stale_reads=2)
        proc = run_check("check_ingest_delta.py", write_ingest_report(tmp_path, results))
        assert proc.returncode == 1
        assert "stale" in proc.stderr

    def test_fails_when_no_fragment_was_patched(self, tmp_path):
        results = self.good_results()
        results[0] = ingest_result(mode="delta", fragments_patched=0)
        proc = run_check("check_ingest_delta.py", write_ingest_report(tmp_path, results))
        assert proc.returncode == 1
        assert "patched no fragments" in proc.stderr

    def joined_results(self, **delta_fields):
        fields = {"join_views_delta": 1, "fragments_rebuilt": 0, **delta_fields}
        return self.good_results() + [
            ingest_result("joined", "delta", **fields),
            ingest_result("joined", "rebuild", fragments_patched=0, fragments_rebuilt=13),
        ]

    def test_passes_when_probe_join_views_are_only_patched(self, tmp_path):
        report = write_ingest_report(tmp_path, self.joined_results())
        proc = run_check("check_ingest_delta.py", report)
        assert proc.returncode == 0, proc.stderr

    def test_fails_when_a_probe_join_view_is_rebuilt(self, tmp_path):
        report = write_ingest_report(tmp_path, self.joined_results(fragments_rebuilt=3))
        proc = run_check("check_ingest_delta.py", report)
        assert proc.returncode == 1
        assert "rebuild path" in proc.stderr and "joined/delta" in proc.stderr

    def test_fails_when_the_rebuilt_count_is_not_reported(self, tmp_path):
        results = self.joined_results()
        del results[2]["fragments_rebuilt"]
        proc = run_check("check_ingest_delta.py", write_ingest_report(tmp_path, results))
        assert proc.returncode == 1
        assert "rebuild path" in proc.stderr

    def test_fails_when_no_join_view_was_delta_maintained(self, tmp_path):
        report = write_ingest_report(tmp_path, self.joined_results(join_views_delta=0))
        proc = run_check("check_ingest_delta.py", report)
        assert proc.returncode == 1
        assert "no probe-side join view" in proc.stderr

    def test_rebuilds_outside_the_join_scenario_are_not_gated(self, tmp_path):
        results = self.good_results()
        results[0] = ingest_result(mode="delta", fragments_rebuilt=2)
        proc = run_check("check_ingest_delta.py", write_ingest_report(tmp_path, results))
        assert proc.returncode == 0, proc.stderr

    def test_fails_when_a_mode_is_missing(self, tmp_path):
        report = write_ingest_report(tmp_path, [ingest_result(mode="delta")])
        proc = run_check("check_ingest_delta.py", report)
        assert proc.returncode == 1
        assert "both delta and rebuild" in proc.stderr

    def test_fails_on_empty_report(self, tmp_path):
        proc = run_check("check_ingest_delta.py", write_ingest_report(tmp_path, []))
        assert proc.returncode == 1
        assert "no scenario results" in proc.stderr
