"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

Not part of the repository's tier-1 tests (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import trace  # noqa: E402
from perfbench.cli import BENCHMARK, WORKLOAD_NAMES, verdict  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.stats import percentile, quartiles, spread  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    drive_batch,
    mismatches,
    rows_digest,
    set_up,
)

END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([7.0], 95) == 7.0
    assert percentile(range(101), 95) == 95.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_and_spread_match_the_drivers_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, mid, q3 = quartiles(values)
    assert (q1, mid, q3) == (11.75, 14.5, 17.25)
    assert spread(values) == pytest.approx(5.5 / 14.5)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert spread([3.0]) == 0.0


def test_self_time_is_the_span_minus_its_children():
    # (id, name, start, end, parent, query, count)
    spans = [
        (2, "engine.execute", 1.0, 4.0, 1, 1, None),
        (4, "storage.pool_read", 5.0, 5.5, 3, 1, None),
        (3, "engine.execute", 4.0, 8.0, 1, 1, None),
        (1, "core.execute", 0.0, 10.0, 0, 1, None),
    ]
    own = trace.self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 3.5, 4: 0.5}
    assert sum(own.values()) == 10.0  # self times add up to the top-level span
    layers = trace.roll_up(spans)
    assert layers["engine.execute"]["calls"] == 2
    assert layers["engine.execute"]["self_s"] == 6.5


def test_recorder_nests_wrapped_calls_and_counts_results():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return [1, 2, 3]

    recorder, layer = trace.SpanRecorder(), Layer()
    recorder.wrap(layer, "outer", "t.outer", count=len, query=lambda: 7)
    recorder.wrap(layer, "inner", "t.inner", count=len)
    layer.outer()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[1], []).append(span)
    (outer,) = by_name["t.outer"]
    assert outer[4] == 0 and outer[5] == 7 and outer[6] == 6
    assert [s[4] for s in by_name["t.inner"]] == [outer[0], outer[0]]
    assert all(s[5] == 7 for s in by_name["t.inner"])


def test_verdict_reports_noise_as_unresolved_not_unchanged():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert verdict(steady, [v * 1.01 for v in steady], "lower", 0.1)[0] == "unchanged"
    assert verdict(steady, [v * 1.3 for v in steady], "lower", 0.1)[0] == "REGRESSION"
    assert verdict(steady, [v * 1.3 for v in steady], "higher", 0.1)[0] == "improved"
    assert verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"


@pytest.fixture(scope="module")
def small_direct_run():
    workload = WORKLOADS["direct_engine"]
    inputs, system = set_up(workload, seed=2, scale=0.005)
    stretch = drive_batch(system, inputs, 60.0, None)
    return inputs, system, stretch


def test_corrupted_answer_is_counted_as_a_failure(small_direct_run):
    inputs, system, stretch = small_direct_run
    answers = list(stretch.answers)
    assert mismatches(inputs.plans, answers, stretch.epochs, system) == []
    victim = next(i for i, a in enumerate(answers) if a.nrows > 1)
    answers[victim] = answers[victim].take(np.arange(1, answers[victim].nrows))
    assert mismatches(inputs.plans, answers, stretch.epochs, system) == [victim]


def test_rows_digest_agrees_with_the_repos_answer_digest(small_direct_run):
    from repro.serve.driver import answer_digest

    _, _, stretch = small_direct_run
    answers = [a for a in stretch.answers if a.nrows > 1][:12]
    shuffled = [a.take(np.random.default_rng(0).permutation(a.nrows)) for a in answers]
    for i, a in enumerate(answers):
        assert rows_digest(a) == rows_digest(shuffled[i])  # order-free
        for b in answers[i:]:
            assert (rows_digest(a) == rows_digest(b)) == (answer_digest(a) == answer_digest(b))


def test_traced_run_yields_exactly_the_declared_layer_metrics():
    workload = WORKLOADS["ingest_mix"]
    inputs, system = set_up(workload, seed=2, scale=0.05)
    recorder = trace.SpanRecorder()
    stretch = drive_batch(system, inputs, 60.0, recorder)
    stretch.prefix = len(stretch.answers)
    from repro import caches

    values = layer_metrics(inputs, system, stretch, recorder, caches.cache_stats(), 0.0)
    assert sorted(values) == sorted(PER_LAYER)
    assert all(math.isfinite(v) for v in values.values())
    assert stretch.failed == 0 and stretch.ingest_s
    assert values["storage.journal_txns"] == len(stretch.ingest_s)
    # One caller: the top-level spans account for the whole stretch.
    assert abs(values["trace.unattributed_share"]) < 0.02


def test_smoke_all_six_workloads(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--scale", "0.02", "--seconds", "60",
         "--out", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout
    assert elapsed < 60.0  # ~22 s here: five set-ups per workload dominate at this scale
    results = json.loads((tmp_path / "results.json").read_text())
    assert list(results["end_to_end"]) == WORKLOAD_NAMES == list(WORKLOADS)
    for name, metrics in results["end_to_end"].items():
        assert sorted(metrics) == sorted(END_TO_END), name
        for metric, (value,) in metrics.items():
            assert math.isfinite(value) and value > 0, (name, metric, value)
        assert results["failed"][name] == 0  # failed_share == 0
