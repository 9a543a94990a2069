"""Tests for the cache registry itself (repro.caches).

``register_cache`` is the one place every semantically transparent cache
announces itself; worker isolation and the cache canaries hang off it,
so its own behavior gets direct coverage here rather than riding along
in integration tests.
"""

import pytest

from repro import caches


@pytest.fixture
def scratch_registration():
    """Register-and-cleanup helper so tests never pollute the registry."""
    names = []

    def register(name, clear, stats=None):
        names.append(name)
        caches.register_cache(name, clear, stats)

    yield register
    for name in names:
        caches._CLEARERS.pop(name, None)
        caches._STATS.pop(name, None)


class TestRegistration:
    def test_reregistration_replaces_stats(self, scratch_registration):
        scratch_registration("test.dup", lambda: None, lambda: {"hits": 1})
        assert caches.cache_stats()["test.dup"] == {"hits": 1}
        scratch_registration("test.dup", lambda: None)  # no stats this time
        assert "test.dup" in caches.registered_caches()
        assert "test.dup" not in caches.cache_stats()


class TestStatsDelta:
    def test_counters_diffed_gauges_passed_through(self):
        before = {"c": {"hits": 2, "misses": 1, "entries": 5}}
        after = {"c": {"hits": 7, "misses": 4, "entries": 9}}
        delta = caches.stats_delta(before, after)
        assert delta["c"] == {"hits": 5, "misses": 3, "entries": 9}

    def test_nested_server_dict_passes_through(self):
        before = {"c": {"hits": 1, "server": {"gets": 3}}}
        after = {"c": {"hits": 2, "server": {"gets": 9}}}
        delta = caches.stats_delta(before, after)
        assert delta["c"]["hits"] == 1
        assert delta["c"]["server"] == {"gets": 9}

    def test_new_cache_appears_with_full_counts(self):
        delta = caches.stats_delta({}, {"new": {"hits": 3, "entries": 2}})
        assert delta["new"] == {"hits": 3, "entries": 2}
