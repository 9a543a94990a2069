"""The partition hit log against the per-fragment lists it replaced.

``tests/list_pstat.py`` is the store as it was — one ``hit_times`` /
``hit_ranges`` pair of lists per fragment — with the readers that walked
them.  A random interleaving of every write (tracking a fragment, a
query's hits, a single fragment's hit, a split's inheritance, a merge's
union, the clock moving on) is applied to both
stores, and after every step every reader of raw hits must agree bit for
bit: each fragment's hit times, ranges, count and last access, ``fragment_hits``,
the realizing hits (both calls of an index, against both paths of the
old one), the observed jitter, co-access, and the partition's MLE fit
(per-fragment values, H_total, μ, σ²).
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.adaptation import JitterWindow
from repro.core.merging import co_access_fraction
from repro.core.selection import Selection
from repro.core.valuation import Valuation
from repro.costmodel.decay import NoDecay, ProportionalDecay
from repro.costmodel.stats import StatisticsStore
from repro.costmodel.value import (
    RealizingHitsIndex,
    fragment_hits,
    partition_distribution,
    realizing_hits,
)
from repro.partitioning.candidates import SplitCandidate
from repro.partitioning.intervals import Interval
from tests import list_pstat
from tests.conftest import examples

DOMAIN = Interval.closed(0, 100)
N_PARTS = 32
ATTRS = ("a", "b")
PROBES = (Interval.closed(10, 25), Interval.open(25, 60), Interval.closed(0, 100))

_bound = st.sampled_from([None, 0.0, 10.0, 25.0, 40.0, 60.0, 85.0, 100.0])


@st.composite
def intervals(draw):
    """Intervals on, beside and across DOMAIN; unbounded ends and points too."""
    lo, hi = draw(_bound), draw(_bound)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    if lo is not None and lo == hi:
        return Interval.point(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


_attr = st.sampled_from(ATTRS)
_pick = st.integers(0, 40)
_ensure = st.tuples(st.just("ensure"), _attr, intervals())
_record = st.tuples(st.just("record"), _attr, intervals())
steps = st.builds(
    lambda tracked, rest: tracked + rest,
    st.lists(_ensure, min_size=2, max_size=8),  # something to hit first
    st.lists(
        st.one_of(
            _record,
            _record,
            _ensure,
            st.tuples(st.just("hit"), _attr, _pick, st.none() | intervals()),
            st.tuples(
                st.just("inherit"), _attr, _pick, st.lists(intervals(), min_size=1, max_size=3)
            ),
            st.tuples(st.just("merge"), _attr, _pick, _pick),
            st.tuples(st.just("tick"), _attr),
        ),
        min_size=8,
        max_size=40,
    ),
)
# The clock moves in steps of 8: integer-valued float times hash to
# themselves, so in a small set they collide, and the iteration order of the
# H_total set depends on the order the times were inserted in.
STRIDE = 8.0
decays = st.sampled_from([ProportionalDecay(t_max=30), ProportionalDecay(t_max=1e4), NoDecay()])


def apply(step, new, old, t):
    kind, attr = step[0], step[1]
    tracked = new.intervals_for("v", attr)
    if kind == "ensure":
        new.ensure_fragment("v", attr, step[2])
        old.ensure_fragment("v", attr, step[2])
    elif kind == "record":
        new.record_overlapping_hits("v", attr, t, step[2])
        old.record_overlapping_hits("v", attr, t, step[2])
    elif not tracked:
        return
    elif kind == "hit":
        interval = tracked[step[2] % len(tracked)]
        new.fragment("v", attr, interval).record_hit(t, step[3])
        old.fragment("v", attr, interval).record_hit(t, step[3])
    elif kind == "inherit":
        candidate = SplitCandidate(tracked[step[2] % len(tracked)], tuple(step[3]))
        fits = SimpleNamespace(stats=new, settle_fit=lambda *args: None)
        Valuation.inherit_fragment_stats(fits, "v", attr, candidate, t)
        list_pstat.inherit_fragment_stats(old, "v", attr, candidate.parent, candidate.pieces)
    elif kind == "merge":
        left, right = tracked[step[2] % len(tracked)], tracked[step[3] % len(tracked)]
        merged = new.ensure_fragment("v", attr, left.hull(right))
        if not merged.hit_count():  # Repartitioner.apply_merge
            merged.union_hits(new.fragment("v", attr, left), new.fragment("v", attr, right))
        list_pstat.merge_hits(old, "v", attr, left, right, left.hull(right))


def assert_same_hits(n, o):
    assert n.times_array().tolist() == o.hit_times
    assert [theta for _, theta in n.hits()] == o.hit_ranges
    assert n.last_access_t == o.last_access_t
    assert n.hit_count() == len(o.hit_times)


def assert_same_readings(new, old, t, decay):
    for attr in ATTRS:
        tracked = new.intervals_for("v", attr)
        assert tracked == old.intervals_for("v", attr)
        pairs = [(new.fragment("v", attr, iv), old.fragment("v", attr, iv)) for iv in tracked]
        for n, o in pairs:
            assert_same_hits(n, o)
            assert fragment_hits(n, t, decay) == list_pstat.fragment_hits(o, t, decay)
            parent = n.interval
            index = RealizingHitsIndex(n, parent, t, decay)
            old_index = list_pstat.RealizingHitsIndex(o, parent, t, decay)
            for piece in PROBES + tuple(tracked) + PROBES:  # first and later calls of both
                expected = list_pstat.realizing_hits(o, parent, piece, t, decay)
                assert realizing_hits(n, parent, piece, t, decay) == expected
                assert index.hits_for(piece) == old_index.hits_for(piece) == expected
            selection = SimpleNamespace(stats=new)
            for theta in PROBES:
                jitter = Selection.observed_jitter(selection, "v", attr, parent, theta)
                assert jitter == list_pstat.observed_jitter(old, "v", attr, parent, theta)
        for (na, oa), (nb, ob) in zip(pairs, pairs[1:]):
            assert co_access_fraction(na, nb, t, decay) == list_pstat.co_access_fraction(
                oa, ob, t, decay
            )
        # the fit, and the per-fragment values and H_total it was taken over
        partition = [("v", attr, DOMAIN)]
        got = partition_distribution(new, "v", attr, DOMAIN, t, decay, N_PARTS)
        want = list_pstat.partition_distributions(old, partition, t, decay, N_PARTS)[("v", attr)]
        assert (got is None) == (want is None)
        if got is not None:
            assert (got[0].mu, got[0].sigma2, got[1]) == (want[0].mu, want[0].sigma2, want[1])
        if pairs:  # the list fit memoized each fragment's H(I)
            log = new.hit_log("v", attr)
            per_row, total = log.decayed_hits(decay, t)
            assert per_row[log.rows()].tolist() == [o._hits_memo[2] for _, o in pairs]
            assert want is None or total == want[1]


@given(steps, decays)
@settings(max_examples=examples(dev=30, deep=300), deadline=None)
def test_every_reader_sees_the_lists_it_saw_before(script, decay):
    new, old = StatisticsStore(), list_pstat.StatisticsStore()
    t = 0.0
    writes = 0
    for step in script:
        t += STRIDE
        apply(step, new, old, t)
        writes += step[0] in ("record", "hit")
        assert_same_readings(new, old, t, decay)
        for attr in ATTRS:  # the kept counts are the membership's
            log = new.hit_log("v", attr)
            if log is not None:
                width = log._next_row
                held = log._member[: len(log), :width].sum(axis=0)
                assert [log.held_count(row) for row in range(width)] == held.tolist()
    for attr in ATTRS:
        log = new.hit_log("v", attr)
        assert log is None or len(log) <= writes  # one entry per recorded query at most


@given(steps, st.integers(1, 4))
@settings(max_examples=examples(dev=15, deep=300), deadline=None)
def test_a_kept_jitter_window_reads_the_bits_a_fresh_read_takes(script, stride):
    """A :class:`JitterWindow` keeps one (parent, θ)'s observed jitter as the
    hit lists change under every write; read every ``stride`` steps, it
    gives the per-fragment lists' reading bit for bit."""
    new, old = StatisticsStore(), list_pstat.StatisticsStore()
    windows, t = {}, 0.0
    for i, step in enumerate(script):
        t += STRIDE
        apply(step, new, old, t)
        if i % stride:
            continue
        for attr in ATTRS:
            for parent in new.intervals_for("v", attr):
                for theta in PROBES:
                    window = windows.setdefault((attr, parent, theta), JitterWindow())
                    got = window.read(new.fragment("v", attr, parent), theta)
                    want = list_pstat.observed_jitter(old, "v", attr, parent, theta)
                    assert got.hex() == want.hex()


def test_a_window_read_before_its_fragment_inherits_reads_it_again():
    """Inherited hits are older than the window's mark, not appended after
    it: the window re-reads the list rather than missing them."""
    store, theta = StatisticsStore(), Interval.closed(10, 25)
    store.ensure_fragment("v", "a", DOMAIN)
    for lo in (10.0, 12.0):
        store.record_overlapping_hits("v", "a", lo, Interval.closed(lo, lo + 15))
    window, piece = JitterWindow(), store.ensure_fragment("v", "a", theta)
    assert window.read(piece, theta) == 0.0
    piece.inherit_hits(store.fragment("v", "a", DOMAIN), theta)
    assert window.read(piece, theta) == Selection.observed_jitter(
        SimpleNamespace(stats=store), "v", "a", theta, theta
    )
    assert window.read(piece, theta) == 1.0


def test_one_entry_per_query_however_many_fragments_it_touches():
    store = StatisticsStore()
    for lo in range(0, 100, 10):
        store.ensure_fragment("v", "a", Interval.closed_open(lo, lo + 10))
    store.ensure_fragment("v", "a", DOMAIN)  # an overlapping candidate
    for t in range(1, 6):
        store.record_overlapping_hits("v", "a", float(t), Interval.closed(5, 95))
    log = store.hit_log("v", "a")
    assert len(log) == 5
    assert sum(f.hit_count() for f in store.fragments_for("v", "a")) == 5 * 11


def test_a_piece_inherits_membership_not_a_copy():
    store = StatisticsStore()
    parent = store.ensure_fragment("v", "a", DOMAIN)
    for t in range(1, 4):
        store.record_overlapping_hits("v", "a", float(t), Interval.closed(10 * t, 10 * t + 5))
    piece = store.ensure_fragment("v", "a", Interval.closed(0, 22))
    revision = store.hit_revision("v", "a")
    piece.inherit_hits(parent, piece.interval)
    assert len(store.hit_log("v", "a")) == 3  # no entry appended
    assert piece.times_array().tolist() == [1.0, 2.0]  # the ranges that touch [0, 22]
    assert store.hit_revision("v", "a") == revision + 1
    store.record_overlapping_hits("v", "a", 4.0, Interval.closed(21, 30))
    assert piece.times_array().tolist() == [1.0, 2.0, 4.0]
    assert parent.times_array().tolist() == [1.0, 2.0, 3.0, 4.0]
