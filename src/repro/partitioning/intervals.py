"""Interval algebra over ordered attribute domains.

Intervals are the common currency of this system: query range predicates,
fragment boundaries (Definition 1), partition candidates (Definition 7),
and Algorithm 2's greedy cover all manipulate them.  An interval has
numeric endpoints (``None`` meaning unbounded) and per-endpoint open/closed
flags, so the paper's mixed-bound fragments such as ``[0, 10]`` and
``(10, 20]`` are represented exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.errors import IntervalError

_NEG_INF = -math.inf
_POS_INF = math.inf


@dataclass(frozen=True, order=False)
class Interval:
    """A numeric interval with independently open or closed endpoints.

    ``low=None`` / ``high=None`` denote unbounded ends.  The interval must
    be non-empty: ``low < high``, or ``low == high`` with both ends closed
    (a point interval).
    """

    low: float | None = None
    high: float | None = None
    low_open: bool = False
    high_open: bool = False
    # Precomputed sort keys and hash: interval comparisons dominate the
    # matching and selection hot paths (millions of _lower_key/_upper_key
    # calls per workload), so the keys are built once at construction.
    # They are derived from the four defining fields, so excluding them
    # from __eq__ changes nothing observable.
    _lkey: tuple = field(init=False, repr=False, compare=False)
    _ukey: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo = _NEG_INF if self.low is None else self.low
        hi = _POS_INF if self.high is None else self.high
        if lo > hi:
            raise IntervalError(f"empty interval: low={self.low} > high={self.high}")
        if lo == hi and (self.low_open or self.high_open):
            raise IntervalError(f"empty interval at point {lo}")
        object.__setattr__(self, "_lkey", (lo, 1 if self.low_open else 0))
        object.__setattr__(self, "_ukey", (hi, -1 if self.high_open else 0))
        object.__setattr__(
            self, "_hash", hash((self.low, self.high, self.low_open, self.high_open))
        )

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def closed(cls, low: float, high: float) -> "Interval":
        """``[low, high]``"""
        return cls(low, high, False, False)

    @classmethod
    def open_closed(cls, low: float, high: float) -> "Interval":
        """``(low, high]``"""
        return cls(low, high, True, False)

    @classmethod
    def closed_open(cls, low: float, high: float) -> "Interval":
        """``[low, high)``"""
        return cls(low, high, False, True)

    @classmethod
    def open(cls, low: float, high: float) -> "Interval":
        """``(low, high)``"""
        return cls(low, high, True, True)

    @classmethod
    def point(cls, value: float) -> "Interval":
        """``[value, value]``"""
        return cls(value, value, False, False)

    @classmethod
    def at_least(cls, low: float) -> "Interval":
        """``[low, +inf)``"""
        return cls(low, None, False, False)

    @classmethod
    def at_most(cls, high: float) -> "Interval":
        """``(-inf, high]``"""
        return cls(None, high, False, False)

    @classmethod
    def unbounded(cls) -> "Interval":
        """``(-inf, +inf)``"""
        return cls(None, None, False, False)

    # ------------------------------------------------------------------
    # Endpoint access
    # ------------------------------------------------------------------
    @property
    def lo(self) -> float:
        return self._lkey[0]

    @property
    def hi(self) -> float:
        return self._ukey[0]

    @property
    def width(self) -> float:
        """Length of the interval (infinite for unbounded ends)."""
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        if math.isinf(self.lo) or math.isinf(self.hi):
            raise IntervalError("midpoint of an unbounded interval")
        return (self.lo + self.hi) / 2.0

    def is_bounded(self) -> bool:
        return not (math.isinf(self.lo) or math.isinf(self.hi))

    # ------------------------------------------------------------------
    # Point and interval relations
    # ------------------------------------------------------------------
    def contains_point(self, x: float) -> bool:
        if x < self.lo or (x == self.lo and self.low_open):
            return False
        if x > self.hi or (x == self.hi and self.high_open):
            return False
        return True

    def _lower_key(self) -> tuple[float, int]:
        """Sortable lower-bound key: open bounds start strictly later."""
        return self._lkey

    def _upper_key(self) -> tuple[float, int]:
        """Sortable upper-bound key: open bounds end strictly earlier."""
        return self._ukey

    def contains(self, other: "Interval") -> bool:
        """True iff ``other`` ⊆ ``self``."""
        return self._lower_key() <= other._lower_key() and other._upper_key() <= self._upper_key()

    def overlaps(self, other: "Interval") -> bool:
        """True iff the intervals share at least one point.

        Equivalent to ``intersect(other) is not None``: the intersection is
        empty exactly when its lower key exceeds its upper key, i.e. when
        one interval's lower key exceeds the other's upper key.  Comparing
        the precomputed keys avoids allocating the intersection.
        """
        return self._lkey <= other._ukey and other._lkey <= self._ukey

    def intersect(self, other: "Interval") -> "Interval | None":
        """The intersection, or ``None`` when disjoint.

        Containment fast paths return the contained operand itself — the
        intersection of nested intervals *is* the inner interval, and
        returning the existing (frozen, value-equal) instance skips the
        construction that dominates interval arithmetic on the matching
        and pruning hot paths.
        """
        sl, su = self._lkey, self._ukey
        ol, ou = other._lkey, other._ukey
        if ol <= sl and su <= ou:
            return self
        if sl <= ol and ou <= su:
            return other
        if sl > ou or ol > su:
            return None
        lo_key = max(sl, ol)
        hi_key = min(su, ou)
        lo, lo_open = lo_key[0], lo_key[1] == 1
        hi, hi_open = hi_key[0], hi_key[1] == -1
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
        return Interval(
            None if math.isinf(lo) else lo,
            None if math.isinf(hi) else hi,
            lo_open,
            hi_open,
        )

    def adjacent_to(self, other: "Interval") -> bool:
        """True iff the intervals touch without overlapping (e.g. [0,1) and [1,2])."""
        if self.overlaps(other):
            return False
        left, right = (self, other) if self._upper_key() <= other._lower_key() else (other, self)
        return left.hi == right.lo and (left.high_open != right.low_open)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (used when merging fragments)."""
        lo_key = min(self._lower_key(), other._lower_key())
        hi_key = max(self._upper_key(), other._upper_key())
        lo, lo_open = lo_key[0], lo_key[1] == 1
        hi, hi_open = hi_key[0], hi_key[1] == -1
        return Interval(
            None if math.isinf(lo) else lo,
            None if math.isinf(hi) else hi,
            lo_open,
            hi_open,
        )

    # ------------------------------------------------------------------
    # Splitting (partition-candidate generation, Definition 7)
    # ------------------------------------------------------------------
    def split_before(self, point: float) -> tuple["Interval", "Interval"]:
        """Split into ``[lo, point)`` and ``[point, hi]`` pieces.

        The point itself goes to the right piece, matching the paper's
        case-4 candidates ``[l', l)`` and ``[l, u']``.  Raises if the split
        would produce an empty piece.
        """
        if not self.contains_point(point):
            raise IntervalError(f"{point} not inside {self}")
        left = Interval(self.low, point, self.low_open, True)
        right = Interval(point, self.high, False, self.high_open)
        return left, right

    def split_after(self, point: float) -> tuple["Interval", "Interval"]:
        """Split into ``[lo, point]`` and ``(point, hi]`` pieces.

        The point itself goes to the left piece, matching the paper's
        case-3 candidates ``[l', u]`` and ``(u, u']``.
        """
        if not self.contains_point(point):
            raise IntervalError(f"{point} not inside {self}")
        left = Interval(self.low, point, self.low_open, False)
        right = Interval(point, self.high, True, self.high_open)
        return left, right

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of array elements that fall inside the interval."""
        mask: "np.ndarray | None" = None
        if self.low is not None:
            mask = values > self.low if self.low_open else values >= self.low
        if self.high is not None:
            high = values < self.high if self.high_open else values <= self.high
            mask = high if mask is None else np.logical_and(mask, high, out=mask)
        if mask is None:
            mask = np.ones(len(values), dtype=bool)
        return mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lb = "(" if self.low_open else "["
        rb = ")" if self.high_open else "]"
        lo = "-inf" if self.low is None else f"{self.low:g}"
        hi = "+inf" if self.high is None else f"{self.high:g}"
        return f"{lb}{lo}, {hi}{rb}"


def sort_key(interval: Interval) -> tuple:
    """Canonical ordering: by lower bound, then upper bound."""
    return interval._lkey + interval._ukey


def complex_keys(keys: np.ndarray) -> np.ndarray:
    """``[n, 2]`` ``(value, openness flag)`` bound keys as ``n`` complex numbers.

    NumPy orders complex numbers lexicographically — real part, then
    imaginary part — so comparing ``value + flag·j`` is comparing the
    Python tuples ``(value, flag)``, in one operation instead of three.
    (It differs only for NaN, which no bound key holds.)  A view, no copy,
    of a C-ordered float64 array.
    """
    return np.ascontiguousarray(keys, dtype=np.float64).view(np.complex128)[:, 0]


def keys_overlapping(lower: np.ndarray, upper: np.ndarray, interval: Interval) -> np.ndarray:
    """Which intervals, given as ``[n, 2]`` bound-key arrays, overlap ``interval``.

    ``Interval.overlaps`` row by row: two intervals overlap exactly when
    each one's lower key is lexicographically ≤ the other's upper key.
    """
    return (complex_keys(lower) <= complex(*interval._ukey)) & (
        complex(*interval._lkey) <= complex_keys(upper)
    )


class IntervalIndex:
    """Fragment intervals in canonical :func:`sort_key` order, bisect-searchable.

    Greedy cover matching and pool lookups repeatedly ask "which intervals
    start at or before this point?" — a linear scan per step in the naive
    implementation.  This index keeps the intervals sorted by canonical
    key and answers the question with a binary search over the lower-bound
    keys, turning Algorithm 2 from O(n²) into O(n log n).  A position is
    an index into ``intervals``.
    """

    __slots__ = ("intervals", "lower_keys", "upper_keys")

    def __init__(self, intervals: list[Interval]):
        self._fill(sorted(intervals, key=sort_key))

    @classmethod
    def from_sorted(cls, intervals: list[Interval]) -> "IntervalIndex":
        """Index a list already in canonical :func:`sort_key` order.

        Skips the O(n log n) sort — the caller (the pool's per-partition
        fragment list) maintains the order with bisected insertions, so the
        resulting index is identical to ``IntervalIndex(intervals)``
        (``sort_key`` is injective over distinct intervals, hence a sorted
        list has exactly one canonical order).
        """
        index = cls.__new__(cls)
        index._fill(list(intervals))
        return index

    def _fill(self, ordered: list[Interval]) -> None:
        self.intervals = ordered
        self.lower_keys = [iv._lkey for iv in ordered]
        self.upper_keys = [iv._ukey for iv in ordered]

    def __len__(self) -> int:
        return len(self.intervals)

    def prefix_starting_at_or_before(self, lower_key: tuple[float, int]) -> int:
        """Number of intervals whose lower-bound key is ≤ ``lower_key``."""
        return bisect_right(self.lower_keys, lower_key)


def total_covered_width(intervals: list[Interval]) -> float:
    """Width of the union of the intervals (overlaps counted once)."""
    if not intervals:
        return 0.0
    spans = sorted(((iv.lo, iv.hi) for iv in intervals))
    covered = 0.0
    cur_lo, cur_hi = spans[0]
    for lo, hi in spans[1:]:
        if lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return covered + (cur_hi - cur_lo)
