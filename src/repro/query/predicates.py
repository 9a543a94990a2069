"""Selection predicates.

The evaluation in the paper drives everything off conjunctive range
selections of the form ``σ_{l ≤ A ≤ u}``, so the predicate language here is
a conjunction of per-attribute :class:`RangePredicate` terms.  Each term
wraps an :class:`~repro.partitioning.intervals.Interval`, giving partition
candidate generation and partition matching direct access to the interval
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.table import Table
from repro.engine.types import decoded
from repro.partitioning.intervals import Interval


@dataclass(frozen=True)
class RangePredicate:
    """``attr ∈ interval`` — one conjunct of a selection condition."""

    attr: str
    interval: Interval

    def mask(self, table: Table) -> np.ndarray:
        # ``decoded`` unwraps dictionary-encoded string columns so the
        # interval's value comparisons see actual values, not codes; on a
        # TableView, ``column`` gathers only the predicate's attribute.
        return self.interval.mask(decoded(table.column(self.attr)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.attr} in {self.interval}"


def between(attr: str, low: float, high: float) -> RangePredicate:
    """``low ≤ attr ≤ high`` — the paper's canonical selection shape."""
    return RangePredicate(attr, Interval.closed(low, high))


def eq(attr: str, value: float) -> RangePredicate:
    """``attr = value``"""
    return RangePredicate(attr, Interval.point(value))


def at_least(attr: str, low: float) -> RangePredicate:
    """``attr ≥ low``"""
    return RangePredicate(attr, Interval.at_least(low))


def at_most(attr: str, high: float) -> RangePredicate:
    """``attr ≤ high``"""
    return RangePredicate(attr, Interval.at_most(high))


def conjunction_mask(predicates: tuple[RangePredicate, ...], table: Table) -> np.ndarray:
    """Boolean mask for the conjunction of all predicates.

    Feeding this mask to ``Table.filter`` yields a late-materialized
    row-index view — selection never copies payload columns.  An
    already-empty conjunction short-circuits the remaining column
    gathers; the result is the same all-false mask either way.
    """
    mask = np.ones(table.nrows, dtype=bool)
    for pred in predicates:
        mask &= pred.mask(table)
        if not mask.any():
            break
    return mask
