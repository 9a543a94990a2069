"""Probabilistic fragment-benefit model (§7.1).

Fragments of a partition are correlated: ranges near a hot spot are more
likely to be hit soon than ranges far from it.  The paper models hits as
samples from a normal distribution:

1. quantize the attribute domain into equal-size *parts*;
2. spread each fragment's (decayed) hit count evenly over the parts it
   contains, giving per-part hit weights ``H(p_i)``;
3. fit a normal distribution to the weighted part midpoints with the
   maximum-likelihood estimators (weighted mean, adjusted variance);
4. compute the *adjusted hits* of fragment ``I = [l, u]`` as
   ``H_A(I) = H_total · (F(u) − F(l))`` under the fitted CDF ``F``.

The paper requires parts that are never partially contained in a
fragment.  With arbitrary real boundaries an exact equal-size grid that
aligns with every fragment boundary may not exist, so we use a fine grid
(default 256 parts, configurable) and assign each part to the fragments
containing its midpoint — an arbitrarily good approximation as the grid
refines, and exact whenever fragment boundaries lie on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.partitioning.intervals import Interval


@dataclass(frozen=True)
class FittedNormal:
    """MLE-fitted normal distribution over an attribute domain."""

    mu: float
    sigma2: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def cdf(self, x: float) -> float:
        if math.isinf(x):
            return 0.0 if x < 0 else 1.0
        if self.sigma == 0.0:
            return 0.0 if x < self.mu else 1.0
        z = (x - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    def mass(self, interval: Interval) -> float:
        """P(x ∈ interval) — endpoint openness is measure-zero, ignored."""
        return max(0.0, self.cdf(interval.hi) - self.cdf(interval.lo))

    def mass_many(self, intervals: list[Interval]) -> list[float]:
        """``[mass(iv) for iv in intervals]`` with the CDF shared per endpoint.

        Adjacent fragments tile the domain, so one fragment's upper bound
        is usually the next one's lower bound; memoizing the CDF per unique
        endpoint roughly halves the ``erf`` calls.  The per-interval
        subtraction uses the exact CDF values :meth:`mass` would compute,
        so every returned float is bit-identical to the scalar loop.
        """
        memo: dict[float, float] = {}
        out = []
        for interval in intervals:
            lo, hi = interval.lo, interval.hi
            c_hi = memo.get(hi)
            if c_hi is None:
                c_hi = memo[hi] = self.cdf(hi)
            c_lo = memo.get(lo)
            if c_lo is None:
                c_lo = memo[lo] = self.cdf(lo)
            out.append(max(0.0, c_hi - c_lo))
        return out


# Midpoint grids keyed by (domain.lo, domain.hi, n_parts): the MLE pass
# re-derives the same few grids thousands of times per workload, and the
# grid depends only on the domain bounds.  Entries are tiny (n_parts
# floats) and the number of distinct domains is the number of partition
# attributes, so the cache never needs eviction.
_MIDS_CACHE: dict[tuple[float, float, int], tuple[list[float], np.ndarray]] = {}


def _mids_for(domain: Interval, n_parts: int) -> tuple[list[float], np.ndarray]:
    key = (domain.lo, domain.hi, n_parts)
    cached = _MIDS_CACHE.get(key)
    if cached is None:
        width = domain.width / n_parts
        mids = [domain.lo + (i + 0.5) * width for i in range(n_parts)]
        cached = _MIDS_CACHE[key] = (mids, np.asarray(mids, dtype=np.float64))
    return cached


def part_midpoints(domain: Interval, n_parts: int) -> list[float]:
    """Midpoints of ``n_parts`` equal-size parts of the domain."""
    return list(_mids_for(domain, n_parts)[0])


def spread_hits(
    domain: Interval,
    fragments: list[tuple[Interval, float]],
    n_parts: int = 256,
) -> tuple[list[float], list[float]]:
    """Distribute fragment hit weights over equal-size parts.

    ``fragments`` pairs each interval with its (decayed) hit count H(I).
    Each fragment's hits are split evenly over the parts whose midpoint it
    contains: ``H(p_i) = Σ_{I ∋ p_i} H(I) / #I`` (Definition of H(p) in
    §7.1).  Returns (part midpoints, per-part hit weights).
    """
    mids, _ = _mids_for(domain, n_parts)
    if not fragments:
        return mids, [0.0] * n_parts
    lower = np.array([iv._lkey for iv, _ in fragments], dtype=np.float64)
    upper = np.array([iv._ukey for iv, _ in fragments], dtype=np.float64)
    hits_arr = np.fromiter((h for _, h in fragments), dtype=np.float64, count=len(fragments))
    start, end = part_runs(domain, lower, upper, n_parts)
    return mids, _spread_over_runs(n_parts, start, end, hits_arr).tolist()


def part_runs(
    domain: Interval, lower_keys: np.ndarray, upper_keys: np.ndarray, n_parts: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Each fragment's run ``[start, end)`` of parts whose midpoint it contains.

    ``lower_keys``/``upper_keys`` are ``[n, 2]`` ``(value, openness flag)``
    bound keys with ±inf for unbounded ends (``StatisticsStore.
    partition_bounds``), so the searchsorted runs need no None special
    case.  A run depends on one fragment's bounds and the grid only, so
    the runs of a fragment list can be kept while the list stands.
    """
    _, mids_arr = _mids_for(domain, n_parts)
    lows, highs = lower_keys[:, 0], upper_keys[:, 0]
    lo_open, hi_open = lower_keys[:, 1] == 1.0, upper_keys[:, 1] == -1.0
    # The midpoints are sorted, so the parts a fragment contains form a
    # contiguous run mapped by binary search: searchsorted side "left" is
    # bisect_left and "right" is bisect_right, reproducing the open/closed
    # endpoint logic of contains_point exactly.  Unbounded ends need no
    # special case — ±inf searches to 0 / n_parts on either side.
    start = np.where(
        lo_open,
        np.searchsorted(mids_arr, lows, side="right"),
        np.searchsorted(mids_arr, lows, side="left"),
    )
    end = np.where(
        hi_open,
        np.searchsorted(mids_arr, highs, side="left"),
        np.searchsorted(mids_arr, highs, side="right"),
    )
    # Degenerate fragments narrower than a part charge the nearest part to
    # their clamped lower bound; argmin matches min()'s first-of-ties choice.
    degenerate = np.flatnonzero(end <= start)
    if degenerate.size:
        anchors = np.minimum(np.maximum(lows[degenerate], domain.lo), domain.hi)
        nearest = np.abs(mids_arr[None, :] - anchors[:, None]).argmin(axis=1)
        start[degenerate], end[degenerate] = nearest, nearest + 1
    return start, end


def _spread_over_runs(
    n_parts: int, start: np.ndarray, end: np.ndarray, hits_arr: np.ndarray
) -> np.ndarray:
    """Per-part hit weights: each fragment's hits spread evenly over its run."""
    weights = np.zeros(n_parts, dtype=np.float64)
    keep = np.flatnonzero(hits_arr > 0)
    if keep.size == 0:
        return weights
    if keep.size != hits_arr.size:
        hits_arr, start, end = hits_arr[keep], start[keep], end[keep]
    # Scatter each fragment's equal share over its part run.  np.add.at is
    # unbuffered and applies the additions in index order, so every part
    # accumulates its shares in the same fragment order with the same IEEE
    # additions as the naive `weights[start:end] += share` loop — results
    # are bit-identical (tests/test_mle.py proves this against the scalar
    # oracle).
    lengths = end - start
    shares = hits_arr / lengths
    total = int(lengths.sum())
    flat_idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(lengths) - lengths, lengths)
        + np.repeat(start, lengths)
    )
    np.add.at(weights, flat_idx, np.repeat(shares, lengths))
    return weights


def fit_normal(midpoints: list[float], weights: list[float]) -> FittedNormal | None:
    """Weighted MLE fit of a normal distribution.

    ``μ̂ = Σ wᵢxᵢ / Σwᵢ`` and the adjusted sample variance
    ``σ̂² = Σ wᵢ(xᵢ − μ̂)² / (Σwᵢ − 1)`` (the paper uses n−1 because the
    number of observed fragments is small).  Returns ``None`` when there
    is no hit mass to fit.
    """
    return _fit_normal_arrays(
        np.asarray(midpoints, dtype=np.float64),
        np.asarray(weights, dtype=np.float64),
        midpoints,
    )


def _fit_normal_arrays(
    x: np.ndarray, w: np.ndarray, midpoints: "list[float]"
) -> FittedNormal | None:
    total = sum(w.tolist())
    if total <= 0:
        return None
    # The products are computed elementwise (identical IEEE multiplies)
    # and summed left-to-right over Python floats — the exact additions of
    # the scalar generator expressions.  np.float_power routes through the
    # same libm pow as the scalar `** 2` (np.power's integer fast path
    # multiplies instead, which differs in the last ulp on this libm).
    mu = sum((w * x).tolist()) / total
    ss = sum((w * np.float_power(x - mu, 2.0)).tolist())
    denom = total - 1.0
    if denom <= 0:
        # A single observation: fall back to the biased estimator, and give
        # a degenerate fit a tiny positive variance so the CDF is usable.
        denom = total
    sigma2 = ss / denom
    if sigma2 <= 0:
        span = (max(midpoints) - min(midpoints)) if len(midpoints) > 1 else 1.0
        sigma2 = max((span / max(len(midpoints), 1)) ** 2, 1e-12)
    return FittedNormal(mu, sigma2)


def fit_partition_distribution(
    domain: Interval,
    fragments: list[tuple[Interval, float]],
    n_parts: int = 256,
) -> FittedNormal | None:
    """End-to-end: spread hits over parts, then MLE-fit a normal."""
    mids, weights = spread_hits(domain, fragments, n_parts)
    return fit_normal(mids, weights)


def fit_partition_bounds(
    domain: Interval,
    lower_keys: np.ndarray,
    upper_keys: np.ndarray,
    hits_arr: np.ndarray,
    n_parts: int = 256,
) -> FittedNormal | None:
    """:func:`fit_partition_distribution` over cached ``(value, flag)`` bound keys.

    ``lower_keys``/``upper_keys`` are the ``[n, 2]`` per-fragment bound-key
    arrays maintained by ``StatisticsStore.partition_bounds`` (column 0 the
    bound value with ±inf for unbounded ends, column 1 the openness flag),
    ``hits_arr`` the per-fragment decayed hit counts in the same order.
    Same floats, same order, no per-call interval-object walk — results
    are bit-identical to the fragment-list path (tests/test_mle.py).
    """
    start, end = part_runs(domain, lower_keys, upper_keys, n_parts)
    return fit_partition_runs(domain, start, end, hits_arr, n_parts)


def fit_partition_runs(
    domain: Interval,
    start: np.ndarray,
    end: np.ndarray,
    hits_arr: np.ndarray,
    n_parts: int = 256,
) -> FittedNormal | None:
    """:func:`fit_partition_bounds` over the fragments' :func:`part_runs`."""
    mids, mids_arr = _mids_for(domain, n_parts)
    return _fit_normal_arrays(mids_arr, _spread_over_runs(n_parts, start, end, hits_arr), mids)


def adjusted_hits(
    interval: Interval, fitted: FittedNormal, total_hits: float, domain: Interval
) -> float:
    """``H_A(I) = H_total · (P(x ≤ u) − P(x ≤ l))`` (§7.1).

    The interval is clamped to the domain so unbounded statistical
    fragments receive the mass of their in-domain portion.
    """
    clamped = interval.intersect(domain)
    if clamped is None:
        return 0.0
    return total_hits * fitted.mass(clamped)


def adjusted_hits_many(
    intervals: list[Interval],
    fitted: FittedNormal,
    total_hits: float,
    domain: Interval,
) -> list[float]:
    """``[adjusted_hits(iv, ...) for iv in intervals]`` with a shared CDF memo.

    Clamping and the final products match :func:`adjusted_hits` operation
    for operation; only the per-endpoint ``erf`` evaluations are shared
    (see :meth:`FittedNormal.mass_many`), so results are bit-identical.
    """
    clamped = [iv.intersect(domain) for iv in intervals]
    masses = fitted.mass_many([c for c in clamped if c is not None])
    out = []
    it = iter(masses)
    for c in clamped:
        out.append(0.0 if c is None else total_hits * next(it))
    return out


def adjusted_hits_density(
    interval: Interval,
    fitted: FittedNormal,
    total_hits: float,
    domain: Interval,
    reference_width: float,
) -> float:
    """Width-normalized adjusted hits: ``H_A(I) · reference_width / ‖I‖``.

    The paper's ``H_A`` grows with fragment width (a wide fragment captures
    more probability mass), and the width terms of ``Φ(I)`` cancel — so
    ranking by raw ``H_A`` lets whale fragments crowd small hot ones out of
    a bounded pool.  Normalizing by width turns the mass into an access
    *density* at the fragment's location, measured in hits per
    ``reference_width`` (typically the partition's mean fragment width):
    equal-width fragments rank exactly as in the paper, while fragments of
    different widths compete fairly per byte.
    """
    return adjusted_hits_density_many([interval], fitted, total_hits, domain, reference_width)[0]


def adjusted_hits_density_many(
    intervals: list[Interval],
    fitted: FittedNormal,
    total_hits: float,
    domain: Interval,
    reference_width: float,
) -> list[float]:
    """:func:`adjusted_hits_density` of every interval of one partition.

    One pass over the partition shares the per-endpoint ``erf`` (see
    :func:`adjusted_hits_many`); the width ratio is the scalar operation
    in the scalar order, so every float is the one a per-interval call
    returns.
    """
    out = []
    for interval, hits in zip(intervals, adjusted_hits_many(intervals, fitted, total_hits, domain)):
        clamped = interval.intersect(domain)
        width = clamped.width if clamped is not None else 0.0  # outside: hits is 0.0
        if not (width <= 0 or reference_width <= 0):
            hits = hits * min(reference_width / width, 1e6)
        out.append(hits)
    return out
