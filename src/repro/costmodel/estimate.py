"""Size and creation-cost estimates for unmaterialized fragment candidates (§7.2).

Before a candidate fragment exists we estimate:

* its size, assuming values are uniformly distributed *within* each
  resident fragment it overlaps:

      S(I_cand) = Σ_{I ∩ I_cand ≠ ∅} (‖I_cand ∩ I‖ / ‖I‖) · S(I)

* its creation cost — to build it we must read every overlapping resident
  fragment, extract the matching rows, and write the new fragment:

      COST(I_cand) = w_write · S(I_cand) + Σ_{I ∩ I_cand ≠ ∅} w_read · S(I)

The read/write weights come from the simulated cluster, so estimates are
commensurable with the simulated elapsed times charged at execution.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cost import ClusterSpec
from repro.partitioning.intervals import Interval

# Bound of a profile's piece memo, oldest entry out first.  Endpoint jitter
# keeps widening pieces to new bounds for as long as a cover stands, and an
# entry is only ever a replay of what recomputing it gives.
_PIECE_MEMO_MAX = 1_024


class ResidentProfile:
    """Vectorized size/cost estimator over one resident fragment list.

    A refinement evaluation estimates every hot piece of a candidate
    against the *same* resident fragments, so everything that does not
    depend on the piece is computed once: the interval bound keys for the
    overlap mask, each fragment's domain-clamped intersection bounds and
    width, and each fragment's one-file read cost.  :meth:`estimate` then
    reproduces :func:`estimate_fragment_size` and
    :func:`estimate_fragment_cost` term for term — the same overlapping
    fragments walked in the same order with the same IEEE products and
    left-to-right sums — so both estimates are bit-identical to the
    scalar pair (proven against them in tests/test_estimate.py).
    """

    def __init__(
        self,
        resident: list[tuple[Interval, float]],
        domain: Interval,
        cluster: ClusterSpec,
    ) -> None:
        self._cluster = cluster
        self._n = len(resident)
        # piece -> memoized §7.2 filter prefix (see _piece_refinement_passes);
        # shares this profile's lifetime, i.e. "resident set unchanged", and
        # holds at most _PIECE_MEMO_MAX pieces (see remember).
        self.piece_memo: dict = {}
        if not self._n:
            return
        ivs = [iv for iv, _ in resident]
        self._sizes = np.array([s for _, s in resident], dtype=np.float64)
        keys = np.array([iv._lkey + iv._ukey for iv in ivs], dtype=np.float64)
        self._lk, self._uk = keys[:, :2], keys[:, 2:]
        clamped = [iv.intersect(domain) for iv in ivs]
        self._res_none = np.array([c is None for c in clamped], dtype=bool)
        res_keys = np.array(
            [(0.0, 0.0, 0.0, 0.0) if c is None else c._lkey + c._ukey for c in clamped],
            dtype=np.float64,
        )
        self._res_lk, self._res_uk = res_keys[:, :2], res_keys[:, 2:]
        self._res_w = self._res_uk[:, 0] - self._res_lk[:, 0]
        self._read_cost = np.array(
            [cluster.read_elapsed(s, nfiles=1) for _, s in resident], dtype=np.float64
        )

    def remember(self, piece: Interval, prefix: tuple) -> None:
        """Memoize ``piece``'s filter prefix, dropping the oldest piece when full."""
        memo = self.piece_memo
        if len(memo) >= _PIECE_MEMO_MAX:
            del memo[next(iter(memo))]
        memo[piece] = prefix

    def estimate(self, piece: Interval) -> tuple[float, float]:
        """``(estimate_fragment_size(piece), estimate_fragment_cost(piece))``."""
        cluster = self._cluster
        if not self._n:
            return 0, cluster.write_elapsed(0, nfiles=1) + 0
        pl, pu = piece._lkey, piece._ukey
        lk, uk = self._lk, self._uk
        # piece.overlaps(iv): piece._lkey <= iv._ukey and iv._lkey <= piece._ukey.
        lo_ok = (lk[:, 0] < pu[0]) | ((lk[:, 0] == pu[0]) & (lk[:, 1] <= pu[1]))
        hi_ok = (pl[0] < uk[:, 0]) | ((pl[0] == uk[:, 0]) & (pl[1] <= uk[:, 1]))
        idx = np.flatnonzero(lo_ok & hi_ok)
        if not idx.size:
            return 0, cluster.write_elapsed(0, nfiles=1) + 0
        # candidate ∩ clamped-resident, as componentwise lexicographic
        # max/min over the (value, openness) bound keys.
        rlk, ruk = self._res_lk[idx], self._res_uk[idx]
        take_res = (rlk[:, 0] > pl[0]) | ((rlk[:, 0] == pl[0]) & (rlk[:, 1] >= pl[1]))
        lo0 = np.where(take_res, rlk[:, 0], pl[0])
        lo1 = np.where(take_res, rlk[:, 1], pl[1])
        take_res = (ruk[:, 0] < pu[0]) | ((ruk[:, 0] == pu[0]) & (ruk[:, 1] <= pu[1]))
        hi0 = np.where(take_res, ruk[:, 0], pu[0])
        hi1 = np.where(take_res, ruk[:, 1], pu[1])
        empty = (lo0 > hi0) | ((lo0 == hi0) & ((lo1 == 1.0) | (hi1 == -1.0)))
        res_w = self._res_w[idx]
        frac = np.minimum(1.0, (hi0 - lo0) / np.where(res_w > 0, res_w, 1.0))
        frac = np.where(res_w == 0, 1.0, frac)
        frac = np.where(empty | self._res_none[idx], 0.0, frac)
        size = sum((frac * self._sizes[idx]).tolist())
        read_s = sum(self._read_cost[idx].tolist())
        return size, cluster.write_elapsed(size, nfiles=1) + read_s


def _overlap_fraction(candidate: Interval, resident: Interval, domain: Interval) -> float:
    """‖I_cand ∩ I‖ / ‖I‖, with intervals clamped to the (bounded) domain."""
    res = resident.intersect(domain)
    if res is None:
        return 0.0
    inter = candidate.intersect(res)
    if inter is None:
        return 0.0
    if res.width == 0:
        return 1.0  # point fragment entirely inside the candidate
    return min(1.0, inter.width / res.width)


def estimate_fragment_size(
    candidate: Interval,
    resident: list[tuple[Interval, float]],
    domain: Interval,
) -> float:
    """Estimated ``S(I_cand)`` from overlapping resident fragment sizes."""
    return sum(
        _overlap_fraction(candidate, interval, domain) * size
        for interval, size in resident
        if candidate.overlaps(interval)
    )


def estimate_fragment_cost(
    candidate: Interval,
    resident: list[tuple[Interval, float]],
    domain: Interval,
    cluster: ClusterSpec,
) -> float:
    """Estimated ``COST(I_cand)`` in simulated seconds."""
    size = estimate_fragment_size(candidate, resident, domain)
    read_s = sum(
        cluster.read_elapsed(s, nfiles=1)
        for interval, s in resident
        if candidate.overlaps(interval)
    )
    return cluster.write_elapsed(size, nfiles=1) + read_s


def estimate_view_size(input_bytes: float, output_ratio: float = 1.0) -> float:
    """Rough pre-materialization size estimate for a view candidate.

    Used only until the first instrumented execution replaces it with the
    actual size (§7.1: "initially estimated when we first see this view").
    """
    return input_bytes * output_ratio
