"""Nectar and Nectar+ value models (§10.1 baselines).

Nectar [Gunda et al., OSDI'10] ranks cached results by a cost-to-benefit
ratio without accumulated benefit.  The paper extends it to *Nectar+* by
adding DeepSea's accumulated (but undecayed) benefit:

    N(V)  = Σ_{Q used V at t} (COST(Q) − COST(Q/V))          (no decay)
    N+(V) = COST(V) · N(V) / (S(V) · ΔT)

where ``ΔT`` is the time elapsed since the last access to V.  Plain
Nectar drops the ``N(V)`` factor:

    N(V)_plain = COST(V) / (S(V) · ΔT)

Fragment variants follow §7.1's formulas with the decay removed.
"""

from __future__ import annotations

from repro.costmodel.stats import FragmentStats, ViewStats

_EPS_BYTES = 1.0
_EPS_DT = 1.0


def _delta_t(last_access_t: float, t_now: float) -> float:
    return max(t_now - last_access_t, _EPS_DT)


def nectar_view_value(view: ViewStats, t_now: float) -> float:
    """Plain Nectar: no accumulated-benefit factor."""
    size = max(view.size_bytes, _EPS_BYTES)
    return view.creation_cost_s / (size * _delta_t(view.last_access_t, t_now))


def nectar_plus_view_value(view: ViewStats, t_now: float) -> float:
    """Nectar+: accumulated undecayed benefit over size and staleness."""
    accumulated = sum(ev.saving_s for ev in view.benefit_events)
    size = max(view.size_bytes, _EPS_BYTES)
    return view.creation_cost_s * accumulated / (size * _delta_t(view.last_access_t, t_now))


def nectar_fragment_value(fragment: FragmentStats, view: ViewStats, t_now: float) -> float:
    """Plain Nectar for fragments: recreate-cost over size and staleness."""
    size = max(fragment.size_bytes, _EPS_BYTES)
    return view.creation_cost_s / (size * _delta_t(fragment.last_access_t, t_now))


def nectar_plus_fragment_value(fragment: FragmentStats, view: ViewStats, t_now: float) -> float:
    """Nectar+ for fragments: §7.1 formulas with DEC removed."""
    hits = float(fragment.hit_count())
    view_size = max(view.size_bytes, _EPS_BYTES)
    benefit = hits * (fragment.size_bytes / view_size) * view.creation_cost_s
    size = max(fragment.size_bytes, _EPS_BYTES)
    return view.creation_cost_s * benefit / (size * _delta_t(fragment.last_access_t, t_now))
