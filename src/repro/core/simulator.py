"""The DeepSea simulator (§9).

Testing selection strategies over large workloads is slow even on the
simulated cluster when every query is physically executed.  The paper's
simulator tracks, per query template, the statistics gathered from real
executions and — once enough samples exist — *estimates* the runtime of
further executions of the template with linear regression over the
selection width, instead of executing them.

This module reproduces that component: :class:`TemplateRegression` fits
``elapsed ≈ a + b · width`` per (template, phase) with ordinary least
squares, and :class:`WorkloadSimulator` drives a DeepSea instance,
executing queries until a template has enough samples and predicting
afterwards.  Prediction is used by the Figure-7a experiment, which
projects 100-query workloads from 10 measured queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.query.algebra import Plan, Select, walk


@dataclass
class RegressionFit:
    """An ordinary-least-squares fit of elapsed time against range width."""

    intercept: float
    slope: float
    n_samples: int

    def predict(self, width: float) -> float:
        return max(self.intercept + self.slope * width, 0.0)


@dataclass
class TemplateRegression:
    """Per-template runtime model built from observed executions."""

    min_samples: int = 5
    _widths: dict[str, list[float]] = field(default_factory=dict)
    _elapsed: dict[str, list[float]] = field(default_factory=dict)

    def observe(self, template: str, width: float, elapsed_s: float) -> None:
        self._widths.setdefault(template, []).append(width)
        self._elapsed.setdefault(template, []).append(elapsed_s)

    def fit(self, template: str) -> RegressionFit | None:
        """OLS fit for the template; ``None`` before ``min_samples``."""
        widths = self._widths.get(template, [])
        if len(widths) < self.min_samples:
            return None
        x = np.asarray(widths, dtype=np.float64)
        y = np.asarray(self._elapsed[template], dtype=np.float64)
        if np.ptp(x) == 0.0:
            return RegressionFit(float(y.mean()), 0.0, len(x))
        slope, intercept = np.polyfit(x, y, 1)
        return RegressionFit(float(intercept), float(slope), len(x))

    def predict(self, template: str, width: float) -> float | None:
        fit = self.fit(template)
        if fit is None:
            return None
        return fit.predict(width)


def selection_width(plan: Plan) -> float:
    """Total width of the plan's range selections (regression feature)."""
    width = 0.0
    for node in walk(plan):
        if isinstance(node, Select):
            for pred in node.predicates:
                if pred.interval.is_bounded():
                    width += pred.interval.width
    return width


@dataclass
class SimulatedQuery:
    """One simulator step: measured or predicted."""

    index: int
    template: str
    elapsed_s: float
    predicted: bool


class WorkloadSimulator:
    """Drives a system, predicting steady-state repeats via regression.

    The simulator executes each query until its template has
    ``min_samples`` *reuse* observations (executions that were answered
    from the pool — the steady state the regression models), then
    predicts further executions.  Materialization-phase executions are
    always measured, so creation costs stay exact.
    """

    def __init__(self, system, min_samples: int = 5):
        self.system = system
        self.regression = TemplateRegression(min_samples=min_samples)
        self.history: list[SimulatedQuery] = []

    def run(self, template: str, plan: Plan) -> SimulatedQuery:
        width = selection_width(plan)
        prediction = self.regression.predict(template, width)
        if prediction is not None:
            step = SimulatedQuery(len(self.history), template, prediction, True)
            self.history.append(step)
            return step
        report = self.system.execute(plan)
        if report.reused_view and not report.views_created and report.refinements == 0:
            self.regression.observe(template, width, report.total_s)
        step = SimulatedQuery(len(self.history), template, report.total_s, False)
        self.history.append(step)
        return step

    def run_workload(self, queries: list[tuple[str, Plan]]) -> float:
        """Total (measured + predicted) time for a template-tagged workload."""
        return sum(self.run(template, plan).elapsed_s for template, plan in queries)

    @property
    def measured_count(self) -> int:
        return sum(1 for q in self.history if not q.predicted)

    @property
    def predicted_count(self) -> int:
        return sum(1 for q in self.history if q.predicted)


def project_workload_time(
    measured: list[float],
    target_queries: int,
    steady: list[float] | None = None,
) -> float:
    """Figure-7a's projection: extend a measured prefix to N queries.

    The measured prefix is charged in full; the remaining queries are
    charged the steady-state per-query mean.  ``steady`` lets the caller
    supply the steady-state samples explicitly (e.g. only the queries that
    were answered from the pool without materialization activity); by
    default the suffix after the first query is used.
    """
    if not measured:
        raise ReproError("cannot project an empty measurement list")
    if target_queries <= len(measured):
        return float(sum(measured[:target_queries]))
    if steady is None:
        steady = measured[1:] if len(measured) > 1 else measured
    if not steady:
        raise ReproError("steady-state sample list is empty")
    per_query = float(np.mean(steady))
    return float(sum(measured) + per_query * (target_queries - len(measured)))
