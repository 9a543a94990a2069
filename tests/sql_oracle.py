"""An independent reference for plan answers: the plan as SQL, run by SQLite.

:class:`SqlOracle` loads tables from plain Python rows into an in-memory
``sqlite3`` database and answers a logical plan (``Relation``, ``Select``,
``Project``, ``Join``, ``Aggregate``) by translating it into one SQL
query.  It reads the plan's fields and nothing else of the system: no
table, kernel, index or cache of ``repro.engine`` takes part in an
answer, so agreement with the engine is evidence, not a tautology.
SQLite compares 64-bit integers exactly, also against a ``REAL`` bound,
which makes it the judge of keys beyond ±2⁵³.

Answers compare as multisets of rows (:meth:`Answer.differs_from`).
Every value must be equal and of the same Python type (1 is not 1.0),
except in the columns SQL and the engine may round differently: ``avg``,
and ``sum`` over a ``REAL`` column, compare within :data:`REL_TOL` /
:data:`ABS_TOL`.
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter
from dataclasses import dataclass

from repro.query.algebra import Aggregate, Join, Plan, Project, Relation, Select

REL_TOL = 1e-9
ABS_TOL = 1e-6

_AGG_SQL = {"sum": "SUM", "avg": "AVG", "min": "MIN", "max": "MAX"}


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


@dataclass(frozen=True)
class Answer:
    """SQLite's rows for a plan, the SQL that produced them, and which
    of the columns compare within tolerance."""

    sql: str
    columns: tuple[str, ...]
    inexact: tuple[bool, ...]
    rows: list[tuple]

    def differs_from(self, got: list[tuple]) -> "str | None":
        """Why ``got`` is not this answer as a multiset, or ``None``."""
        if len(got) != len(self.rows):
            return f"{len(got)} rows, want {len(self.rows)}"
        if not any(self.inexact):
            want = Counter(_typed(row) for row in self.rows)
            have = Counter(_typed(row) for row in got)
            missing, extra = want - have, have - want
            if missing or extra:
                return f"missing {list(missing)[:5]}, extra {list(extra)[:5]}"
            return None
        # Inexact columns only come out of an aggregate, whose rows are
        # distinct in their exact (group-by) columns: pair rows on those.
        exact = [i for i, flag in enumerate(self.inexact) if not flag]

        def key(row: tuple) -> tuple:
            return tuple(row[i] for i in exact)

        for g, w in zip(sorted(got, key=key), sorted(self.rows, key=key)):
            for value, want, flag in zip(g, w, self.inexact):
                if flag:
                    close = math.isclose(value, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                else:
                    close = value == want
                if not close or type(value) is not type(want):
                    return f"row {g}, want {w}"
        return None


class SqlOracle:
    """An in-memory SQLite database holding the tables a test builds.

    ``tables`` maps a relation name to ``(columns, rows)``: ``columns`` is
    a sequence of ``(name, sql_type)`` with ``sql_type`` one of
    ``INTEGER``, ``REAL`` and ``TEXT``, and ``rows`` a sequence of tuples
    of Python values in that column order.
    """

    def __init__(self, tables: dict) -> None:
        self._db = sqlite3.connect(":memory:")
        self._columns: dict[str, tuple[tuple[str, str], ...]] = {}
        for name, (columns, rows) in tables.items():
            columns = tuple((col, sql_type) for col, sql_type in columns)
            self._columns[name] = columns
            decl = ", ".join(f"{_quote(col)} {sql_type}" for col, sql_type in columns)
            self._db.execute(f"CREATE TABLE {_quote(name)} ({decl})")
            marks = ", ".join("?" for _ in columns)
            self._db.executemany(f"INSERT INTO {_quote(name)} VALUES ({marks})", rows)

    def close(self) -> None:
        self._db.close()

    def answer(self, plan: Plan) -> Answer:
        params: list = []
        text, columns = self._translate(plan, params)
        rows = self._db.execute(text, params).fetchall()
        return Answer(
            text,
            tuple(name for name, _, _ in columns),
            tuple(inexact for _, _, inexact in columns),
            rows,
        )

    # ------------------------------------------------------------------
    # Translation: each node is a subquery whose output columns carry
    # the node's column names; ``columns`` is (name, sql type, inexact).
    # ------------------------------------------------------------------
    def _translate(self, plan: Plan, params: list) -> tuple[str, list]:
        if isinstance(plan, Relation):
            columns = [(name, sql_type, False) for name, sql_type in self._columns[plan.name]]
            names = ", ".join(_quote(name) for name, _, _ in columns)
            return f"SELECT {names} FROM {_quote(plan.name)}", columns
        if isinstance(plan, Select):
            child, columns = self._translate(plan.child, params)
            conds = []
            for pred in plan.predicates:
                conds.extend(_interval_sql(_quote(pred.attr), pred.interval, params))
            where = " AND ".join(conds) if conds else "1"
            return f"SELECT * FROM ({child}) WHERE {where}", columns
        if isinstance(plan, Project):
            child, columns = self._translate(plan.child, params)
            by_name = {col[0]: col for col in columns}
            columns = [by_name[name] for name in plan.columns]
            names = ", ".join(_quote(name) for name in plan.columns)
            return f"SELECT {names} FROM ({child})", columns
        if isinstance(plan, Join):
            left, lcols = self._translate(plan.left, params)
            right, rcols = self._translate(plan.right, params)
            # The engine keeps one copy of a key both sides name alike.
            if plan.left_attr == plan.right_attr:
                rcols = [col for col in rcols if col[0] != plan.right_attr]
            picks = [f"l.{_quote(c[0])} AS {_quote(c[0])}" for c in lcols]
            picks += [f"r.{_quote(c[0])} AS {_quote(c[0])}" for c in rcols]
            on = f"l.{_quote(plan.left_attr)} = r.{_quote(plan.right_attr)}"
            text = f"SELECT {', '.join(picks)} FROM ({left}) AS l JOIN ({right}) AS r ON {on}"
            return text, lcols + rcols
        if isinstance(plan, Aggregate):
            child, ccols = self._translate(plan.child, params)
            types = {name: sql_type for name, sql_type, _ in ccols}
            picks = [_quote(g) for g in plan.group_by]
            columns = [(g, types[g], False) for g in plan.group_by]
            for spec in plan.aggregates:
                if spec.func == "count":
                    picks.append(f"COUNT(*) AS {_quote(spec.alias)}")
                    columns.append((spec.alias, "INTEGER", False))
                    continue
                call = f"{_AGG_SQL[spec.func]}({_quote(spec.attr)})"
                picks.append(f"{call} AS {_quote(spec.alias)}")
                if spec.func == "avg":
                    columns.append((spec.alias, "REAL", True))
                else:
                    kind = types[spec.attr]
                    columns.append((spec.alias, kind, spec.func == "sum" and kind == "REAL"))
            text = f"SELECT {', '.join(picks)} FROM ({child})"
            if plan.group_by:
                text += " GROUP BY " + ", ".join(_quote(g) for g in plan.group_by)
            else:
                # By design: a global aggregate of no rows is one row in SQL, none in the engine.
                text += " HAVING COUNT(*) > 0"
            return text, columns
        raise TypeError(f"no SQL for plan node {type(plan).__name__}")


def _typed(row: tuple) -> tuple:
    return tuple((type(value), value) for value in row)


def _interval_sql(column: str, interval, params: list) -> list[str]:
    """Conditions for ``column ∈ interval``; ``None`` ends are unbounded."""
    conds = []
    if interval.low is not None:
        conds.append(f"{column} {'>' if interval.low_open else '>='} ?")
        params.append(interval.low)
    if interval.high is not None:
        conds.append(f"{column} {'<' if interval.high_open else '<='} ?")
        params.append(interval.high)
    return conds
