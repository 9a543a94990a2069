"""Columnar, numpy-backed tables with late-materialized selection views.

A :class:`Table` holds one numpy array per column plus a *scale factor*.
The scale factor maps in-memory rows to the nominal dataset size the table
represents: the paper evaluates on 100 GB / 500 GB BigBench instances,
which this reproduction models with a few hundred thousand rows.  A table
generated to stand in for a 100 GB instance carries ``scale`` such that
``size_bytes`` reports the nominal (simulated) size.  All cost-model
accounting uses ``size_bytes``; all query answers use the actual rows.

Every column is a plain numpy array of its kind's dtype (``STRING``
columns are object arrays; :mod:`repro.engine.types`).  Row-level
operators (``filter``/``take``) do not copy column data: they return a
:class:`TableView` — a selection vector (row-index array) over the root
table, with per-column gathers deferred until a column is actually
touched and cached once gathered.  A ``Select→Project→Join`` chain
therefore materializes each payload column exactly once, at the join
gather or at an explicit :meth:`materialize` boundary (capture,
pickling, simulated-disk writes).  Views also maintain the row-lineage
hint the join-probe caches key on.

Tables are immutable by convention: operators return new tables and never
mutate column arrays in place.  :meth:`Table.append` keeps that promise
while growing a table at a cost of O(batch): the grown table and the one
it grew from are read-only prefix views of one shared tail buffer, and
rows are only ever written past every existing table's visible length
(:class:`_TailBuffer`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.engine.schema import Schema
from repro.engine.types import coerce_array
from repro.errors import SchemaError


class _TailBuffer:
    """Capacity-doubling column storage behind :meth:`Table.append`.

    One buffer backs a chain of appended versions of a table: each
    version's columns are read-only views ``array[:nrows]`` of it, so a
    catalog version, a fork, a journal undo image and a snapshot lease
    all share storage.  ``filled`` is the visible length of the newest
    version — the high-water mark.  The ownership rule that keeps every
    version immutable: rows are only ever written at ``filled`` and
    beyond, and only by the one appender that :meth:`claim` hands the
    range to; whoever is not appending to the tip gets a fresh buffer.
    """

    __slots__ = ("arrays", "capacity", "filled", "_lock")

    def __init__(self, columns: dict, nrows: int):
        self.capacity = 2 * nrows
        self.arrays: dict[str, np.ndarray] = {}
        for name, col in columns.items():
            array = np.empty(self.capacity, dtype=col.dtype)
            array[:nrows] = col
            self.arrays[name] = array
        self.filled = nrows
        self._lock = threading.Lock()

    def claim(self, start: int, nrows: int) -> bool:
        """Reserve rows ``[start, start + nrows)`` for the caller alone.

        Granted only to an append to the tip (``start == filled``) that
        fits the capacity.  Two forks appending to one parent from two
        threads race here, so check and reservation happen under a lock;
        the loser falls back to a buffer of its own.
        """
        with self._lock:
            if start != self.filled or start + nrows > self.capacity:
                return False
            self.filled = start + nrows
            return True

    def write(self, start: int, parts: "dict[str, np.ndarray]") -> None:
        """Fill a range handed out by :meth:`claim`."""
        for name, part in parts.items():
            stop = start + len(part)
            # The claim moved the mark past the range before any row
            # landed, and no table is handed rows it has not been built
            # over yet — so nothing below a live table's visible length
            # is ever written.
            assert stop <= self.filled
            self.arrays[name][start:stop] = part

    def visible(self, nrows: int) -> dict:
        """Read-only column views of the first ``nrows`` rows."""
        columns: dict = {}
        for name, array in self.arrays.items():
            view = array[:nrows]
            view.flags.writeable = False
            columns[name] = view
        return columns


@dataclass(eq=False)
class Table:
    """An immutable columnar table.

    Attributes:
        schema: Column definitions; order defines row layout.
        columns: Mapping from column name to a numpy array of the
            column kind's dtype. All columns must have equal length.
        scale: Multiplier applied when converting actual in-memory bytes
            to nominal (simulated) bytes.

    ``eq=False`` keeps identity comparison and hashing: tables are compared
    by content only in tests (via :meth:`sorted_rows`), while the engine's
    index caches key on table *identity* — immutable tables make identity a
    sound cache key, and weak references make it self-invalidating.
    """

    schema: Schema
    columns: dict[str, np.ndarray]
    scale: float = 1.0
    _nrows: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = set(self.schema.names)
        if set(self.columns) != names:
            raise SchemaError(f"columns {sorted(self.columns)} do not match schema {sorted(names)}")
        lengths = {len(arr) for arr in self.columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._nrows = lengths.pop() if lengths else 0
        # Row lineage: (root table, row indices into root | None for "all
        # rows in order", monotonic flag).  Set by filter/take/project so
        # the join-key probe cache (repro.engine.indexes) can reuse
        # per-root-table binary-search results across queries.  The flag
        # records that the row indices are strictly increasing (pure
        # selections), which the row-id join's membership test relies on.
        # Purely an acceleration hint — never consulted for semantics.
        self._lineage: "tuple[Table, np.ndarray | None, bool] | None" = None

    # Set by :meth:`append` on the tables it returns: the shared tail
    # buffer the columns are views of.  In-process only, like lineage.
    _tail: ClassVar["_TailBuffer | None"] = None

    def __getstate__(self) -> dict:
        """Pickle without lineage.

        Lineage is an in-process acceleration hint: it points at the
        *root* table a selection came from, so pickling it would drag the
        full base relation across every process boundary (the parallel
        runner ships result tables back from pool workers).  Dropping it
        only means a restored table starts cache-cold.
        """
        state = dict(self.__dict__)
        state["_lineage"] = None
        # An appended table ships its visible rows only: numpy pickles a
        # view by content, and the buffer (with every later version's
        # rows) stays behind.
        state.pop("_tail", None)
        return state

    def _derived_lineage(
        self, rows: "np.ndarray | None", monotonic: bool
    ) -> "tuple[Table, np.ndarray | None, bool]":
        """Lineage for a table selecting ``rows`` (None = all) of ``self``."""
        if self._lineage is None:
            return (self, rows, monotonic)
        root, own_rows, own_mono = self._lineage
        if own_rows is None:
            return (root, rows, own_mono and monotonic)
        if rows is None:
            return (root, own_rows, own_mono and monotonic)
        return (root, own_rows[rows], own_mono and monotonic)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, schema: Schema, data: dict, scale: float = 1.0) -> "Table":
        """Build a table from plain Python sequences, coercing dtypes."""
        cols = {col.name: coerce_array(col.kind, data[col.name]) for col in schema.columns}
        return cls(schema, cols, scale)

    @classmethod
    def empty(cls, schema: Schema, scale: float = 1.0) -> "Table":
        cols = {col.name: coerce_array(col.kind, []) for col in schema.columns}
        return cls(schema, cols, scale)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def size_bytes(self) -> float:
        """Nominal (simulated) size of this table in bytes."""
        return self._nrows * self.schema.row_bytes * self.scale

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    def materialize(self) -> "Table":
        """This table with every column gathered (no-op for plain tables)."""
        return self

    # ------------------------------------------------------------------
    # Row-level operations (all return new tables)
    # ------------------------------------------------------------------
    def _select_rows(self, rows: np.ndarray, monotonic: bool) -> "Table":
        """A view of the rows at ``rows``."""
        return TableView(self, self.schema, rows, monotonic)

    def filter(self, mask: np.ndarray) -> "Table":
        """Rows where ``mask`` is true.

        The view keeps the boolean mask itself and defers
        ``np.flatnonzero`` until row *indices* are actually needed (index
        composition, lineage, gather plans).  A filter that is only
        counted, re-filtered (masks AND together), or gathered once never
        pays for the index conversion.
        """
        return TableView(self, self.schema, None, True, _mask=np.asarray(mask, dtype=bool))

    def take(self, indices: np.ndarray) -> "Table":
        """Rows at ``indices`` (with repetition allowed)."""
        return self._select_rows(np.asarray(indices), False)

    def project(self, names: tuple[str, ...] | list[str]) -> "Table":
        """Restrict to the given columns, in order.

        Always zero-copy: the projected table shares the parent's column
        arrays (plain tables) or its selection vector (views).
        """
        schema = self.schema.subset(tuple(names))
        cols = {name: self.columns[name] for name in names}
        out = Table(schema, cols, self.scale)
        out._lineage = self._derived_lineage(None, True)
        return out

    def concat(self, other: "Table") -> "Table":
        """Vertical concatenation; schemas must have identical names."""
        return Table.concat_many([self, other])

    @classmethod
    def concat_many(cls, tables: "list[Table]") -> "Table":
        """Vertical concatenation of any number of tables in one pass.

        Unlike folding pairwise concat (which copies the growing prefix
        once per piece, O(n²) bytes moved), this allocates each output
        column exactly once.  Column values and row order are identical
        to the pairwise fold.  Views gather each needed column once.
        """
        if not tables:
            raise SchemaError("concat_many requires at least one table")
        first = tables[0]
        if len(tables) == 1:
            return first
        for other in tables[1:]:
            if other.schema.names != first.schema.names:
                raise SchemaError("cannot concat tables with different schemas")
        cols = {
            name: np.concatenate([t.column(name) for t in tables])
            for name in first.schema.names
        }
        return Table(first.schema, cols, max(t.scale for t in tables))

    def append(self, batch: "Table") -> "Table":
        """``concat_many([self, batch])``, at a cost of O(batch) when it can be.

        The result's columns are views of a capacity-doubling tail buffer
        (:class:`_TailBuffer`); ``self`` is never touched and keeps
        reading its own prefix.  The batch rows are written in place only
        when ``self`` is the buffer's newest version and every column's
        dtype agrees.  Everything else — a table that has no buffer yet or
        has filled it, a second fork appending to the same parent, an
        append retried after a journal rollback, a dtype ``np.concatenate``
        would promote — concatenates into a fresh buffer, so the result is
        column for column what ``concat_many`` returns.
        """
        if batch.schema.names != self.schema.names:
            raise SchemaError("cannot append a batch with a different schema")
        start, total = self._nrows, self._nrows + batch.nrows
        tail = self._tail
        parts: "dict[str, np.ndarray] | None" = None
        if tail is not None:
            parts = {name: batch.column(name) for name in self.schema.names}
            if any(part.dtype != tail.arrays[name].dtype for name, part in parts.items()):
                parts = None
        if parts is not None and tail.claim(start, batch.nrows):
            tail.write(start, parts)
            scale = max(self.scale, batch.scale)
        else:
            grown = Table.concat_many([self, batch])
            tail = _TailBuffer(grown.columns, total)
            scale = grown.scale
        out = Table(self.schema, tail.visible(total), scale)
        out._tail = tail
        return out

    # ------------------------------------------------------------------
    # Test helpers
    # ------------------------------------------------------------------
    def to_rows(self) -> list[tuple]:
        """Materialize as a list of row tuples (tests only)."""
        arrays = [self.column(name) for name in self.schema.names]
        return list(zip(*(arr.tolist() for arr in arrays))) if arrays else []

    def sorted_rows(self) -> list[tuple]:
        """Rows sorted canonically, for multiset comparison in tests."""
        return sorted(self.to_rows(), key=repr)


class TableView(Table):
    """A late-materialized row selection over a root :class:`Table`.

    Holds ``(root, rows)`` — a selection vector into a *plain* (non-view)
    root table — plus the view's own (possibly narrowed) schema.  Column
    gathers happen on first access via :meth:`column` and are cached, so
    chained ``filter``/``take``/``project`` calls compose selections
    instead of copying payload columns.  Every operator accepts a view
    wherever it accepts a table.

    The selection is held in one of two forms.  A view built by
    :meth:`Table.filter` starts as a *boolean mask* over the root; the
    row-index array (``np.flatnonzero``) is derived lazily, only when
    something genuinely needs indices — index composition under
    ``take``, lineage for the join-probe caches, a :meth:`gather_plan`.
    Counting rows (``np.count_nonzero``), refining with another filter
    (mask write-back, no index math), and single-column gathers all work
    straight off the mask.  Both forms produce bit-identical gathers.
    """

    def __init__(
        self,
        root: Table,
        schema: Schema,
        rows: "np.ndarray | None",
        monotonic: bool,
        _cache: "dict[str, np.ndarray] | None" = None,
        _mask: "np.ndarray | None" = None,
    ):
        # Deliberately does not call the dataclass __init__: a view has
        # no columns dict of its own.
        self.schema = schema
        self.scale = root.scale
        self._root = root
        self._rows_arr = rows
        self._mask = _mask
        self._monotonic = monotonic
        self._nrows = len(rows) if rows is not None else int(np.count_nonzero(_mask))
        self._gathered = {} if _cache is None else _cache
        self._lineage_cache: "tuple[Table, np.ndarray | None, bool] | None" = None

    @property
    def _rows(self) -> np.ndarray:
        """The selection as row indices, derived from the mask on demand."""
        rows = self._rows_arr
        if rows is None:
            rows = self._rows_arr = np.flatnonzero(self._mask)
        return rows

    @property
    def _lineage(self) -> "tuple[Table, np.ndarray | None, bool]":
        # Lazy for the same reason as ``_rows``: lineage carries row
        # indices, so building it eagerly would defeat mask deferral.
        if self._lineage_cache is None:
            self._lineage_cache = self._root._derived_lineage(self._rows, self._monotonic)
        return self._lineage_cache

    def __repr__(self) -> str:  # dataclass __repr__ would materialize
        return (
            f"TableView(nrows={self._nrows}, schema={self.schema.names}, "
            f"root_nrows={self._root.nrows})"
        )

    # -- materialization ------------------------------------------------
    @property
    def columns(self) -> dict[str, np.ndarray]:
        """Materialized column dict (gathers every schema column)."""
        return {name: self.column(name) for name in self.schema.names}

    def column(self, name: str) -> np.ndarray:
        # Membership check first: the gather cache may be shared with a
        # wider projection of the same selection vector.
        if name not in self.schema:
            raise SchemaError(f"no such column: {name!r}")
        arr = self._gathered.get(name)
        if arr is None:
            # Boolean-mask and row-index gathers are bit-identical; use
            # whichever form the selection is already in — except from
            # the second gathered column on, where the mask is converted
            # to indices once so every further gather costs O(kept rows)
            # instead of another full-mask scan (concat and aggregate
            # materialize several columns of the same view back to back).
            sel = self._rows_arr
            if sel is None:
                sel = self._rows if self._gathered else self._mask
            arr = self._root.columns[name][sel]
            self._gathered[name] = arr
        return arr

    def materialize(self) -> Table:
        out = Table(self.schema, self.columns, self.scale)
        out._lineage = self._lineage
        return out

    def gather_plan(self) -> "tuple[Table, np.ndarray]":
        """The ``(source, indices)`` pair a consumer can gather from
        directly — lets joins fuse the selection vector into their own
        output gather so each payload column is touched exactly once."""
        return self._root, self._rows

    def __reduce__(self):
        # Views never cross a pickle boundary as views: ship the
        # materialized state (the root may be an entire base relation).
        return (_unpickle_table, (self.schema, self.columns, self.scale))

    # -- row-level operations -------------------------------------------
    def filter(self, mask: np.ndarray) -> Table:
        mask = np.asarray(mask, dtype=bool)
        if self._rows_arr is None:
            # Mask refinement: write the narrower selection back into the
            # root-level mask — no flatnonzero, no index composition.  A
            # mask-built view is always monotonic, so the result is too.
            combined = self._mask.copy()
            combined[self._mask] = mask
            return TableView(self._root, self.schema, None, True, _mask=combined)
        return self._select_rows(np.flatnonzero(mask), True)

    def _select_rows(self, rows: np.ndarray, monotonic: bool) -> Table:
        composed = self._rows[rows]
        return TableView(self._root, self.schema, composed, monotonic and self._monotonic)

    def project(self, names: tuple[str, ...] | list[str]) -> Table:
        schema = self.schema.subset(tuple(names))
        # Same selection (in whichever form it currently has), narrower
        # schema; the gather cache is shared so a column materialized
        # through either view is gathered at most once.
        return TableView(
            self._root,
            schema,
            self._rows_arr,
            self._monotonic,
            _cache=self._gathered,
            _mask=self._mask,
        )


class JoinView(Table):
    """A late-materialized equi-join output: two gather sides, one row space.

    Every output row is a pair ``(left source row, right source row)``;
    the view holds the two index arrays plus a name→side map, and gathers
    an output column from its side's source on first access.  A
    ``Join→Project→Aggregate`` chain therefore touches only the columns
    the aggregate actually consumes — columns projected away are never
    gathered at all.

    ``filter``/``take`` compose row selections into both index arrays
    (two integer gathers, no payload copies); ``project`` narrows the
    schema and shares the gather cache.  A ``JoinView`` is a fresh root
    for lineage purposes.
    """

    def __init__(
        self,
        schema: Schema,
        scale: float,
        sides: "list[tuple[Table, np.ndarray]]",
        side_of: dict[str, int],
        _cache: "dict[str, np.ndarray] | None" = None,
    ):
        self.schema = schema
        self.scale = scale
        self._sides = sides
        self._side_of = side_of
        self._nrows = len(sides[0][1])
        self._gathered = {} if _cache is None else _cache
        self._lineage = None

    def __repr__(self) -> str:
        return f"JoinView(nrows={self._nrows}, schema={self.schema.names})"

    @property
    def columns(self) -> dict[str, np.ndarray]:
        return {name: self.column(name) for name in self.schema.names}

    def column(self, name: str) -> np.ndarray:
        if name not in self.schema:
            raise SchemaError(f"no such column: {name!r}")
        arr = self._gathered.get(name)
        if arr is None:
            source, rows = self._sides[self._side_of[name]]
            arr = source.column(name)[rows]
            self._gathered[name] = arr
        return arr

    def materialize(self) -> Table:
        return Table(self.schema, self.columns, self.scale)

    def __reduce__(self):
        return (_unpickle_table, (self.schema, self.columns, self.scale))

    def _select_rows(self, rows: np.ndarray, monotonic: bool) -> Table:
        sides = [(source, idx[rows]) for source, idx in self._sides]
        return JoinView(self.schema, self.scale, sides, self._side_of)

    def project(self, names: tuple[str, ...] | list[str]) -> Table:
        schema = self.schema.subset(tuple(names))
        return JoinView(schema, self.scale, self._sides, self._side_of, _cache=self._gathered)


def _unpickle_table(schema: Schema, columns: dict, scale: float) -> Table:
    return Table(schema, columns, scale)
