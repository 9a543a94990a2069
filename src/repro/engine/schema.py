"""Relational schemas.

A :class:`Schema` is an ordered collection of uniquely named
:class:`Column` definitions.  Column names are globally unique within a
workload (TPC-style prefixes such as ``ss_item_sk`` / ``i_item_sk``), which
lets joins concatenate schemas without a qualification mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.types import ColumnKind
from repro.errors import SchemaError


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Attributes:
        name: Unique column name.
        kind: Logical type.
        width: Accounting width in bytes (defaults to the kind's width).
    """

    name: str
    kind: ColumnKind = ColumnKind.INT64
    width: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            object.__setattr__(self, "width", self.kind.default_width)


@dataclass(frozen=True)
class Schema:
    """An ordered, uniquely named set of columns."""

    columns: tuple[Column, ...]
    # The column names in order, built once: the row-level operators and
    # the ingest path read them on every call.
    names: tuple[str, ...] = field(init=False, repr=False, compare=False, hash=False, default=())
    _by_name: dict[str, Column] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        by_name: dict[str, Column] = {}
        for col in self.columns:
            if col.name in by_name:
                raise SchemaError(f"duplicate column name: {col.name!r}")
            by_name[col.name] = col
        object.__setattr__(self, "names", tuple(by_name))
        object.__setattr__(self, "_by_name", by_name)

    @classmethod
    def of(cls, *columns: Column) -> "Schema":
        return cls(tuple(columns))

    @property
    def row_bytes(self) -> int:
        """Accounting width of one row in bytes."""
        return sum(col.width for col in self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    def subset(self, names: tuple[str, ...] | list[str]) -> "Schema":
        """Schema restricted to ``names``, in the order given."""
        return Schema(tuple(self.column(n) for n in names))

    def concat(self, other: "Schema", drop: set[str] | None = None) -> "Schema":
        """Concatenate two schemas, optionally dropping columns of ``other``.

        Columns in ``drop`` are removed from ``other`` before concatenation;
        this is how joins avoid duplicating a shared join attribute.
        """
        drop = drop or set()
        extra = tuple(c for c in other.columns if c.name not in drop)
        return Schema(self.columns + extra)
