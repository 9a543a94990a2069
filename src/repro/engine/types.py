"""Column types for the simulated analytical engine.

The engine is columnar and numpy-backed.  Each column has a logical kind
that determines its numpy dtype and its *accounting width* — the number of
bytes one value contributes to the simulated on-disk size of a table.  The
accounting width is what the DeepSea cost model sees; it is deliberately
decoupled from the in-memory representation: a ``STRING`` value is
charged 32 bytes whatever its length.

Every kind has one representation, a plain numpy array of its dtype.
``STRING`` columns are object arrays of Python ``str``: ``argsort``,
``lexsort``, ``searchsorted``, elementwise comparison and
``minimum``/``maximum.reduceat`` all work on them directly, so every
kernel treats a string column like any other.
"""

from __future__ import annotations

import enum

import numpy as np


class ColumnKind(enum.Enum):
    """Logical type of a column."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"

    @property
    def default_width(self) -> int:
        """Accounting width in bytes for one value of this kind."""
        if self is ColumnKind.STRING:
            return 32
        return 8

    @property
    def dtype(self) -> np.dtype:
        """The numpy dtype of a column of this kind."""
        if self is ColumnKind.INT64:
            return np.dtype(np.int64)
        if self is ColumnKind.FLOAT64:
            return np.dtype(np.float64)
        return np.dtype(object)


def coerce_array(kind: ColumnKind, values) -> np.ndarray:
    """Coerce ``values`` into the numpy array a column of ``kind`` holds."""
    return np.asarray(values, dtype=kind.dtype)


def decoded(column: np.ndarray) -> np.ndarray:
    """``column`` itself: columns have one representation.

    Kept only because ``perfbench/workloads.py`` still imports it.
    """
    return column
