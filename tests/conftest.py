"""Shared fixtures: a small star schema used across engine/matching tests.

Also the Hypothesis profiles.  ``dev`` (the default) is tier-1's; ``deep``
(``HYPOTHESIS_PROFILE=deep`` or ``--hypothesis-profile=deep``) is the CI
job that runs the slowest properties at their full search.  Those
properties take their example count from :func:`examples`.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.engine.catalog import Catalog
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind

settings.register_profile("dev")
settings.register_profile("deep")
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def examples(*, dev: int, deep: int) -> int:
    """A slow property's example count under the loaded profile."""
    return deep if settings.default is settings.get_profile("deep") else dev


@pytest.fixture
def sales_schema() -> Schema:
    return Schema.of(
        Column("s_id", ColumnKind.INT64),
        Column("s_item_sk", ColumnKind.INT64),
        Column("s_qty", ColumnKind.INT64),
        Column("s_price", ColumnKind.FLOAT64),
    )


@pytest.fixture
def item_schema() -> Schema:
    return Schema.of(
        Column("i_item_sk", ColumnKind.INT64),
        Column("i_category", ColumnKind.INT64),
    )


@pytest.fixture
def sales_table(sales_schema) -> Table:
    rng = np.random.default_rng(7)
    n = 500
    return Table.from_dict(
        sales_schema,
        {
            "s_id": np.arange(n),
            "s_item_sk": rng.integers(0, 100, size=n),
            "s_qty": rng.integers(1, 10, size=n),
            "s_price": rng.uniform(1.0, 50.0, size=n),
        },
    )


@pytest.fixture
def item_table(item_schema) -> Table:
    n = 100
    rng = np.random.default_rng(11)
    return Table.from_dict(
        item_schema,
        {
            "i_item_sk": np.arange(n),
            "i_category": rng.integers(0, 8, size=n),
        },
    )


@pytest.fixture
def catalog(sales_table, item_table) -> Catalog:
    cat = Catalog()
    cat.register("sales", sales_table)
    cat.register("item", item_table)
    return cat
