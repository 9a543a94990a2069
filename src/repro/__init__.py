"""DeepSea — progressive workload-aware partitioning of materialized views.

A faithful reproduction of *DeepSea: Progressive Workload-Aware
Partitioning of Materialized Views in Scalable Data Analytics* (EDBT
2017) over a simulated Hive/Hadoop substrate.

Quickstart::

    from repro import DeepSea, Catalog, Q
    from repro.workloads.bigbench import generate_bigbench

    catalog, domains = generate_bigbench(instance_gb=100, seed=7)
    system = DeepSea(catalog, domains=domains)
    plan = (
        Q("store_sales")
        .join("item", on=("ss_item_sk", "i_item_sk"))
        .where_between("i_item_sk", 1_000, 5_000)
        .group_by("i_category", agg=[("sum", "ss_quantity", "total_qty")])
        .plan
    )
    report = system.execute(plan)
    print(report.total_s, report.result.to_rows()[:5])
"""

from repro.core.deepsea import DeepSea
from repro.core.policies import Policy
from repro.core.reports import QueryReport
from repro.engine.catalog import Catalog
from repro.engine.cost import ClusterSpec, CostLedger
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind
from repro.partitioning.bounding import SizeBounds
from repro.partitioning.intervals import Interval
from repro.query.builder import Q

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "ClusterSpec",
    "Column",
    "ColumnKind",
    "CostLedger",
    "DeepSea",
    "Interval",
    "Policy",
    "Q",
    "QueryReport",
    "Schema",
    "SizeBounds",
    "Table",
    "__version__",
]
