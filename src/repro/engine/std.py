"""STD / BVP+STD: standard left-deep pipelined execution (§4.1, §4.3).

The flat intermediate result is folded through the join order as a chain
of Catalyst inner joins, each a hash join that broadcasts R_l; with BVP
the driver scan and each join's output are additionally gated by the
children's bitvectors (§4.4).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.jointree import JoinTree

from .common import Counted, Gater


def run_std(
    tree: JoinTree,
    data: dict[str, DataFrame],
    order: list[str],
    gater: Gater | None,
    counted: Counted,
) -> DataFrame:
    """Execute the plan; returns the lazy flat result."""
    order_pos = {c: i for i, c in enumerate(order)}
    df = data[tree.root]
    if gater:
        df = gater.gate_children(df, tree.root, order_pos, counted)
    for l in order:
        counted.append(("hash_probes", l, df))
        pcol, ccol = tree.join_cols[l]
        df = df.join(F.broadcast(data[l]), on=F.col(pcol) == F.col(ccol), how="inner")
        counted.append(("tuples_generated", None, df))
        if gater and tree.children(l):
            df = gater.gate_children(df, l, order_pos, counted)
    return df
