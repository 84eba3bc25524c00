"""SJ+STD / SJ+COM: two-phase semi-join full reduction (§3.6, §4.5).

Phase 1 cascades bottom-up ``left_semi`` joins: each internal node is
reduced against its already-reduced children (children visited in
increasing adjusted match probability m', the §3.6 optimal order),
finishing with the fully reduced driver. Each semi-join broadcasts the
child's key column without a ``distinct``: a broadcast semi-join only
tests whether a key exists. Phase 2 is the runner's plain STD
or COM pipeline over the reduced relations, without bitvectors — every
phase-2 probe finds a match.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.costmodel import sj_adjusted
from repro.core.jointree import JoinTree

from .common import Counted, ckpt


def run_sj_phase1(tree: JoinTree, data: dict[str, DataFrame], counted: Counted) -> dict[str, DataFrame]:
    """Returns the reduced relation per node (leaves unreduced)."""
    _, adj = sj_adjusted(tree)
    reduced: dict[str, DataFrame] = dict(data)
    for p in tree.bottom_up():
        kids = tree.children(p)
        if not kids:
            continue
        df = data[p]
        for c in sorted(kids, key=lambda c: (adj[c].m, c)):
            counted.append(("sj_probes", c, df))
            pcol, ccol = tree.join_cols[c]
            keys = F.broadcast(reduced[c].select(F.col(ccol).alias("__sj_key")))
            df = df.join(keys, on=F.col(pcol) == F.col("__sj_key"), how="left_semi")
        reduced[p] = ckpt(df)
    return reduced

