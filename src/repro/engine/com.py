"""COM / BVP+COM: factorized execution avoiding redundant probes (§4.2–4.3).

The factorized representation keeps one frame per node, the relational
form of the paper's per-node vectors with each row pointing at its parent
row (cf. Olteanu & Závodný, *Factorised representations of query
results*, TODS 2015):

- ``spine[n]`` holds n's own columns, a row id ``n__rid`` and a pointer
  ``n__ptr`` to the parent's spine row it extends (the root has none). It
  is built once, when n is joined, by probing R_n with the live rows of
  n's parent; side branches never multiply into the probe stream, which
  is where redundant probes are avoided;
- ``spine[n]`` keeps only rows alive at n, the analogue of the selection
  vectors: when a join leaves a row without a match, the death propagates
  upward, one pointer semi-join per edge to the root. Downward, deaths
  stay lazy: a row is *live* when its parent row is live, which is
  checked where rows are probed or counted;
- the *expansion* (§4.3 "Result Expansion") inner-joins the spines along
  the pointers; a row whose ancestor died finds no partner.

Every operation below is a Catalyst plan; ``localCheckpoint`` pins each
spine where the paper's engine materializes its vectors. Every join is a
hash join that broadcasts its build side: R_l, the parent's live rows,
or the child's spine.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.jointree import JoinTree

from .common import Counted, Gater, ckpt


def rid(n: str) -> str:
    return f"{n}__rid"


def ptr(n: str) -> str:
    return f"{n}__ptr"


def pin_spine(df: DataFrame, n: str) -> DataFrame:
    """Number the rows of n's spine and materialize it at once: the ids
    ``monotonically_increasing_id`` assigns would change if recomputed."""
    return ckpt(df.withColumn(rid(n), F.monotonically_increasing_id()))


def run_com(
    tree: JoinTree,
    data: dict[str, DataFrame],
    order: list[str],
    gater: Gater | None,
    counted: Counted,
    flat_output: bool,
) -> tuple[DataFrame | None, int | None]:
    """Execute the factorized plan; returns the lazy flat result, or with
    factorized output the factorized row count, which is then the terminal
    action."""
    order_pos = {c: i for i, c in enumerate(order)}
    root = tree.root
    driver = data[root]
    if gater:
        driver = gater.gate_children(driver, root, order_pos, counted)
    spine: dict[str, DataFrame] = {root: pin_spine(driver, root)}

    def live(n: str) -> DataFrame:
        if n == root:
            return spine[n]
        p = tree.parent[n]
        return spine[n].join(F.broadcast(live(p)), on=F.col(ptr(n)) == F.col(rid(p)), how="left_semi")

    for l in order:
        p = tree.parent[l]
        probe = live(p)
        counted.append(("hash_probes", l, probe))
        pcol, ccol = tree.join_cols[l]
        sp = probe.join(F.broadcast(data[l]), on=F.col(pcol) == F.col(ccol), how="inner")
        sp = sp.select(*data[l].columns, F.col(rid(p)).alias(ptr(l)))
        counted.append(("tuples_generated", None, sp))
        if gater and tree.children(l):
            sp = gater.gate_children(sp, l, order_pos, counted)
        spine[l] = pin_spine(sp, l)
        # Upward death propagation: a row stays alive at a only while its
        # child on the path to l keeps a row alive.
        child = l
        for a in tree.path_to_root(l)[1:]:
            alive = spine[a].join(
                F.broadcast(spine[child]), on=F.col(rid(a)) == F.col(ptr(child)), how="left_semi"
            )
            spine[a] = ckpt(alive)
            child = a

    if not flat_output:
        # One action for all nodes; the live chains they share are one
        # broadcast each, reused across the union's branches.
        live_rows = [live(n).select(F.lit(1).alias("__live")) for n in [root, *order]]
        return None, reduce(DataFrame.unionAll, live_rows).count()

    flat = spine[root]
    for c in tree.bfs_order()[1:]:
        p = tree.parent[c]
        flat = flat.join(F.broadcast(spine[c]), on=F.col(rid(p)) == F.col(ptr(c)), how="inner")
        counted.append(("expansion_tuples", None, flat))
    cols = [col for n in tree.bfs_order() for col in data[n].columns]
    return flat.select(*cols), None
