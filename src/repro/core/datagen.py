"""Pandas-level generator of relations realizing a join tree's (m, fo).

For every edge parent→child the child relation references the parent's
unique id column, so probing parent→child has *exactly* the requested
match probability (a uniformly chosen ``round(m·|parent|)`` subset of
parent ids has matches) and — with integer fanouts — *exactly* the
requested fanout per matched tuple. This satisfies the cost model's
"no match or exactly the same fanout" assumption (§3.3), which makes the
generated data ideal for validating the estimators.

The same frames feed the pandas reference simulator and (via
``repro.session.to_spark``) the Spark engine, so the two can be compared
for exact probe-count equality.

Column convention: relation ``R`` has a unique id ``R__id``, a foreign key
``R__pkey`` into its parent's id (non-root only), and a payload ``R__val``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .jointree import JoinTree


def id_col(name: str) -> str:
    return f"{name}__id"


def pkey_col(name: str) -> str:
    return f"{name}__pkey"


def val_col(name: str) -> str:
    return f"{name}__val"


def bind_join_cols(tree: JoinTree) -> None:
    """Fill ``tree.join_cols`` with this module's column convention."""
    for c in tree.nonroot:
        tree.join_cols[c] = (id_col(tree.parent[c]), pkey_col(c))


def gen_tree_data(
    tree: JoinTree,
    n_driver: int,
    seed: int = 0,
    *,
    exact_fanout: bool | None = None,
) -> dict[str, pd.DataFrame]:
    """Generate one pandas DataFrame per tree node.

    ``exact_fanout=True`` requires every fanout to be an integer and gives
    each matched parent exactly ``fo`` child rows; ``False`` rounds the
    fanout stochastically per matched parent (mean preserved). Default:
    exact when all fanouts are integral.
    """
    rng = np.random.default_rng(seed)
    if exact_fanout is None:
        exact_fanout = all(float(tree.stats[c].fo).is_integer() for c in tree.nonroot)
    data: dict[str, pd.DataFrame] = {}
    data[tree.root] = pd.DataFrame(
        {
            id_col(tree.root): np.arange(n_driver, dtype=np.int64),
            val_col(tree.root): rng.integers(0, 1_000_000, n_driver),
        }
    )
    tree.size[tree.root] = n_driver
    for c in tree.bfs_order()[1:]:
        p = tree.parent[c]
        st = tree.stats[c]
        parent_ids = data[p][id_col(p)].to_numpy()
        n_matched = int(round(st.m * len(parent_ids)))
        matched = rng.choice(parent_ids, size=n_matched, replace=False)
        if exact_fanout:
            fo = int(round(st.fo))
            if abs(fo - st.fo) > 1e-9:
                raise ValueError(f"exact_fanout requires integer fo, got {st.fo} for {c}")
            counts = np.full(n_matched, fo, dtype=np.int64)
        else:
            base = int(np.floor(st.fo))
            frac = st.fo - base
            counts = base + (rng.random(n_matched) < frac).astype(np.int64)
            counts = np.maximum(counts, 1)
        keys = np.repeat(matched, counts)
        n_rows = len(keys)
        data[c] = pd.DataFrame(
            {
                pkey_col(c): keys,
                id_col(c): np.arange(n_rows, dtype=np.int64),
                val_col(c): rng.integers(0, 1_000_000, max(n_rows, 0)),
            }
        )
        tree.size[c] = n_rows
    bind_join_cols(tree)
    return data


def flat_join_pandas(tree: JoinTree, data: dict[str, pd.DataFrame]) -> pd.DataFrame:
    """Reference flat multi-way join result (BFS edge order) in pandas."""
    out = data[tree.root]
    for c in tree.bfs_order()[1:]:
        pcol, ccol = tree.join_cols[c]
        out = out.merge(data[c], left_on=pcol, right_on=ccol, how="inner")
    return out
