"""Acyclic pattern queries over CE-lite datasets (§5.3 workload).

A query is a join tree whose nodes are *occurrences* of labeled edge
tables: each occurrence gets uniquely prefixed columns
(``occ__src``, ``occ__dst``, plus a unique ``occ__id`` that the pandas
simulator's factorized execution keys its spine rows by), and each tree
edge joins an endpoint of the parent occurrence with an endpoint of the
child occurrence — the standard subgraph-pattern-as-multiway-join
encoding.

Statistics are computed exactly from the data (``true_stats``): the paper
evaluates execution/optimization given statistics, and keeping them exact
isolates the cost-model comparison from estimation error (estimation
error itself is studied separately in T1/T2).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd

from repro.core.datagen import id_col
from repro.core.jointree import EdgeStats, JoinTree


@dataclass(frozen=True)
class Occurrence:
    name: str
    label: str


def _occ_frame(tables: dict[str, pd.DataFrame], occ: str, label: str) -> pd.DataFrame:
    base = tables[label]
    return pd.DataFrame(
        {
            f"{occ}__src": base["src"].to_numpy(),
            f"{occ}__dst": base["dst"].to_numpy(),
            id_col(occ): np.arange(len(base), dtype=np.int64),
        }
    )


def edge_true_stats(
    parent_df: pd.DataFrame, pcol: str, child_df: pd.DataFrame, ccol: str
) -> EdgeStats:
    """Exact (m, fo) for probing parent→child on (pcol = ccol)."""
    counts = child_df.groupby(ccol).size()
    per_row = parent_df[pcol].map(counts)
    m = float(per_row.notna().mean())
    fo = float(per_row.dropna().mean()) if m > 0 else 0.0
    return EdgeStats(min(1.0, m), fo)


def true_stats(tree: JoinTree, data: dict[str, pd.DataFrame]) -> None:
    """(Re)bind exact per-edge stats and sizes onto ``tree`` in place."""
    for c in tree.nonroot:
        pcol, ccol = tree.join_cols[c]
        tree.stats[c] = edge_true_stats(data[tree.parent[c]], pcol, data[c], ccol)
    for n in tree.nodes:
        tree.size[n] = len(data[n])


def output_count(tree: JoinTree, data: dict[str, pd.DataFrame]) -> int:
    """Exact flat-join cardinality in O(total rows), never materializing
    the join: bottom-up per-row subtree multiplicities (the counting
    half of the Yannakakis algorithm). Essential because rejected
    candidate queries can have astronomically exploding outputs."""
    w: dict[str, np.ndarray] = {n: np.ones(len(data[n]), dtype=np.float64) for n in tree.nodes}
    for n in tree.bottom_up():
        for c in tree.children(n):
            pcol, ccol = tree.join_cols[c]
            sums = pd.Series(w[c]).groupby(data[c][ccol].to_numpy()).sum()
            w[n] = w[n] * data[n][pcol].map(sums).fillna(0.0).to_numpy()
    return int(round(float(w[tree.root].sum())))


def output_count_duckdb(tree: JoinTree, data: dict[str, pd.DataFrame]) -> int:
    """DuckDB cross-check of :func:`output_count` — only safe for queries
    already known to have bounded output."""
    con = duckdb.connect()
    try:
        for n, df in data.items():
            con.register(n, df)
        sql = [f"SELECT COUNT(*) AS c FROM {tree.root}"]
        for c in tree.bfs_order()[1:]:
            pcol, ccol = tree.join_cols[c]
            sql.append(f"JOIN {c} ON {pcol} = {ccol}")
        return int(con.execute(" ".join(sql)).fetchone()[0])
    finally:
        con.close()


def bind_query(
    tables: dict[str, pd.DataFrame],
    occurrences: dict[str, str],
    edges: dict[str, tuple[str, str, str]],
    root: str,
) -> tuple[JoinTree, dict[str, pd.DataFrame]]:
    """Materialize a query: ``occurrences`` maps occ name → label;
    ``edges`` maps child occ → (parent occ, parent endpoint, child
    endpoint) with endpoints in {"src", "dst"}."""
    data = {o: _occ_frame(tables, o, lab) for o, lab in occurrences.items()}
    parent = {c: p for c, (p, _, _) in edges.items()}
    stats = {c: EdgeStats(1.0, 1.0) for c in parent}  # placeholder, rebound below
    tree = JoinTree(root, parent, stats)
    for c, (p, pe, ce) in edges.items():
        tree.join_cols[c] = (f"{p}__{pe}", f"{c}__{ce}")
    true_stats(tree, data)
    return tree, data


def random_query(
    rng: random.Random,
    tables: dict[str, pd.DataFrame],
    *,
    n_rels: int = 4,
    min_m: float = 0.02,
    max_out: float = 2e6,
    min_out: int = 1,
    max_tries: int = 150,
) -> tuple[JoinTree, dict[str, pd.DataFrame]]:
    """Sample a random acyclic pattern query with non-degenerate joins.

    Grows a random tree occurrence-by-occurrence, rejecting edges whose
    exact match probability is below ``min_m``, and whole queries whose
    exact output size falls outside [min_out, max_out] (the paper filters
    CE queries to bounded result sizes the same way).
    """
    labels = sorted(tables)

    def partial_count(parent, join_cols, data):
        t = JoinTree(
            "Q1",
            dict(parent),
            {c: EdgeStats(1.0, 1.0) for c in parent},
        )
        t.join_cols.update(join_cols)
        return output_count(t, data)

    for _ in range(max_tries):
        occurrences = {"Q1": rng.choice(labels)}
        parent: dict[str, str] = {}
        join_cols: dict[str, tuple[str, str]] = {}
        data = {"Q1": _occ_frame(tables, "Q1", occurrences["Q1"])}
        ok = True
        for i in range(2, n_rels + 1):
            occ = f"Q{i}"
            # Sample a pool of candidate attachments, keep those with an
            # acceptable match probability and a *partial* output within
            # the cap, then pick the candidate with the smallest partial
            # output among a random subset — on zipfian data most edges
            # multiply the output by ~fanout, so unsteered growth almost
            # never lands inside [min_out, max_out].
            feasible = []
            for _ in range(16):
                p = rng.choice(sorted(occurrences))
                lab = rng.choice(labels)
                pe, ce = rng.choice(["src", "dst"]), rng.choice(["src", "dst"])
                cand = _occ_frame(tables, occ, lab)
                st = edge_true_stats(data[p], f"{p}__{pe}", cand, f"{occ}__{ce}")
                if st.m < min_m:
                    continue
                parent[occ] = p
                join_cols[occ] = (f"{p}__{pe}", f"{occ}__{ce}")
                data[occ] = cand
                n_partial = partial_count(parent, join_cols, data)
                del parent[occ], join_cols[occ], data[occ]
                if 1 <= n_partial <= max_out:
                    feasible.append((n_partial, lab, p, pe, ce, cand))
            if not feasible:
                ok = False
                break
            feasible.sort(key=lambda x: x[0])
            # Prefer smaller partial outputs but keep diversity.
            n_partial, lab, p, pe, ce, cand = feasible[
                rng.randrange(min(3, len(feasible)))
            ]
            occurrences[occ] = lab
            parent[occ] = p
            join_cols[occ] = (f"{p}__{pe}", f"{occ}__{ce}")
            data[occ] = cand
        if not ok:
            continue
        tree, data = bind_query(
            tables,
            occurrences,
            {c: (parent[c], join_cols[c][0].split("__")[1], join_cols[c][1].split("__")[1]) for c in parent},
            "Q1",
        )
        n_out = output_count(tree, data)
        if min_out <= n_out <= max_out:
            return tree, data
    raise RuntimeError("could not sample a query satisfying the constraints")
