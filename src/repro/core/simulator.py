"""Tuple-level reference executor (pandas) for all six strategies.

This is the ground-truth implementation of the abstract execution
semantics the cost model estimates and the Spark engine implements:

- probes are counted *exactly* (one probe per distinct alive input tuple
  into each operator), so the cost model can be validated in expectation
  and the Spark engine for exact equality on identical inputs;
- the factorized (COM) execution maintains, per node, the *spine* — the
  flat expansion of the root→node path only — plus alive composite-key
  sets with upward death propagation, exactly as in §3.3/§4;
- bitvectors (exact, ε=0) are applied one-step-lookahead at the moment a
  node's attributes materialize (§3.5 / §4.4);
- semi-join full reduction runs the cascading bottom-up phase 1, then a
  STD or COM phase 2 over the reduced relations (§3.6 / §4.5).
"""
from __future__ import annotations

import pandas as pd

from .costmodel import CostBreakdown, ExecResult, sj_adjusted
from .datagen import id_col
from .jointree import JoinTree


def _keycols(tree: JoinTree, a: str) -> list[str]:
    return [id_col(b) for b in tree.path_from_root(a)]


class _BV:
    """Exact bitvectors: child join-key sets built from raw base relations."""

    def __init__(self, tree: JoinTree, data: dict[str, pd.DataFrame]):
        self.tree = tree
        self.keys = {
            c: set(data[c][tree.join_cols[c][1]].to_numpy().tolist())
            for c in tree.nonroot
        }

    def gate_children(
        self,
        df: pd.DataFrame,
        a: str,
        order_pos: dict[str, int],
        counts: CostBreakdown,
    ) -> pd.DataFrame:
        """Check ``df`` against the bitvectors of ``a``'s children, in
        join-order sequence, counting one BV probe per row per check."""
        for c in sorted(self.tree.children(a), key=lambda c: order_pos[c]):
            counts.bv_probes[c] = counts.bv_probes.get(c, 0.0) + len(df)
            attr = self.tree.join_cols[c][0]
            df = df[df[attr].isin(self.keys[c])]
        return df


def _run_std(
    tree: JoinTree,
    data: dict[str, pd.DataFrame],
    order: list[str],
    bv: _BV | None,
    counts: CostBreakdown,
) -> pd.DataFrame:
    order_pos = {c: i for i, c in enumerate(order)}
    df = data[tree.root]
    if bv:
        df = bv.gate_children(df, tree.root, order_pos, counts)
    for l in order:
        counts.hash_probes[l] = float(len(df))
        pcol, ccol = tree.join_cols[l]
        df = df.merge(data[l], left_on=pcol, right_on=ccol, how="inner")
        counts.tuples_generated += len(df)
        if bv and tree.children(l):
            df = bv.gate_children(df, l, order_pos, counts)
    return df


def _run_com(
    tree: JoinTree,
    data: dict[str, pd.DataFrame],
    order: list[str],
    bv: _BV | None,
    counts: CostBreakdown,
    flat_output: bool,
) -> tuple[pd.DataFrame | None, int]:
    order_pos = {c: i for i, c in enumerate(order)}
    root = tree.root
    driver = data[root]
    if bv:
        driver = bv.gate_children(driver, root, order_pos, counts)
    spine: dict[str, pd.DataFrame] = {root: driver}
    alive: dict[str, pd.DataFrame] = {root: driver[_keycols(tree, root)].drop_duplicates()}

    for l in order:
        p = tree.parent[l]
        asp = spine[p]
        for a in tree.path_from_root(p):
            asp = asp.merge(alive[a], on=_keycols(tree, a), how="inner")
        counts.hash_probes[l] = float(len(asp))
        pcol, ccol = tree.join_cols[l]
        sp = asp.merge(data[l], left_on=pcol, right_on=ccol, how="inner")
        counts.tuples_generated += len(sp)
        if bv and tree.children(l):
            sp = bv.gate_children(sp, l, order_pos, counts)
        spine[l] = sp
        alive[l] = sp[_keycols(tree, l)].drop_duplicates()
        # Upward death propagation: a path ancestor stays alive only if it
        # retains >=1 alive expansion row at the next node down the path.
        child = l
        for a in tree.path_to_root(l)[1:]:
            surv = (
                spine[child]
                .merge(alive[child], on=_keycols(tree, child), how="inner")[_keycols(tree, a)]
                .drop_duplicates()
            )
            alive[a] = alive[a].merge(surv, on=_keycols(tree, a), how="inner")
            child = a

    # Final alive-filtered spine sizes = factorized result size.
    final_spines: dict[str, pd.DataFrame] = {}
    for n in [root, *order]:
        sp = spine[n]
        for a in tree.path_from_root(n):
            sp = sp.merge(alive[a], on=_keycols(tree, a), how="inner")
        final_spines[n] = sp
    fact_rows = sum(len(sp) for sp in final_spines.values())

    if not flat_output:
        return None, fact_rows

    # Expansion: join the per-edge match tables back along the tree (BFS).
    flat = final_spines[root]
    for c in tree.bfs_order()[1:]:
        p = tree.parent[c]
        own_cols = [x for x in data[c].columns]
        piece = final_spines[c][_keycols(tree, p) + own_cols]
        flat = flat.merge(piece, on=_keycols(tree, p), how="inner")
        counts.expansion_tuples += len(flat)
    return flat, fact_rows


def _run_sj_phase1(
    tree: JoinTree,
    data: dict[str, pd.DataFrame],
    counts: CostBreakdown,
    semi_orders: dict[str, list[str]] | None,
) -> dict[str, pd.DataFrame]:
    _, adj = sj_adjusted(tree)
    reduced: dict[str, pd.DataFrame] = dict(data)
    for p in tree.bottom_up():
        kids = tree.children(p)
        if not kids:
            continue
        if semi_orders and p in semi_orders:
            kids = semi_orders[p]
        else:
            kids = sorted(kids, key=lambda c: (adj[c].m, c))
        df = data[p]
        for c in kids:
            counts.sj_probes[c] = counts.sj_probes.get(c, 0.0) + len(df)
            pcol, ccol = tree.join_cols[c]
            df = df[df[pcol].isin(set(reduced[c][ccol].to_numpy().tolist()))]
        reduced[p] = df
    return reduced


def simulate(
    tree: JoinTree,
    data: dict[str, pd.DataFrame],
    strategy: str,
    order: list[str] | None = None,
    *,
    flat_output: bool = True,
    semi_orders: dict[str, list[str]] | None = None,
    keep_result: bool = False,
) -> ExecResult:
    """Execute ``strategy`` over pandas ``data`` and count every probe.

    ``order`` defaults to BFS (SJ: the §3.6 optimal phase-2 order). With
    ``keep_result`` the flat result frame is kept in ``result`` (None when
    ``flat_output`` is off for a COM variant).
    """
    from .costmodel import STRATEGIES, sj_optimal_phase2_order

    if strategy not in STRATEGIES:
        raise ValueError(strategy)
    counts = CostBreakdown()
    bv = _BV(tree, data) if strategy.startswith("BVP") else None
    result: pd.DataFrame | None = None
    fact_rows: int | None = None

    if strategy.startswith("SJ"):
        reduced = _run_sj_phase1(tree, data, counts, semi_orders)
        if order is None:
            order = sj_optimal_phase2_order(tree, com=strategy.endswith("COM"))
        if strategy.endswith("COM"):
            result, fact_rows = _run_com(tree, reduced, order, None, counts, flat_output)
        else:
            result = _run_std(tree, reduced, order, None, counts)
    else:
        if order is None:
            order = tree.default_order()
        if strategy.endswith("COM"):
            result, fact_rows = _run_com(tree, data, order, bv, counts, flat_output)
        else:
            result = _run_std(tree, data, order, bv, counts)

    return ExecResult(
        strategy=strategy,
        order=list(order),
        counts=counts,
        out_rows=None if result is None else len(result),
        factorized_rows=fact_rows,
        result=result if keep_result else None,
    )
