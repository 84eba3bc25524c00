"""T3 (Fig 10): join-order heuristics vs the exhaustive optimum.

Random join trees up to 20 nodes (root 2–5 children, others 0–3), fanouts
U[1,10], match probabilities from the paper's four ranges; 100 trees per
range. Metric: ratio of each heuristic's plan cost to the Algorithm-1
optimum, under the COM probe-count cost model (redundant probes avoided).
"""
from __future__ import annotations

import random

from repro.core.jointree import random_tree
from repro.core.optimizer import (
    HEURISTICS,
    com_probes_fn,
    exhaustive_optimal,
    greedy_order,
    order_cost,
)
from repro.core.robustness import M_RANGES

from .common import env_int, md_table, percentile

N = 1000.0


def run(*, n_trees: int | None = None, max_nodes: int | None = None, seed: int = 0):
    n_trees = n_trees or env_int("REPRO_T3_TREES", 100)
    max_nodes = max_nodes or env_int("REPRO_T3_MAXNODES", 20)
    rows = []
    for mr in M_RANGES:
        ratios: dict[str, list[float]] = {h: [] for h in HEURISTICS}
        for i in range(n_trees):
            rng = random.Random((seed, mr, i).__hash__() & 0x7FFFFFFF)
            t = random_tree(rng, max_nodes=max_nodes, m_range=mr, fo_range=(1.0, 10.0))
            fn = com_probes_fn(t, N)
            opt_cost, _ = exhaustive_optimal(t, fn)
            for h in HEURISTICS:
                c = order_cost(t, greedy_order(t, h, N), fn)
                ratios[h].append(c / opt_cost if opt_cost > 0 else 1.0)
        for h in HEURISTICS:
            xs = ratios[h]
            rows.append(
                {
                    "m_range": str(mr),
                    "heuristic": h,
                    "median": percentile(xs, 0.5),
                    "p90": percentile(xs, 0.9),
                    "max": max(xs),
                }
            )
    return rows, md_table(rows)
