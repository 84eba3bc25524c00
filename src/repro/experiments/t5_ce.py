"""T5 (Fig 12): engine comparison on the CE-benchmark substitute.

Random pattern queries per lite dataset (the paper used 10 random queries
from each of 5 CE datasets with result sizes bounded); all six strategies
run with the survival-order default (``common.run_plans``); wall times
relative to COM ("TO" over ``common.MAX_INTERM``), plus the modeled
weighted-cost ratios.
"""
from __future__ import annotations

import random

from pyspark.sql import SparkSession

from repro.ce_lite import load_dataset, random_query
from repro.core.costmodel import STRATEGIES, Weights
from repro.core.planner import rank_strategies
from repro.session import to_spark

from .common import env_float, env_int, md_table, rel_to_com, run_plans, stable_seed

DATASET_NAMES = ["epinions_lite", "imdb_lite", "watdiv_lite", "dblp_lite", "yago_lite"]


def run(spark: SparkSession, *, n_queries: int | None = None, seed: int = 0, datasets=None):
    n_queries = n_queries or env_int("REPRO_T5_QUERIES", 2)
    max_out = env_float("REPRO_T5_MAX_OUT", 5e5)
    datasets = datasets or DATASET_NAMES
    rows = []
    for ds in datasets:
        tables = load_dataset(ds, sf=1.0, seed=seed)
        for qi in range(n_queries):
            rng = random.Random(stable_seed(seed, ds, qi))
            # Heavily-skewed datasets may admit no 5-way query under the
            # cap — fall back to 4 relations, then to a looser cap.
            tree = pdata = None
            for n_rels, cap in ((rng.choice([4, 5]), max_out), (4, max_out), (4, 4 * max_out)):
                try:
                    tree, pdata = random_query(rng, tables, n_rels=n_rels, max_out=cap, max_tries=60)
                    break
                except RuntimeError:
                    continue
            if tree is None:
                rows.append({"dataset": ds, "query": f"q{qi}", "n_rels": "unsat"})
                continue
            runs = run_plans(spark, tree, to_spark(spark, pdata), rank_strategies(
                tree, len(pdata[tree.root]), weights=Weights()
            ))
            rows.append({
                "dataset": ds, "query": f"q{qi}", "n_rels": len(tree.nodes),
                **rel_to_com(runs, "wall_s", "rel_"), **rel_to_com(runs, "cost", "model_rel_"),
            })
    cols = (
        ["dataset", "query", "n_rels"]
        + [f"rel_{s}" for s in STRATEGIES]
        + [f"model_rel_{s}" for s in STRATEGIES]
    )
    return rows, md_table(rows, cols)
