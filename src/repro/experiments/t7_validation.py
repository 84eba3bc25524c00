"""T7 (Fig 14): does the cost model track actual execution cost?

For each query shape, K random valid join orders execute under COM
(factorized output, so the order-independent expansion doesn't flatten
the signal); the model's predicted weighted probes-per-driver-tuple are
correlated against (a) the wall time and the probe counts of the same
Spark runs, and (b) the exact probe counts observed by the reference
simulator. The paper's Fig 14 shows prediction ≈ execution over 300
orders; we report Pearson and Spearman correlations over K orders per
shape.
"""
from __future__ import annotations

import random

import numpy as np
from pyspark.sql import SparkSession

from repro.core.costmodel import Weights, com_costs
from repro.core.datagen import gen_tree_data
from repro.core.simulator import simulate
from repro.engine import run_strategy
from repro.session import to_spark

from .common import env_int, md_table, random_valid_order, stable_seed
from .shapes import SHAPES, sample_shaped_tree


def _pearson(a, b) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def _spearman(a, b) -> float:
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    return _pearson(ra, rb)


def run(spark: SparkSession | None, *, n_driver: int | None = None, seed: int = 0, shapes=None):
    n_driver = n_driver or env_int("REPRO_T7_DRIVER", 20_000)
    k_wall = env_int("REPRO_T7_ORDERS", 10)
    k_sim = env_int("REPRO_T7_SIM_ORDERS", 20)
    shapes = shapes or sorted(SHAPES)
    w = Weights()
    rows = []
    for shape in shapes:
        rng = random.Random(stable_seed(seed, shape))
        tree = sample_shaped_tree(
            shape, rng, m_range=(0.2, 0.6), fo_range=(1.0, 6.0), n_driver=n_driver, max_out=1e6
        )
        pdata = gen_tree_data(tree, n_driver, seed=rng.randrange(1 << 30))

        # (b) model vs simulator probes — cheap, k_sim orders.
        orders = [random_valid_order(tree, rng) for _ in range(k_sim)]
        pred = [com_costs(tree, o, n_driver, flat_output=False).total(w) for o in orders]
        obs = [
            simulate(tree, pdata, "COM", order=o, flat_output=False).counts.total(w)
            for o in orders
        ]
        row = {
            "shape": shape,
            "k_sim": k_sim,
            "pearson_model_vs_probes": _pearson(pred, obs),
            "spearman_model_vs_probes": _spearman(pred, obs),
        }

        # (a) model vs Spark wall time and probes — k_wall orders; each run
        # reports both, from one plan.
        if spark is not None:
            sdata = to_spark(spark, pdata)
            orders_w = orders[:k_wall]
            pred_w = [com_costs(tree, o, n_driver, flat_output=False).total(w) for o in orders_w]
            runs = [run_strategy(spark, tree, sdata, "COM", order=o, flat_output=False) for o in orders_w]
            walls = [r.wall_time_s for r in runs]
            probes = [r.counts.total(w) for r in runs]
            row.update(
                k_wall=len(orders_w),
                pearson_model_vs_wall=_pearson(pred_w, walls),
                spearman_model_vs_wall=_spearman(pred_w, walls),
                pearson_model_vs_engine_probes=_pearson(pred_w, probes),
                spearman_model_vs_engine_probes=_spearman(pred_w, probes),
            )
        rows.append(row)
    return rows, md_table(rows)
