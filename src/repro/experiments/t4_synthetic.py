"""T4 (Fig 11): engine comparison on the synthetic benchmark.

Four query shapes × four match-probability ranges; fanouts U[1,10];
driver 10⁴ (paper: 10⁴–10⁶). All six strategies execute with the
survival-heuristic join order (the paper's default; SJ: §3.6), through
``common.run_plans``; wall-clock runtimes are reported relative to COM,
for flat output and (COM variants) for factorized output. Strategies
whose *estimated* peak intermediate exceeds ``common.MAX_INTERM`` are
skipped and reported "TO" — the analogue of the paper's timed-out red
data points (all STD variants there too).
"""
from __future__ import annotations

import random

from pyspark.sql import SparkSession

from repro.core.costmodel import Weights
from repro.core.datagen import gen_tree_data
from repro.core.planner import rank_strategies
from repro.core.robustness import M_RANGES
from repro.session import to_spark

from .common import env_float, env_int, md_table, rel_to_com, run_plans, stable_seed
from .shapes import SHAPES, sample_shaped_tree

COM_VARIANTS = ("COM", "BVP+COM", "SJ+COM")


def run(spark: SparkSession, *, n_driver: int | None = None, seed: int = 0, shapes=None, m_ranges=None):
    n_driver = n_driver or env_int("REPRO_T4_DRIVER", 10_000)
    max_out = env_float("REPRO_T4_MAX_OUT", 2e6)
    shapes = shapes or sorted(SHAPES)
    m_ranges = m_ranges or M_RANGES
    rows = []
    for shape in shapes:
        for mr in m_ranges:
            rng = random.Random(stable_seed(seed, shape, mr))
            tree = sample_shaped_tree(shape, rng, m_range=mr, n_driver=n_driver, max_out=max_out)
            sdata = to_spark(spark, gen_tree_data(tree, n_driver, seed=rng.randrange(1 << 30)))
            flat = run_plans(spark, tree, sdata, rank_strategies(tree, n_driver, weights=Weights()))
            fact_plans = rank_strategies(tree, n_driver, strategies=COM_VARIANTS, flat_output=False, weights=Weights())
            fact = run_plans(spark, tree, sdata, fact_plans, flat_output=False)
            rows.append({
                "shape": shape, "m_range": str(mr), "out_rows": next(r.out_rows for r in flat if r.strategy == "COM"),
                **rel_to_com(flat, "wall_s", "rel_"),
                **rel_to_com(fact, "wall_s", "fact_rel_"),
                # The model's weighted costs relative to COM: the abstract
                # metric the paper emphasizes alongside wall time.
                **rel_to_com(flat, "cost", "model_rel_"),
            })
    return rows, md_table(rows)
