"""Micro-benchmarks of the six execution strategies on one fixed query.

Complements bench_tables: directly compares strategy wall times on the
same star-7 dataset (driver 5k, m ∈ [0.4, 0.7], fo ∈ [2, 5]) so the
relative ordering is visible straight from ``--benchmark-only`` output.
"""
import random

import pytest

from repro.core.costmodel import STRATEGIES
from repro.core.datagen import gen_tree_data
from repro.engine import run_strategy
from repro.experiments.shapes import sample_shaped_tree


@pytest.fixture(scope="module")
def workload(spark):
    rng = random.Random(7)
    tree = sample_shaped_tree(
        "star7", rng, m_range=(0.4, 0.7), fo_range=(2.0, 5.0), n_driver=5000, max_out=5e5
    )
    sdata = {n: spark.createDataFrame(pdf) for n, pdf in gen_tree_data(tree, 5000, seed=11).items()}
    for df in sdata.values():
        df.persist().count()
    return tree, sdata


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bench_strategy(benchmark, spark, workload, strategy):
    tree, sdata = workload
    res = benchmark.pedantic(
        lambda: run_strategy(spark, tree, sdata, strategy, measure=False, flat_output=True),
        rounds=1,
        iterations=1,
    )
    assert res.out_rows is not None and res.out_rows > 0
