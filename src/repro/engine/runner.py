"""Strategy dispatcher: execute one (strategy, order) on Spark and report
probe counts, output size, and wall-clock time.

``measure=True`` inserts per-operator ``count()`` actions (exact probe
accounting, comparable with the cost model and the pandas simulator);
``measure=False`` runs the leanest pipeline for wall-clock benchmarking,
with a single terminal action, and leaves every counter at 0.

Why two modes rather than one with counters always on: the two ways of
counting inside the timed plan both fall short.

- Lazy ``observe()`` metrics count only the rows an operator actually
  pulls, and a sort-merge join stops pulling from one side when the other
  side runs out. On star7-5k (seed 11) STD's hash probes came out as
  R3 6 125 and R4 8 004 against true values of 6 127 and 8 009.
- Checkpointing every counted frame makes them exact, but as the only
  path it made the benchmark's ``answer_s`` slower on a 4-vCPU host:
  star7-5k 6.6 → 10.8 s, snow21-5k 7.4 → 10.8 s. With the fewest
  checkpoints, star7-5k was still slower in 5 of 5 pairs of runs
  (median 7.1 → 7.8 s).
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from repro.core.costmodel import STRATEGIES, CostBreakdown, ExecResult, sj_optimal_phase2_order
from repro.core.jointree import JoinTree

from .com import run_com
from .common import Gater
from .sj import run_sj
from .std import run_std


def run_strategy(
    spark: SparkSession,
    tree: JoinTree,
    data: dict[str, DataFrame],
    strategy: str,
    order: list[str] | None = None,
    *,
    measure: bool = True,
    flat_output: bool = True,
    bv_mode: str = "exact",
    bloom_bits: int = 1 << 16,
    bloom_k: int = 2,
    keep_result: bool = False,
) -> ExecResult:
    """Execute ``strategy`` over Spark relations ``data``.

    ``data`` maps every tree node to a DataFrame following the id/join
    column bindings in ``tree.join_cols``. ``order`` defaults to BFS
    (SJ: the §3.6 optimal phase-2 order). Timing includes bitvector
    construction and the phase-1 reduction — those are part of each
    technique's real cost.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    counts = CostBreakdown()
    t0 = time.perf_counter()

    gater = None
    if strategy.startswith("BVP"):
        kw = {"n_bits": bloom_bits, "k": bloom_k} if bv_mode == "bloom" else {}
        gater = Gater(tree, data, bv_mode, **kw)

    result: DataFrame | None = None
    fact_rows: int | None = None
    if strategy.startswith("SJ"):
        if order is None:
            order = sj_optimal_phase2_order(tree, com=strategy.endswith("COM"))
        result, fact_rows = run_sj(
            tree, data, order, counts, measure, com=strategy.endswith("COM"), flat_output=flat_output
        )
    else:
        if order is None:
            order = tree.default_order()
        if strategy.endswith("COM"):
            result, fact_rows = run_com(tree, data, order, gater, counts, measure, flat_output)
        else:
            result = run_std(tree, data, order, gater, counts, measure)

    out_rows = None if result is None else result.count()
    wall = time.perf_counter() - t0
    return ExecResult(
        strategy=strategy,
        order=list(order),
        counts=counts,
        out_rows=out_rows,
        factorized_rows=fact_rows,
        wall_time_s=wall,
        result=result if keep_result else None,
    )

