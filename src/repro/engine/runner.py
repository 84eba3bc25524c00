"""Strategy dispatcher: execute one (strategy, order) on Spark and report
probe counts, output size, and wall-clock time.

Every run builds the same lean plan, with a single terminal action, and
its operators record the frames their counters count (``Counted``). The
clock stops after the terminal action; only with ``measure=True`` are the
recorded frames then counted, each distinct frame once and all of them in
one Spark action. So a counted run reports the counts and the wall time of
one plan. Each frame is a deterministic plan over the input relations and
the checkpointed spines, so counting it later gives the counts of the run.
Counting recomputes each unpinned join chain (an STD prefix, a phase-1
semi-join chain, a COM expansion prefix), so a counted call takes longer
than a timed one.

Why after the clock and not inside the timed plan:

- Lazy ``observe()`` metrics count only the rows an operator pulls. Every
  engine join is a broadcast hash join, whose probe side streams every
  row, so an ``observe()`` on each hash-probe frame matched these counts
  on both benchmark workloads (seeds 3 and 11, all six strategies, both
  output modes). But where a relation is empty, Spark's empty-relation
  rules drop the observed nodes, and their observations stay empty even
  for frames with rows (an m = 0 edge, an empty driver). Such frames need
  a count of their own; the other counted frames are not measured yet.
  In PySpark 4.1.2, ``Observation.get`` on a node Spark pruned does not
  return empty: it raises (an assertion in ``PythonSQLUtils.toPyRow``).
- ``observe()`` also slows the timed plan. One on each distinct counted
  frame of STD's plan (the driver scan and every join output), in
  perfbench's session with seed 11, took the median of 10 runs after 3
  warm-ups from 0.215 to 0.304 s on star7-5k, 0.256 to 0.370 s on
  snow21-5k, and 0.64 to 0.87 s on snow21 at driver 20k (4-vCPU host).
- Checkpointing every counted frame makes them exact, but as the only
  path it made the benchmark's ``answer_s`` slower on a 4-vCPU host:
  star7-5k 6.6 → 10.8 s, snow21-5k 7.4 → 10.8 s. With the fewest
  checkpoints, star7-5k was still slower in 5 of 5 pairs of runs
  (median 7.1 → 7.8 s). Those runs used sort-merge joins.
"""
from __future__ import annotations

import time
from functools import reduce

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.costmodel import STRATEGIES, CostBreakdown, ExecResult, default_order
from repro.core.jointree import JoinTree

from . import sj
from .com import run_com
from .common import Counted, Gater
from .std import run_std


def count_frames(counted: Counted) -> CostBreakdown:
    """Add up the recorded frames' row counts per counter, in one Spark
    action that counts each distinct frame once."""
    index: dict[int, int] = {}
    frames = []
    for _, _, df in counted:
        if id(df) not in index:
            index[id(df)] = i = len(frames)
            frames.append(df.select(F.lit(i).alias("__frame")))
    sizes = dict(reduce(DataFrame.unionAll, frames).groupBy("__frame").count().collect()) if frames else {}
    counts = CostBreakdown()
    for counter, node, df in counted:
        n = sizes.get(index[id(df)], 0)
        if node is None:
            setattr(counts, counter, getattr(counts, counter) + n)
        else:
            per_node = getattr(counts, counter)
            per_node[node] = per_node.get(node, 0.0) + n
    return counts


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
    technique's real cost. ``measure=False`` leaves every counter at 0.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if order is None:
        order = default_order(tree, strategy)
    counted: Counted = []
    t0 = time.perf_counter()

    gater = None
    if strategy.startswith("BVP"):
        kw = {"n_bits": bloom_bits, "k": bloom_k} if bv_mode == "bloom" else {}
        gater = Gater(tree, data, bv_mode, **kw)
    elif strategy.startswith("SJ"):
        # Looked up at call time, so a wrapper installed on the module
        # attribute sees the call.
        data = sj.run_sj_phase1(tree, data, counted)

    fact_rows: int | None = None
    if strategy.endswith("COM"):
        result, fact_rows = run_com(tree, data, order, gater, counted, flat_output)
    else:
        result = run_std(tree, data, order, gater, counted)

    out_rows = None if result is None else result.count()
    wall = time.perf_counter() - t0
    return ExecResult(
        strategy=strategy,
        order=list(order),
        counts=count_frames(counted) if measure else CostBreakdown(),
        out_rows=out_rows,
        factorized_rows=fact_rows,
        wall_time_s=wall,
        result=result if keep_result else None,
    )
