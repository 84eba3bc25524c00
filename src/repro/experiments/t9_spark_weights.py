"""T9: planner weights calibrated on the Spark engine.

The paper's weights (hash probe 1, bitvector and semi-join probe ½,
generated tuple 1/14; §5.4) are micro-benchmark constants of its C++
engine. This table fits the weights of the engine that runs the plans,
``repro.engine`` on Spark, where every plan also pays a fixed cost per
Spark job.

- Fit set: the shapes path11, snow32 and snow51, two match-probability
  ranges, drivers 2k, 5k, 20k and 50k (one tree per shape and range,
  sampled so its peak intermediate at the largest driver stays bounded).
  All six strategies run (``common.run_plans``) with flat output, the
  survival order (SJ: the §3.6 order) and exact bitvectors; each wall time
  is the median of 3 warm runs after 1 warm-up, whose jobs are counted.
- Fit: non-negative least squares of wall time on the model's counts, one
  per :class:`~repro.core.costmodel.Weights` field (Spark jobs, hash,
  bitvector and semi-join probes, generated and expanded tuples, rows
  read by hash-table builds), each row scaled by its wall time so that
  every plan weighs by its relative error; the weights are normalised to
  hash_probe = 1. :data:`repro.core.costmodel.SPARK_WEIGHTS`
  is this fit of the committed ``BENCH_engine.json``; a fresh run writes
  its own JSON (``jobs/run_all.py``: ``results/t9.json``, fit rows first
  to ``results/t9_fit_rows.jsonl``).
- Held out: the benchmark's two trees (``perfbench/run.py``'s star7-5k
  and snow21-5k statistics) at each driver. The features were chosen on
  these trees (EXPERIMENTS.md T9), and STD is fastest on all of them.
- Held out too, where pruning pays: per CHECK_SHAPES shape the
  :func:`pruning_tree`, at CHECK_DRIVERS. These trees took no part in
  the fit nor in choosing the features.

Per held-out (tree, driver) the six plans that ``rank_strategies`` costs
all run; the pick under each weight set is reported with its wall time
and its regret against the fastest.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import statistics
from dataclasses import asdict, replace

import numpy as np
from pyspark.sql import SparkSession

from repro.core import jointree as jt
from repro.core.costmodel import Weights, expected_output, plan_costs
from repro.core.datagen import gen_tree_data
from repro.core.jointree import EdgeStats, JoinTree
from repro.core.optimizer import optimize
from repro.core.planner import rank_strategies
from repro.session import to_spark

from .common import env_int, md_table, run_plans, stable_seed
from .shapes import sample_shaped_tree

FIT_SHAPES = ("path11", "snow32", "snow51")
FIT_M_RANGES = ((0.1, 0.5), (0.5, 0.9))
DRIVERS = (2_000, 5_000, 20_000, 50_000)
HELD_OUT = ("star7", "snow21")
# A second held-out set, where pruning pays: per shape, of PRUNE_TRIES
# sampled trees with m ∈ PRUNE_M_RANGE, the one whose STD plan probes
# most per probe of SJ+STD. It took no part in choosing the features.
PRUNE_M_RANGE = (0.1, 0.5)
PRUNE_TRIES = 200
CHECK_SHAPES = ("star7", "path11", "snow32", "snow51")
CHECK_DRIVERS = (20_000, 50_000)
MAX_OUT = 1.5e6  # expected flat rows at the largest driver
MAX_INTERM = 3e6  # expected STD intermediate rows at the largest driver

# Per Weights field, the row counts it prices (as CostBreakdown.total does).
FEATURES = {
    "spark_job": ("spark_jobs",),
    "hash_probe": ("total_hash_probes",),
    "bv_probe": ("total_bv_probes",),
    "sj_probe": ("total_sj_probes",),
    "tuple_gen": ("tuples_generated", "expansion_tuples"),
    "build_row": ("build_rows",),
}
COUNTS = [c for cols in FEATURES.values() for c in cols]
PAPER = Weights()


def held_out_tree(shape: str) -> JoinTree:
    """The benchmark workloads' trees: star-7 with m ∈ [0.4, 0.7], fo ∈
    [2, 5] (shape seed 7), and snowflake-2-1 with every edge m 0.8, fo 3."""
    if shape == "star7":
        return sample_shaped_tree(
            "star7", random.Random(7), m_range=(0.4, 0.7), fo_range=(2.0, 5.0), n_driver=5000, max_out=5e5
        )
    return jt.snowflake(2, 1, {f"R{i}": EdgeStats(0.8, 3.0) for i in range(2, 6)})


def _capped_tree(shape: str, m_range: tuple[float, float], n_max: int, rng: random.Random) -> JoinTree | None:
    """A sampled tree of ``shape``, or None if its flat output or STD
    intermediates at driver ``n_max`` exceed MAX_OUT or MAX_INTERM."""
    tree = sample_shaped_tree(shape, rng, m_range=m_range, n_driver=n_max, max_out=MAX_OUT, min_out=1e4)
    return tree if max(plan_costs(tree, "STD", None, n_max).hash_probes.values()) <= MAX_INTERM else None


def fit_tree(shape: str, m_range: tuple[float, float], n_max: int, seed: int) -> JoinTree:
    """A tree of ``shape`` whose flat output and STD intermediates at
    driver ``n_max`` stay within MAX_OUT and MAX_INTERM."""
    rng = random.Random(stable_seed(seed, shape, m_range))
    for _ in range(100):
        tree = _capped_tree(shape, m_range, n_max, rng)
        if tree is not None:
            return tree
    raise RuntimeError(f"no {shape} tree for m ∈ {m_range} within the size caps")


def prune_gain(tree: JoinTree, n: float) -> float:
    """STD's hash probes (survival order) per hash and semi-join probe of
    SJ+STD, at driver ``n`` and expected relation sizes: how much a
    reducer saves by the model's counts, unweighted."""
    size = {tree.root: n}
    for c in tree.bfs_order()[1:]:
        size[c] = size[tree.parent[c]] * tree.stats[c].s
    sized = replace(tree, size=size)
    std = optimize(sized, "STD", n, method="survival")[2]
    sj = plan_costs(sized, "SJ+STD", None, n)
    return std.total_hash_probes / (sj.total_hash_probes + sj.total_sj_probes)


def pruning_tree(shape: str, n_max: int) -> JoinTree:
    """Of PRUNE_TRIES trees within the size caps, the one with the largest
    :func:`prune_gain` at driver ``n_max``."""
    rng = random.Random(stable_seed(1, shape, "pruning"))
    trees = [t for t in (_capped_tree(shape, PRUNE_M_RANGE, n_max, rng) for _ in range(PRUNE_TRIES)) if t]
    if not trees:
        raise RuntimeError(f"no {shape} tree for m ∈ {PRUNE_M_RANGE} within the size caps")
    return max(trees, key=lambda t: prune_gain(t, n_max))


def plan_rows(spark, tree: JoinTree, n: int, seed: int, reps: int, **key) -> list[dict]:
    """Run the six plans ``rank_strategies`` costs for ``tree`` at driver
    ``n``; one row per strategy with the model's counts and the wall."""
    sdata = to_spark(spark, gen_tree_data(tree, n, seed=seed))
    return [{
        **key, "driver": n, "strategy": r.strategy, "order": r.order, "wall_s": r.wall_s,
        "jobs_observed": r.jobs, **{c: getattr(r.breakdown, c) for c in COUNTS},
    } for r in run_plans(spark, tree, sdata, rank_strategies(tree, n), reps=reps)]


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-negative least squares, exactly: the unconstrained solution on
    every support set, keeping the best one that is non-negative."""
    best, best_res = np.zeros(a.shape[1]), float(b @ b)
    for k in range(1, a.shape[1] + 1):
        for support in itertools.combinations(range(a.shape[1]), k):
            x, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
            if (x < 0).any():
                continue
            res = float(np.sum((a[:, support] @ x - b) ** 2))
            if res < best_res:
                best, best_res = np.zeros(a.shape[1]), res
                best[list(support)] = x
    return best


def features(rows: list[dict]) -> np.ndarray:
    """One row per plan, one column per Weights field."""
    return np.array([[sum(float(r[c]) for c in cols) for cols in FEATURES.values()] for r in rows])


def fit_seconds(rows: list[dict]) -> np.ndarray:
    """Seconds per unit of each feature, fitted to ``rows``: NNLS of the
    rows scaled by their wall time, with columns scaled to at most 1."""
    a = features(rows) / np.array([float(r["wall_s"]) for r in rows])[:, None]
    scale = a.max(axis=0)
    scale[scale == 0] = 1.0
    return nnls(a / scale, np.ones(len(rows))) / scale


def fit(rows: list[dict]) -> Weights:
    """Weights fitted to ``rows`` (see the module docstring), in hash probes."""
    coef = fit_seconds(rows)
    if coef[1] <= 0:
        raise ValueError("the fit gives hash probes no cost, so it has no unit; fit more varied rows")
    return Weights(**dict(zip(FEATURES, (coef / coef[1]).tolist())))


def held_out_summary(tree: JoinTree, rows: list[dict], weights: dict[str, Weights]) -> dict:
    """One (tree, driver) group: the fastest of the six plans, and the
    plan ``rank_strategies`` picks under each weight set, with its wall
    time and its regret."""
    by = {r["strategy"]: r for r in rows}
    fastest = min(rows, key=lambda r: r["wall_s"])
    n = rows[0]["driver"]
    out = {"shape": rows[0]["shape"], "driver": n, "out_rows": int(round(expected_output(tree, n))),
           "fastest": fastest["strategy"], "fastest_s": fastest["wall_s"]}
    for name, w in weights.items():
        pick = by[rank_strategies(tree, n, weights=w)[0].strategy]
        out[f"{name}_pick"] = pick["strategy"]
        out[f"{name}_s"] = pick["wall_s"]
        out[f"{name}_regret"] = pick["wall_s"] / fastest["wall_s"]
    return out


def environment(spark: SparkSession) -> dict:
    import pyspark

    conf = spark.conf
    return {
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "pyspark": pyspark.__version__,
        "aqe": conf.get("spark.sql.adaptive.enabled"),
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "auto_broadcast_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "joins": "broadcast hash joins by hint",
        "driver_memory": spark.sparkContext.getConf().get("spark.driver.memory", "1g"),
        "bitvectors": "exact",
        "output": "flat",
        "timing": "median of REPRO_T9_REPS warm runs after 1 warm-up (REPRO_T9_REPS=1: one run)",
        "reps": env_int("REPRO_T9_REPS", 3),
        "loadavg_start": list(os.getloadavg()),
    }


def fit_rows_path(json_path: str) -> str:
    """Where :func:`run` logs the fit rows, a JSON object a line, as they are timed."""
    return json_path.removesuffix(".json") + "_fit_rows.jsonl"


def run(spark: SparkSession, json_path: str):
    """Fit the weights and evaluate the held-out picks; once the table is
    built, write the rows, the environment and the weights to ``json_path``.
    The fit rows are also logged as they are timed (:func:`fit_rows_path`),
    so a fit that fails keeps them."""
    reps = env_int("REPRO_T9_REPS", 3)
    env = environment(spark)
    fit_rows = []
    with open(fit_rows_path(json_path), "w", buffering=1) as log:  # flushed per line
        for shape, mr in itertools.product(FIT_SHAPES, FIT_M_RANGES):
            tree = fit_tree(shape, mr, max(DRIVERS), 0)
            for n in DRIVERS:
                rows = plan_rows(spark, tree, n, stable_seed(0, shape, mr, n), reps, shape=shape, m_range=list(mr))
                log.writelines(json.dumps(r) + "\n" for r in rows)
                fit_rows += rows
    w = fit(fit_rows)
    secs = fit_seconds(fit_rows)

    def evaluate(trees, drivers, seed):
        """The rows of one held-out set, and a summary per (tree, driver)."""
        rows, groups = [], []
        for (shape, tree), n in itertools.product(trees, drivers):
            rows += (got := plan_rows(spark, tree, n, stable_seed(seed, shape, n), reps, shape=shape))
            groups.append(held_out_summary(tree, got, {"spark": w, "paper": PAPER}))
        return rows, groups

    held_rows, summary = evaluate([(s, held_out_tree(s)) for s in HELD_OUT], DRIVERS, 0)
    check_rows, check = evaluate([(s, pruning_tree(s, max(CHECK_DRIVERS))) for s in CHECK_SHAPES], CHECK_DRIVERS, 1)
    all_rows = fit_rows + held_rows + check_rows
    for r, pred in zip(all_rows, features(all_rows) @ secs):
        r["pred_wall_s"] = float(pred)
    rel_err = [abs(r["pred_wall_s"] / r["wall_s"] - 1.0) for r in fit_rows]
    md = "\n\n".join([
        md_table([{
            "weights": name,
            **{k: getattr(ws, k) for k in FEATURES},
        } for name, ws in (("spark (fit)", w), ("paper", PAPER))], floatfmt=".4g"),
        f"One hash probe = {secs[1] * 1e6:.3g} µs, one Spark job = {secs[0] * 1e3:.3g} ms "
        f"({len(fit_rows)} fit rows; |predicted/observed − 1|: median {statistics.median(rel_err):.2f}, "
        f"max {max(rel_err):.2f}; observed jobs = predicted in "
        f"{sum(r['jobs_observed'] == r['spark_jobs'] for r in all_rows)} of {len(all_rows)} runs).",
        "Held out (the benchmark's trees):",
        md_table(summary, floatfmt=".3g"),
        f"Held out, where pruning pays (m ∈ {list(PRUNE_M_RANGE)}, the largest prune_gain of {PRUNE_TRIES}):",
        md_table(check, floatfmt=".3g"),
    ])
    with open(json_path, "w") as f:
        json.dump(
            {
                "table": "t9",
                "environment": env,
                "weights": asdict(w),
                "seconds_per_hash_probe": float(secs[1]),
                "fit_rows": fit_rows,
                "held_out_rows": held_rows,
                "held_out": summary,
                "check_rows": check_rows,
                "check": check,
            },
            f,
            indent=1,
        )
        f.write("\n")
    return all_rows, md
