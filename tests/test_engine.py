"""Spark engine: result correctness (DuckDB oracle), probe-count equality
with the reference simulator, and strategy semantics."""
import importlib.util
import random
import re
import sys
from pathlib import Path

import pandas as pd
import pytest

from repro.ce_lite import load_dataset, random_query
from repro.ce_lite.queries import output_count_duckdb
from repro.core import costmodel as cm
from repro.core import jointree as jt
from repro.core.datagen import gen_tree_data
from repro.core.jointree import EdgeStats
from repro.core.simulator import simulate
from repro.engine import run_strategy
from repro.engine.com import run_com
from repro.oracle import assert_equivalent
from repro.session import to_spark

STRATS = list(cm.STRATEGIES)
N_DRIVER = 300


def example_tree():
    stats = {
        "R2": EdgeStats(0.8, 3.0),
        "R3": EdgeStats(0.6, 2.0),
        "R4": EdgeStats(0.5, 2.0),
        "R5": EdgeStats(0.7, 2.0),
        "R6": EdgeStats(0.4, 3.0),
    }
    return jt.running_example(stats)


def oracle_sql(tree) -> str:
    parts = [f"SELECT * FROM {tree.root}"]
    for c in tree.bfs_order()[1:]:
        pcol, ccol = tree.join_cols[c]
        parts.append(f"JOIN {c} ON {pcol} = {ccol}")
    return " ".join(parts)


@pytest.fixture(scope="module")
def ex(spark):
    tree = example_tree()
    pdata = gen_tree_data(tree, N_DRIVER, seed=42)
    return tree, to_spark(spark, pdata), pdata


class TestOracleCorrectness:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_flat_result_matches_duckdb(self, spark, ex, strategy):
        tree, sdata, pdata = ex
        res = run_strategy(spark, tree, sdata, strategy, keep_result=True)
        assert_equivalent(res.result, oracle_sql(tree), **pdata)

    @pytest.mark.parametrize("strategy", ["COM", "BVP+STD", "SJ+COM"])
    def test_nondefault_order_still_correct(self, spark, ex, strategy):
        tree, sdata, pdata = ex
        order = ["R5", "R6", "R2", "R4", "R3"]
        res = run_strategy(spark, tree, sdata, strategy, order=order, keep_result=True)
        assert_equivalent(res.result, oracle_sql(tree), **pdata)

    def test_bloom_mode_still_correct(self, spark, ex):
        # Bloom false positives must not change the result (§2.2).
        tree, sdata, pdata = ex
        res = run_strategy(
            spark, tree, sdata, "BVP+STD", bv_mode="bloom", bloom_bits=1 << 8, bloom_k=1,
            keep_result=True,
        )
        assert_equivalent(res.result, oracle_sql(tree), **pdata)

    @pytest.mark.parametrize("flat", [True, False])
    @pytest.mark.parametrize("strategy", STRATS)
    def test_timing_mode_same_output_count(self, spark, ex, strategy, flat):
        tree, sdata, pdata = ex
        a = run_strategy(spark, tree, sdata, strategy, measure=True, flat_output=flat)
        b = run_strategy(spark, tree, sdata, strategy, measure=False, flat_output=flat)
        assert (a.out_rows, a.factorized_rows) == (b.out_rows, b.factorized_rows)
        # Timing mode observes nothing, so it reports no counts.
        assert b.counts == cm.CostBreakdown()


def assert_same_counts(spark, tree, sdata, pdata, strategy, order=None):
    """Every counter and the output size of the engine equal the simulator's,
    with flat and with factorized output; with factorized output, so does
    the factorized size (a flat run does not count it)."""
    for flat in (True, False):
        eng = run_strategy(spark, tree, sdata, strategy, order, flat_output=flat)
        sim = simulate(tree, pdata, strategy, order, flat_output=flat)
        assert eng.order == sim.order
        assert eng.counts == sim.counts, f"flat_output={flat}"
        assert eng.out_rows == sim.out_rows
        if not flat:
            assert eng.factorized_rows == sim.factorized_rows


class TestSimulatorEquivalence:
    """On identical data with exact bitvectors, the engine's counters must
    equal the pandas reference simulator's exactly."""

    @pytest.mark.parametrize("strategy", STRATS)
    def test_counts_match_simulator(self, spark, ex, strategy):
        tree, sdata, pdata = ex
        assert_same_counts(spark, tree, sdata, pdata, strategy)

    def test_factorized_rows_match(self, spark, ex):
        tree, sdata, pdata = ex
        eng = run_strategy(spark, tree, sdata, "COM", flat_output=False)
        sim = simulate(tree, pdata, "COM", flat_output=False)
        assert eng.factorized_rows == sim.factorized_rows
        assert eng.out_rows is None

    @pytest.mark.parametrize("shape,mk", [
        ("star", lambda: jt.star(4, {f"R{i}": EdgeStats(0.6, 2.0) for i in range(2, 6)})),
        ("path", lambda: jt.path(5, {f"R{i}": EdgeStats(0.7, 2.0) for i in range(2, 6)})),
        ("snow", lambda: jt.snowflake(2, 1, {c: EdgeStats(0.6, 2.0) for c in ["R2", "R3", "R4", "R5"]})),
    ])
    @pytest.mark.parametrize("strategy", ["COM", "SJ+STD"])
    def test_shapes_match_simulator(self, spark, shape, mk, strategy):
        tree = mk()
        pdata = gen_tree_data(tree, 200, seed=5)
        assert_same_counts(spark, tree, to_spark(spark, pdata), pdata, strategy)


def dfs_order(tree):
    """Depth-first join order; unlike BFS it joins a grandchild before its
    parent's siblings."""
    out = []

    def visit(n):
        for c in tree.children(n):
            out.append(c)
            visit(c)

    visit(tree.root)
    return out


def ce_mn_query():
    """A depth-2 CE-lite query whose rows are not unique per join key, so one
    child row sits under many spine rows of its parent."""
    tables = load_dataset("dblp_lite", sf=0.3)
    return random_query(random.Random(2), tables, n_rels=4, max_out=2e4)


def snow21(n_driver, m_r3=0.6):
    stats = {
        "R2": EdgeStats(0.8, 2.0),
        "R3": EdgeStats(m_r3, 2.0),
        "R4": EdgeStats(0.6, 3.0),
        "R5": EdgeStats(0.7, 2.0),
    }
    tree = jt.snowflake(2, 1, stats)
    return tree, gen_tree_data(tree, n_driver, seed=7)


EDGE_CASES = {
    "ce-mn-depth2": ce_mn_query,
    "snow21-m0-edge": lambda: snow21(200, m_r3=0.0),
    "snow21-empty-driver": lambda: snow21(0),
}


@pytest.fixture(scope="module", params=list(EDGE_CASES))
def edge_case(request, spark):
    tree, pdata = EDGE_CASES[request.param]()
    return tree, to_spark(spark, pdata), pdata


class TestEdgeCaseDifferential:
    """Engine vs simulator vs DuckDB on inputs the other tests never build:
    a child row under many spine rows (CE-lite m:n keys at depth 2), an
    m = 0 edge and an empty driver, each with a non-BFS order."""

    def test_ce_child_rows_shared_by_many_spine_rows(self):
        tree, pdata = ce_mn_query()
        c = max(tree.nonroot, key=tree.depth)
        assert tree.depth(c) == 2
        p = tree.parent[c]
        (rcol, pjoin), (pcol, ccol) = tree.join_cols[p], tree.join_cols[c]
        spine = pdata[tree.root].merge(pdata[p], left_on=rcol, right_on=pjoin)
        per_child_row = pdata[c][ccol].map(spine[pcol].value_counts()).fillna(0)
        assert per_child_row.max() > 100

    @pytest.mark.parametrize("strategy", STRATS)
    def test_engine_matches_simulator_and_duckdb(self, spark, edge_case, strategy):
        tree, sdata, pdata = edge_case
        order = dfs_order(tree)
        assert_same_counts(spark, tree, sdata, pdata, strategy, order)
        timed = run_strategy(spark, tree, sdata, strategy, order, measure=False)
        assert timed.out_rows == output_count_duckdb(tree, pdata)


class TestNullJoinKeys:
    """A NULL join key matches nothing, also under bitvectors (exact and
    bloom) and semi-joins. The simulator is left out: pandas matches NaN
    to NaN."""

    @pytest.fixture(scope="class")
    def nulls(self, spark):
        tree = example_tree()
        pdata = gen_tree_data(tree, N_DRIVER, seed=42)
        for c in tree.nonroot:
            for n, col in zip((tree.parent[c], c), tree.join_cols[c]):
                pdata[n][col] = pdata[n][col].astype("Int64").mask(pdata[n].index % 25 == 0)
        return tree, to_spark(spark, pdata), pdata

    @pytest.mark.parametrize(
        "strategy,bv_mode", [(s, "exact") for s in STRATS] + [("BVP+STD", "bloom"), ("BVP+COM", "bloom")]
    )
    def test_flat_result_matches_duckdb(self, spark, nulls, strategy, bv_mode):
        tree, sdata, pdata = nulls
        res = run_strategy(
            spark, tree, sdata, strategy, measure=False, bv_mode=bv_mode, bloom_bits=1 << 8, bloom_k=1,
            keep_result=True,
        )
        assert_equivalent(res.result, oracle_sql(tree), **pdata)


class TestStrategySemantics:
    def test_com_fewer_probes_than_std(self, spark, ex):
        tree, sdata, _ = ex
        order = ["R2", "R3", "R4", "R5", "R6"]
        com = run_strategy(spark, tree, sdata, "COM", order=order)
        std = run_strategy(spark, tree, sdata, "STD", order=order)
        assert com.counts.total_hash_probes < std.counts.total_hash_probes

    def test_bvp_reduces_hash_probes(self, spark, ex):
        tree, sdata, _ = ex
        std = run_strategy(spark, tree, sdata, "STD")
        bvp = run_strategy(spark, tree, sdata, "BVP+STD")
        assert bvp.counts.total_hash_probes <= std.counts.total_hash_probes
        assert bvp.counts.total_bv_probes > 0

    def test_sj_probes_counted(self, spark, ex):
        tree, sdata, _ = ex
        res = run_strategy(spark, tree, sdata, "SJ+STD")
        assert res.counts.total_sj_probes > 0

    def test_wall_time_recorded(self, spark, ex):
        tree, sdata, _ = ex
        res = run_strategy(spark, tree, sdata, "COM", measure=False)
        assert res.wall_time_s > 0

    def test_unknown_strategy_rejected(self, spark, ex):
        tree, sdata, _ = ex
        with pytest.raises(ValueError):
            run_strategy(spark, tree, sdata, "NOPE")

    def test_cost_model_predicts_engine_probes(self, spark, ex):
        # End-to-end: §3 estimates ≈ engine observations on model-friendly data.
        tree, sdata, _ = ex
        order = ["R2", "R3", "R5", "R4", "R6"]
        eng = run_strategy(spark, tree, sdata, "COM", order=order)
        est = cm.com_costs(tree, order, N_DRIVER)
        for op in order:
            assert eng.counts.hash_probes[op] == pytest.approx(est.hash_probes[op], rel=0.2, abs=15)


class TestBloomSubstrate:
    def test_exact_vs_bloom_filter_superset(self, spark, ex):
        # A bloom filter may pass extra (false-positive) rows but never
        # drop a true match: bloom-filtered driver ⊇ exact-filtered driver.
        from repro.bloom import build_bitvector

        tree, sdata, _ = ex
        col_p, col_c = tree.join_cols["R2"]
        exact = build_bitvector(sdata["R2"], col_c, "exact")
        bloom = build_bitvector(sdata["R2"], col_c, "bloom", n_bits=1 << 7, k=1)
        n_exact = exact.filter(sdata["R1"], col_p).count()
        n_bloom = bloom.filter(sdata["R1"], col_p).count()
        assert n_bloom >= n_exact

    def test_bloom_fpr_decreases_with_bits(self, spark, ex):
        from repro.bloom import SparkBloomFilter

        tree, sdata, _ = ex
        col_c = tree.join_cols["R2"][1]
        small = SparkBloomFilter(sdata["R2"], col_c, n_bits=1 << 7, k=1)
        big = SparkBloomFilter(sdata["R2"], col_c, n_bits=1 << 14, k=1)
        assert big.fpr < small.fpr

    def test_bad_bloom_params(self, spark, ex):
        from repro.bloom import SparkBloomFilter

        tree, sdata, _ = ex
        with pytest.raises(ValueError):
            SparkBloomFilter(sdata["R2"], tree.join_cols["R2"][1], n_bits=0)

    def test_unknown_mode(self, spark, ex):
        from repro.bloom import build_bitvector

        tree, sdata, _ = ex
        with pytest.raises(ValueError):
            build_bitvector(sdata["R2"], tree.join_cols["R2"][1], "vibes")

    def test_gater_builds_run_in_the_callers_job_group(self, spark, ex, spark_jobs):
        # The filters are built on worker threads; each exact build is a
        # distinct and a checkpoint, two jobs, and all of them must land in
        # the caller's job group, which the benchmark and job budgets count.
        from repro.engine.common import Gater

        tree, sdata, _ = ex
        gater, jobs = spark_jobs(lambda: Gater(tree, sdata, "exact"))
        assert sorted(gater.bvs) == sorted(tree.nonroot)
        assert len(jobs) == 2 * len(tree.nonroot)


JOIN_OPERATOR = re.compile(r"\b(\w+Join|CartesianProduct)\b")


def join_operators_of(spark, fn) -> list[set[str]]:
    """Run ``fn()`` and return, per SQL execution it started, the physical
    join operators of its final (post-AQE) plan."""
    store = spark._jsparkSession.sharedState().statusStore()
    bus = spark.sparkContext._jsc.sc().listenerBus()

    def last_executions(k):
        bus.waitUntilEmpty()
        n = store.executionsCount()
        if n == 0:
            return []
        execs = store.executionsList(max(0, n - k), min(n, k))
        return [execs.apply(i) for i in range(execs.size())]

    before = max((e.executionId() for e in last_executions(1)), default=-1)
    fn()
    return [
        set(JOIN_OPERATOR.findall(e.physicalPlanDescription()))
        for e in last_executions(200)
        if e.executionId() > before
    ]


class TestSparkPlans:
    """The engine's joins are hash joins with the build side broadcast, as
    the paper's operators build a table on R_l and probe it (§2.1, §4)."""

    @pytest.mark.parametrize("flat", [True, False])
    @pytest.mark.parametrize("strategy", STRATS)
    def test_every_join_is_a_broadcast_hash_join(self, spark, ex, strategy, flat):
        # Covers every execution of the run: bitvector checks, phase-1
        # semi-joins, probes, COM's spine joins and expansion, terminal count.
        tree, sdata, _ = ex
        ops = join_operators_of(
            spark, lambda: run_strategy(spark, tree, sdata, strategy, measure=False, flat_output=flat)
        )
        assert any(ops)
        assert set().union(*ops) == {"BroadcastHashJoin"}

    def test_factorized_count_is_one_action(self, ex, spark_jobs):
        # Σ|live(n)| is counted in one action, not one per node.
        tree, sdata, _ = ex
        order = tree.bfs_order()[1:]
        _, lazy = spark_jobs(lambda: run_com(tree, sdata, order, None, [], flat_output=True))
        _, counted = spark_jobs(lambda: run_com(tree, sdata, order, None, [], flat_output=False))
        assert len(counted) - len(lazy) < len(tree.bfs_order())


JOB_TREES = {
    "example": lambda: example_tree(),
    "star6": lambda: jt.star(6, {f"R{i}": EdgeStats(0.6, 2.0) for i in range(2, 8)}),
    "snow21": lambda: snow21(0)[0],
    "chain4": lambda: jt.JoinTree(
        "R1", {"R2": "R1", "R3": "R2", "R4": "R3"}, {c: EdgeStats(0.7, 2.0) for c in ("R2", "R3", "R4")}
    ),
}


@pytest.fixture(scope="module", params=list(JOB_TREES))
def job_tree(request, spark):
    tree = JOB_TREES[request.param]()
    return tree, to_spark(spark, gen_tree_data(tree, 100, seed=5))


class TestSparkJobs:
    """The planner prices each plan's Spark jobs with ``cm.spark_jobs``,
    which is read off the engine's plans: a change to how many jobs a
    strategy schedules must change the formula with it."""

    @pytest.mark.parametrize("flat", [True, False])
    @pytest.mark.parametrize("strategy", STRATS)
    def test_observed_jobs_equal_the_formula(self, spark, job_tree, strategy, flat, spark_jobs):
        tree, sdata = job_tree
        _, jobs = spark_jobs(lambda: run_strategy(spark, tree, sdata, strategy, measure=False, flat_output=flat))
        assert len(jobs) == cm.spark_jobs(tree, strategy, flat)


def load_perfbench_tracing(monkeypatch):
    """perfbench's tracer module, loaded from its file as it is."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


class TestBenchmarkTracing:
    """The benchmark's tracer wraps engine entry points by module attribute
    and silently skips one that no longer exists, so a moved entry point
    would drop its layer from the benchmark's per-layer metrics."""

    LAYERS = {
        "STD": {"std"},
        "COM": {"com"},
        "BVP+STD": {"bitvector", "std"},
        "BVP+COM": {"bitvector", "com"},
        "SJ+STD": {"sj_phase1", "std"},
        "SJ+COM": {"sj_phase1", "com"},
    }

    def test_every_strategy_reports_its_layers(self, spark, monkeypatch):
        tree, pdata = snow21(200)
        sdata = to_spark(spark, pdata)
        tracer = load_perfbench_tracing(monkeypatch).Tracer(active=True)
        got = {}
        with tracer.patched():
            for strategy in STRATS:
                run_strategy(spark, tree, sdata, strategy, measure=False)
                got[strategy] = {sp.layer for sp in tracer.take()}
        assert got == self.LAYERS
