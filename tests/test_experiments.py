"""Experiment harnesses T1–T9: smoke runs at reduced scale + headline
qualitative claims of the paper's evaluation."""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.core.costmodel import STRATEGIES
from repro.experiments import (
    t2_robustness_sim,
    t3_optimization,
    t6_simulation,
)
from repro.experiments.common import PlanRun, md_table, percentile, random_valid_order, rel_to_com
from repro.experiments.shapes import SHAPES, sample_shaped_tree


class TestCommon:
    def test_md_table_renders(self):
        md = md_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert md.startswith("| a | b |")
        assert "| 3 | 4 |" in md

    def test_md_table_empty(self):
        assert md_table([]) == "(no rows)"

    def test_percentile(self):
        xs = [float(i) for i in range(10)]
        assert percentile(xs, 0.5) == 5.0
        assert percentile(xs, 0.9) == 9.0

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_random_valid_orders(self, shape):
        rng = random.Random(0)
        t = sample_shaped_tree(shape, rng, m_range=(0.2, 0.5), n_driver=1000)
        for _ in range(5):
            assert t.is_valid_order(random_valid_order(t, rng))

    def test_sample_shaped_tree_bounds_output(self):
        from repro.core.costmodel import expected_output

        rng = random.Random(1)
        t = sample_shaped_tree("star7", rng, m_range=(0.3, 0.6), n_driver=10_000, max_out=1e6)
        assert expected_output(t, 10_000) <= 1e6

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            sample_shaped_tree("cycle", random.Random(0), m_range=(0.1, 0.5))

    def test_rel_to_com_marks_plans_that_did_not_run(self):
        runs = [PlanRun("STD", [], 8.0, None), PlanRun("COM", [], 2.0, None, wall_s=0.5),
                PlanRun("SJ+COM", [], 3.0, None, wall_s=0.25)]
        assert rel_to_com(runs, "wall_s", "rel_") == {"rel_STD": "TO", "rel_COM": 1.0, "rel_SJ+COM": 0.5}
        assert rel_to_com(runs, "cost", "model_rel_") == {"model_rel_STD": 4.0, "model_rel_COM": 1.0,
                                                          "model_rel_SJ+COM": 1.5}


class TestT2:
    def test_grid_and_headline(self):
        rows, md = t2_robustness_sim.run(n_samples=25, n_dims=8)
        assert len(rows) == 24  # 4 m-ranges × 3 fo-ranges × 2 error levels
        # Headline: averaged over the high-error high-fanout cells, the
        # m/fo model's regret is below the selectivity model's.
        hi = [r for r in rows if r["error"].startswith("high") and "10.0, 100" in r["fo_range"]]
        assert sum(r["mfo_mean_pct"] for r in hi) < sum(r["sel_mean_pct"] for r in hi)
        assert "| error |" in md.splitlines()[0] or "error" in md.splitlines()[0]


class TestT3:
    def test_survival_near_optimal_rank_worst(self):
        rows, _ = t3_optimization.run(n_trees=12, max_nodes=14)
        assert len(rows) == 12  # 4 ranges × 3 heuristics
        by = {(r["m_range"], r["heuristic"]): r for r in rows}
        for mr in {r["m_range"] for r in rows}:
            assert by[(mr, "survival")]["median"] <= by[(mr, "rank")]["median"] + 1e-9
        # Ratios are >= 1 by construction (optimal is a lower bound).
        assert all(r["median"] >= 1.0 - 1e-9 for r in rows)


class TestT6:
    @pytest.fixture(scope="class")
    def rows(self):
        rows, _ = t6_simulation.run()
        return rows

    def test_grid(self, rows):
        assert len(rows) == 4 * 2 * 9

    def test_com_best_at_high_match_probability(self, rows):
        # §5.4: at the highest m, plain COM wins (pruning probes wasted).
        # SJ+COM can land in a hairline tie (<1%) on deep paths, so assert
        # COM is within 1% of the per-cell best.
        for shape in sorted(SHAPES):
            for r in (x for x in rows if x["shape"] == shape and x["m"] == 0.9):
                best_cost = min(r[s] for s in ("COM", "BVP+STD", "BVP+COM", "SJ+STD", "SJ+COM"))
                assert r["COM"] <= 1.01 * best_cost

    def test_bvp_com_best_at_low_match_probability(self, rows):
        # §5.4: at low m the bitvector variant wins by pruning early.
        lows = [r for r in rows if r["m"] == 0.1]
        assert sum(r["best"] == "BVP+COM" for r in lows) >= len(lows) * 0.5

    def test_com_variants_beat_std_variants_at_high_m_high_fo(self, rows):
        for r in rows:
            if r["m"] >= 0.7 and r["fo"] == 5.0:
                assert r["COM"] < r["BVP+STD"]
                assert r["SJ+COM"] < r["SJ+STD"]

    def test_cost_increases_with_m(self, rows):
        for shape in sorted(SHAPES):
            xs = [r["COM"] for r in rows if r["shape"] == shape and r["fo"] == 2.0]
            assert xs == sorted(xs)


@pytest.mark.spark_experiments
class TestSparkExperimentsSmoke:
    """Tiny-scale end-to-end runs of the Spark-bound harnesses."""

    def test_t1(self, spark):
        from repro.experiments import t1_estimation

        rows, md = t1_estimation.run(spark, n_pairs=3, seed=1)
        assert rows and all(r["qerr_fo_med"] >= 1.0 for r in rows)
        assert "estimator" in md

    def test_t4_single_cell(self, spark):
        from repro.experiments import t4_synthetic

        rows, _ = t4_synthetic.run(
            spark, n_driver=2000, shapes=["star7"], m_ranges=[(0.3, 0.6)], seed=1
        )
        assert len(rows) == 1
        r = rows[0]
        assert r["rel_COM"] == 1.0
        for s in STRATEGIES:
            assert f"rel_{s}" in r and f"model_rel_{s}" in r

    def test_t4_empty_relations(self, spark):
        # At driver 20 and m ≤ 0.1, m·|parent| rounds to 0 and relations
        # are empty; Spark cannot infer their schema.
        from repro.experiments import t4_synthetic

        rows, _ = t4_synthetic.run(spark, n_driver=20, shapes=["snow32"], m_ranges=[(0.05, 0.1)], seed=0)
        assert len(rows) == 1 and rows[0]["out_rows"] == 0

    def test_t5_single_query(self, spark):
        from repro.experiments import t5_ce

        rows, _ = t5_ce.run(spark, n_queries=1, datasets=["dblp_lite"], seed=2)
        assert len(rows) == 1
        assert rows[0]["rel_COM"] == 1.0

    def test_t9_single_cell(self, spark):
        # One held-out cell: the six ranked plans run, each plan's observed
        # Spark jobs equal the model's, and each weight set's pick has a
        # regret against the fastest of the six.
        from repro.core.costmodel import SPARK_WEIGHTS, Weights
        from repro.experiments import t9_spark_weights as t9

        tree = t9.held_out_tree("snow21")
        rows = t9.plan_rows(spark, tree, 300, seed=1, reps=1, shape="snow21")
        assert [r["strategy"] for r in rows] == list(STRATEGIES)
        assert all(r["jobs_observed"] == r["spark_jobs"] for r in rows)
        got = t9.held_out_summary(tree, rows, {"spark": SPARK_WEIGHTS, "paper": Weights()})
        assert got["spark_pick"] in STRATEGIES and got["paper_pick"].endswith("COM")
        assert got["spark_regret"] >= 1.0 and got["paper_regret"] >= 1.0

    def test_t9_run_one_cell_each(self, spark, tmp_path, monkeypatch):
        # run() end to end on one fit cell and one cell of each held-out
        # set: every row reaches the JSON and the table is built. The fit
        # itself is TestT9Fit's; six plans at driver 300 are too few rows
        # to pin six weights, so the seconds per unit are fixed here.
        import json
        from dataclasses import asdict

        import numpy as np

        from repro.experiments import t9_spark_weights as t9

        one_cell = {
            "FIT_SHAPES": ("snow32",), "FIT_M_RANGES": ((0.5, 0.9),), "DRIVERS": (300,),
            "HELD_OUT": ("snow21",), "PRUNE_TRIES": 2, "CHECK_SHAPES": ("star7",), "CHECK_DRIVERS": (300,),
        }
        for name, value in one_cell.items():
            monkeypatch.setattr(t9, name, value)
        monkeypatch.setenv("REPRO_T9_REPS", "1")
        secs = np.array([0.013, 5.4e-7, 0.0, 2.3e-6, 0.0, 1.5e-6])  # per FEATURES key
        monkeypatch.setattr(t9, "fit_seconds", lambda rows: secs)
        path = tmp_path / "t9.json"
        rows, md = t9.run(spark, json_path=str(path))
        out = json.loads(path.read_text())
        assert len(out["fit_rows"]) == len(out["held_out_rows"]) == len(out["check_rows"]) == len(STRATEGIES)
        assert rows == out["fit_rows"] + out["held_out_rows"] + out["check_rows"]
        assert out["weights"] == asdict(t9.fit(out["fit_rows"]))
        assert [g["shape"] for g in out["held_out"]] == ["snow21"]
        assert [g["shape"] for g in out["check"]] == ["star7"]
        for r in rows:
            assert r["pred_wall_s"] == pytest.approx(float(t9.features([r])[0] @ secs))
        assert "Held out (the benchmark's trees)" in md and "where pruning pays" in md

    def test_t9_keeps_the_fit_rows_when_the_fit_fails(self, spark, tmp_path, monkeypatch):
        # The fit rows reach their own file as they are timed, so a fit
        # that raises after the timing loses none of them.
        import json

        from repro.experiments import t9_spark_weights as t9

        monkeypatch.setattr(t9, "FIT_SHAPES", ("snow32", "path11"))
        monkeypatch.setattr(t9, "FIT_M_RANGES", ((0.5, 0.9),))
        monkeypatch.setattr(t9, "DRIVERS", (300, 600))
        timed = []

        def plan_rows(spark, tree, n, seed, reps, **key):
            rows = [{**key, "driver": n, "strategy": s, "wall_s": 0.1} for s in STRATEGIES]
            timed.extend(rows)
            return rows

        def fit(rows):
            raise ValueError("the fit gives hash probes no cost")

        monkeypatch.setattr(t9, "plan_rows", plan_rows)
        monkeypatch.setattr(t9, "fit", fit)
        path = str(tmp_path / "t9.json")
        with pytest.raises(ValueError):
            t9.run(spark, json_path=path)
        assert t9.fit_rows_path(path) == str(tmp_path / "t9_fit_rows.jsonl")
        logged = [json.loads(line) for line in Path(t9.fit_rows_path(path)).read_text().splitlines()]
        assert len(logged) == 2 * 2 * len(STRATEGIES) and logged == timed
        assert not Path(path).exists()

    def test_run_plans_skips_plans_over_the_cap(self, spark, monkeypatch):
        # A plan whose predicted peak intermediate exceeds MAX_INTERM gets
        # no wall time and never reaches the engine, so it starts no Spark
        # job; the others run, in STRATEGIES order.
        from repro.core.costmodel import Weights
        from repro.core.datagen import gen_tree_data
        from repro.core.planner import rank_strategies
        from repro.experiments import common
        from repro.experiments.t9_spark_weights import held_out_tree
        from repro.session import to_spark

        tree = held_out_tree("snow21")
        sdata = to_spark(spark, gen_tree_data(tree, 300, seed=1))
        plans = rank_strategies(tree, 300, weights=Weights())
        # At driver 300 the COM family peaks at ≤ 576 predicted probes into
        # one relation, the STD family at ≥ 3 317.
        monkeypatch.setattr(common, "MAX_INTERM", 1000.0)
        started, run_strategy = [], common.run_strategy

        def recorded(spark, tree, sdata, strategy, *args, **kw):
            started.append(strategy)
            return run_strategy(spark, tree, sdata, strategy, *args, **kw)

        monkeypatch.setattr(common, "run_strategy", recorded)
        runs = common.run_plans(spark, tree, sdata, plans)
        assert [r.strategy for r in runs] == list(STRATEGIES)
        over = {r.strategy for r in runs if max(r.breakdown.hash_probes.values()) > 1000.0}
        assert over == {"STD", "BVP+STD", "SJ+STD"}
        for r in runs:
            if r.strategy in over:
                assert r.wall_s is None and r.out_rows is None and r.jobs is None
            else:
                assert r.wall_s > 0 and r.jobs > 0 and r.out_rows == runs[1].out_rows
        assert started == ["COM", "BVP+COM", "SJ+COM"]
        assert rel_to_com(runs, "wall_s", "rel_")["rel_STD"] == "TO"

    def test_t7_sim_only(self):
        from repro.experiments import t7_validation

        rows, _ = t7_validation.run(None, n_driver=3000, shapes=["snow32"], seed=3)
        assert len(rows) == 1
        # The model must track simulated probes tightly on model-friendly data.
        assert rows[0]["spearman_model_vs_probes"] > 0.8

    def test_t8_sim_only(self, monkeypatch):
        from repro.experiments import t8_robustness_exec

        monkeypatch.setenv("REPRO_T8_SIM_ORDERS", "5")
        rows, _ = t8_robustness_exec.run(None, n_driver=2000, seed=4)
        assert len(rows) == 4 * len(STRATEGIES)
        by = {(r["query"], r["strategy"]): r for r in rows}
        queries = {r["query"] for r in rows}
        for q in queries:
            # Thm 3.5: SJ+COM probe totals don't vary with the order.
            assert by[(q, "SJ+COM")]["probes_cv"] == pytest.approx(0.0, abs=1e-9)
        # COM is flatter than STD on average (the paper's claim is about
        # the distribution over queries, not each query individually).
        mean_cv = lambda s: sum(by[(q, s)]["probes_cv"] for q in queries) / len(queries)
        assert mean_cv("COM") <= mean_cv("STD") + 1e-9


def _load_script(relpath: str, name: str, monkeypatch):
    """A script of the repository, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / relpath)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while a class is built.
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


class TestBenchmarkTrees:
    def test_t9_holds_out_the_benchmarks_trees(self, monkeypatch):
        # T9's held-out set and TestSparkWeights stand for the benchmark's
        # workloads only while the two definitions agree.
        from repro.experiments.t9_spark_weights import held_out_tree

        bench = _load_script("perfbench/run.py", "perfbench_run", monkeypatch)
        assert bench.star7_baseline() == held_out_tree("star7")
        assert bench.snow21() == held_out_tree("snow21")


class TestRunAll:
    def test_unknown_table_exits_2(self, tmp_path, monkeypatch):
        run_all = _load_script("jobs/run_all.py", "run_all", monkeypatch)
        monkeypatch.setattr(run_all, "RESULTS", str(tmp_path / "results"))
        assert run_all.main(["t6", "t10"]) == 2
        assert not (tmp_path / "results").exists()

    def test_failed_table_exits_1_after_the_rest(self, tmp_path, monkeypatch, capsys):
        run_all = _load_script("jobs/run_all.py", "run_all", monkeypatch)
        monkeypatch.setattr(run_all, "RESULTS", str(tmp_path))

        def boom():
            raise RuntimeError("boom")

        monkeypatch.setattr(t2_robustness_sim, "run", boom)
        monkeypatch.setattr(t6_simulation, "run", lambda: ([{"a": 1}], "t6 table"))
        (tmp_path / "t2.md").write_text("last good t2")
        assert run_all.main(["t2", "t6"]) == 1
        assert (tmp_path / "t2.md").read_text() == "last good t2"
        assert "t2 FAILED: RuntimeError('boom')" in capsys.readouterr().err
        assert "t6 table" in (tmp_path / "t6.md").read_text()


class TestT9Fit:
    def test_recovers_known_weights(self):
        from repro.experiments import t9_spark_weights as t9

        secs = dict(spark_job=0.03, hash_probe=8e-7, bv_probe=3e-7, sj_probe=5e-7, tuple_gen=0.0, build_row=2e-6)
        rng = random.Random(0)
        rows = []
        for _ in range(40):
            row = {c: rng.uniform(0, 1e6) for c in t9.COUNTS}
            row["spark_jobs"] = rng.randint(5, 90)
            row["wall_s"] = sum(secs[k] * sum(row[c] for c in cols) for k, cols in t9.FEATURES.items())
            rows.append(row)
        got = t9.fit(rows)
        for k in t9.FEATURES:
            assert getattr(got, k) == pytest.approx(secs[k] / secs["hash_probe"], rel=1e-9, abs=1e-9), k

    def test_no_hash_probe_cost_has_no_unit(self):
        from repro.experiments import t9_spark_weights as t9

        rows = [{**{c: 0.0 for c in t9.COUNTS}, "spark_jobs": j, "wall_s": 0.03 * j} for j in (5, 9, 20)]
        with pytest.raises(ValueError):
            t9.fit(rows)

    def test_committed_fit_is_the_planners_weights(self):
        import json

        from repro.core.costmodel import SPARK_WEIGHTS
        from repro.experiments import t9_spark_weights as t9

        bench = json.loads((Path(__file__).resolve().parents[1] / "BENCH_engine.json").read_text())
        got = t9.fit(bench["fit_rows"])
        for k in t9.FEATURES:
            assert getattr(got, k) == pytest.approx(getattr(SPARK_WEIGHTS, k), rel=1e-9, abs=1e-9), k
