"""Reference simulator: correctness of all 6 strategies + cost-model fit."""
import numpy as np
import pandas as pd
import pytest

from repro.core import costmodel as cm
from repro.core import jointree as jt
from repro.core.datagen import flat_join_pandas, gen_tree_data
from repro.core.jointree import EdgeStats
from repro.core.simulator import simulate

STRATS = list(cm.STRATEGIES)


def example_tree():
    stats = {
        "R2": EdgeStats(0.8, 3.0),
        "R3": EdgeStats(0.6, 2.0),
        "R4": EdgeStats(0.5, 4.0),
        "R5": EdgeStats(0.7, 2.0),
        "R6": EdgeStats(0.4, 5.0),
    }
    return jt.running_example(stats)


@pytest.fixture(scope="module")
def ex_data():
    tree = example_tree()
    data = gen_tree_data(tree, 600, seed=7)
    return tree, data


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].reset_index(drop=True)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


class TestDatagen:
    def test_driver_size(self, ex_data):
        tree, data = ex_data
        assert len(data["R1"]) == 600

    def test_exact_match_probability(self, ex_data):
        tree, data = ex_data
        for c in tree.nonroot:
            p = tree.parent[c]
            pcol, ccol = tree.join_cols[c]
            matched = data[p][pcol].isin(set(data[c][ccol])).mean()
            assert matched == pytest.approx(tree.stats[c].m, abs=1.5 / np.sqrt(len(data[p])))

    def test_exact_fanout(self, ex_data):
        tree, data = ex_data
        for c in tree.nonroot:
            counts = data[c].groupby(tree.join_cols[c][1]).size()
            assert (counts == int(tree.stats[c].fo)).all()

    def test_sizes_recorded(self, ex_data):
        tree, data = ex_data
        for n in tree.nodes:
            assert tree.size[n] == len(data[n])

    def test_non_integer_fanout_requires_stochastic(self):
        t = jt.star(2, {"R2": EdgeStats(0.5, 2.5), "R3": EdgeStats(0.5, 2.0)})
        with pytest.raises(ValueError):
            gen_tree_data(t, 100, exact_fanout=True)
        data = gen_tree_data(t, 2000, exact_fanout=False)
        counts = data["R2"].groupby(t.join_cols["R2"][1]).size()
        assert counts.mean() == pytest.approx(2.5, abs=0.1)

    def test_deterministic_in_seed(self):
        t1, t2 = example_tree(), example_tree()
        d1 = gen_tree_data(t1, 200, seed=3)
        d2 = gen_tree_data(t2, 200, seed=3)
        for n in t1.nodes:
            pd.testing.assert_frame_equal(d1[n], d2[n])


class TestResultCorrectness:
    """Every strategy must produce exactly the flat join result."""

    @pytest.mark.parametrize("strategy", STRATS)
    def test_flat_result_matches_reference(self, ex_data, strategy):
        tree, data = ex_data
        expected = canon(flat_join_pandas(tree, data))
        result = simulate(tree, data, strategy, keep_result=True).result
        pd.testing.assert_frame_equal(canon(result), expected)

    @pytest.mark.parametrize("strategy", STRATS)
    @pytest.mark.parametrize(
        "order",
        [
            ["R2", "R3", "R5", "R4", "R6"],
            ["R5", "R6", "R2", "R4", "R3"],
            ["R2", "R5", "R3", "R6", "R4"],
        ],
    )
    def test_flat_result_order_invariant(self, ex_data, strategy, order):
        tree, data = ex_data
        expected = canon(flat_join_pandas(tree, data))
        result = simulate(tree, data, strategy, order=order, keep_result=True).result
        pd.testing.assert_frame_equal(canon(result), expected)

    @pytest.mark.parametrize("shape", ["star", "path", "snow"])
    @pytest.mark.parametrize("strategy", STRATS)
    def test_shapes(self, shape, strategy):
        if shape == "star":
            tree = jt.star(4, {f"R{i}": EdgeStats(0.5, 2.0) for i in range(2, 6)})
        elif shape == "path":
            tree = jt.path(5, {f"R{i}": EdgeStats(0.6, 2.0) for i in range(2, 6)})
        else:
            tree = jt.snowflake(2, 1, {c: EdgeStats(0.6, 2.0) for c in ["R2", "R3", "R4", "R5"]})
        data = gen_tree_data(tree, 400, seed=11)
        expected = canon(flat_join_pandas(tree, data))
        result = simulate(tree, data, strategy, keep_result=True).result
        pd.testing.assert_frame_equal(canon(result), expected)

    def test_factorized_mode_returns_no_flat_result(self, ex_data):
        tree, data = ex_data
        stats = simulate(tree, data, "COM", flat_output=False, keep_result=True)
        assert stats.result is None
        assert stats.factorized_rows is not None and stats.factorized_rows > 0

    def test_out_rows_consistent(self, ex_data):
        tree, data = ex_data
        n_out = len(flat_join_pandas(tree, data))
        for s in STRATS:
            assert simulate(tree, data, s).out_rows == n_out


class TestProbeSemantics:
    def test_std_first_probe_is_driver_size(self, ex_data):
        tree, data = ex_data
        st = simulate(tree, data, "STD", order=["R2", "R3", "R4", "R5", "R6"])
        assert st.counts.hash_probes["R2"] == len(data["R1"])

    def test_com_never_more_probes_than_std(self, ex_data):
        tree, data = ex_data
        order = ["R2", "R3", "R5", "R4", "R6"]
        com = simulate(tree, data, "COM", order=order)
        std = simulate(tree, data, "STD", order=order)
        for op in order:
            assert com.counts.hash_probes[op] <= std.counts.hash_probes[op]

    def test_com_redundant_probe_elimination_on_driver_attribute(self, ex_data):
        # Probes into R5 (joined on a driver attribute) must be <= |R1|
        # under COM regardless of position, but grow with fanout under STD.
        tree, data = ex_data
        order = ["R2", "R3", "R4", "R5", "R6"]
        com = simulate(tree, data, "COM", order=order)
        std = simulate(tree, data, "STD", order=order)
        assert com.counts.hash_probes["R5"] <= len(data["R1"])
        assert std.counts.hash_probes["R5"] > com.counts.hash_probes["R5"]

    def test_bvp_exact_prunes_hash_probes(self, ex_data):
        tree, data = ex_data
        order = ["R2", "R3", "R4", "R5", "R6"]
        bvp = simulate(tree, data, "BVP+STD", order=order)
        std = simulate(tree, data, "STD", order=order)
        for op in order:
            assert bvp.counts.hash_probes[op] <= std.counts.hash_probes[op]
        assert bvp.counts.total_bv_probes > 0

    def test_sj_driver_fully_reduced(self, ex_data):
        # After full reduction every phase-2 probe finds a match: the
        # stream size entering operator l equals probes and never shrinks.
        tree, data = ex_data
        st = simulate(tree, data, "SJ+STD")
        vals = [st.counts.hash_probes[o] for o in st.order]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert st.counts.total_sj_probes > 0

    def test_sj_com_probe_total_order_independent(self, ex_data):
        # Thm 3.5, observed on real data.
        tree, data = ex_data
        totals = set()
        for order in [
            ["R2", "R3", "R5", "R4", "R6"],
            ["R5", "R6", "R2", "R4", "R3"],
            ["R2", "R5", "R3", "R6", "R4"],
        ]:
            st = simulate(tree, data, "SJ+COM", order=order, flat_output=False)
            totals.add(st.counts.total_hash_probes)
        assert len(totals) == 1


class TestCostModelValidation:
    """The §3 estimators must match observed probe counts on data that
    satisfies their assumptions (exact fanout, uniform matching)."""

    RTOL = 0.12

    @pytest.mark.parametrize("order", [
        ["R2", "R3", "R5", "R4", "R6"],
        ["R5", "R6", "R2", "R4", "R3"],
        ["R2", "R4", "R3", "R5", "R6"],
    ])
    def test_com_per_operator(self, ex_data, order):
        tree, data = ex_data
        n = len(data["R1"])
        obs = simulate(tree, data, "COM", order=order).counts.hash_probes
        est = cm.com_costs(tree, order, n).hash_probes
        for op in order:
            assert obs[op] == pytest.approx(est[op], rel=self.RTOL, abs=12)

    @pytest.mark.parametrize("order", [["R2", "R3", "R5", "R4", "R6"]])
    def test_std_per_operator(self, ex_data, order):
        tree, data = ex_data
        n = len(data["R1"])
        obs = simulate(tree, data, "STD", order=order).counts.hash_probes
        est = cm.std_costs(tree, order, n).hash_probes
        for op in order:
            assert obs[op] == pytest.approx(est[op], rel=self.RTOL, abs=12)

    def test_bvp_std_per_operator_eps0(self, ex_data):
        tree, data = ex_data
        n = len(data["R1"])
        order = ["R2", "R3", "R5", "R4", "R6"]
        obs = simulate(tree, data, "BVP+STD", order=order).counts
        est = cm.std_costs(tree, order, n, bvp=True, eps=0.0)
        for op in order:
            assert obs.hash_probes[op] == pytest.approx(est.hash_probes[op], rel=self.RTOL, abs=12)
        for c in est.bv_probes:
            assert obs.bv_probes[c] == pytest.approx(est.bv_probes[c], rel=self.RTOL, abs=12)

    def test_bvp_com_per_operator_eps0(self, ex_data):
        tree, data = ex_data
        n = len(data["R1"])
        order = ["R2", "R3", "R5", "R4", "R6"]
        obs = simulate(tree, data, "BVP+COM", order=order).counts
        est = cm.com_costs(tree, order, n, bvp=True, eps=0.0)
        for op in order:
            assert obs.hash_probes[op] == pytest.approx(est.hash_probes[op], rel=self.RTOL, abs=12)

    def test_sj_phase1_probes(self, ex_data):
        tree, data = ex_data
        obs = simulate(tree, data, "SJ+STD").counts.sj_probes
        est = cm.sj_phase1_probes(tree)
        for c in est:
            assert obs[c] == pytest.approx(est[c], rel=self.RTOL, abs=12)

    @pytest.mark.parametrize("com", [True, False])
    def test_sj_phase2_probes(self, ex_data, com):
        tree, data = ex_data
        n = len(data["R1"])
        strat = "SJ+COM" if com else "SJ+STD"
        obs = simulate(tree, data, strat).counts
        est = cm.sj_costs(tree, None, n, com=com)
        for op in est.hash_probes:
            assert obs.hash_probes[op] == pytest.approx(est.hash_probes[op], rel=self.RTOL, abs=15)

    def test_expected_output(self, ex_data):
        tree, data = ex_data
        n_out = len(flat_join_pandas(tree, data))
        assert n_out == pytest.approx(cm.expected_output(tree, len(data["R1"])), rel=self.RTOL)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_trees_com_total(self, seed):
        import random

        rng = random.Random(seed)
        tree = jt.random_tree(
            rng, max_nodes=7, m_range=(0.4, 0.8), fo_range=(2, 4)
        )
        # Integerize fanouts for the exact generator.
        for c in list(tree.stats):
            st = tree.stats[c]
            tree.stats[c] = EdgeStats(st.m, float(int(st.fo)))
        data = gen_tree_data(tree, 1500, seed=seed)
        order = tree.default_order()
        obs = simulate(tree, data, "COM", order=order).counts.total_hash_probes
        est = cm.com_costs(tree, order, 1500).total_hash_probes
        assert obs == pytest.approx(est, rel=0.15)
