"""Strategy planner: ranks the six strategies by modeled cost."""
import pytest

from repro.core import costmodel as cm
from repro.core import jointree as jt
from repro.core.jointree import EdgeStats
from repro.core.planner import choose_plan, rank_strategies


def sized_tree(ms, fos, n=1000.0):
    stats = {c: EdgeStats(ms[c], fos[c]) for c in ms}
    t = jt.running_example(stats)
    sizes = {"R1": n}
    for c in t.bfs_order()[1:]:
        sizes[c] = sizes[t.parent[c]] * stats[c].s if stats[c].s > 0 else 1.0
    t.size.update(sizes)
    return t


PAPER = cm.Weights()
HIGH_M = {"R2": 0.9, "R3": 0.8, "R4": 0.85, "R5": 0.9, "R6": 0.8}
LOW_M = {"R2": 0.05, "R3": 0.08, "R4": 0.05, "R5": 0.06, "R6": 0.05}
HIGH_FO = {c: 5.0 for c in HIGH_M}
UNIT_FO = {c: 1.0 for c in HIGH_M}


class TestRanking:
    def test_all_strategies_present(self):
        plans = rank_strategies(sized_tree(HIGH_M, HIGH_FO))
        assert sorted(p.strategy for p in plans) == sorted(cm.STRATEGIES)

    def test_sorted_by_cost(self):
        plans = rank_strategies(sized_tree(HIGH_M, HIGH_FO))
        costs = [p.cost for p in plans]
        assert costs == sorted(costs)

    def test_choose_plan_is_cheapest(self):
        t = sized_tree(HIGH_M, HIGH_FO)
        assert choose_plan(t).cost == rank_strategies(t)[0].cost

    def test_orders_valid(self):
        t = sized_tree(HIGH_M, HIGH_FO)
        for p in rank_strategies(t):
            assert t.is_valid_order(p.order)

    @pytest.mark.parametrize("method", ["survival", "optimal"])
    def test_zero_match_estimate_gives_six_valid_plans(self, method):
        # A small sample can estimate m = 0; here R3 hangs under R2, so the
        # SJ reduction zeroes R2's branch and the BVP gate m + eps is 0.
        stats = {c: EdgeStats(0.8, 3.0) for c in ["R2", "R4", "R5"]}
        t = jt.snowflake(2, 1, {**stats, "R3": EdgeStats(0.0, 0.0)})
        t.size.update({n: 1000.0 for n in t.nodes})
        plans = rank_strategies(t, method=method)
        assert sorted(p.strategy for p in plans) == sorted(cm.STRATEGIES)
        for p in plans:
            assert t.is_valid_order(p.order), p
            assert p.cost >= 0


class TestStrategySelection:
    """§5.4 qualitative behaviour of the analytic comparison, which prices
    plans with the paper's weights."""

    def test_high_match_high_fanout_prefers_com_family(self):
        # At high m, bitvectors/semijoins prune nothing — COM wins (§5.4).
        best = choose_plan(sized_tree(HIGH_M, HIGH_FO), flat_output=False, weights=PAPER)
        assert best.strategy.endswith("COM")

    def test_com_beats_std_with_fanouts(self):
        plans = {p.strategy: p.cost for p in rank_strategies(sized_tree(HIGH_M, HIGH_FO), weights=PAPER)}
        assert plans["COM"] < plans["STD"]

    def test_low_match_makes_pruning_competitive(self):
        # At very low m, STD variants are competitive with COM (§5.2):
        # the COM family's advantage should (nearly) vanish.
        plans = {p.strategy: p.cost for p in rank_strategies(sized_tree(LOW_M, HIGH_FO), weights=PAPER)}
        assert plans["BVP+STD"] <= plans["STD"]
        assert plans["STD"] <= 2.0 * plans["COM"]

    def test_unit_fanout_com_gains_nothing_on_probes(self):
        t = sized_tree(HIGH_M, UNIT_FO)
        plans = {p.strategy: p for p in rank_strategies(t, flat_output=False, weights=PAPER)}
        assert plans["COM"].breakdown.total_hash_probes == pytest.approx(
            plans["STD"].breakdown.total_hash_probes
        )

    def test_method_optimal_not_worse(self):
        t = sized_tree(HIGH_M, HIGH_FO)
        h = choose_plan(t, method="survival", weights=PAPER).cost
        o = choose_plan(t, method="optimal", weights=PAPER).cost
        assert o <= h + 1e-9


def bench_tree(shape: str, n: float = 5000.0):
    """The benchmark workload's tree with its expected relation sizes."""
    from repro.experiments.t9_spark_weights import held_out_tree

    t = held_out_tree(shape)
    t.size[t.root] = n
    for c in t.bfs_order()[1:]:
        t.size[c] = t.size[t.parent[c]] * t.stats[c].s
    return t


class TestSparkWeights:
    """The planner's default weights are fitted on the Spark engine, where
    each job has a fixed cost: on the benchmark's trees flat STD-family
    plans run fastest (T9), while the paper's weights pick the COM family."""

    @pytest.mark.parametrize("shape", ["star7", "snow21"])
    def test_default_weights_pick_the_std_family(self, shape):
        assert choose_plan(bench_tree(shape)).strategy in ("STD", "SJ+STD")

    @pytest.mark.parametrize("shape", ["star7", "snow21"])
    def test_paper_weights_pick_the_com_family(self, shape):
        assert choose_plan(bench_tree(shape), weights=PAPER).strategy.endswith("COM")

    def test_weights_change_the_ranking_not_the_orders(self):
        t = bench_tree("star7")
        spark = {p.strategy: p.order for p in rank_strategies(t)}
        paper = {p.strategy: p.order for p in rank_strategies(t, weights=PAPER)}
        assert spark == paper
