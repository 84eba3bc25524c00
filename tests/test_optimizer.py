"""Optimization algorithms: Algorithm 1, heuristics, theorem checks."""
import os
import random
import subprocess
import sys

import pytest

from repro.core import costmodel as cm
from repro.core import jointree as jt
from repro.core import optimizer as opt
from repro.core.jointree import EdgeStats, JoinTree, SymmetricStats


def example_tree():
    stats = {
        "R2": EdgeStats(0.8, 3.0),
        "R3": EdgeStats(0.6, 2.0),
        "R4": EdgeStats(0.5, 4.0),
        "R5": EdgeStats(0.7, 2.0),
        "R6": EdgeStats(0.4, 5.0),
    }
    return jt.running_example(stats)


def rand_tree(seed, max_nodes=7, m_range=(0.1, 0.9), fo_range=(1, 8)):
    return jt.random_tree(random.Random(seed), max_nodes=max_nodes, m_range=m_range, fo_range=fo_range)


N = 1000.0


class TestExhaustiveDP:
    @pytest.mark.parametrize("seed", range(10))
    def test_dp_matches_brute_force_com(self, seed):
        t = rand_tree(seed)
        fn = opt.com_probes_fn(t, N)
        dp_cost, dp_order = opt.exhaustive_optimal(t, fn)
        bf_cost, _ = opt.brute_force_optimal(t, fn)
        assert dp_cost == pytest.approx(bf_cost)
        assert t.is_valid_order(dp_order)
        assert opt.order_cost(t, dp_order, fn) == pytest.approx(dp_cost)

    @pytest.mark.parametrize("seed", range(6))
    def test_dp_matches_brute_force_bvp_com(self, seed):
        # Thm 3.3: principle of optimality holds for BVP with fixed driver.
        t = rand_tree(seed + 100, max_nodes=6)
        fn = opt.com_probes_fn(t, N, bvp=True, eps=0.02)
        dp_cost, _ = opt.exhaustive_optimal(t, fn)
        bf_cost, _ = opt.brute_force_optimal(t, fn)
        assert dp_cost == pytest.approx(bf_cost)

    @pytest.mark.parametrize("seed", range(4))
    def test_dp_matches_brute_force_std(self, seed):
        t = rand_tree(seed + 200, max_nodes=6)
        fn = opt.std_probes_fn(t, N)
        dp_cost, _ = opt.exhaustive_optimal(t, fn)
        bf_cost, _ = opt.brute_force_optimal(t, fn)
        assert dp_cost == pytest.approx(bf_cost)

    def test_std_step_same_in_every_process(self):
        # str hashes, and with them the iteration order of a frozenset of
        # node names, differ per process; the STD step must not.
        code = (
            "import random\n"
            "from repro.core import jointree as jt, optimizer as opt\n"
            "t = jt.random_tree(random.Random(4), max_nodes=12)\n"
            "order = t.default_order()\n"
            "print(repr(opt.std_probes_fn(t, 1000.0)(order[-1], frozenset(order[:-1]))))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        outs = [
            subprocess.run(
                [sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": hs},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for hs in ("1", "2")
        ]
        assert outs[0] == outs[1] and outs[0].strip()

    def test_single_join_tree(self):
        t = JoinTree("R1", {"R2": "R1"}, {"R2": EdgeStats(0.5, 2.0)})
        cost, order = opt.exhaustive_optimal(t, opt.com_probes_fn(t, N))
        assert order == ["R2"] and cost == N

    def test_dp_runs_on_20_node_tree(self):
        t = rand_tree(7, max_nodes=20)
        cost, order = opt.exhaustive_optimal(t, opt.com_probes_fn(t, N))
        assert t.is_valid_order(order) and cost > 0


class TestASIViolation:
    """Thm 3.1: the COM cost function does not satisfy ASI — the best
    relative order of the symmetric (R5, R6) pair flips with (fo2, fo3)."""

    def tree(self, fo2, fo3):
        parent = {"R2": "R1", "R3": "R1", "R4": "R2", "R5": "R2", "R6": "R3", "R7": "R3"}
        stats = {c: EdgeStats(0.5, 1.0) for c in parent}
        stats["R2"] = EdgeStats(0.5, fo2)
        stats["R3"] = EdgeStats(0.5, fo3)
        return JoinTree("R1", parent, stats)

    def cost(self, t, order):
        return opt.order_cost(t, order, opt.com_probes_fn(t, N))

    def test_orders_differ_and_preference_flips(self):
        a = ["R2", "R3", "R4", "R7", "R5", "R6"]
        b = ["R2", "R3", "R4", "R7", "R6", "R5"]
        t1 = self.tree(2.0, 8.0)
        t2 = self.tree(8.0, 2.0)
        d1 = self.cost(t1, a) - self.cost(t1, b)
        d2 = self.cost(t2, a) - self.cost(t2, b)
        assert d1 != pytest.approx(0.0)
        assert d1 * d2 < 0  # preference depends on fo2 vs fo3 → ASI violated

    def test_equal_fanouts_symmetric(self):
        t = self.tree(4.0, 4.0)
        a = ["R2", "R3", "R4", "R7", "R5", "R6"]
        b = ["R2", "R3", "R4", "R7", "R6", "R5"]
        assert self.cost(t, a) == pytest.approx(self.cost(t, b))


class TestGreedyHeuristics:
    @pytest.mark.parametrize("heuristic", opt.HEURISTICS)
    @pytest.mark.parametrize("seed", range(5))
    def test_orders_valid(self, heuristic, seed):
        t = rand_tree(seed + 300, max_nodes=12)
        order = opt.greedy_order(t, heuristic, N)
        assert t.is_valid_order(order)

    @pytest.mark.parametrize("heuristic", opt.HEURISTICS)
    @pytest.mark.parametrize("seed", range(8))
    def test_never_better_than_optimal(self, heuristic, seed):
        t = rand_tree(seed + 400, max_nodes=8)
        fn = opt.com_probes_fn(t, N)
        opt_cost, _ = opt.exhaustive_optimal(t, fn)
        h_cost = opt.order_cost(t, opt.greedy_order(t, heuristic, N), fn)
        assert h_cost >= opt_cost - 1e-6

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError):
            opt.greedy_order(example_tree(), "magic")

    def test_rank_picks_min_selectivity_first(self):
        t = example_tree()
        order = opt.greedy_order(t, "rank", N)
        elig = {"R2": t.stats["R2"].s, "R5": t.stats["R5"].s}
        assert order[0] == min(elig, key=elig.get)

    def test_survival_close_to_optimal_on_many_trees(self):
        # Fig 10 headline: survival heuristic is near-optimal "in almost
        # all cases". Check median ratio over random trees is < 1.15.
        ratios = []
        for seed in range(25):
            t = rand_tree(seed + 900, max_nodes=9, m_range=(0.05, 0.5), fo_range=(1, 10))
            fn = opt.com_probes_fn(t, N)
            oc, _ = opt.exhaustive_optimal(t, fn)
            hc = opt.order_cost(t, opt.greedy_order(t, "survival", N), fn)
            ratios.append(hc / oc)
        ratios.sort()
        assert ratios[len(ratios) // 2] < 1.15

    def test_star_queries_all_heuristics_near_optimal(self):
        # Star queries obey ASI fully (§3.4) — survival/tuples find optimal.
        rng = random.Random(5)
        for _ in range(5):
            st = {f"R{i}": EdgeStats(rng.uniform(0.1, 0.9), float(rng.randint(1, 9))) for i in range(2, 8)}
            t = jt.star(6, st)
            fn = opt.com_probes_fn(t, N)
            oc, _ = opt.exhaustive_optimal(t, fn)
            hc = opt.order_cost(t, opt.greedy_order(t, "survival", N), fn)
            assert hc == pytest.approx(oc, rel=1e-9)


class TestWorstCase:
    """Thm 3.2: each greedy heuristic can be made a factor >= f worse."""

    @pytest.mark.parametrize("f", [2.0, 5.0, 10.0])
    @pytest.mark.parametrize("heuristic", opt.HEURISTICS)
    def test_factor_f_worse(self, f, heuristic):
        t = opt.worst_case_tree_for_heuristics(f)
        fn = opt.com_probes_fn(t, N)
        # DP on these long chains is exponential in chain length only in
        # subset count along the chain — still linear here (path graph).
        optimal_cost, _ = opt.exhaustive_optimal(t, fn)
        h_cost = opt.order_cost(t, opt.greedy_order(t, heuristic, N), fn)
        assert h_cost / optimal_cost >= f


class TestOptimizeEntry:
    def sized(self):
        t = example_tree()
        t.size.update({"R1": N, "R2": 2400, "R3": 2880, "R4": 4800, "R5": 1400, "R6": 1400})
        return t

    @pytest.mark.parametrize("strategy", cm.STRATEGIES)
    def test_optimize_returns_valid_plan(self, strategy):
        t = self.sized()
        cost, order, cb = opt.optimize(t, strategy, N)
        assert t.is_valid_order(order)
        assert cost == pytest.approx(cb.total())

    @pytest.mark.parametrize("method", ["optimal", "rank", "tuples", "survival", "default"])
    def test_methods(self, method):
        t = self.sized()
        cost, order, _ = opt.optimize(t, "COM", N, method=method)
        assert t.is_valid_order(order)

    def test_optimal_not_worse_than_default(self):
        t = self.sized()
        c_opt, _, _ = opt.optimize(t, "COM", N, method="optimal", flat_output=False)
        c_def, _, _ = opt.optimize(t, "COM", N, method="default", flat_output=False)
        assert c_opt <= c_def + 1e-6

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            opt.optimize(self.sized(), "COM", N, method="nope")

    def test_all_drivers_beats_fixed_driver(self):
        t = self.sized()
        table = {}
        for c, p in t.parent.items():
            table[(p, c)] = t.stats[c]
            # Reverse direction: same #pairs, sizes imply reverse stats.
            pairs = t.size[p] * t.stats[c].s
            rev_s = pairs / t.size[c]
            table[(c, p)] = EdgeStats(min(1.0, rev_s / max(rev_s, 1.0) * 0.9), max(rev_s, 1.0))
        sizes = dict(t.size)
        cost, driver, order = opt.optimize_all_drivers(
            t, "COM", SymmetricStats(table), sizes, method="optimal", flat_output=False
        )
        fixed, _, _ = opt.optimize(t, "COM", N, method="optimal", flat_output=False)
        assert cost <= fixed + 1e-6
        assert driver in t.nodes
