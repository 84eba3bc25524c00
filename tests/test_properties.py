"""Property-based invariants of the cost model (hypothesis)."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import costmodel as cm
from repro.core import jointree as jt
from repro.core import optimizer as opt
from repro.core.jointree import EdgeStats, JoinTree


@st.composite
def trees(draw, max_nodes=8):
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    return jt.random_tree(
        rng,
        max_nodes=draw(st.integers(2, max_nodes)),
        m_range=(draw(st.floats(0.01, 0.3)), draw(st.floats(0.4, 1.0))),
        fo_range=(1.0, draw(st.floats(1.0, 10.0))),
    )


@st.composite
def sized_trees(draw, max_nodes=8):
    """Random trees with relation sizes for SJ costing, some of whose
    edges have m = 0."""
    t = draw(trees(max_nodes))
    dead = draw(st.sets(st.sampled_from(t.nonroot)))
    stats = {c: EdgeStats(0.0, s.fo) if c in dead else s for c, s in t.stats.items()}
    out = JoinTree(t.root, t.parent, stats)
    out.size.update({n: draw(st.floats(1.0, 1e4)) for n in t.nodes})
    return out


N = 500.0


class TestComVsStd:
    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_com_probes_never_exceed_std_per_operator(self, t):
        # P(tuple survives branch) <= E[#branch matches] (Markov), so
        # every Eq.1 probe count is bounded by the classical one.
        order = t.default_order()
        com = cm.com_costs(t, order, N, flat_output=False).hash_probes
        std = cm.std_costs(t, order, N).hash_probes
        for op in order:
            assert com[op] <= std[op] * (1 + 1e-9) + 1e-9

    @given(trees())
    @settings(max_examples=25, deadline=None)
    def test_branch_factor_in_unit_interval(self, t):
        processed = set(t.nonroot)
        for c in t.children(t.root):
            bf = cm.branch_factor(t, c, processed)
            assert 0.0 <= bf <= 1.0 + 1e-12

    @given(trees())
    @settings(max_examples=25, deadline=None)
    def test_survival_decreases_along_any_order(self, t):
        prev, seen = 1.0, set()
        for l in t.default_order():
            seen.add(l)
            cur = cm.survival_probability(t, seen)
            assert cur <= prev + 1e-12
            prev = cur


class TestSjInvariants:
    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_adjusted_m_bounded_by_m_and_fo_at_least_one(self, t):
        _, adj = cm.sj_adjusted(t)
        for c in t.nonroot:
            assert adj[c].m <= t.stats[c].m + 1e-12
            if adj[c].m > 0:
                assert adj[c].fo >= 1.0 - 1e-9

    @given(trees())
    @settings(max_examples=30, deadline=None)
    def test_adjusted_selectivity_is_ratio_times_selectivity(self, t):
        ratio, adj = cm.sj_adjusted(t)
        for c in t.nonroot:
            lhs = adj[c].m * adj[c].fo
            rhs = ratio[c] * t.stats[c].s
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @given(trees())
    @settings(max_examples=20, deadline=None)
    def test_sj_output_identity(self, t):
        ratio, adj = cm.sj_adjusted(t)
        out_sj = N * ratio[t.root]
        for c in t.nonroot:
            out_sj *= adj[c].fo
        assert out_sj == pytest.approx(cm.expected_output(t, N), rel=1e-6, abs=1e-9)


class TestOptimizerInvariants:
    @given(trees(max_nodes=7))
    @settings(max_examples=20, deadline=None)
    def test_dp_not_worse_than_random_orders(self, t):
        fn = opt.com_probes_fn(t, N)
        best, _ = opt.exhaustive_optimal(t, fn)
        rng = random.Random(0)
        for _ in range(5):
            order = []
            processed = set()
            while len(order) < len(t.nonroot):
                order.append(rng.choice(sorted(t.eligible(processed))))
                processed.add(order[-1])
            assert opt.order_cost(t, order, fn) >= best - 1e-9

    @given(trees(), st.sampled_from([(False, 0.0), (True, 0.0), (True, 0.05)]))
    @settings(max_examples=20, deadline=None)
    def test_cached_probes_fn_equals_plain(self, t, gate):
        # The memoised Eq. 1, its cache warmed by the whole DP, gives step by
        # step the probes that com_costs computes with a fresh cache, and
        # the DP's optimum is the brute-force one.
        bvp, eps = gate
        fn = opt.com_probes_fn(t, N, bvp=bvp, eps=eps)
        dp_cost, _ = opt.exhaustive_optimal(t, fn)
        bf_cost, bf_order = opt.brute_force_optimal(t, opt.com_probes_fn(t, N, bvp=bvp, eps=eps))
        assert dp_cost == pytest.approx(bf_cost, rel=1e-12, abs=1e-12)
        want = cm.com_costs(t, bf_order, N, bvp=bvp, eps=eps, flat_output=False).hash_probes
        S = frozenset()
        for l in bf_order:
            assert fn(l, S) == want[l]
            S = S | {l}

    @given(trees(max_nodes=8), st.sampled_from(opt.HEURISTICS))
    @settings(max_examples=25, deadline=None)
    def test_greedy_orders_always_valid(self, t, h):
        assert t.is_valid_order(opt.greedy_order(t, h, N))


class TestBvpInvariants:
    @given(trees(), st.floats(0.0, 0.2))
    @settings(max_examples=25, deadline=None)
    def test_eps_monotone_hash_probes(self, t, eps):
        # More false positives → never fewer hash probes.
        order = t.default_order()
        a = cm.com_costs(t, order, N, bvp=True, eps=0.0, flat_output=False)
        b = cm.com_costs(t, order, N, bvp=True, eps=eps, flat_output=False)
        assert b.total_hash_probes >= a.total_hash_probes - 1e-9

    @given(trees())
    @settings(max_examples=25, deadline=None)
    def test_bvp_eps0_below_plain_com(self, t):
        order = t.default_order()
        a = cm.com_costs(t, order, N, flat_output=False)
        b = cm.com_costs(t, order, N, bvp=True, eps=0.0, flat_output=False)
        assert b.total_hash_probes <= a.total_hash_probes + 1e-9


class TestPlanCostsInvariants:
    @given(sized_trees(), st.sampled_from([0.0, 0.05]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_field_finite_and_nonnegative(self, t, eps, flat):
        for s in cm.STRATEGIES:
            cb = cm.plan_costs(t, s, eps=eps, flat_output=flat)
            vals = [
                *cb.hash_probes.values(), *cb.bv_probes.values(), *cb.sj_probes.values(),
                cb.tuples_generated, cb.expansion_tuples,
            ]
            assert all(math.isfinite(v) and v >= 0.0 for v in vals), (s, cb)

    @given(sized_trees())
    @settings(max_examples=25, deadline=None)
    def test_sj_com_order_independent(self, t):
        # Thm 3.5: after full reduction every spine row survives, so
        # SJ+COM's probes into each operator, and the tuples it generates,
        # do not depend on the join order.
        n = t.size[t.root]
        want = cm.sj_costs(t, None, n, com=True, flat_output=False)
        for order in t.valid_orders():
            cb = cm.sj_costs(t, order, n, com=True, flat_output=False)
            assert cb.hash_probes == pytest.approx(want.hash_probes, rel=1e-12, abs=1e-12)
            assert cb.tuples_generated == pytest.approx(want.tuples_generated, rel=1e-12, abs=1e-12)
