"""Cost model vs the paper's worked examples (§3.3, §3.5, §3.6)."""
import math

import pytest

from repro.core import costmodel as cm
from repro.core import jointree as jt
from repro.core.jointree import EdgeStats, JoinTree

N = 1000.0


def example(ms=None, fos=None):
    """Running example with named (m, fo) per node."""
    ms = ms or {"R2": 0.8, "R3": 0.6, "R4": 0.5, "R5": 0.7, "R6": 0.4}
    fos = fos or {"R2": 3.0, "R3": 2.0, "R4": 4.0, "R5": 2.0, "R6": 5.0}
    stats = {c: EdgeStats(ms[c], fos[c]) for c in ms}
    return jt.running_example(stats), ms, fos


class TestBranchFactor:
    def test_unprocessed_is_one(self):
        t, _, _ = example()
        assert cm.branch_factor(t, "R2", set()) == 1.0

    def test_leaf_processed_is_m(self):
        t, ms, _ = example()
        assert cm.branch_factor(t, "R3", {"R3"}) == ms["R3"]

    def test_gated_is_m_plus_eps(self):
        t, ms, _ = example()
        assert cm.branch_factor(t, "R2", set(), {"R2"}, eps=0.05) == pytest.approx(ms["R2"] + 0.05)

    def test_recursive_survival(self):
        # m_{2,3,4} = m2 (1 - (1 - m3 m4)^{fo2})  — §3.3 example.
        t, ms, fos = example()
        got = cm.branch_factor(t, "R2", {"R2", "R3", "R4"})
        want = ms["R2"] * (1 - (1 - ms["R3"] * ms["R4"]) ** fos["R2"])
        assert got == pytest.approx(want)

    def test_partial_branch(self):
        # Only R3 processed under R2: m2 (1 - (1-m3)^{fo2}).
        t, ms, fos = example()
        got = cm.branch_factor(t, "R2", {"R2", "R3"})
        want = ms["R2"] * (1 - (1 - ms["R3"]) ** fos["R2"])
        assert got == pytest.approx(want)

    def test_gate_inside_survival(self):
        # §3.5: m2 (1 - (1 - m3 (m4+eps))^{fo2}).
        t, ms, fos = example()
        eps = 0.01
        got = cm.branch_factor(t, "R2", {"R2", "R3"}, {"R4"}, eps)
        want = ms["R2"] * (1 - (1 - ms["R3"] * (ms["R4"] + eps)) ** fos["R2"])
        assert got == pytest.approx(want)

    def test_survival_bounded_by_m(self):
        t, ms, _ = example()
        for sub in [{"R2"}, {"R2", "R3"}, {"R2", "R3", "R4"}]:
            assert cm.branch_factor(t, "R2", sub) <= ms["R2"] + 1e-12

    def test_survival_monotone_decreasing_in_processed(self):
        t, _, _ = example()
        a = cm.branch_factor(t, "R2", {"R2"})
        b = cm.branch_factor(t, "R2", {"R2", "R3"})
        c = cm.branch_factor(t, "R2", {"R2", "R3", "R4"})
        assert a >= b >= c


class TestComProbesPaperExample:
    """§3.3 worked example: driver R1, order R2, R3, R5, R4, R6."""

    ORDER = ["R2", "R3", "R5", "R4", "R6"]

    def probes(self):
        t, ms, fos = example()
        cb = cm.com_costs(t, self.ORDER, N)
        return cb.hash_probes, ms, fos

    def test_first_probe_is_n(self):
        p, _, _ = self.probes()
        assert p["R2"] == N

    def test_r3(self):
        p, ms, fos = self.probes()
        assert p["R3"] == pytest.approx(N * ms["R2"] * fos["R2"])

    def test_r5_survival(self):
        p, ms, fos = self.probes()
        want = N * ms["R2"] * (1 - (1 - ms["R3"]) ** fos["R2"])
        assert p["R5"] == pytest.approx(want)

    def test_r4(self):
        p, ms, fos = self.probes()
        assert p["R4"] == pytest.approx(N * ms["R2"] * ms["R5"] * fos["R2"] * ms["R3"])

    def test_r6(self):
        p, ms, fos = self.probes()
        m1234 = ms["R2"] * (1 - (1 - ms["R3"] * ms["R4"]) ** fos["R2"])
        assert p["R6"] == pytest.approx(N * m1234 * ms["R5"] * fos["R5"])

    def test_com_cheaper_than_std_with_fanouts(self):
        t, _, _ = example()
        com = cm.com_costs(t, self.ORDER, N, flat_output=False).total_hash_probes
        std = cm.std_costs(t, self.ORDER, N).total_hash_probes
        assert com < std

    def test_com_equals_std_when_all_fanouts_one(self):
        # §3.3: "the two expressions are equivalent if fo = 1 for all".
        ms = {"R2": 0.8, "R3": 0.6, "R4": 0.5, "R5": 0.7, "R6": 0.4}
        fos = {c: 1.0 for c in ms}
        t, _, _ = example(ms, fos)
        com = cm.com_costs(t, self.ORDER, N, flat_output=False)
        std = cm.std_costs(t, self.ORDER, N)
        for op in self.ORDER:
            assert com.hash_probes[op] == pytest.approx(std.hash_probes[op])

    def test_probes_order_independent_given_set(self):
        # Eq. 1 "does not depend on the specific order in which all of
        # those prior operators are evaluated".
        t, _, _ = example()
        a = cm.com_hash_probes_into(t, "R6", {"R2", "R3", "R4", "R5"}, N)
        # Recompute after permuting the way we'd have arrived there.
        b = cm.com_hash_probes_into(t, "R6", {"R5", "R4", "R3", "R2"}, N)
        assert a == b


class TestStdCosts:
    def test_classical_formula(self):
        t, ms, fos = example()
        order = ["R2", "R3", "R5", "R4", "R6"]
        cb = cm.std_costs(t, order, N)
        run = N
        for op in order:
            assert cb.hash_probes[op] == pytest.approx(run)
            run *= ms[op] * fos[op]

    def test_tuples_generated_sums_intermediates(self):
        t, ms, fos = example()
        order = ["R2", "R3", "R5", "R4", "R6"]
        cb = cm.std_costs(t, order, N)
        run, tot = N, 0.0
        for op in order:
            run *= ms[op] * fos[op]
            tot += run
        assert cb.tuples_generated == pytest.approx(tot)

    def test_invalid_order_rejected(self):
        t, _, _ = example()
        with pytest.raises(ValueError):
            cm.std_costs(t, ["R3", "R2", "R4", "R5", "R6"], N)


class TestBvpPaperExample:
    """§3.5 example: order R2, R3, R5, R4 implied pieces (our general model)."""

    def test_first_hash_probe_gated_by_driver_bitvectors(self):
        # N (m2+eps)(m5+eps) probes into the R2 hash table.
        t, ms, fos = example()
        eps = 0.02
        order = ["R2", "R3", "R4", "R5", "R6"]
        cb = cm.std_costs(t, order, N, bvp=True, eps=eps)
        assert cb.hash_probes["R2"] == pytest.approx(N * (ms["R2"] + eps) * (ms["R5"] + eps))

    def test_driver_bv_probe_sequence(self):
        # BV(R2) sees N rows; BV(R5) sees N (m2+eps).
        t, ms, _ = example()
        eps = 0.02
        order = ["R2", "R3", "R4", "R5", "R6"]
        cb = cm.std_costs(t, order, N, bvp=True, eps=eps)
        assert cb.bv_probes["R2"] >= N  # includes driver scan check
        # Driver contribution to BV(R5): N*(m2+eps).
        assert cb.bv_probes["R5"] == pytest.approx(N * (ms["R2"] + eps))

    def test_bvp_com_r5_probes_match_paper(self):
        # N m2 (m5+eps) (1 - (1 - m3(m4+eps))^{fo2})  — §3.5.
        t, ms, fos = example()
        eps = 0.03
        got = cm.com_hash_probes_into(t, "R5", {"R2", "R3"}, N, bvp=True, eps=eps)
        want = (
            N
            * ms["R2"]
            * (ms["R5"] + eps)
            * (1 - (1 - ms["R3"] * (ms["R4"] + eps)) ** fos["R2"])
        )
        assert got == pytest.approx(want)

    def test_eps_zero_bvp_std_below_plain_std(self):
        t, _, _ = example()
        order = ["R2", "R3", "R4", "R5", "R6"]
        bvp = cm.std_costs(t, order, N, bvp=True, eps=0.0)
        std = cm.std_costs(t, order, N)
        assert bvp.total_hash_probes <= std.total_hash_probes + 1e-9

    def test_gates_clamped_at_one(self):
        t, _, _ = example({"R2": 0.99, "R3": 0.6, "R4": 0.5, "R5": 0.98, "R6": 0.4}, None)
        cb = cm.std_costs(t, ["R2", "R3", "R4", "R5", "R6"], N, bvp=True, eps=0.5)
        assert cb.hash_probes["R2"] <= N  # (m+eps) clamped to 1


class TestSjAdjusted:
    def test_leaf_ratio_one(self):
        t, _, _ = example()
        ratio, _ = cm.sj_adjusted(t)
        for leaf in ["R3", "R4", "R6"]:
            assert ratio[leaf] == 1.0

    def test_internal_ratio_product_of_adjusted_m(self):
        t, ms, _ = example()
        ratio, adj = cm.sj_adjusted(t)
        assert ratio["R2"] == pytest.approx(adj["R3"].m * adj["R4"].m)
        assert adj["R3"].m == ms["R3"]  # leaf child: ratio 1 → m' = m

    def test_thm34_formulas(self):
        t, ms, fos = example()
        ratio, adj = cm.sj_adjusted(t)
        r = ratio["R2"]
        surv = 1 - (1 - r) ** fos["R2"]
        assert adj["R2"].m == pytest.approx(ms["R2"] * surv)
        assert adj["R2"].fo == pytest.approx(fos["R2"] * r / surv)

    def test_adjusted_selectivity_scales_by_ratio(self):
        # s' = ratio * s (§3.6).
        t, ms, fos = example()
        ratio, adj = cm.sj_adjusted(t)
        assert adj["R2"].m * adj["R2"].fo == pytest.approx(ratio["R2"] * ms["R2"] * fos["R2"])

    def test_zero_match_collapses(self):
        ms = {"R2": 0.8, "R3": 0.0, "R4": 0.5, "R5": 0.7, "R6": 0.4}
        t, _, _ = example(ms, None)
        ratio, adj = cm.sj_adjusted(t)
        assert adj["R3"].m == 0.0
        assert ratio["R2"] == 0.0
        assert adj["R2"].m == 0.0

    def test_adjusted_fanout_at_least_one(self):
        t, _, _ = example()
        _, adj = cm.sj_adjusted(t)
        for c in t.nonroot:
            assert adj[c].fo >= 1.0 - 1e-12


class TestSjPhase1PaperExample:
    def test_probe_counts(self):
        # |R2| + m3|R2| + |R5| + |R1| + (1-(1-m3 m4)^{fo2}) m2 |R1|.
        t, ms, fos = example()
        sizes = {"R1": 1000.0, "R2": 2400.0, "R3": 500, "R4": 700, "R5": 1400.0, "R6": 300}
        t.size.update(sizes)
        probes = cm.sj_phase1_probes(
            t, semi_orders={"R2": ["R3", "R4"], "R1": ["R2", "R5"], "R5": ["R6"]}
        )
        assert probes["R3"] == pytest.approx(sizes["R2"])
        assert probes["R4"] == pytest.approx(ms["R3"] * sizes["R2"])
        assert probes["R6"] == pytest.approx(sizes["R5"])
        assert probes["R2"] == pytest.approx(sizes["R1"])
        want_r5 = (1 - (1 - ms["R3"] * ms["R4"]) ** fos["R2"]) * ms["R2"] * sizes["R1"]
        assert probes["R5"] == pytest.approx(want_r5)

    def test_missing_sizes_raise(self):
        t, _, _ = example()
        with pytest.raises(ValueError):
            cm.sj_phase1_probes(t)

    def test_default_semi_order_sorted_by_adjusted_m(self):
        # With default orders, the child with smaller m' is probed first,
        # so the *larger*-m' child sees fewer probes.
        t, _, _ = example()
        t.size.update({"R1": 1000, "R2": 2400, "R3": 500, "R4": 700, "R5": 1400, "R6": 300})
        _, adj = cm.sj_adjusted(t)
        probes = cm.sj_phase1_probes(t)
        first, second = sorted(["R3", "R4"], key=lambda c: adj[c].m)
        assert probes[first] >= probes[second]


class TestSjPhase2:
    def setup_method(self):
        self.t, self.ms, self.fos = example()
        self.t.size.update({"R1": N, "R2": 2400, "R3": 500, "R4": 700, "R5": 1400, "R6": 300})

    def test_com_probe_total_order_independent(self):
        # Thm 3.5.
        totals = set()
        for order in self.t.valid_orders():
            cb = cm.sj_costs(self.t, order, N, com=True, flat_output=False)
            totals.add(round(cb.total_hash_probes, 6))
        assert len(totals) == 1

    def test_std_probe_total_varies_with_order(self):
        totals = set()
        for order in self.t.valid_orders():
            cb = cm.sj_costs(self.t, order, N, com=False)
            totals.add(round(cb.total_hash_probes, 6))
        assert len(totals) > 1

    def test_match_probabilities_one_no_deaths(self):
        # SJ+STD stream only grows (fo' >= 1): probes are nondecreasing.
        order = self.t.default_order()
        cb = cm.sj_costs(self.t, order, N, com=False)
        vals = [cb.hash_probes[o] for o in order]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_sj_output_matches_expected_output(self):
        # N' Π fo' == N Π m fo.
        ratio, adj = cm.sj_adjusted(self.t)
        n_red = N * ratio["R1"]
        out = n_red
        for c in self.t.nonroot:
            out *= adj[c].fo
        assert out == pytest.approx(cm.expected_output(self.t, N))

    def test_optimal_phase2_order_valid(self):
        for com in (True, False):
            order = cm.sj_optimal_phase2_order(self.t, com=com)
            assert self.t.is_valid_order(order)

    def test_sj_com_optimal_order_sorted_by_path_fanout_product(self):
        _, adj = cm.sj_adjusted(self.t)
        order = cm.sj_optimal_phase2_order(self.t, com=True)
        prods = []
        for c in order:
            p = 1.0
            for a in self.t.path_from_root(c)[1:]:
                p *= adj[a].fo
            prods.append(p)
        assert prods == sorted(prods)


class TestWeightsAndTotals:
    def test_default_weights(self):
        w = cm.Weights()
        assert w.bv_probe == 0.5 and w.sj_probe == 0.5
        assert w.tuple_gen == pytest.approx(1 / 14)
        # The paper's model charges neither hash-table builds nor jobs.
        assert w.build_row == 0.0 and w.spark_job == 0.0

    def test_total_prices_builds_and_jobs_at_their_weights(self):
        cb = cm.CostBreakdown(hash_probes={"a": 100.0}, tuples_generated=14.0, build_rows=40.0, spark_jobs=3)
        w = cm.Weights(tuple_gen=0.5, build_row=2.0, spark_job=10.0)
        assert cb.total(w) == pytest.approx(100 + 7 + 80 + 30)
        assert cb.total() == pytest.approx(100 + 1)

    def test_build_rows_per_strategy(self):
        t, ms, fos = example()
        t.size.update({"R1": N, "R2": 2400, "R3": 500, "R4": 700, "R5": 1400, "R6": 300})
        rel = 2400 + 500 + 700 + 1400 + 300
        ratio, _ = cm.sj_adjusted(t)
        reduced = sum(t.size[c] * ratio[c] for c in t.nonroot)
        want = {"STD": rel, "BVP+STD": 2 * rel, "SJ+STD": 2 * reduced}
        for s, rows in want.items():
            assert cm.plan_costs(t, s, None, N).build_rows == pytest.approx(rows), s
            # COM builds on the same relations, plus its spines.
            com = s.replace("STD", "COM")
            assert cm.plan_costs(t, com, None, N).build_rows > rows, com

    def test_spark_jobs_depend_on_depths_not_order(self):
        t, _, _ = example()
        t.size.update({"R1": N, "R2": 2400, "R3": 500, "R4": 700, "R5": 1400, "R6": 300})
        for s in cm.STRATEGIES:
            jobs = {cm.plan_costs(t, s, o, N).spark_jobs for o in t.valid_orders()}
            assert jobs == {cm.spark_jobs(t, s)}

    def test_total_combines_components(self):
        cb = cm.CostBreakdown(
            hash_probes={"a": 100.0}, bv_probes={"b": 10.0}, sj_probes={"c": 8.0},
            tuples_generated=14.0, expansion_tuples=14.0,
        )
        assert cb.total() == pytest.approx(100 + 5 + 4 + 2)

    def test_expected_output(self):
        t, ms, fos = example()
        want = N * math.prod(ms[c] * fos[c] for c in t.nonroot)
        assert cm.expected_output(t, N) == pytest.approx(want)

    def test_plan_costs_dispatch(self):
        t, _, _ = example()
        t.size.update({"R1": N, "R2": 2400, "R3": 500, "R4": 700, "R5": 1400, "R6": 300})
        for s in cm.STRATEGIES:
            cb = cm.plan_costs(t, s, None, N)
            assert cb.total() > 0

    def test_plan_costs_unknown_strategy(self):
        t, _, _ = example()
        with pytest.raises(ValueError):
            cm.plan_costs(t, "WAT", None, N)

    def test_com_expansion_cost_included_in_flat_mode(self):
        t, _, _ = example()
        flat = cm.com_costs(t, t.default_order(), N, flat_output=True)
        fac = cm.com_costs(t, t.default_order(), N, flat_output=False)
        assert flat.expansion_tuples == pytest.approx(cm.expected_output(t, N))
        assert fac.expansion_tuples == 0.0


class TestSurvivalProbability:
    def test_empty_prefix_is_one(self):
        t, _, _ = example()
        assert cm.survival_probability(t, set()) == 1.0

    def test_full_prefix(self):
        t, ms, fos = example()
        full = set(t.nonroot)
        want = cm.branch_factor(t, "R2", full) * cm.branch_factor(t, "R5", full)
        assert cm.survival_probability(t, full) == pytest.approx(want)

    def test_monotone_nonincreasing(self):
        t, _, _ = example()
        prev = 1.0
        seen = set()
        for l in ["R2", "R3", "R5", "R4", "R6"]:
            seen.add(l)
            cur = cm.survival_probability(t, seen)
            assert cur <= prev + 1e-12
            prev = cur
