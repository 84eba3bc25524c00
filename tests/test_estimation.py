"""m/fo estimation: naive vs correlated sampling vs exact truth (§3.2)."""
import pandas as pd
import pytest

from repro.ce_lite import load_dataset
from repro.ce_lite.queries import edge_true_stats
from repro.core.jointree import EdgeStats
from repro.estimation import CorrelatedSample, naive_estimate, qerror
from repro.session import to_spark


class TestQError:
    def test_perfect(self):
        assert qerror(2.0, 2.0) == 1.0

    def test_symmetric(self):
        assert qerror(1.0, 4.0) == qerror(4.0, 1.0) == 4.0

    def test_zero_vs_zero(self):
        assert qerror(0.0, 0.0) == 1.0

    def test_zero_vs_positive_finite(self):
        assert qerror(0.0, 0.5) < float("inf")


@pytest.fixture(scope="module")
def pair(spark):
    """A skewed m:n join pair from dblp-lite, Spark + pandas views."""
    t = load_dataset("dblp_lite", sf=0.4, seed=2)
    r_pdf = t["writes"].rename(columns={"src": "r_src", "dst": "r_dst"})
    s_pdf = t["cites"].rename(columns={"src": "s_src", "dst": "s_dst"})
    r = spark.createDataFrame(r_pdf)
    s = spark.createDataFrame(s_pdf)
    return r, s, r_pdf, s_pdf


class TestNaive:
    def test_fanout_formula(self, pair, spark):
        r, s, _, s_pdf = pair
        est = naive_estimate(r, "r_dst", s, "s_src")
        v_s = s_pdf["s_src"].nunique()
        assert est.fo == pytest.approx(len(s_pdf) / v_s)

    def test_match_prob_formula(self, pair):
        r, s, r_pdf, s_pdf = pair
        est = naive_estimate(r, "r_dst", s, "s_src")
        v_r, v_s = r_pdf["r_dst"].nunique(), s_pdf["s_src"].nunique()
        assert est.m == pytest.approx(v_s / max(v_r, v_s))

    def test_empty_side(self, pair, spark):
        r, _, _, _ = pair
        empty = spark.createDataFrame([], schema="s_src long")
        est = naive_estimate(r, "r_dst", empty, "s_src")
        assert est.m == 0.0 and est.fo == 0.0

    def test_predicate_thinning_branch(self, pair):
        # s_p |S| < V(A,S) → fo collapses to 1.
        r, s, _, _ = pair
        est = naive_estimate(r, "r_dst", s, "s_src", s_pred_selectivity=1e-4)
        assert est.fo == 1.0

    def test_predicate_scaling_branch(self, pair):
        r, s, _, _ = pair
        full = naive_estimate(r, "r_dst", s, "s_src")
        half = naive_estimate(r, "r_dst", s, "s_src", s_pred_selectivity=0.5)
        assert half.fo == pytest.approx(0.5 * full.fo)


class TestCorrelatedSampling:
    @pytest.fixture(scope="class")
    def cs(self, pair):
        r, s, _, _ = pair
        return CorrelatedSample(r, "r_dst", s, "s_src", n_sample=800, seed=1)

    def test_no_predicate_close_to_truth(self, pair, cs):
        _, _, r_pdf, s_pdf = pair
        truth = edge_true_stats(r_pdf, "r_dst", s_pdf, "s_src")
        est = cs.estimate()
        assert qerror(est.m, truth.m) < 1.5
        assert qerror(est.fo, truth.fo) < 1.5

    def test_sampling_beats_naive_on_fanout(self, pair, cs, spark):
        # Fig 4's claim: sampling estimates fanout far better than naive
        # on skewed data (naive assumes uniform value frequencies).
        r, s, r_pdf, s_pdf = pair
        truth = edge_true_stats(r_pdf, "r_dst", s_pdf, "s_src")
        q_naive = qerror(naive_estimate(r, "r_dst", s, "s_src").fo, truth.fo)
        q_sample = qerror(cs.estimate().fo, truth.fo)
        assert q_sample <= q_naive + 0.05

    def test_predicate_on_r(self, pair, cs):
        _, _, r_pdf, s_pdf = pair
        pred = lambda df: df["r_src"] <= 100
        truth = edge_true_stats(r_pdf[r_pdf["r_src"] <= 100], "r_dst", s_pdf, "s_src")
        est = cs.estimate(r_pred=pred)
        assert qerror(est.m, truth.m) < 2.5

    def test_predicate_on_s(self, pair, cs):
        _, _, r_pdf, s_pdf = pair
        pred = lambda df: df["s_dst"] <= 500
        truth = edge_true_stats(r_pdf, "r_dst", s_pdf[s_pdf["s_dst"] <= 500], "s_src")
        est = cs.estimate(s_pred=pred)
        assert qerror(est.fo, max(truth.fo, 1e-6)) < 2.5

    def test_empty_after_predicate(self, cs):
        est = cs.estimate(r_pred=lambda df: df["r_src"] < -1)
        assert est.m == 0.0 and est.fo == 0.0

    def test_sample_bounded(self, cs):
        assert cs.n_sample <= 800


def reference_estimate(cs, s_pdf, r_pred=None, s_pred=None) -> EdgeStats:
    """(m, fo) from ``cs.sample_pdf`` merged with S in pandas. NULL keys
    are dropped from both sides first: in SQL they match nothing, while
    pandas would match NaN to NaN."""
    smp = cs.sample_pdf if r_pred is None else cs.sample_pdf[r_pred(cs.sample_pdf)]
    if len(smp) == 0:
        return EdgeStats(0.0, 0.0)
    s = s_pdf if s_pred is None else s_pdf[s_pred(s_pdf)]
    left = smp.dropna(subset=[cs.r_col]).astype({cs.r_col: "int64"})
    right = s.dropna(subset=[cs.s_col]).astype({cs.s_col: "int64"})
    counts = left.merge(right, left_on=cs.r_col, right_on=cs.s_col).groupby("__sid").size()
    return EdgeStats(len(counts) / len(smp), float(counts.mean()) if len(counts) else 0.0)


class TestCorrelatedSampleReference:
    """``estimate()`` equals the same sample joined with S in pandas."""

    @pytest.fixture(scope="class")
    def cs(self, pair):
        r, s, _, _ = pair
        return CorrelatedSample(r, "r_dst", s, "s_src", n_sample=300, seed=4)

    @pytest.mark.parametrize(
        "r_pred,s_pred",
        [
            (None, None),
            (lambda df: df["r_src"] <= 200, None),
            (None, lambda df: df["s_dst"] <= 500),
            (lambda df: df["r_src"] <= 200, lambda df: df["s_dst"] <= 500),
        ],
        ids=["none", "r_pred", "s_pred", "both"],
    )
    def test_matches_pandas_reference(self, pair, cs, r_pred, s_pred):
        _, _, _, s_pdf = pair
        assert cs.n_sample == 300
        assert cs.estimate(r_pred, s_pred) == reference_estimate(cs, s_pdf, r_pred, s_pred)

    def test_null_keys_count_as_unmatched(self, spark):
        r_pdf = pd.DataFrame({"r_id": range(900), "r_key": pd.array([i % 40 for i in range(900)], "Int64")})
        r_pdf["r_key"] = r_pdf["r_key"].mask(r_pdf.index % 7 == 0)
        s_pdf = pd.DataFrame({"s_id": range(120), "s_key": pd.array([i % 30 for i in range(120)], "Int64")})
        s_pdf["s_key"] = s_pdf["s_key"].mask(s_pdf.index % 5 == 0)
        sdata = to_spark(spark, {"r": r_pdf, "s": s_pdf})
        cs = CorrelatedSample(sdata["r"], "r_key", sdata["s"], "s_key", n_sample=200, seed=2)
        assert cs.sample_pdf["r_key"].isna().any()
        est = cs.estimate()
        assert est == reference_estimate(cs, s_pdf)
        assert 0.0 < est.m < 1.0

    def test_empty_s(self, pair, spark):
        r, _, _, _ = pair
        empty = spark.createDataFrame([], schema="s_src long, s_dst long")
        cs = CorrelatedSample(r, "r_dst", empty, "s_src", n_sample=100, seed=1)
        assert cs.n_sample == 100
        assert len(cs.matches_pdf) == 0
        est = cs.estimate()
        assert est == reference_estimate(cs, pd.DataFrame({"s_src": [], "s_dst": []}))
        assert est == EdgeStats(0.0, 0.0)

    def test_job_budget(self, pair, spark, spark_jobs):
        # R's count, one collect of the Bernoulli sample, and a broadcast
        # join with S collected to pandas: five jobs on a persisted R.
        _, _, r_pdf, s_pdf = pair
        r, s = spark.createDataFrame(r_pdf).persist(), spark.createDataFrame(s_pdf).persist()
        try:
            r.count(), s.count()
            _, jobs = spark_jobs(lambda: CorrelatedSample(r, "r_dst", s, "s_src", n_sample=300, seed=4))
            assert len(jobs) <= 5
        finally:
            r.unpersist(), s.unpersist()
