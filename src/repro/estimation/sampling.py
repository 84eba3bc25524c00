"""Correlated sampling estimator for (m, fo) (§3.2, after [2, 9]).

A sample of R is drawn once; for every sampled tuple the engine stores
its match count in S and the matches themselves. At estimation time,
predicates on R restrict the sample and predicates on S restrict the
stored matches, giving per-tuple post-predicate match counts, from which
m (fraction with ≥1 match) and fo (mean positive count) follow.

The sample is the first ``n_sample`` rows, in R's storage order, of a
Bernoulli sample of R at rate 3·n_sample/|R|. When |R| > 3·n_sample it
therefore covers only about the first third of R: on star7-5k (seed 3)
the sampled R1 row ids run from 1 to 1 698 of 0–4 999. Estimates are
unbiased only when a row's position in R says nothing about its matches.

Five Spark jobs per sample: R's count (two), one collect of the
Bernoulli sample, and a broadcast join of the sampled (row number, key)
pairs against S, collected to pandas (two). Both collected frames are
tiny by design; that is the point of sampling.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.jointree import EdgeStats

Pred = Callable[[pd.DataFrame], pd.Series] | None


class CorrelatedSample:
    """One prepared correlated sample for the join R ⋈ (r_col = s_col) S."""

    def __init__(
        self,
        r_df: DataFrame,
        r_col: str,
        s_df: DataFrame,
        s_col: str,
        *,
        n_sample: int = 1000,
        seed: int = 0,
    ):
        self.r_col, self.s_col = r_col, s_col
        n_r = r_df.count()
        frac = min(1.0, (3.0 * n_sample) / max(n_r, 1))
        sample = r_df.sample(fraction=frac, seed=seed).toPandas().head(n_sample).copy()
        sample["__sid"] = np.arange(len(sample), dtype=np.int64)
        self.sample_pdf = sample
        self.n_sample = len(sample)
        # An inner join never matches a NULL key, so those rows stay unmatched.
        keys = sample[["__sid", r_col]].rename(columns={r_col: "__key"}).dropna()
        schema = StructType([StructField("__sid", LongType()), StructField("__key", r_df.schema[r_col].dataType)])
        keys_df = r_df.sparkSession.createDataFrame(keys, schema=schema)
        matches = F.broadcast(keys_df).join(s_df, on=F.col("__key") == F.col(s_col), how="inner")
        self.matches_pdf = matches.toPandas()

    def estimate(self, r_pred: Pred = None, s_pred: Pred = None) -> EdgeStats:
        """(m, fo) of the join restricted by optional predicates."""
        smp = self.sample_pdf
        if r_pred is not None:
            smp = smp[r_pred(smp)]
        if len(smp) == 0:
            return EdgeStats(0.0, 0.0)
        mt = self.matches_pdf[self.matches_pdf["__sid"].isin(set(smp["__sid"]))]
        if s_pred is not None and len(mt):
            mt = mt[s_pred(mt)]
        counts = mt.groupby("__sid").size()
        m = len(counts) / len(smp)
        fo = float(counts.mean()) if len(counts) else 0.0
        return EdgeStats(min(1.0, m), fo)
