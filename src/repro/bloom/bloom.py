"""Bitvector filters over Spark columns (§4.4 substrate).

Two implementations with one interface (``filter(df, col)``):

- :class:`ExactBitvector` — the exact distinct key set of the build
  column, applied as a broadcast ``left_semi`` join (false-positive rate 0;
  the engine's default so probe counts are deterministic and comparable
  with the ε=0 cost model);
- :class:`SparkBloomFilter` — a real Bloom filter with k seeded
  ``xxhash64`` functions over an ``n_bits`` bit array, broadcast to the
  executors and probed through a pandas UDF, giving genuine false
  positives at rate ≈ (1 - e^{-k·n/m})^k.

Bitvectors are built from the *unfiltered base* child relation — the
one-step-lookahead semantics of §3.5 (cascaded construction would turn
BVP into a bloomed full reduction, which the paper distinguishes from).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf


class ExactBitvector:
    """Distinct build-side keys, applied with a left-semi join (ε = 0)."""

    def __init__(self, build_df: DataFrame, build_col: str):
        self.keys = build_df.select(F.col(build_col).alias("__bv_key")).distinct()
        self.keys = self.keys.localCheckpoint(eager=True)
        self.fpr = 0.0

    def filter(self, df: DataFrame, col: str) -> DataFrame:
        return df.join(F.broadcast(self.keys), on=F.col(col) == F.col("__bv_key"), how="left_semi")


class SparkBloomFilter:
    """Bloom filter: k × (xxhash64(col, seed_i) mod n_bits) set bits."""

    def __init__(self, build_df: DataFrame, build_col: str, *, n_bits: int = 1 << 16, k: int = 2):
        if n_bits <= 0 or k <= 0:
            raise ValueError("n_bits and k must be positive")
        self.n_bits = n_bits
        self.k = k
        self.seeds = list(range(41, 41 + k))
        bits = np.zeros(n_bits, dtype=bool)
        pos_df = build_df.select(
            *[self._pos(F.col(build_col), s).alias(f"p{i}") for i, s in enumerate(self.seeds)]
        ).distinct()
        for row in pos_df.collect():
            for i in range(k):
                bits[row[f"p{i}"]] = True
        self._n_set = int(bits.sum())
        sc = build_df.sparkSession.sparkContext
        self._bc = sc.broadcast(bits)

    def _pos(self, col: Column, seed: int) -> Column:
        return F.pmod(F.xxhash64(col, F.lit(seed)), F.lit(self.n_bits)).cast("int")

    @property
    def fpr(self) -> float:
        """Observed false-positive rate estimate: (set fraction)^k."""
        return (self._n_set / self.n_bits) ** self.k

    def filter(self, df: DataFrame, col: str) -> DataFrame:
        bc, k = self._bc, self.k

        @pandas_udf("boolean")
        def member(*cols: pd.Series) -> pd.Series:
            bits = bc.value
            ok = np.ones(len(cols[0]), dtype=bool)
            for c in cols:
                ok &= bits[c.to_numpy()]
            return pd.Series(ok)

        pos_cols = [self._pos(F.col(col), s) for s in self.seeds]
        return df.filter(member(*pos_cols))


def build_bitvector(
    build_df: DataFrame,
    build_col: str,
    mode: str = "exact",
    **kw,
) -> ExactBitvector | SparkBloomFilter:
    """Factory: ``mode`` is ``"exact"`` or ``"bloom"``."""
    if mode == "exact":
        return ExactBitvector(build_df, build_col)
    if mode == "bloom":
        return SparkBloomFilter(build_df, build_col, **kw)
    raise ValueError(f"unknown bitvector mode {mode!r}")
