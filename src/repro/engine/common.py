"""Shared engine plumbing: bitvector gating, checkpoints, counted frames.

The engine's probe counters implement the same abstract semantics as
``repro.core.simulator`` (one hash probe per alive input tuple per
operator; one BV probe per row per bitvector check; one semi-join probe
per row per phase-1 existence check), so on identical inputs and exact
bitvectors the two produce identical counts — a property the tests rely
on.

Operators do not count: each appends ``(counter, node, frame)`` to a
:data:`Counted` list for every frame whose size feeds a counter, where
``counter`` names a :class:`~repro.core.costmodel.CostBreakdown` field and
``node`` is its key (``None`` for the scalar fields). The runner counts
the frames after the run.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from pyspark import inheritable_thread_target
from pyspark.sql import DataFrame

from repro.bloom import build_bitvector
from repro.core.jointree import JoinTree

Counted = list[tuple[str, str | None, DataFrame]]


def ckpt(df: DataFrame) -> DataFrame:
    """Materialize a DataFrame and truncate its lineage.

    ``localCheckpoint(eager=True)`` plays the role of the paper engine's
    materialized intermediate vectors: iterative COM/SJ state is pinned so
    downstream semi-joins don't recompute (or replan) the whole history.
    """
    return df.localCheckpoint(eager=True)


class Gater:
    """Bitvector bank for BVP: one filter per non-root node, built from
    the unfiltered base child relation (one-step lookahead, §3.5).

    The builds are independent Spark jobs, so they run concurrently, one
    thread per filter. Each thread takes the caller's local properties
    (``inheritable_thread_target``), so its jobs stay in the caller's job
    group."""

    def __init__(
        self,
        tree: JoinTree,
        data: dict[str, DataFrame],
        mode: str = "exact",
        **bv_kw,
    ):
        self.tree = tree
        nonroot = tree.nonroot
        spark = data[tree.root].sparkSession

        def build(c: str):
            return build_bitvector(data[c], tree.join_cols[c][1], mode, **bv_kw)

        # One wrap per task: each copies the caller's local properties, so
        # no two threads share the mutable copy Spark writes its SQL
        # execution ids into.
        with ThreadPoolExecutor(max_workers=max(1, len(nonroot))) as pool:
            futures = {c: pool.submit(inheritable_thread_target(spark)(build), c) for c in nonroot}
            self.bvs = {c: f.result() for c, f in futures.items()}

    def gate_children(self, df: DataFrame, a: str, order_pos: dict[str, int], counted: Counted) -> DataFrame:
        """Apply the bitvectors of ``a``'s children to ``df`` in join-order
        sequence; each check's input is one BV probe per row."""
        for c in sorted(self.tree.children(a), key=lambda c: order_pos[c]):
            counted.append(("bv_probes", c, df))
            df = self.bvs[c].filter(df, self.tree.join_cols[c][0])
        return df
