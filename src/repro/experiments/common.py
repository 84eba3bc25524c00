"""Shared experiment plumbing: result rows, markdown tables, RNG orders,
and the one loop that runs a query's plans on Spark."""
from __future__ import annotations

import os
import random
import statistics
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.core.costmodel import STRATEGIES
from repro.core.jointree import JoinTree
from repro.core.planner import PlanChoice
from repro.engine import run_strategy
from repro.session import counting_jobs

# A plan whose predicted peak intermediate (most hash probes into one relation)
# exceeds this does not run; its cell reads "TO", as the paper's timed-out plans.
MAX_INTERM = 2.5e7


def md_table(rows: list[dict[str, Any]], cols: list[str] | None = None, floatfmt: str = ".3g") -> str:
    """Render result rows as a GitHub markdown table."""
    if not rows:
        return "(no rows)"
    cols = cols or list(rows[0].keys())

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    out = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(fmt(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out)


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def stable_seed(*parts: Any) -> int:
    """A seed derived from ``parts`` that is the same in every process.

    ``hash()`` of a tuple holding a str is not: str hashes are randomised
    per process (PYTHONHASHSEED).
    """
    return zlib.crc32(repr(parts).encode()) & 0x7FFFFFFF


def random_valid_order(tree: JoinTree, rng: random.Random) -> list[str]:
    """Uniform-ish random valid left-deep order (random eligible pick)."""
    order: list[str] = []
    processed: set[str] = set()
    while len(order) < len(tree.nonroot):
        order.append(rng.choice(sorted(tree.eligible(processed))))
        processed.add(order[-1])
    return order


def percentile(xs: list[float], q: float) -> float:
    ys = sorted(xs)
    if not ys:
        return float("nan")
    return ys[min(len(ys) - 1, int(q * len(ys)))]


@dataclass
class PlanRun(PlanChoice):
    """A costed plan and its Spark run. The run's fields stay None for a
    plan over MAX_INTERM, which does not run."""

    wall_s: float | None = None
    out_rows: int | None = None
    jobs: int | None = None  # Spark jobs of the first run


def run_plans(spark, tree: JoinTree, sdata, plans: list[PlanChoice], *, reps: int = 1,
              flat_output: bool = True) -> list[PlanRun]:
    """Run ``plans``, costed with ``flat_output``, on the Spark relations
    ``sdata`` in STRATEGIES order; the wall is the median of ``reps`` runs
    after a warm-up if ``reps`` > 1, else the one run's. Counters stay off:
    the clock stops before they count, and counting costs a Spark action."""
    runs = []
    for p in sorted(plans, key=lambda p: STRATEGIES.index(p.strategy)):
        run = PlanRun(p.strategy, p.order, p.cost, p.breakdown)
        if max(p.breakdown.hash_probes.values(), default=0.0) <= MAX_INTERM:
            once = partial(run_strategy, spark, tree, sdata, p.strategy, p.order, measure=False, flat_output=flat_output)
            res, jobs = counting_jobs(spark, once)
            walls = [once().wall_time_s for _ in range(reps)] if reps > 1 else [res.wall_time_s]
            run.wall_s, run.out_rows, run.jobs = statistics.median(walls), res.out_rows, len(jobs)
        runs.append(run)
    return runs


def rel_to_com(runs: list[PlanRun], field: str, prefix: str) -> dict[str, Any]:
    """Cells ``prefix + strategy``: each run's ``field`` relative to COM's,
    or "TO" for a plan that did not run."""
    vals = {prefix + r.strategy: getattr(r, field) for r in runs}
    return {k: "TO" if v is None else round(v / vals[prefix + "COM"], 2) for k, v in vals.items()}
