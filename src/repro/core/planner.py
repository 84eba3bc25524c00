"""Strategy + join-order planner — the paper's optimization layer end-to-end.

Given a bound :class:`JoinTree` (stats + sizes), the planner costs every
execution strategy with its best join order under the §3 cost model and
returns them ranked. This is the decision the paper motivates in §5.2/§5.4
("our cost model … can be used for making optimization decisions among the
competing approaches"), and the Python-side equivalent of the Catalyst
rule suggested by the reproduction brief (see DESIGN.md for why a JVM
``Rule[LogicalPlan]`` is out of scope offline): the chosen plan is *executed*
entirely through Catalyst by the Spark engine in ``repro.engine``.

Two weight sets price the model's counts. The planner ranks by
:data:`~repro.core.costmodel.SPARK_WEIGHTS`, fitted on that Spark engine
(T9), which charge each plan's Spark jobs and hash-table builds as well
as its probes; the join orders do not depend on the weights. The paper's
:class:`Weights` (§5.4) serve the analytic tables (T2–T8); pass
``weights=Weights()`` for them.
"""
from __future__ import annotations

from dataclasses import dataclass

from .costmodel import SPARK_WEIGHTS, STRATEGIES, CostBreakdown, Weights
from .jointree import JoinTree
from .optimizer import optimize


@dataclass
class PlanChoice:
    """One costed (strategy, order) candidate."""

    strategy: str
    order: list[str]
    cost: float
    breakdown: CostBreakdown


def rank_strategies(
    tree: JoinTree,
    n_driver: float | None = None,
    *,
    strategies: tuple[str, ...] = STRATEGIES,
    method: str = "survival",
    eps: float = 0.0,
    flat_output: bool = True,
    weights: Weights = SPARK_WEIGHTS,
) -> list[PlanChoice]:
    """Cost every strategy (best order each) and rank cheapest-first.

    ``method`` picks the join-order algorithm for the non-SJ strategies
    (``"optimal"`` = Algorithm 1; default is the survival heuristic, which
    Fig 10 shows to be near-optimal at polynomial cost).
    """
    out = []
    for s in strategies:
        cost, order, cb = optimize(
            tree, s, n_driver, method=method, eps=eps, flat_output=flat_output, weights=weights
        )
        out.append(PlanChoice(s, order, cost, cb))
    out.sort(key=lambda p: p.cost)
    return out


def choose_plan(tree: JoinTree, n_driver: float | None = None, **kw) -> PlanChoice:
    """The planner's final answer: cheapest (strategy, order)."""
    return rank_strategies(tree, n_driver, **kw)[0]
