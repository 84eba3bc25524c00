"""Join-order optimization algorithms (§3.4–§3.6).

- :func:`exhaustive_optimal` — Algorithm 1: dynamic programming over
  connected prefixes (every connected subtree containing the driver),
  O(n·2ⁿ) worst case, valid for COM / BVP+COM / STD / BVP+STD because the
  probe count into the next operator depends only on the *set* of already
  joined operators (Thm 3.3 for BVP).
- :func:`greedy_order` — the three §3.4 heuristics: ``"rank"``
  (min selectivity — what rank ordering degenerates to with unit probe
  costs), ``"tuples"`` (min expected tuples after the join), and
  ``"survival"`` (min driver survival probability of the prefix).
- :func:`brute_force_optimal` — all valid permutations; test oracle.
- :func:`com_probes_fn` / :func:`std_probes_fn` — the per-step probe
  costs the DP adds up: the cost model's memoised Eq. 1 and its STD stream
  formula, re-exported from :mod:`.costmodel`, whose cost loop steps
  through the same functions.
- :func:`optimize` / :func:`optimize_all_drivers` — convenience entry
  points returning (cost, order) per strategy, optionally trying every
  relation as the driver via :meth:`JoinTree.rerooted`.
"""
from __future__ import annotations

from .costmodel import (
    BranchSurvival,
    CostBreakdown,
    ProbesFn,
    Weights,
    com_probes_fn,
    default_order,
    expected_output,
    plan_costs,
    std_costs,
    std_probes_fn,
)
from .jointree import JoinTree, StatsProvider

HEURISTICS = ("rank", "tuples", "survival")


def exhaustive_optimal(tree: JoinTree, probes_fn: ProbesFn) -> tuple[float, list[str]]:
    """Algorithm 1: optimal left-deep order for a fixed driver.

    The principle of optimality holds because ``probes_fn(l, S)`` depends
    on the prefix only through the set S, so the best cost of each
    connected prefix extends independently of its internal order.
    """
    n = len(tree.nonroot)
    frontier: dict[frozenset, tuple[float, list[str]]] = {frozenset(): (0.0, [])}
    for _ in range(n):
        nxt: dict[frozenset, tuple[float, list[str]]] = {}
        for S, (cost, order) in frontier.items():
            for l in tree.eligible(set(S)):
                c = cost + probes_fn(l, S)
                T = S | {l}
                if T not in nxt or c < nxt[T][0]:
                    nxt[T] = (c, order + [l])
        frontier = nxt
    (_, (cost, order)), = frontier.items()
    return cost, order


def brute_force_optimal(tree: JoinTree, probes_fn: ProbesFn) -> tuple[float, list[str]]:
    """Enumerate every valid permutation — exponential test oracle."""
    best_cost, best_order = float("inf"), None
    for order in tree.valid_orders():
        cost, S = 0.0, frozenset()
        for l in order:
            cost += probes_fn(l, S)
            S = S | {l}
        if cost < best_cost:
            best_cost, best_order = cost, order
    assert best_order is not None
    return best_cost, best_order


def order_cost(tree: JoinTree, order: list[str], probes_fn: ProbesFn) -> float:
    """Total probe cost of one explicit order under ``probes_fn``."""
    cost, S = 0.0, frozenset()
    for l in order:
        cost += probes_fn(l, S)
        S = S | {l}
    return cost


def greedy_order(
    tree: JoinTree,
    heuristic: str,
    n_driver: float = 1.0,
) -> list[str]:
    """Greedy join order per one of the three §3.4 heuristics.

    All three obey the precedence constraints; ties break on node name so
    results are deterministic.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")
    order: list[str] = []
    processed: set[str] = set()
    probes = com_probes_fn(tree, n_driver)
    survival = BranchSurvival(tree)
    while len(order) < len(tree.nonroot):
        elig = tree.eligible(processed)
        if heuristic == "rank":
            nxt = min(elig, key=lambda l: (tree.stats[l].s, l))
        elif heuristic == "tuples":
            def tuples_after(l: str) -> float:
                st = tree.stats[l]
                return probes(l, processed) * st.m * st.fo
            nxt = min(elig, key=lambda l: (tuples_after(l), l))
        else:  # survival
            done = survival.mask(processed)
            nxt = min(elig, key=lambda l: (survival.driver_survival(done | survival.bit[l]), l))
        order.append(nxt)
        processed.add(nxt)
    return order


# --------------------------------------------------------------------------
# Strategy-level optimization
# --------------------------------------------------------------------------


def optimize(
    tree: JoinTree,
    strategy: str,
    n_driver: float | None = None,
    *,
    method: str = "optimal",
    eps: float = 0.0,
    flat_output: bool = True,
    weights: Weights = Weights(),
) -> tuple[float, list[str], CostBreakdown]:
    """Best (weighted cost, order, breakdown) for one strategy and driver.

    ``method``: ``"optimal"`` (Algorithm 1), one of the greedy
    :data:`HEURISTICS`, or ``"default"`` (BFS order). For SJ strategies
    the §3.6 polynomial optimum is used regardless of ``method``.
    """
    n = float(tree.size[tree.root]) if n_driver is None else float(n_driver)
    if strategy.startswith("SJ") or method == "default":
        order = default_order(tree, strategy)
    elif method in HEURISTICS:
        order = greedy_order(tree, method, n)
    elif method == "optimal":
        bvp = strategy.startswith("BVP")
        if strategy.endswith("COM"):
            _, order = exhaustive_optimal(tree, com_probes_fn(tree, n, bvp=bvp, eps=eps))
        else:
            # STD and BVP+STD are both ordered by the plain STD formula
            # and costed with the full model.
            _, order = exhaustive_optimal(tree, std_probes_fn(tree, n))
    else:
        raise ValueError(f"unknown method {method!r}")
    cb = plan_costs(tree, strategy, order, n, eps=eps, flat_output=flat_output)
    return cb.total(weights), order, cb


def optimize_all_drivers(
    tree: JoinTree,
    strategy: str,
    stats_for: StatsProvider,
    sizes: dict[str, float],
    **kw,
) -> tuple[float, str, list[str]]:
    """Try every relation as the driver (linear blow-up, §3.5) and return
    the best (cost, driver, order). ``stats_for`` supplies per-direction
    edge stats for the re-rooted trees."""
    best = (float("inf"), tree.root, tree.default_order())
    for drv in tree.nodes:
        t = tree.rerooted(drv, stats_for)
        t.size.update(sizes)
        cost, order, _ = optimize(t, strategy, sizes[drv], **kw)
        if cost < best[0]:
            best = (cost, drv, order)
    return best


def worst_case_tree_for_heuristics(f: float) -> JoinTree:
    """Thm 3.2 construction: an m=0 operator hidden under a high-fanout
    operator, making every greedy heuristic a factor ≥ f worse.

    R1 — Rgood(m=1, fo=f) — Rdead(m=0), plus a long chain of near-free
    decoys (m=1-δ, fo=1) hanging off R1. The optimal plan pays N(1+f) on
    Rgood→Rdead, after which the driver survival is 0 and every remaining
    probe count is 0. All three greedy heuristics prefer the decoys
    (smaller selectivity / tuples / survival than the fo=f operator) and
    grind through the whole chain at ~N probes each before touching Rgood.
    """
    from .jointree import EdgeStats

    k = int(1.5 * f * (1.0 + f)) + 2
    delta = 1.0 / (10.0 * k)
    parent = {"Rgood": "R1", "Rdead": "Rgood", "D1": "R1"}
    stats = {
        "Rgood": EdgeStats(1.0, max(f, 1.0)),
        "Rdead": EdgeStats(0.0, 1.0),
        "D1": EdgeStats(1.0 - delta, 1.0),
    }
    for i in range(2, k + 1):
        parent[f"D{i}"] = f"D{i - 1}"
        stats[f"D{i}"] = EdgeStats(1.0 - delta, 1.0)
    return JoinTree("R1", parent, stats)


__all__ = [
    "HEURISTICS",
    "exhaustive_optimal",
    "brute_force_optimal",
    "greedy_order",
    "order_cost",
    "com_probes_fn",
    "std_probes_fn",
    "optimize",
    "optimize_all_drivers",
    "worst_case_tree_for_heuristics",
    "expected_output",
    "std_costs",
]
