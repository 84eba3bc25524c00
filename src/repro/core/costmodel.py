"""Probe-count cost model for left-deep plans over many-to-many joins (§3).

The six execution strategies are built from two parts, as in the engine:
a representation and a reducer.

- Representation: STD (§2.1, per-step probes :func:`std_probes_fn`) or COM
  (Eq. 1, §3.3, per-step probes :func:`com_probes_fn`). ``std_costs`` and
  ``com_costs`` run one shared cost loop over the join order with the
  representation's probe function; with ``bvp=True`` the loop adds
  bitvector early pruning (BVP+STD / BVP+COM, §3.5).
- Reducer for SJ+STD / SJ+COM (§3.6): ``sj_costs`` is the phase-1
  semi-join probes plus ``std_costs``/``com_costs`` over the reduced tree,
  whose edges have m' = 1 and the adjusted fo' (Thm 3.4).

:func:`plan_costs` is the entry point; :func:`default_order` is the order a
strategy runs in when none is given. The optimizer's Algorithm 1 adds up
the same per-step probe functions.

Probe semantics
---------------

A *hash probe* is one lookup of a key into a join operator's hash table; a
*bitvector probe* is one membership check against a pushed-down bitvector
(false-positive rate ``eps``); a *semi-join probe* is one phase-1 existence
check. Bitvector and semi-join probes are cheaper (weight ½ by the paper's
micro-benchmarks); generating one intermediate/output tuple costs 1/14 of a
hash probe (§5.4). :class:`Weights` captures these.

On Spark two costs that the paper's model has no term for decide much
of the wall time: a fixed cost per Spark job (:func:`spark_jobs`) and the
rows each broadcast's hash-table build reads (``CostBreakdown.build_rows``,
filled by every cost function). ``plan_costs`` fills both counts; the
paper's weights price them at 0, and :data:`SPARK_WEIGHTS`, fitted on the
engine (T9), do not.

BVP model (one-step lookahead, matching §3.5's formulas): every non-root
node ``c`` owns a bitvector built from the *unfiltered base* relation
``R_c``. When a node ``a`` materializes (the driver at pipeline start, any
other node right after its join), the stream/spine is immediately checked
against the bitvectors of all of ``a``'s children, in join-order sequence.
A check passes with probability ``m_c + eps``; true matches always pass.
At the hash join with ``c`` the pending gate ``(m_c + eps)`` is *consumed*
and replaced by the true factors ``m_c · fo_c`` (COM: by branch survival).
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from typing import Any

from .jointree import EdgeStats, JoinTree

STRATEGIES = ("STD", "COM", "BVP+STD", "BVP+COM", "SJ+STD", "SJ+COM")


@dataclass(frozen=True)
class Weights:
    """Relative cost of the probe/generation primitives, in hash probes.

    The defaults are the paper's micro-benchmark constants (§5.4), measured
    on its C++ engine, whose model charges neither hash-table builds nor
    Spark jobs. :data:`SPARK_WEIGHTS` are fitted on the Spark engine.
    """

    hash_probe: float = 1.0
    bv_probe: float = 0.5
    sj_probe: float = 0.5
    tuple_gen: float = 1.0 / 14.0
    build_row: float = 0.0
    spark_job: float = 0.0


# The weights of the Spark engine (``repro.engine``): T9's fit
# (``experiments/t9_spark_weights.py``) of the rows in BENCH_engine.json,
# on ``local[2]``, 4 vCPUs: a hash probe is 0.71 µs there, a Spark job
# 13.7 ms. A fresh T9 run writes results/t9.json and changes neither;
# adopting it means copying that file over BENCH_engine.json and its
# weights here, together. The planner ranks with these.
SPARK_WEIGHTS = Weights(
    hash_probe=1.0,
    bv_probe=0.12032766402498893,
    sj_probe=3.8053219216726335,
    tuple_gen=0.0,
    build_row=2.3863585451843905,
    spark_job=19195.488841711966,
)


@dataclass
class CostBreakdown:
    """Expected operation counts of one plan; ``total`` applies Weights.

    ``build_rows`` are the rows that the engine's hash-table builds read:
    every joined relation (after SJ, reduced), once more per bitvector
    (BVP) or phase-1 key broadcast (SJ), and COM's spines. Every cost
    function fills the whole count."""

    hash_probes: dict[str, float] = field(default_factory=dict)
    bv_probes: dict[str, float] = field(default_factory=dict)
    sj_probes: dict[str, float] = field(default_factory=dict)
    tuples_generated: float = 0.0
    expansion_tuples: float = 0.0
    build_rows: float = 0.0
    spark_jobs: int = 0

    @property
    def total_hash_probes(self) -> float:
        return sum(self.hash_probes.values())

    @property
    def total_bv_probes(self) -> float:
        return sum(self.bv_probes.values())

    @property
    def total_sj_probes(self) -> float:
        return sum(self.sj_probes.values())

    def total(self, w: Weights = Weights()) -> float:
        # Under the paper's weights the build and job terms are exactly 0,
        # so its totals keep every bit.
        return (
            w.hash_probe * self.total_hash_probes
            + w.bv_probe * self.total_bv_probes
            + w.sj_probe * self.total_sj_probes
            + w.tuple_gen * (self.tuples_generated + self.expansion_tuples)
            + w.build_row * self.build_rows
            + w.spark_job * self.spark_jobs
        )


@dataclass
class ExecResult:
    """Observed outcome of one execution of (strategy, order), by the Spark
    engine or the pandas simulator. ``counts`` holds the observed operation
    counts in the cost model's terms; ``result`` is the flat result frame
    when the caller asked to keep it."""

    strategy: str
    order: list[str]
    counts: CostBreakdown = field(default_factory=CostBreakdown)
    out_rows: int | None = None
    factorized_rows: int | None = None
    wall_time_s: float = 0.0
    result: Any = None


# --------------------------------------------------------------------------
# Per-step hash probes: branch survival m_T and spines for COM (§3.3,
# §3.5), the flat stream for STD (§2.1)
# --------------------------------------------------------------------------

ProbesFn = Callable[[str, frozenset], float]


class BranchSurvival:
    """The branch-survival probabilities m_T of §3.3 for one tree, memoised.

    Node sets are passed as bitmasks (:meth:`mask`): ``done`` holds the
    joined nodes, ``gated`` the nodes whose bitvector gate is pending. A
    factor depends on them only through the bits inside its subtree, so it
    is cached per (node, subtree bits); a DP over 15–20 nodes revisits the
    same branches many times.
    """

    def __init__(self, tree: JoinTree, eps: float = 0.0):
        self.tree, self.eps = tree, eps
        self.bit = {n: 1 << i for i, n in enumerate(tree.nodes)}
        self._sub = {n: self.mask(tree.subtree(n)) for n in tree.nodes}
        self._cache: dict[tuple[str, int, int], float] = {}

    def mask(self, nodes: Iterable[str]) -> int:
        m = 0
        for n in nodes:
            m |= self.bit[n]
        return m

    def factor(self, c: str, done: int, gated: int = 0) -> float:
        """Effective survival factor of the branch rooted at ``c``.

        - ``c`` joined: the recursive branch-survival probability m_T of
          §3.3, where *gated-but-unjoined* descendants contribute their
          bitvector pass probability ``m + eps`` (§3.5 — cf. the paper's
          ``m_3 (m_4 + eps)`` term inside the survival bracket);
        - ``c`` only gated: ``m_c + eps``;
        - ``c`` untouched: 1 (no information yet).
        """
        sub = self._sub[c]
        key = (c, done & sub, gated & sub)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        st = self.tree.stats[c]
        if done & self.bit[c]:
            prod = 1.0
            for d in self.tree.children(c):
                prod *= self.factor(d, done, gated)
            val = st.m if prod >= 1.0 else st.m * (1.0 - (1.0 - prod) ** st.fo)
        elif gated & self.bit[c]:
            val = min(1.0, st.m + self.eps)
        else:
            val = 1.0
        self._cache[key] = val
        return val

    def driver_survival(self, done: int) -> float:
        """P[a driver tuple survives all joined operators] — the product of
        branch survivals at the root (§3.4 heuristic 3)."""
        prod = 1.0
        for c in self.tree.children(self.tree.root):
            prod *= self.factor(c, done)
        return prod


def branch_factor(
    tree: JoinTree,
    c: str,
    processed: Iterable[str],
    gated: Iterable[str] = frozenset(),
    eps: float = 0.0,
) -> float:
    """Effective survival factor of the branch rooted at ``c``; see
    :meth:`BranchSurvival.factor`."""
    bs = BranchSurvival(tree, eps)
    return bs.factor(c, bs.mask(processed), bs.mask(gated))


def survival_probability(tree: JoinTree, processed: Iterable[str]) -> float:
    """P[a driver tuple survives all processed join operators] (§3.4
    heuristic 3)."""
    bs = BranchSurvival(tree)
    return bs.driver_survival(bs.mask(processed))


def com_probes_fn(tree: JoinTree, n_driver: float, *, bvp: bool = False, eps: float = 0.0) -> ProbesFn:
    """Expected hash probes into operator ``⋈ R_l`` under COM (Eq. 1), as a
    function of ``l`` and the set of operators joined before it. ``l``'s
    parent must be joined already (or be the driver).

    The probes are the *alive* spine rows at ``l``'s parent p. The spine of
    p is the flat expansion of the path driver→p only; a spine row is alive
    if, for every path ancestor, all of its processed side branches found a
    match. Under BVP every unjoined branch that the recursion reaches has a
    materialized parent, so its bitvector gate is pending (factor ``m +
    eps``), and the stream has additionally passed BV(l).
    """
    bs = BranchSurvival(tree, eps)
    gated = bs.mask(tree.nodes) if bvp else 0
    # Per spine end p, the path driver→p as (m·fo of the node, its side
    # branches); the driver's factor is 1.
    spine: dict[str, list[tuple[float, list[str]]]] = {}
    for p in tree.nodes:
        path = tree.path_from_root(p)
        spine[p] = [
            (1.0 if b == tree.root else tree.stats[b].m * tree.stats[b].fo,
             [c for c in tree.children(b) if c not in path])
            for b in path
        ]

    def fn(l: str, processed: Iterable[str]) -> float:
        done = bs.mask(processed)
        val = n_driver
        for mfo, side in spine[tree.parent[l]]:
            val *= mfo
            for c in side:
                if c != l:
                    val *= bs.factor(c, done, gated)
        if bvp:
            val *= min(1.0, tree.stats[l].m + eps)
        return val

    return fn


def com_hash_probes_into(
    tree: JoinTree,
    l: str,
    processed: Iterable[str],
    n_driver: float,
    *,
    bvp: bool = False,
    eps: float = 0.0,
) -> float:
    """One step of :func:`com_probes_fn`: expected hash probes into
    ``⋈ R_l`` under COM (Eq. 1), given the previously joined operators."""
    return com_probes_fn(tree, n_driver, bvp=bvp, eps=eps)(l, processed)


def std_probes_fn(tree: JoinTree, n_driver: float, *, bvp: bool = False, eps: float = 0.0) -> ProbesFn:
    """Expected hash probes into operator ``⋈ R_l`` under STD (§2.1), as a
    function of ``l`` and the set S of operators joined before it:
    ``N · Π_{j∈S} s_j``, times under BVP ``min(1, m_c + eps)`` for every
    pending gate, i.e. every unjoined child c of a materialized node (l's
    own gate included).

    The factors are multiplied in tree-node order, never in the iteration
    order of S, so the value is the same in every process.
    """
    steps = [(c, tree.parent[c], tree.stats[c].s, min(1.0, tree.stats[c].m + eps)) for c in tree.nonroot]

    def fn(l: str, processed: set[str] | frozenset[str]) -> float:
        val = n_driver
        for c, p, s, gate in steps:
            if c in processed:
                val *= s
            elif bvp and (p == tree.root or p in processed):
                val *= gate
        return val

    return fn


# --------------------------------------------------------------------------
# Full-plan estimators
# --------------------------------------------------------------------------


def _bv_probes_at(
    tree: JoinTree,
    a: str,
    stream: float,
    order_pos: dict[str, int],
    out: dict[str, float],
    eps: float,
) -> None:
    """Sequential bitvector checks of ``a``'s children against ``stream``
    rows, in join-order sequence; accumulates per-BV probe counts."""
    kids = sorted(tree.children(a), key=lambda c: order_pos[c])
    for c in kids:
        out[c] = out.get(c, 0.0) + stream
        stream *= min(1.0, tree.stats[c].m + eps)


def expected_output(tree: JoinTree, n_driver: float | None = None) -> float:
    """E[|OUT|] = N · Π_e m_e·fo_e under independence."""
    n = tree.size.get(tree.root, 0.0) if n_driver is None else n_driver
    for c in tree.nonroot:
        n *= tree.stats[c].s
    return n


def _step_costs(
    tree: JoinTree,
    order: list[str],
    n_driver: float,
    probes: ProbesFn,
    *,
    bvp: bool,
    eps: float,
) -> tuple[CostBreakdown, dict[str, float]]:
    """The cost loop that STD and COM share; ``probes`` is the per-step
    hash-probe function of the representation. Also returns each node's
    fresh tuples (the driver's: ``n_driver``)."""
    if not tree.is_valid_order(order):
        raise ValueError(f"invalid left-deep order {order} for tree rooted at {tree.root}")
    relation_rows = sum(_relation_sizes(tree, n_driver)[c] for c in tree.nonroot)
    # Every join broadcasts R_l; with BVP each R_c is read again for its bitvector.
    cb = CostBreakdown(build_rows=2.0 * relation_rows if bvp else relation_rows)
    fresh_at = {tree.root: n_driver}
    order_pos = {c: i for i, c in enumerate(order)}
    processed: set[str] = set()
    if bvp:
        # Driver materializes first: gate all its children on the raw scan.
        _bv_probes_at(tree, tree.root, n_driver, order_pos, cb.bv_probes, eps)
    for l in order:
        st = tree.stats[l]
        hp = probes(l, processed)
        cb.hash_probes[l] = hp
        # Fresh tuples produced by this join (STD: the stream after it;
        # COM: the new spine rows). An m = 0 edge produces none, and its
        # gate m + eps may be 0.
        pre_gate = hp / min(1.0, st.m + eps) if bvp and st.m > 0 else hp
        fresh = pre_gate * st.m * st.fo
        cb.tuples_generated += fresh
        fresh_at[l] = fresh
        processed.add(l)
        if bvp and tree.children(l):
            # l materialized: gate its children on the fresh tuples.
            _bv_probes_at(tree, l, fresh, order_pos, cb.bv_probes, eps)
    return cb, fresh_at


def _relation_sizes(tree: JoinTree, n_driver: float) -> dict[str, float]:
    """Each relation's rows: ``tree.size``, else its expected size (the
    parent's times m·fo); the driver's is ``n_driver``."""
    size = {tree.root: n_driver}
    for c in tree.bfs_order()[1:]:
        size[c] = float(tree.size.get(c, size[tree.parent[c]] * tree.stats[c].s))
    return size


def _spine_build_rows(tree: JoinTree, order: list[str], spine: dict[str, float], flat_output: bool) -> float:
    """Spine rows that COM's broadcasts build on (``repro.engine.com``):
    per joined l, the live chain of its parent and the child spine of each
    upward death; then the expansion's spines, or with factorized output
    the live frame of each internal node. A spine's rows are counted as
    built, before gates and deaths."""
    rows = 0.0
    for l in order:
        rows += sum(spine[a] for a in tree.path_to_root(tree.parent[l])[1:])
        rows += sum(spine[x] for x in tree.path_to_root(l)[:-1])
    if flat_output:
        return rows + sum(spine[c] for c in tree.nonroot)
    return rows + sum(spine[a] for a in tree.nodes if tree.children(a))


def com_costs(
    tree: JoinTree,
    order: list[str],
    n_driver: float,
    *,
    bvp: bool = False,
    eps: float = 0.0,
    flat_output: bool = True,
) -> CostBreakdown:
    """Cost of a COM (factorized) plan, optionally with bitvectors."""
    probes = com_probes_fn(tree, n_driver, bvp=bvp, eps=eps)
    cb, spine = _step_costs(tree, order, n_driver, probes, bvp=bvp, eps=eps)
    cb.build_rows += _spine_build_rows(tree, order, spine, flat_output)
    if flat_output:
        cb.expansion_tuples = expected_output(tree, n_driver)
    return cb


def std_costs(
    tree: JoinTree,
    order: list[str],
    n_driver: float,
    *,
    bvp: bool = False,
    eps: float = 0.0,
) -> CostBreakdown:
    """Cost of a standard (flat-intermediate) plan, optionally with BVP."""
    probes = std_probes_fn(tree, n_driver, bvp=bvp, eps=eps)
    return _step_costs(tree, order, n_driver, probes, bvp=bvp, eps=eps)[0]


# --------------------------------------------------------------------------
# Semi-join full reduction (§3.6)
# --------------------------------------------------------------------------


def sj_adjusted(tree: JoinTree) -> tuple[dict[str, float], dict[str, EdgeStats]]:
    """Bottom-up reduction ratios and adjusted per-edge stats (Thm 3.4).

    Returns ``(ratio, adj)`` where ``ratio[n]`` is the fraction of R_n
    surviving reduction by its own subtree's children, and ``adj[c]`` are
    the (m', fo') for probing from parent into the reduced child c.
    """
    ratio: dict[str, float] = {}
    adj: dict[str, EdgeStats] = {}
    for n in tree.bottom_up():
        r = 1.0
        for c in tree.children(n):
            st = tree.stats[c]
            rc = ratio[c]
            if rc <= 0.0 or st.m <= 0.0:
                m_adj, fo_adj = 0.0, 0.0
            else:
                surv = 1.0 - (1.0 - rc) ** st.fo
                m_adj = st.m * surv
                fo_adj = st.fo * rc / surv
            adj[c] = EdgeStats(min(1.0, m_adj), fo_adj)
            r *= adj[c].m
        ratio[n] = r
    return ratio, adj


def sj_phase1_probes(
    tree: JoinTree,
    semi_orders: dict[str, list[str]] | None = None,
) -> dict[str, float]:
    """Expected phase-1 semi-join probes, keyed by the probed child.

    Each internal node p checks its (raw-size) tuples against its reduced
    children in ``semi_orders[p]`` (default: increasing adjusted m', the
    §3.6 optimal order), short-circuiting on the first miss.
    """
    _, adj = sj_adjusted(tree)
    probes: dict[str, float] = {}
    for p in tree.bottom_up():
        kids = tree.children(p)
        if not kids:
            continue
        if semi_orders and p in semi_orders:
            kids = semi_orders[p]
        else:
            kids = sorted(kids, key=lambda c: (adj[c].m, c))
        np_ = tree.size.get(p)
        if np_ is None:
            raise ValueError(f"relation size for {p!r} required for SJ phase-1 cost")
        alive = float(np_)
        for c in kids:
            probes[c] = probes.get(c, 0.0) + alive
            alive *= adj[c].m
    return probes


def sj_costs(
    tree: JoinTree,
    order: list[str] | None,
    n_driver: float,
    *,
    com: bool,
    flat_output: bool = True,
) -> CostBreakdown:
    """Cost of the two-phase full-reduction plan (SJ+STD or SJ+COM).

    Phase 1's semi-join probes, plus phase 2 costed as a plain STD or COM
    plan over the reduced tree: every match probability is 1, the fanouts
    are the adjusted fo', and the driver is reduced to ``N · ratio[root]``
    (Thm 3.4). For SJ+COM the probe total is order-independent (Thm 3.5).
    ``order=None`` uses the §3.6 optimal phase-2 order.
    """
    ratio, adj = sj_adjusted(tree)
    size = _relation_sizes(tree, n_driver)
    reduced = replace(
        tree,
        stats={c: EdgeStats(1.0, adj[c].fo) for c in tree.nonroot},
        size={x: size[x] * ratio[x] for x in tree.nodes},
    )
    n_red = n_driver * ratio[tree.root]
    if order is None:
        order = default_order(tree, "SJ+COM" if com else "SJ+STD")
    if com:
        cb = com_costs(reduced, order, n_red, flat_output=flat_output)
        if flat_output:
            cb.expansion_tuples = expected_output(tree, n_driver)
    else:
        cb = std_costs(reduced, order, n_red)
    cb.sj_probes = sj_phase1_probes(tree)
    # Phase 1 broadcasts each reduced child's keys once more.
    cb.build_rows += sum(reduced.size[c] for c in tree.nonroot)
    return cb


def sj_optimal_phase2_order(tree: JoinTree, *, com: bool) -> list[str]:
    """§3.6 phase-2 orders: STD → greedy increasing adjusted fanout
    (rank ordering, all selectivities 1); COM → increasing product of
    adjusted fanouts from the root. Both pick the next node among the
    eligible ones: an edge reduced to fo' = 0 (m = 0) zeroes the product
    of its whole subtree, which would otherwise sort a child first."""
    _, adj = sj_adjusted(tree)
    pathprod: dict[str, float] = {tree.root: 1.0}
    for n in tree.bfs_order()[1:]:
        pathprod[n] = pathprod[tree.parent[n]] * adj[n].fo
    order: list[str] = []
    processed: set[str] = set()
    while len(order) < len(tree.nonroot):
        nxt = min(
            tree.eligible(processed),
            key=lambda c: (pathprod[c], tree.depth(c), c) if com else (adj[c].fo, c),
        )
        order.append(nxt)
        processed.add(nxt)
    return order


# --------------------------------------------------------------------------
# Spark's fixed cost per job
# --------------------------------------------------------------------------


def spark_jobs(tree: JoinTree, strategy: str, flat_output: bool = True) -> int:
    """Spark jobs that ``repro.engine.run_strategy`` schedules for one run of
    ``strategy`` with exact bitvectors, read off the engine's plans.

    Every engine join broadcasts its build side, and each broadcast is one
    job; so is each eager checkpoint, and the terminal count is two (AQE
    runs the aggregate's shuffle stage, then its result). With n₁ non-root
    nodes, I internal nodes and d(x) the depth of x:

    - STD: one broadcast per join, then the count: n₁ + 2;
    - COM: the root's pin, and per joined node l the R_l broadcast, l's
      pin, the d(parent(l)) broadcasts of the parent's ``live`` chain, and
      a broadcast plus a checkpoint per ancestor for upward deaths:
      1 + Σ_l (1 + 3·d(l)). Then with flat output the n₁ expansion
      broadcasts and the count; with factorized output the one count over
      the ``live`` frames, which share one broadcast per internal node:
      I + 2;
    - BVP adds 3·n₁: each bitvector's distinct and checkpoint, and the
      broadcast of its gate;
    - SJ adds phase 1's n₁ + I: a broadcast per semi-join and a checkpoint
      per reduced internal node.

    The count depends on depths only, never on the join order. It is exact
    while every frame has rows; where one is empty, AQE drops the
    broadcasts it no longer needs and the engine schedules fewer jobs.
    """
    n1 = len(tree.nonroot)
    internal = sum(1 for n in tree.nodes if tree.children(n))
    if strategy.endswith("COM"):
        jobs = 1 + sum(1 + 3 * tree.depth(l) for l in tree.nonroot) + (n1 if flat_output else internal) + 2
    else:
        jobs = n1 + 2
    if strategy.startswith("BVP"):
        jobs += 3 * n1
    elif strategy.startswith("SJ"):
        jobs += n1 + internal
    return jobs


# --------------------------------------------------------------------------
# Unified entry point
# --------------------------------------------------------------------------


def default_order(tree: JoinTree, strategy: str) -> list[str]:
    """The order ``strategy`` runs in when none is given: BFS, or for SJ
    the §3.6 optimal phase-2 order."""
    if strategy.startswith("SJ"):
        return sj_optimal_phase2_order(tree, com=strategy.endswith("COM"))
    return tree.default_order()


def plan_costs(
    tree: JoinTree,
    strategy: str,
    order: list[str] | None = None,
    n_driver: float | None = None,
    *,
    eps: float = 0.0,
    flat_output: bool = True,
) -> CostBreakdown:
    """Estimate the cost breakdown of (strategy, order).

    ``strategy`` is one of :data:`STRATEGIES`; ``n_driver`` defaults to
    ``tree.size[root]``; ``order=None`` uses :func:`default_order`.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    n = float(tree.size[tree.root]) if n_driver is None else float(n_driver)
    if order is None:
        order = default_order(tree, strategy)
    bvp = strategy.startswith("BVP")
    if strategy.startswith("SJ"):
        cb = sj_costs(tree, order, n, com=strategy.endswith("COM"), flat_output=flat_output)
    elif strategy.endswith("COM"):
        cb = com_costs(tree, order, n, bvp=bvp, eps=eps, flat_output=flat_output)
    else:
        cb = std_costs(tree, order, n, bvp=bvp, eps=eps)
    cb.spark_jobs = spark_jobs(tree, strategy, flat_output)
    return cb
