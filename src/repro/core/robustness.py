"""Robustness analysis of plan choice under estimation error (§3.7).

Closed-form θ (fragility lower bound) and Θ (robustness upper bound) for
star queries under the selectivity-based cost model and under the paper's
match-probability model, plus the Fig 6 perturbation simulation: how much
worse is the plan chosen with *perturbed* statistics than the true best
plan, under each cost model.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .jointree import EdgeStats, JoinTree, star
from .optimizer import com_probes_fn, exhaustive_optimal, order_cost, std_probes_fn


def theta_selectivity(s_min: float, n: int) -> float:
    """θ = (1 - s_min^{n-1}) / (1 - s_min) for a star with n dimensions
    under the selectivity cost model ([54], quoted in §3.7)."""
    if s_min == 1.0:
        return float(n - 1)
    return (1.0 - s_min ** (n - 1)) / (1.0 - s_min)


def big_theta_selectivity(s_min: float, s_max: float, n: int) -> float:
    """Θ = 1/(s_max - s_min) · Σ_{i=1}^{n-2} (s_max^i - s_min^i)."""
    if s_max == s_min:
        # Limit: Σ i·s^{i-1}.
        return sum(i * s_min ** (i - 1) for i in range(1, n - 1))
    acc = sum(s_max**i - s_min**i for i in range(1, n - 1))
    return acc / (s_max - s_min)


def theta_match(m_min: float, n: int) -> float:
    """The paper's improved bound: θ with s replaced by the (≤1) match
    probability — smaller spread, hence more robust plan space."""
    return theta_selectivity(m_min, n)


def big_theta_match(m_min: float, m_max: float, n: int) -> float:
    return big_theta_selectivity(m_min, m_max, n)


# --------------------------------------------------------------------------
# Fig 6 perturbation simulation
# --------------------------------------------------------------------------

M_RANGES = [(0.05, 0.2), (0.05, 0.5), (0.1, 0.5), (0.5, 0.9)]
FO_RANGES = [(1.0, 2.0), (1.0, 10.0), (10.0, 100.0)]


@dataclass
class PerturbationResult:
    m_range: tuple[float, float]
    fo_range: tuple[float, float]
    error_range: tuple[float, float]
    pct_diff_selectivity: list[float]
    pct_diff_match: list[float]

    def mean(self, which: str) -> float:
        xs = self.pct_diff_selectivity if which == "selectivity" else self.pct_diff_match
        return sum(xs) / len(xs)

    def p90(self, which: str) -> float:
        xs = sorted(self.pct_diff_selectivity if which == "selectivity" else self.pct_diff_match)
        return xs[min(len(xs) - 1, int(0.9 * len(xs)))]


def _perturb(x: float, rng: random.Random, lo: float, hi: float) -> float:
    f = rng.uniform(lo, hi)
    return x * (1 + f) if rng.random() < 0.5 else x / (1 + f)


def perturbation_trial(
    rng: random.Random,
    n_dims: int,
    m_range: tuple[float, float],
    fo_range: tuple[float, float],
    error_range: tuple[float, float],
) -> tuple[float, float]:
    """One Fig 6 trial. Returns (%diff under selectivity model, %diff
    under m/fo model): the regret, evaluated with *true* statistics, of
    the plan chosen from *perturbed* statistics."""
    names = [f"R{i}" for i in range(2, n_dims + 2)]
    true_stats = {
        c: EdgeStats(rng.uniform(*m_range), rng.uniform(*fo_range)) for c in names
    }
    est_stats = {
        c: EdgeStats(
            min(1.0, _perturb(st.m, rng, *error_range)),
            max(1.0, _perturb(st.fo, rng, *error_range)),
        )
        for c, st in true_stats.items()
    }
    t_true = star(n_dims, true_stats)
    n = 1.0

    # Star queries obey ASI under both models (§3.4), so the optimal
    # orders are closed-form sorts: by selectivity s = m·fo for the STD
    # model, by match probability m for the COM model (probes into the
    # k-th operator are N·Π_{i<k} m_i — fanouts drop out entirely).
    names = sorted(true_stats)
    regrets = []
    for key_true, key_est, fn_maker in (
        (lambda c: true_stats[c].s, lambda c: est_stats[c].s, std_probes_fn),
        (lambda c: true_stats[c].m, lambda c: est_stats[c].m, com_probes_fn),
    ):
        best_order = sorted(names, key=key_true)
        chosen = sorted(names, key=key_est)
        exec_fn = fn_maker(t_true, n)
        best = order_cost(t_true, best_order, exec_fn)
        got = order_cost(t_true, chosen, exec_fn)
        regrets.append(100.0 * (got - best) / best if best > 0 else 0.0)
    return regrets[0], regrets[1]


def perturbation_experiment(
    *,
    n_dims: int = 10,
    n_samples: int = 100,
    error_range: tuple[float, float] = (0.15, 0.20),
    m_ranges=M_RANGES,
    fo_ranges=FO_RANGES,
    seed: int = 0,
) -> list[PerturbationResult]:
    """The full Fig 6 grid: every (m range × fo range) cell."""
    out = []
    for mr in m_ranges:
        for fr in fo_ranges:
            rng = random.Random((seed, mr, fr).__hash__() & 0x7FFFFFFF)
            sel, mat = [], []
            for _ in range(n_samples):
                a, b = perturbation_trial(rng, n_dims, mr, fr, error_range)
                sel.append(a)
                mat.append(b)
            out.append(PerturbationResult(mr, fr, error_range, sel, mat))
    return out


def plan_space_spread(tree: JoinTree, probes_fn) -> tuple[float, float]:
    """(min, max) cost over all valid orders — the empirical robustness
    spread used to sanity-check θ/Θ on small queries."""
    costs = [order_cost(tree, o, probes_fn) for o in tree.valid_orders()]
    return min(costs), max(costs)
