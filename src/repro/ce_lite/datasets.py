"""Synthetic stand-ins for the CE benchmark's five datasets (§5.3).

The real CE benchmark (epinions, imdb, watdiv, dblp, yago) cannot be
downloaded offline; what the paper's experiment needs from it is a family
of *many-to-many edge tables with skewed degree distributions and
heterogeneous match probabilities/fanouts*, so that multi-way join
queries exhibit intermediate-result explosion. Each lite dataset is a set
of labeled edge tables over entity domains; source ids follow a zipfian
rank distribution (heavy-hitter vertices → exploding joins), destination
ids are uniform or zipfian per label.

Sizes are scaled by ``sf`` (sf=1 ≈ tens of thousands of edges — Spark
local scale; the shapes, not absolute sizes, carry the experiment).
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class EdgeLabel:
    """One labeled edge table: src/dst domain sizes, edge count, skew."""

    name: str
    n_src: int
    n_dst: int
    n_edges: int
    alpha_src: float  # zipf exponent for source degrees (0 = uniform)
    alpha_dst: float


# Per-dataset label inventories. Domains are named so labels over the
# same entity class share ids (joinable many-to-many).
# Average degrees are kept around 2.5–3.5 (with zipfian hubs far above
# that): high enough for genuine many-to-many explosion over 4–5-way
# joins, low enough that bounded-output queries exist at Spark-local
# scale (the paper's CE filter allowed outputs up to 1e10 on a C++
# engine; see DESIGN.md §3 on the scale substitution).
DATASETS: dict[str, list[EdgeLabel]] = {
    "epinions_lite": [
        EdgeLabel("trusts", 3500, 3500, 8000, 0.8, 0.5),
        EdgeLabel("rates", 3500, 3000, 7000, 0.6, 0.3),
    ],
    "dblp_lite": [
        EdgeLabel("writes", 3000, 4000, 9000, 0.5, 0.3),
        EdgeLabel("cites", 4000, 4000, 10000, 0.8, 0.8),
        EdgeLabel("published_in", 4000, 300, 6000, 0.3, 0.9),
    ],
    "imdb_lite": [
        EdgeLabel("acts_in", 4000, 3000, 10000, 0.7, 0.4),
        EdgeLabel("directs", 1200, 3000, 4000, 0.4, 0.2),
        EdgeLabel("has_genre", 3000, 40, 6000, 0.2, 0.7),
    ],
    "watdiv_lite": [
        EdgeLabel("follows", 3000, 3000, 9000, 1.0, 0.9),
        EdgeLabel("likes", 3000, 2400, 8000, 0.6, 0.5),
        EdgeLabel("purchases", 3000, 1800, 6000, 0.4, 0.3),
        EdgeLabel("reviews", 3000, 1800, 5500, 0.7, 0.6),
    ],
    "yago_lite": [
        EdgeLabel("linked_to", 6000, 6000, 15000, 1.1, 1.0),
        EdgeLabel("located_in", 6000, 500, 9000, 0.5, 0.8),
        EdgeLabel("type_of", 6000, 250, 9000, 0.3, 0.9),
    ],
}


def _zipf_choice(rng: np.random.Generator, n_domain: int, n: int, alpha: float) -> np.ndarray:
    if alpha <= 0:
        return rng.integers(0, n_domain, n)
    ranks = np.arange(1, n_domain + 1, dtype=np.float64)
    w = ranks**-alpha
    w /= w.sum()
    return rng.choice(n_domain, size=n, p=w)


def load_dataset(name: str, *, sf: float = 1.0, seed: int = 0) -> dict[str, pd.DataFrame]:
    """Generate the labeled edge tables of one lite dataset.

    Each table has columns ``src``, ``dst`` (deduplicated edge pairs,
    so fanouts are genuine per-key multiplicities, not repeats).
    """
    if name not in DATASETS:
        raise ValueError(f"unknown dataset {name!r}; have {sorted(DATASETS)}")
    # crc32, not hash(): str hashes are randomised per process.
    rng = np.random.default_rng(seed + (zlib.crc32(name.encode()) & 0xFFFF))
    out = {}
    for lab in DATASETS[name]:
        n = max(10, int(lab.n_edges * sf))
        n_src = max(5, int(lab.n_src * np.sqrt(sf)))
        n_dst = max(5, int(lab.n_dst * np.sqrt(sf)))
        src = _zipf_choice(rng, n_src, n, lab.alpha_src)
        dst = _zipf_choice(rng, n_dst, n, lab.alpha_dst)
        df = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates(ignore_index=True)
        out[lab.name] = df
    return out
