"""Seeded synthetic dual networks with a planted dense connected subset.

The planted nodes form a conceptual clique at weight 1.0 and a connected
physical subgraph; background conceptual weights stay at or below the cap,
so the planted set is the unique density maximizer among physically
connected subsets (weight contrast 1.0 vs cap makes every competitor
strictly worse).
"""

from __future__ import annotations

import random

from .dualnet import DualNetwork
from .errors import ConfigError
from .graph import Graph, Record


class PlantedInstance(Record):
    def __init__(self, dual: DualNetwork, planted: frozenset[int], seed: int):
        self.dual = dual
        self.planted = planted  # pair ids == node indices (identity correspondence)
        self.seed = seed


def _random_tree_edges(rng: random.Random, nodes: list[int]) -> set[tuple[int, int]]:
    """Random spanning tree: each node in shuffled order attaches to an
    earlier one."""
    order = list(nodes)
    rng.shuffle(order)
    edges = set()
    for i in range(1, len(order)):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((a, b) if a < b else (b, a))
    return edges


def _sample_pairs(rng: random.Random, n: int, count: int,
                  taken: set[tuple[int, int]],
                  forbidden: set[tuple[int, int]] | None = None) -> None:
    """Add ``count`` distinct random node pairs to ``taken``; pair-count
    sampling instead of per-pair Bernoulli keeps large n tractable."""
    max_pairs = n * (n - 1) // 2
    budget = max_pairs - len(taken) - (len(forbidden or ()) if forbidden else 0)
    count = min(count, max(budget, 0))
    added = 0
    while added < count:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in taken or (forbidden and key in forbidden):
            continue
        taken.add(key)
        added += 1


def generate_planted(n: int, k: int, seed: int,
                     background_weight_cap: float = 0.1,
                     background_edge_prob: float = 0.15,
                     physical_edge_prob: float | None = None) -> PlantedInstance:
    """Seeded planted-community dual network.

    Planted k-set: conceptual clique at weight 1.0, physical spanning tree
    plus each other planted pair with probability 1/2.  Background: a global
    physical spanning tree (the physical graph stays connected) plus random
    physical pairs, and random conceptual pairs weighted uniformly in
    (0, cap].  Edge probabilities lie in [0, 1] and are realized as pair
    counts (round(p * C(n, 2))), which is what makes 100k-node instances
    feasible; ``physical_edge_prob`` defaults to ``background_edge_prob``.
    """
    if not 2 <= k <= n:
        raise ConfigError(f"planted size must satisfy 2 <= k <= n, got k={k}, n={n}")
    if not 0 < background_weight_cap < 1.0:
        raise ConfigError(f"background weight cap must lie in (0, 1), got {background_weight_cap}")
    # The smallest background weight drawn below is cap * 2**-53, which
    # underflows to 0.0 (no valid edge weight) for caps up to 2**-1022.
    if background_weight_cap * 2.0 ** -53 == 0.0:
        raise ConfigError(f"background weight cap {background_weight_cap!r} is too small:"
                          " weights drawn below it underflow to 0")
    if physical_edge_prob is None:
        physical_edge_prob = background_edge_prob
    for what, p in (("background", background_edge_prob), ("physical", physical_edge_prob)):
        if not 0.0 <= p <= 1.0:  # also false for NaN
            raise ConfigError(f"{what} edge probability must lie in [0, 1], got {p}")

    rng = random.Random(seed)
    labels = [f"n{i}" for i in range(n)]
    planted = sorted(rng.sample(range(n), k))
    planted_set = set(planted)
    max_pairs = n * (n - 1) // 2

    # Physical: connected planted core, global spanning tree, random extras.
    phys_pairs = _random_tree_edges(rng, planted)
    for i in range(k):
        for j in range(i + 1, k):
            key = (planted[i], planted[j])
            if key not in phys_pairs and rng.random() < 0.5:
                phys_pairs.add(key)
    phys_pairs |= _random_tree_edges(rng, list(range(n)))
    _sample_pairs(rng, n, round(physical_edge_prob * max_pairs), phys_pairs)

    # Conceptual: planted clique at 1.0, background pairs in (0, cap].
    clique_pairs = {(planted[i], planted[j]) for i in range(k) for j in range(i + 1, k)}
    conc_pairs: set[tuple[int, int]] = set()
    _sample_pairs(rng, n, round(background_edge_prob * max_pairs), conc_pairs,
                  forbidden=clique_pairs)
    conc_edges = [(a, b, 1.0) for a, b in sorted(clique_pairs)]
    for a, b in sorted(conc_pairs):
        conc_edges.append((a, b, background_weight_cap * (1.0 - rng.random())))

    conceptual = Graph(labels, conc_edges)
    physical = Graph(labels, [(a, b, 1.0) for a, b in sorted(phys_pairs)])
    dual = DualNetwork(conceptual, physical, ((lab, lab) for lab in labels))
    return PlantedInstance(dual, frozenset(planted), seed)
