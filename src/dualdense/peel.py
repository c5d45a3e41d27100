"""Densest-subgraph extraction on a weighted graph.

``peel`` is the greedy 2-approximation: repeatedly remove the node with
minimum weighted degree, track the density of every suffix, and return the
densest one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .graph import Graph, density


@dataclass
class PeelTrace:
    """Audit trail of one peeling run.

    ``density_at_prefix[i]`` is the density of the graph remaining before
    the i-th removal, so the subgraph certified by prefix i is
    ``removal_order[i:]``.  When several prefixes tie on the best density,
    ``best_prefix_index`` is the latest (smallest surviving subgraph) and
    all tied indices are recorded.
    """

    removal_order: list[int]
    density_at_prefix: list[float]
    best_prefix_index: int
    tied_prefix_indices: list[int] = field(default_factory=list)

    def to_doc(self, labels: Sequence[str]) -> dict:
        """JSON-ready fields of the trace, with nodes named by ``labels``;
        ``peel`` and ``dcs`` output share this serialization."""
        return {
            "removal_order": [labels[v] for v in self.removal_order],
            "density_curve": list(self.density_at_prefix),
            "best_prefix_index": self.best_prefix_index,
            "tied_prefix_indices": list(self.tied_prefix_indices),
        }


@dataclass
class DensestResult:
    nodes: frozenset[int]
    density: float


def peel(g: Graph) -> tuple[DensestResult, PeelTrace]:
    """Greedy peeling by minimum current volume (weighted degree).

    Ties on volume break toward the lowest node index, which makes every
    trace reproducible.  A node with no incident edge has volume exactly 0
    and every other node a positive one, so the zero-volume nodes leave
    first, in index order, in one step that changes no volume and leaves
    the total weight as it is.  The rest are peeled one at a time on a lazy
    min-heap, with volumes maintained by incremental subtraction.  Each
    prefix's weight is summed from the tail, over the weight each removal
    takes with it, so the density curve ends in exactly 0, never below.
    """
    n = g.n
    if n == 0:
        raise ValueError("cannot peel an empty graph")

    vols = [math.fsum(row) for row in g._wts]
    removal_order = [v for v in range(n) if not vols[v]]
    alive = [True] * n
    heap: list[tuple[float, int]] = [(vols[v], v) for v in range(n) if vols[v]]
    heapq.heapify(heap)

    lost: list[float] = []
    for _ in range(len(heap)):
        while True:
            val, v = heapq.heappop(heap)
            if alive[v] and val == vols[v]:
                break
        removal_order.append(v)
        alive[v] = False
        weight = 0.0
        for u, w in g.incident(v):
            if alive[u]:
                weight += w
                vols[u] -= w
                heapq.heappush(heap, (vols[u], u))
        lost.append(weight)

    # tail[r - 1] is the weight of the last r nodes; a zero-volume prefix
    # leaves all of it.
    tail = list(accumulate(reversed(lost))) or [0.0]
    densities = [2.0 * tail[-1] / r for r in range(n, len(tail), -1)]
    densities += [2.0 * w / r for r, w in zip(range(len(tail), 0, -1), reversed(tail))]
    best = max(densities)
    tied = [i for i, d in enumerate(densities) if d == best]
    best_index = tied[-1]
    trace = PeelTrace(removal_order, densities, best_index, tied)
    nodes = frozenset(removal_order[best_index:])
    return DensestResult(nodes, density(g, nodes)), trace
