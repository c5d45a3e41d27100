"""Densest-subgraph extraction on a weighted graph.

``peel`` is the greedy 2-approximation: repeatedly remove the node with
minimum weighted degree, track the density of every suffix, and return the
densest one.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from itertools import accumulate

from .graph import Graph, Record, density


class PeelTrace(Record):
    """Audit trail of one peeling run.

    ``density_at_prefix[i]`` is the density of the graph remaining before
    the i-th removal, so the subgraph certified by prefix i is
    ``removal_order[i:]``.  When several prefixes tie on the best density,
    ``best_prefix_index`` is the latest (smallest surviving subgraph) and
    all tied indices are recorded.
    """

    def __init__(self, removal_order: list[int], density_at_prefix: list[float],
                 best_prefix_index: int, tied_prefix_indices: list[int] | None = None):
        self.removal_order = removal_order
        self.density_at_prefix = density_at_prefix
        self.best_prefix_index = best_prefix_index
        self.tied_prefix_indices = [] if tied_prefix_indices is None else tied_prefix_indices

    def to_doc(self, labels: Sequence[str]) -> dict:
        """JSON-ready fields of the trace, with nodes named by ``labels``;
        ``peel`` and ``dcs`` output share this serialization."""
        return {
            "removal_order": [labels[v] for v in self.removal_order],
            "density_curve": list(self.density_at_prefix),
            "best_prefix_index": self.best_prefix_index,
            "tied_prefix_indices": list(self.tied_prefix_indices),
        }


class DensestResult(Record):
    def __init__(self, nodes: frozenset[int], density: float):
        self.nodes = nodes
        self.density = density


# The heap is rebuilt from its live entries once the stale pops since the
# last rebuild reach 1/_STALE_SHARE of it, which bounds a rebuild's filter
# by _STALE_SHARE times the stale pops paid.  Heap pops on seed 311, gap-d4
# / reach-inf: 10,856 / 11,891 with no rebuild; at 4, 8, 16 and 32: 3,853 /
# 3,996, 3,030 / 3,109, 2,549 / 2,588 and 2,333 / 2,351, with gap-d4's peel
# in 8.8, 8.3, 7.9 and 8.0 ms against 12.3 (in process).  None of these
# rebuilds on a uniform random graph of 1e5 nodes and 1e6 edges.
_STALE_SHARE = 8


def peel(g: Graph) -> tuple[DensestResult, PeelTrace]:
    """Greedy peeling by minimum current volume (weighted degree).

    Ties on volume break toward the lowest node index, which makes every
    trace reproducible.  A node with no incident edge has volume exactly 0
    and every other node a positive one, so the zero-volume nodes leave
    first, in index order, in one step that changes no volume and leaves
    the total weight as it is.  The rest are peeled one at a time on a lazy
    min-heap, with volumes maintained by incremental subtraction.  A node
    whose volume drops gets a new entry and leaves the old one stale; once
    enough stale entries have surfaced, one filter and one ``heapify``
    rebuild the heap from the live ones (alive, keyed by the current
    volume).  Live entries pop in (volume, index) order however the heap
    is laid out, so rebuilds change no removal.  Each prefix's weight is
    summed from the tail, over the weight each removal takes with it, so
    the density curve ends in exactly 0, never below.
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
    stale = 0
    for _ in range(len(heap)):
        while True:
            val, v = heapq.heappop(heap)
            if alive[v] and val == vols[v]:
                break
            stale += 1
            if stale * _STALE_SHARE >= len(heap):
                heap = [e for e in heap if alive[e[1]] and e[0] == vols[e[1]]]
                heapq.heapify(heap)
                stale = 0
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
