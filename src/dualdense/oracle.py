"""Ground-truth densest connected subgraph by exhaustive enumeration.

Connected subsets of the covered physical graph are enumerated exactly once
each by ESU (Wernicke, "Efficient detection of network motifs", 2006),
scored by conceptual density, and the densest returned.  Exponential by
nature; the size cap exists so nobody points this at a case-study network.
"""

from __future__ import annotations

from .dualnet import DualNetwork
from .errors import ConfigError
from .graph import Record

DEFAULT_NODE_CAP = 25


class OracleResult(Record):
    def __init__(self, nodes: frozenset[int], density: float, explored: int):
        self.nodes = nodes
        self.density = density
        self.explored = explored


def brute_force_dcs(dn: DualNetwork, max_nodes: int | None = None,
                    node_cap: int = DEFAULT_NODE_CAP) -> OracleResult:
    """Exact densest physically-connected subset of covered pairs.

    ESU grows each connected subset from its least pair id, the anchor,
    adding only larger ids from the subset's exclusive neighbourhood, so
    every connected subset of at most ``max_nodes`` pairs is visited once;
    ``explored`` counts the visits, singletons included.  Subsets of two or
    more pairs are ranked by conceptual density, then fewer pairs, then the
    least sorted pair ids.  (``extract_dcs`` breaks density ties the other
    way, toward more pairs.)  A singleton is returned only when no subset of
    two or more pairs is scored: no physical edge joins two covered pairs,
    or ``max_nodes`` is 1.  Instances with more than ``node_cap`` covered
    pairs are refused.
    """
    n = dn.pair_count
    if n > node_cap:
        raise ConfigError(
            f"instance has {n} covered nodes, above the oracle cap of {node_cap}")
    if max_nodes is None:
        max_nodes = n
    elif isinstance(max_nodes, bool) or not isinstance(max_nodes, int):
        raise ConfigError(f"max_nodes must be a positive integer, got {max_nodes!r}")
    if max_nodes < 1:
        raise ConfigError(f"max_nodes must be at least 1, got {max_nodes}")
    max_nodes = min(max_nodes, n)

    adj = dn.pair_graph.neighbors

    # Conceptual weight between covered pairs, keyed (min, max); node k is pair k.
    cw = {(u, v): w for u, v, w in dn.conceptual.subgraph(dn.pair_conceptual).edges()}

    explored = 0
    best: tuple[float, int, tuple[int, ...]] = (-1.0, 0, ())

    def extend(sub: list[int], weight: float, ext: list[int], closed: set[int]) -> None:
        # Score ``sub``, then grow it by each node of ``ext`` in turn.  The
        # grown subset may add the later ``ext`` nodes and the new node's
        # neighbours above the anchor ``sub[0]`` and outside ``closed`` (N[sub]).
        nonlocal explored, best
        explored += 1
        size = len(sub)
        if size >= 2 and 2.0 * weight / size >= best[0]:
            best = max(best, (2.0 * weight / size, -size, tuple(-k for k in sorted(sub))))
        if size == max_nodes:
            return
        anchor = sub[0]
        for i, w in enumerate(ext):
            nbrs = adj(w)
            extend(sub + [w],
                   weight + sum([cw.get((s, w) if s < w else (w, s), 0.0) for s in sub]),
                   ext[i + 1:] + [u for u in nbrs if u > anchor and u not in closed],
                   closed.union(nbrs))

    for anchor in range(n):
        nbrs = adj(anchor)
        extend([anchor], 0.0, [u for u in nbrs if u > anchor], {anchor, *nbrs})

    # No covered physical edge, or max_nodes 1: fall back to the smallest
    # singleton, mirroring the pipeline's degenerate behavior.
    nodes = frozenset(-k for k in best[2]) or frozenset((0,))
    return OracleResult(nodes, dn.conceptual_density(nodes), explored)
