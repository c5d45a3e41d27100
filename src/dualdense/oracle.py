"""Ground-truth densest connected subgraph by exhaustive enumeration.

Connected subsets of the covered physical graph are enumerated exactly once
each (anchor ordering plus exclusive-neighborhood expansion), scored by
conceptual density, and the maximum returned.  Exponential by nature; the
instance-size cap exists so nobody points this at a case-study network.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dualnet import DualNetwork
from .errors import ConfigError
from .graph import density

DEFAULT_NODE_CAP = 25


@dataclass
class OracleResult:
    nodes: frozenset[int]
    density: float
    explored: int


def brute_force_dcs(dn: DualNetwork, max_nodes: int | None = None,
                    node_cap: int = DEFAULT_NODE_CAP) -> OracleResult:
    """Exact densest physically-connected subset of covered pairs.

    Every connected subset of size up to ``max_nodes`` is scored exactly
    once; ``explored`` counts them (singletons included).  Subsets of size
    at least 2 compete on conceptual density, ties broken by smaller size
    then lexicographic pair-id order; a singleton is returned only when the
    covered physical graph has no edges at all.  Instances with more than
    ``node_cap`` covered pairs are refused.
    """
    n = dn.pair_count
    if n > node_cap:
        raise ConfigError(
            f"instance has {n} covered nodes, above the oracle cap of {node_cap}")
    if max_nodes is None:
        max_nodes = n
    if max_nodes < 1:
        raise ConfigError(f"max_nodes must be at least 1, got {max_nodes}")
    max_nodes = min(max_nodes, n)

    adj = dn.pair_graph.neighbors

    # Conceptual weight between covered pairs, keyed (min, max).
    cw: dict[tuple[int, int], float] = {}
    for ci, cj, w in dn.conceptual.edges():
        ki = dn.pair_of_conceptual.get(ci)
        kj = dn.pair_of_conceptual.get(cj)
        if ki is not None and kj is not None:
            cw[(ki, kj) if ki < kj else (kj, ki)] = w

    explored = 0
    best_density = -1.0
    best_size = 0
    best_tuple: tuple[int, ...] = ()

    sub: list[int] = []
    sub_weight = [0.0]
    in_closed: set[int] = set()

    def consider() -> None:
        nonlocal explored, best_density, best_size, best_tuple
        explored += 1
        size = len(sub)
        if size < 2:
            return
        d = 2.0 * sub_weight[0] / size
        if d > best_density:
            best_density, best_size, best_tuple = d, size, tuple(sorted(sub))
        elif d == best_density:
            if size < best_size:
                best_size, best_tuple = size, tuple(sorted(sub))
            elif size == best_size:
                cand = tuple(sorted(sub))
                if cand < best_tuple:
                    best_tuple = cand

    def extend(ext: list[int], anchor: int) -> None:
        consider()
        if len(sub) == max_nodes:
            return
        for i in range(len(ext)):
            w = ext[i]
            fresh = [u for u in adj(w) if u > anchor and u not in in_closed]
            added = [u for u in adj(w) if u not in in_closed]
            in_closed.update(added)
            dw = 0.0
            for s in sub:
                key = (s, w) if s < w else (w, s)
                got = cw.get(key)
                if got is not None:
                    dw += got
            sub.append(w)
            sub_weight[0] += dw
            extend(ext[i + 1:] + fresh, anchor)
            sub_weight[0] -= dw
            sub.pop()
            in_closed.difference_update(added)

    for anchor in range(n):
        sub.append(anchor)
        in_closed.update(adj(anchor))
        in_closed.add(anchor)
        extend([u for u in adj(anchor) if u > anchor], anchor)
        in_closed.clear()
        sub.pop()

    if not best_tuple:
        # No physical edge among covered pairs: fall back to the smallest
        # singleton, mirroring the pipeline's degenerate behavior.
        best_tuple = (0,)

    nodes = frozenset(best_tuple)
    return OracleResult(nodes, density(dn.conceptual, dn.conceptual_nodes(nodes)), explored)
