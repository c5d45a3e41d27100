"""Shared test fixtures: random instance generators and independent
brute-force oracles (kept deliberately naive so they never share code paths
with the implementations they check)."""

from __future__ import annotations

import heapq
import json
import math
import random
from collections import Counter, deque
from itertools import combinations

from dualdense import (AlignmentGraph, DensestResult, DualNetwork, Graph,
                       IrreparableDisconnection, ParseError, PeelTrace, density)


def random_graph(rng: random.Random, n: int, p: float, weighted: bool = True) -> Graph:
    labels = [f"u{i}" for i in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = 1.0 - rng.random() if weighted else 1.0
                edges.append((u, v, w))
    return Graph(labels, edges)


def random_dual_network(rng: random.Random, n: int, p_phys: float = 0.3,
                        p_shared: float = 0.5, p_extra: float = 0.2) -> DualNetwork:
    """Random dual network (n >= 2) with at least one edge present in both
    graphs, so the alignment graph is never trivially empty."""
    assert n >= 2
    labels = [f"u{i}" for i in range(n)]
    phys_pairs = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_phys:
                phys_pairs.add((u, v))
    if not phys_pairs:
        phys_pairs.add((0, 1))
    conc = {}
    for (u, v) in sorted(phys_pairs):
        if rng.random() < p_shared:
            conc[(u, v)] = 1.0 - rng.random()
    if not conc:
        u, v = sorted(phys_pairs)[0]
        conc[(u, v)] = 1.0 - rng.random()
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in conc and rng.random() < p_extra:
                conc[(u, v)] = 1.0 - rng.random()
    physical = Graph(labels, [(u, v, 1.0) for u, v in sorted(phys_pairs)])
    conceptual = Graph(labels, [(u, v, w) for (u, v), w in sorted(conc.items())])
    return DualNetwork(conceptual, physical, tuple((lab, lab) for lab in labels))


def random_partial_dual(rng: random.Random, n: int, p_phys: float = 0.3,
                        p_shared: float = 0.5, p_extra: float = 0.2) -> DualNetwork:
    """Random dual network (n >= 2) of n pairs whose correspondence is a
    random partial bijection: each graph has one to three uncovered nodes,
    and every pair's id, conceptual index and physical index are three
    different numbers, so code that reads one index space for another
    fails.  About ``p_shared`` of the physical edges between covered nodes
    are also conceptual edges, at least one is, and the other conceptual
    edges, uncovered nodes included, are drawn with ``p_extra``."""
    assert n >= 2
    nc, np_ = n + rng.randint(1, 3), n + rng.randint(1, 3)
    while True:
        conc_of, phys_of = rng.sample(range(nc), n), rng.sample(range(np_), n)
        if all(c != k != p != c for k, (c, p) in enumerate(zip(conc_of, phys_of))):
            break
    phys = {(u, v) for u in range(np_) for v in range(u + 1, np_) if rng.random() < p_phys}
    phys.add(tuple(sorted(phys_of[:2])))
    conc = {}
    for k in range(n):
        for m in range(k + 1, n):
            pu, pv = sorted((phys_of[k], phys_of[m]))
            if (pu, pv) in phys and (rng.random() < p_shared or (k, m) == (0, 1)):
                conc[tuple(sorted((conc_of[k], conc_of[m])))] = 1.0 - rng.random()
    for u in range(nc):
        for v in range(u + 1, nc):
            if (u, v) not in conc and rng.random() < p_extra:
                conc[(u, v)] = 1.0 - rng.random()
    physical = Graph([f"p{i}" for i in range(np_)], [(u, v, 1.0) for u, v in sorted(phys)])
    conceptual = Graph([f"c{i}" for i in range(nc)],
                       [(u, v, w) for (u, v), w in sorted(conc.items())])
    return DualNetwork(conceptual, physical,
                       tuple((f"c{c}", f"p{p}") for c, p in zip(conc_of, phys_of)))


def hub_graph(rng: random.Random, n: int) -> Graph:
    """Unit-weight graph on n nodes: one to three hubs, each joined to a
    random share of the nodes, over a sparse random background; with some
    edges dropped, so that several components and isolated nodes occur."""
    edges = set()
    for hub in rng.sample(range(n), min(n, rng.randint(1, 3))):
        for v in rng.sample(range(n), rng.randint(0, n - 1)):
            if v != hub:
                edges.add((min(hub, v), max(hub, v)))
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    kept = sorted(e for e in edges if rng.random() < 0.6)
    return Graph([f"v{i}" for i in range(n)], [(u, v, 1.0) for u, v in kept])


def hub_dual(rng: random.Random, n: int, p_conc: float = 0.3) -> DualNetwork:
    """Dual network (n >= 2) over a ``hub_graph`` physical network, whose
    searches meet sides of very different sizes; conceptual edges are drawn
    over all pairs with ``p_conc``, and node i of one graph corresponds to
    node i of the other."""
    physical = hub_graph(rng, n)
    conc = [(u, v, 1.0 - rng.random()) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p_conc]
    conceptual = Graph([f"c{i}" for i in range(n)], conc)
    return DualNetwork(conceptual, physical,
                       tuple((f"c{i}", f"v{i}") for i in range(n)))


def edge_weight(g: Graph, u: int, v: int) -> float | None:
    """Weight of edge (u, v), or None if absent, read off u's incident list."""
    return dict(g.incident(u)).get(v)


def kind_of(ag: AlignmentGraph, u: int, v: int) -> tuple[str, int]:
    """Match/gap kind of alignment edge (u, v), in either orientation."""
    return ag.kinds[(u, v) if u < v else (v, u)]


def subset_density(g: Graph, members) -> float:
    """Direct 2*W(S)/|S| via explicit edge enumeration."""
    S = set(members)
    total = 0.0
    for u, v, w in g.edges():
        if u in S and v in S:
            total += w
    return 2.0 * total / len(S)


def check_peel_order(g: Graph, removal_order, rel_tol: float = 1e-9) -> None:
    """Replay a peel: at every step, recompute each live node's volume from
    scratch and assert that the removed node has the minimum, the lowest
    index winning ties.  Volumes within ``rel_tol`` of the removed node's
    (relative, floor 1.0) count as ties either way; ``rel_tol=0`` demands
    exact order, which holds when every partial sum is exact."""
    assert sorted(removal_order) == list(range(g.n))
    alive = set(range(g.n))
    for step, v in enumerate(removal_order):
        vols = {u: math.fsum(w for x, w in g.incident(u) if x in alive) for u in alive}
        floor = vols[v] - rel_tol * max(1.0, abs(vols[v]))
        for u, vol in vols.items():
            assert vol > floor if u < v else vol >= floor, (
                f"step {step}: removed node {v} (volume {vols[v]}), node {u} has {vol}")
        alive.remove(v)


def reference_peel(g: Graph) -> tuple[DensestResult, PeelTrace]:
    """``peel`` as one heap pop per removed node, isolated nodes included:
    the slow reference for its zero-volume prefix."""
    n = g.n
    if n == 0:
        raise ValueError("cannot peel an empty graph")

    vols = [math.fsum(w for _, w in g.incident(v)) for v in range(n)]
    alive = [True] * n
    remaining = n
    total = g.total_weight
    heap: list[tuple[float, int]] = [(vols[v], v) for v in range(n)]
    heapq.heapify(heap)

    removal_order: list[int] = []
    densities: list[float] = []
    while remaining:
        densities.append(2.0 * total / remaining)
        while True:
            val, v = heapq.heappop(heap)
            if alive[v] and val == vols[v]:
                break
        removal_order.append(v)
        alive[v] = False
        remaining -= 1
        total -= vols[v]
        for u, w in g.incident(v):
            if alive[u]:
                vols[u] -= w
                heapq.heappush(heap, (vols[u], u))

    best = max(densities)
    tied = [i for i, d in enumerate(densities) if d == best]
    best_index = tied[-1]
    trace = PeelTrace(removal_order, densities, best_index, tied)
    nodes = frozenset(removal_order[best_index:])
    return DensestResult(nodes, density(g, nodes)), trace


def brute_densest(g: Graph) -> tuple[float, frozenset[int]]:
    """Best density over every nonempty subset, by full enumeration."""
    best_d = 0.0
    best_s = frozenset([0])
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            d = subset_density(g, combo)
            if d > best_d:
                best_d, best_s = d, frozenset(combo)
    return best_d, best_s


def physically_connected(dn: DualNetwork, pair_ids) -> bool:
    """Independent BFS connectivity check on the induced physical subgraph."""
    S = set(pair_ids)
    if len(S) <= 1:
        return True
    phys = {dn.pair_physical[k]: k for k in S}
    start = next(iter(phys))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in dn.physical.neighbors(x):
            if y in phys and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(phys)


def relaxed_graph(dn: DualNetwork, delta: float) -> dict[int, list[int]]:
    """The auxiliary graph of RELAXED connectivity over pair ids: two pairs
    are joined when their physical nodes are at most delta hops apart in
    the full physical graph (``bfs_hops``)."""
    def near(a: int, b: int) -> bool:
        d = bfs_hops(dn.physical, dn.pair_physical[a], dn.pair_physical[b])
        return d is not None and d <= delta
    ids = range(dn.pair_count)
    return {a: [b for b in ids if b != a and near(a, b)] for a in ids}


def relaxed_connected(dn: DualNetwork, pair_ids, delta: float,
                      aux: dict[int, list[int]] | None = None) -> bool:
    """Connectivity of the pairs in the auxiliary graph ``relaxed_graph``
    (pass ``aux`` to reuse one), by an independent DFS."""
    aux = relaxed_graph(dn, delta) if aux is None else aux
    S = set(pair_ids)
    if len(S) <= 1:
        return True
    start = min(S)
    seen = {start}
    stack = [start]
    while stack:
        for b in aux[stack.pop()]:
            if b in S and b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(S)


def brute_dcs(dn: DualNetwork, max_size: int | None = None,
              delta: float | None = None) -> tuple[float, frozenset[int]]:
    """Exact DCS by powerset enumeration: pair subsets of size >= 2
    (singleton {0} fallback), maximizing conceptual density, that are
    connected in the induced physical subgraph (STRICT) or, given
    ``delta``, in the auxiliary graph of ``relaxed_graph`` (RELAXED)."""
    n = dn.pair_count
    max_size = n if max_size is None else min(max_size, n)
    conc_idx = dn.pair_conceptual
    if delta is None:
        def connected(combo):
            return physically_connected(dn, combo)
    else:
        aux = relaxed_graph(dn, delta)

        def connected(combo):
            return relaxed_connected(dn, combo, delta, aux)
    best = None
    for size in range(2, max_size + 1):
        for combo in combinations(range(n), size):
            if not connected(combo):
                continue
            d = subset_density(dn.conceptual, [conc_idx[k] for k in combo])
            key = (-d, size, combo)
            if best is None or key < best[0]:
                best = (key, frozenset(combo), d)
    if best is None:
        return 0.0, frozenset([0])
    return best[2], best[1]


class ReadLog(list):
    """Adjacency table that records which rows a search reads, in ``read``,
    and how often, in ``counts``; install it as
    ``g._nbrs = ReadLog(g._nbrs)``."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()
        self.counts = Counter()

    def __getitem__(self, i):
        self.read.add(i)
        self.counts[i] += 1
        return super().__getitem__(i)


def bfs_hops(g: Graph, src: int, dst: int) -> int | None:
    """Plain BFS hop distance, independent of the library BFS."""
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == dst:
                    return dist[y]
                queue.append(y)
    return None


def least_shortest_path(g: Graph, sources, targets) -> list[int] | None:
    """Lexicographically least among the shortest source-to-target paths,
    or None, from ``bfs_hops`` distances to the nearest target: the least
    source at the shortest distance, then each time the least neighbor one
    hop closer (every such choice still ends at a target in time)."""
    memo: dict[int, int | None] = {}

    def to_targets(v: int) -> int | None:
        if v not in memo:
            memo[v] = min((d for t in targets if (d := bfs_hops(g, v, t)) is not None),
                          default=None)
        return memo[v]

    length = min((d for s in sources if (d := to_targets(s)) is not None), default=None)
    if length is None:
        return None
    path = [min(s for s in sources if to_targets(s) == length)]
    while len(path) <= length:
        path.append(min(v for v in g.neighbors(path[-1]) if to_targets(v) == length - len(path)))
    return path


def reference_repair(dn: DualNetwork, members) -> frozenset[int]:
    """Connector pairs of ``repair_connectivity``, rebuilt round by round
    from its stated rule: among all paths through covered physical nodes
    outside the current set that join members of two components, add the
    interior of the shortest, least by pair-id sequence.  Paths are
    enumerated whole, by increasing length; a path is dropped only when a
    strictly shorter one from the same component reached its end."""
    pair_of = {p: k for k, p in enumerate(dn.pair_physical)}
    adj = {k: sorted(pair_of[q] for q in dn.physical.neighbors(p) if q in pair_of)
           for k, p in enumerate(dn.pair_physical)}
    start = set(members)
    current = set(start)
    while True:
        comp_of: dict[int, int] = {}
        for s in current:
            if s in comp_of:
                continue
            comp_of[s] = s
            stack = [s]
            while stack:
                for v in adj[stack.pop()]:
                    if v in current and v not in comp_of:
                        comp_of[v] = s
                        stack.append(v)
        if len(set(comp_of.values())) <= 1:
            return frozenset(current - start)
        paths = [[s] for s in current]
        first = {(comp_of[s], s): 0 for s in current}
        joins: list[list[int]] = []
        while paths and not joins:
            longer = []
            for path in paths:
                for v in adj[path[-1]]:
                    if v not in current:
                        if first.setdefault((comp_of[path[0]], v), len(path)) == len(path):
                            longer.append(path + [v])
                    elif comp_of[v] != comp_of[path[0]]:
                        joins.append(path + [v])
            paths = longer
        if not joins:
            raise IrreparableDisconnection("no path joins two components")
        current.update(min(joins))


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Label-level equality: same label set, same weighted edges."""
    def edge_map(g: Graph) -> dict[tuple[str, str], float]:
        return {(la, lb) if la < lb else (lb, la): w for la, lb, w in g.label_edges()}
    return set(a.labels) == set(b.labels) and edge_map(a) == edge_map(b)


def assert_same_rows(g: Graph, ref: Graph) -> None:
    """``g`` is exactly ``ref``: labels, sorted rows, weights, edge count
    and total weight, each by ``==``; and ``g`` collapsed no duplicate."""
    assert g.labels == ref.labels
    assert [list(g.neighbors(u)) for u in range(g.n)] == \
        [list(ref.neighbors(u)) for u in range(ref.n)]
    assert [list(g.incident(u)) for u in range(g.n)] == \
        [list(ref.incident(u)) for u in range(ref.n)]
    assert (g.edge_count, g.total_weight) == (ref.edge_count, ref.total_weight)
    assert g.duplicates_collapsed == 0


def assert_collapsed(g: Graph, labels, edges) -> None:
    """``g`` is the graph a dict keyed by ``(u, v)`` tuples makes of
    ``labels`` and the edges ``(u, v, w)``: each pair once at its largest
    weight, rows sorted by neighbor, and weights, ``edge_count``,
    ``total_weight`` and ``duplicates_collapsed`` equal by ``==``."""
    kept: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        key = (u, v) if u < v else (v, u)
        if key not in kept or w > kept[key]:
            kept[key] = float(w)
    rows: list[dict[int, float]] = [{} for _ in labels]
    for (u, v), w in kept.items():
        rows[u][v] = rows[v][u] = w
    assert g.labels == tuple(labels)
    assert [list(g.incident(u)) for u in range(g.n)] == [sorted(row.items()) for row in rows]
    assert (g.edge_count, g.total_weight) == (len(kept), math.fsum(kept.values()))
    assert g.duplicates_collapsed == len(edges) - len(kept)


def shared_ints(g: Graph) -> int:
    """How many distinct int objects ``g``'s adjacency rows hold."""
    return len({id(v) for row in g._nbrs for v in row})


def graph_from_json(text: str, name: str | None = None) -> Graph:
    """Read back a plain graph written by ``formats.export_json``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", None, name) from None
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ParseError("graph JSON must contain 'nodes' and 'edges'", None, name)
    try:
        # Listed nodes first, so isolated labels keep their place.
        index: dict[str, int] = {}
        for lab in doc["nodes"]:
            index.setdefault(lab, len(index))
        edges = [(index.setdefault(a, len(index)), index.setdefault(b, len(index)), w)
                 for a, b, w in doc["edges"]]
        return Graph(list(index), edges)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}", None, name) from None


DEFAULT_EXACT_LIMIT = 20


def exact_densest(g: Graph, limit: int = DEFAULT_EXACT_LIMIT) -> DensestResult:
    """Exhaustive maximum-density subset, for small graphs: the oracle the
    greedy ``peel`` result is checked against.

    Subset weights are built up by bitmask dynamic programming over all
    2^n - 1 candidates.  Ties break toward the smallest lexicographic
    node-index sequence.
    """
    n = g.n
    if n == 0:
        raise ValueError("cannot solve an empty graph")
    if n > limit:
        raise ValueError(f"graph has {n} nodes; exact solver is limited to {limit}")

    nbrs = [list(g.neighbors(v)) for v in range(n)]
    wts = [[edge_weight(g, v, u) for u in nbrs[v]] for v in range(n)]

    size = 1 << n
    weight_of = [0.0] * size
    best_density = 0.0
    best_mask = 1  # singleton {0}: density 0, lexicographic minimum
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        add = 0.0
        row = nbrs[low]
        wrow = wts[low]
        for i in range(len(row)):
            if rest >> row[i] & 1:
                add += wrow[i]
        w = weight_of[rest] + add
        weight_of[mask] = w
        d = 2.0 * w / mask.bit_count()
        if d > best_density:
            best_density = d
            best_mask = mask
        elif d == best_density and _mask_key(mask) < _mask_key(best_mask):
            best_mask = mask

    nodes = frozenset(v for v in range(n) if best_mask >> v & 1)
    return DensestResult(nodes, density(g, nodes))


def _mask_key(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
