"""Undirected weighted graph with string labels and dense integer indices.

Every other module consumes this representation: adjacency lists sorted by
neighbor index (which makes every traversal deterministic), strictly
positive edge weights, and weight 1.0 everywhere for unweighted graphs.
Graphs are immutable after construction; concurrent reads are safe.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

IndexEdge = tuple[int, int, float]
LabelEdge = tuple[str, str, float]


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges, weights > 0.

    Nodes are indices ``0..n-1``; ``labels[i]`` is the external name of node
    ``i`` and the label->index mapping is bijective.  Duplicate edges in the
    input collapse to the maximum weight in one integer-keyed table and are
    counted in ``duplicates_collapsed``.

    Node u's neighbours and their weights are two parallel rows, sorted by
    neighbor index.  Rows are only read once built: a node with no edge may
    share one immutable empty row with the other edgeless nodes.
    """

    __slots__ = ("labels", "_index", "_nbrs", "_wts", "edge_count",
                 "total_weight", "duplicates_collapsed")

    def __init__(self, labels: Sequence[str], edges: Iterable[IndexEdge]):
        labels = tuple(labels)
        index: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise ValueError(f"duplicate node label {lab!r}")
            index[lab] = i
        n = len(labels)

        def checked() -> Iterator[IndexEdge]:
            for u, v, w in edges:
                # ``check_ids``'s rule inline; ``type`` is the cheapest exact bool test.
                if not (isinstance(u, int) and type(u) is not bool and 0 <= u < n
                        and isinstance(v, int) and type(v) is not bool and 0 <= v < n):
                    raise ValueError(f"edge endpoint out of range: ({u!r}, {v!r})")
                if u == v:
                    raise ValueError(f"self-loop on node {labels[u]!r}")
                if (not isinstance(w, (int, float)) or type(w) is bool
                        or not math.isfinite(w) or w <= 0):
                    raise ValueError(f"edge weight must be a positive finite number, got {w!r}")
                yield u, v, float(w)

        self._collapse(index, checked())

    @classmethod
    def _from_index(cls, index: dict[str, int], edges: Iterable[IndexEdge]) -> "Graph":
        """The graph over the labels of ``index`` (label -> id, in id order)
        and edges keeping every rule ``__init__`` checks, weights floats."""
        g = cls.__new__(cls)
        g._collapse(index, edges)
        return g

    def _collapse(self, index: dict[str, int], edges: Iterable[IndexEdge]) -> None:
        """Collapse the edges into one table keyed by ``u << 32 | v``, u < v,
        and build the rows from its sorted keys, which sort as the pairs
        ``(u, v)`` do.  Keys decode through ``index``'s own id ints, so the
        rows share one int object per node, not one per entry."""
        table: dict[int, float] = {}
        keep = table.setdefault
        count = 0
        for count, (u, v, w) in enumerate(edges, 1):
            key = u << 32 | v if u < v else v << 32 | u
            # A repeated pair keeps the larger weight.
            if keep(key, w) < w:
                table[key] = w
        self.labels = tuple(index)
        self._index = index
        ids = list(index.values())
        nbrs: list[list[int]] = [[] for _ in ids]
        wts: list[list[float]] = [[] for _ in ids]
        for key in sorted(table):
            u, v, w = ids[key >> 32], ids[key & 0xFFFFFFFF], table[key]
            nbrs[u].append(v)
            wts[u].append(w)
            nbrs[v].append(u)
            wts[v].append(w)
        self._nbrs = nbrs
        self._wts = wts
        self.edge_count = len(table)
        self.duplicates_collapsed = count - len(table)
        # Densities sum volumes, so twice the total weight must stay finite.
        try:
            self.total_weight = math.fsum(table.values())
        except OverflowError:
            self.total_weight = math.inf
        if not math.isfinite(2.0 * self.total_weight):
            raise ValueError("edge weights too large: twice their total overflows a float")

    @classmethod
    def _from_rows(cls, labels: Sequence[str], nbrs: list[Sequence[int]],
                   wts: list[Sequence[float]]) -> "Graph":
        """A graph over adjacency rows, sorted by neighbor, that were built
        from data already keeping every rule ``__init__`` checks, so none is
        checked again."""
        g = cls.__new__(cls)
        g.labels = tuple(labels)
        g._index = dict(zip(g.labels, range(len(g.labels))))
        g._nbrs = nbrs
        g._wts = wts
        g.edge_count = sum(map(len, nbrs)) // 2
        # Each weight is in two rows; halving their exact sum is exact.
        g.total_weight = math.fsum(chain.from_iterable(wts)) / 2
        g.duplicates_collapsed = 0
        return g

    @classmethod
    def _from_edges(cls, labels: Sequence[str], edges: Iterable[IndexEdge]) -> "Graph":
        """``Graph(labels, edges)`` for edges ``(u, v, w)`` with u < v, each
        pair once, that already keep every rule ``__init__`` checks.

        When the edges name fewer endpoints, repeats counted, than there
        are nodes, only endpoints get rows of their own lists, and every
        edgeless node shares the empty tuple, which no node can grow: a
        graph with few edges over many nodes then allocates few objects for
        the cyclic collector to count and scan.  Otherwise finding the
        endpoints would cost more than it saves, and every node gets lists."""
        edges = sorted(edges)
        n = len(labels)
        nbrs: list[Sequence[int]] = [()] * n
        wts: list[Sequence[float]] = [()] * n
        for u in ({*map(itemgetter(0), edges), *map(itemgetter(1), edges)}
                  if 2 * len(edges) < n else range(n)):
            nbrs[u] = []
            wts[u] = []
        # As in ``__init__``, sorted pairs leave every row sorted.
        for u, v, w in edges:
            nbrs[u].append(v)
            wts[u].append(w)
            nbrs[v].append(u)
            wts[v].append(w)
        return cls._from_rows(labels, nbrs, wts)

    @property
    def n(self) -> int:
        return len(self.labels)

    def neighbors(self, u: int) -> Sequence[int]:
        return self._nbrs[u]

    def incident(self, u: int) -> Iterator[tuple[int, float]]:
        return zip(self._nbrs[u], self._wts[u])

    def degree(self, u: int) -> int:
        return len(self._nbrs[u])

    def has_edge(self, u: int, v: int) -> bool:
        row = self._nbrs[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[IndexEdge]:
        """All edges exactly once, as (u, v, w) with u < v, sorted."""
        for u, row, wrow in zip(range(self.n), self._nbrs, self._wts):
            for v, w in zip(row, wrow):
                if v > u:
                    yield u, v, w

    def label_edges(self) -> Iterator[LabelEdge]:
        for u, v, w in self.edges():
            yield self.labels[u], self.labels[v], w

    def is_unit_weighted(self) -> bool:
        return all(w == 1.0 for row in self._wts for w in row)

    def subgraph(self, members: Iterable[int]) -> "Graph":
        """Induced subgraph with labels preserved: node i of the result is
        the i-th distinct member in the order given."""
        order = list(dict.fromkeys(check_ids(members, self.n)))
        new_id = {old: new for new, old in enumerate(order)}.get
        nbrs: list[list[int]] = [[] for _ in order]
        wts: list[list[float]] = [[] for _ in order]
        # Each member joins its member neighbors' rows in member order, so
        # every row comes out sorted with no sort.
        for new, old in enumerate(order):
            for v, w in zip(map(new_id, self._nbrs[old]), self._wts[old]):
                if v is not None:
                    nbrs[v].append(new)
                    wts[v].append(w)
        return Graph._from_rows([self.labels[i] for i in order], nbrs, wts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.edge_count})"


def check_ids(ids: Iterable[int], count: int, error="node {!r} is not in the graph") -> list[int]:
    """``ids`` as a list, each an int in ``0..count-1``, else ValueError
    ``error.format(id)``.  Bools are refused: as ints they would act as ids
    1 and 0, and a set or dict drops ``True`` next to 1 before any check."""
    ids = list(ids)
    for v in ids:
        if isinstance(v, bool) or not (isinstance(v, int) and 0 <= v < count):
            raise ValueError(error.format(v))
    return ids


def density(g: Graph, members: Iterable[int]) -> float:
    """Average per-node induced volume: twice the induced edge weight over
    the node count.  Singletons and edgeless sets have density 0."""
    S = set(check_ids(members, g.n))
    if not S:
        raise ValueError("density of an empty node set is undefined")
    total = math.fsum(w for v in S for u, w in g.incident(v) if u in S)
    return total / len(S)


def reach(g: Graph, sources: Iterable[int], cap: float = math.inf,
          within: Optional[Collection[int]] = None) -> set[int]:
    """Nodes at most ``cap`` hops from the sources, sources included.

    Grows one ball a whole layer at a time, each layer one C-level set
    union over the previous layer's adjacency lists.  ``within`` restricts
    the search to an induced subgraph (sources are taken as given).
    """
    nbrs = g._nbrs
    ball = set(sources)
    layer, depth = ball, 0
    while layer and depth < cap:
        layer = set().union(*[nbrs[x] for x in layer]) - ball
        if within is not None:
            layer.intersection_update(within)
        ball |= layer
        depth += 1
    return ball


def nearest(g: Graph, sources: Iterable[int],
            targets: Collection[int]) -> Optional[list[int]]:
    """Shortest path from a source to the first target reached, or None
    when no target is reachable.

    Breadth-first search over sorted adjacency, recording each node's
    parent: its earliest-discovered neighbor one layer up.  With sources
    in ascending order, discovery order within a layer is the
    lexicographic order of the nodes' least shortest paths, so the path
    returned is the lexicographically least shortest source-target path.
    """
    parent = dict.fromkeys(sources, -1)
    for s in parent:
        if s in targets:
            return [s]
    nbrs = g._nbrs
    frontier = list(parent)
    while frontier:
        layer: list[int] = []
        for x in frontier:
            for y in nbrs[x]:
                if y in parent:
                    continue
                parent[y] = x
                if y in targets:
                    path = [y]
                    while x != -1:
                        path.append(x)
                        x = parent[x]
                    return path[::-1]
                layer.append(y)
        frontier = layer
    return None


# The "quarter" of ``distances_from``'s growth rule.  Swept on the gap-d4
# bench workload and a 20k-node instance, 4 and 8 read the same rows and 2
# a few more; from 16 on, a hub's capped searcher reads its leaves' rows.
_SOURCE_BIAS = 4


def distances_from(g: Graph, s: int,
                   cap: float = math.inf) -> Callable[[int], Optional[int]]:
    """Searcher answering hop distances from s: it maps a target t to
    d(s, t), or to None when that exceeds ``cap`` or t is unreachable.

    Bidirectional search over whole layers (Pohl, 1971) whose source side
    is shared by every target.  That side is one ball, the nodes within r
    hops of s, from r = 1, grown in place only on demand, by one C-level
    update over the outer layer's adjacency rows.  The layers inside the
    outer one are kept, so a target in the ball but in none of them lies r
    hops away; the outer layer is built, from the rows of the layer inside
    it, only when the ball grows past it.  A target whose row meets the
    ball lies r + 1 hops away.  Farther targets grow their own side from
    that row: each step grows one side by one layer, and the first new
    layer that meets the other side gives the distance.  Until s's side,
    which later targets reuse, reaches radius ``ceil(cap / 2)``, it is the
    side that grows unless the target's outer layer is under a quarter of
    its own; past that radius, and always at ``cap`` = inf, the side with
    the smaller outer layer grows.  At ``cap`` <= 2 the two rules pick the
    same side.  On the last step ``cap`` allows, the target side only tests
    its outer layer's rows against the ball.  An empty outer layer marks
    its side's component as exhausted.
    """
    nbrs = g._nbrs
    row_of = nbrs.__getitem__
    # layers[k + 1] is layer k, for k < r, after an empty layer -1, so the
    # rows of layer r - 1 minus layers r - 1 and r - 2 are layer r; inner
    # counts the nodes within r - 1 hops.
    layers = [set(), {s}]
    ball = {s, *nbrs[s]}
    inner = 1
    half = (cap + 1) // 2 if cap < math.inf else 0  # ceil(cap / 2)

    def distance(t: int) -> Optional[int]:
        nonlocal inner
        if t in ball:
            return next((k for k, layer in enumerate(layers, -1) if t in layer), len(layers) - 1)
        # Invariant: the two sides are disjoint, so t lies beyond d hops.
        d = len(layers) - 1
        if d >= cap or len(ball) == inner:
            return None
        row = nbrs[t]
        if not ball.isdisjoint(row):
            return d + 1
        # t's side as a set is built only once it must grow; until then the
        # ball can meet only t's row.
        far, far_layer = None, row
        d += 1
        while d < cap:
            if (len(far_layer) * _SOURCE_BIAS if len(layers) <= half
                    else len(far_layer)) < len(ball) - inner:
                if d + 1 == cap:
                    hit = not ball.isdisjoint(chain.from_iterable(map(row_of, far_layer)))
                    return d + 1 if hit else None
                if far is None:
                    far = {t, *row}
                layer = set(chain.from_iterable(map(row_of, far_layer))) - far
                if not layer:
                    return None
                d += 1
                if not ball.isdisjoint(layer):
                    return d
                far |= layer
                far_layer = layer
            else:
                inside = layers[-1]
                layers.append(set(chain.from_iterable(map(row_of, inside))) - inside - layers[-2])
                inner = len(ball)
                ball.update(chain.from_iterable(map(row_of, layers[-1])))
                if len(ball) == inner:
                    return None
                d += 1
                if not ball.isdisjoint(row if far is None else far):
                    return d
        return None

    return distance


def connected_components(g: Graph, members: Iterable[int] | None = None) -> list[list[int]]:
    """Partition of the member set into maximal mutually reachable blocks
    within the induced subgraph, ordered by smallest contained index."""
    S = set(check_ids(members, g.n)) if members is not None else set(range(g.n))
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in sorted(S):
        if start in seen:
            continue
        comp = reach(g, (start,), within=S)
        seen |= comp
        components.append(sorted(comp))
    return components
