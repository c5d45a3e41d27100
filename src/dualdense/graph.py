"""Undirected weighted graph with string labels and dense integer indices.

Every other module consumes this representation: adjacency lists sorted by
neighbor index (which makes every traversal deterministic), strictly
positive edge weights, and weight 1.0 everywhere for unweighted graphs.
Graphs are immutable after construction; concurrent reads are safe.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from itertools import chain, count
from operator import itemgetter

IndexEdge = tuple[int, int, float]
LabelEdge = tuple[str, str, float]


class Record:
    """The package's one record base, for every result and option record:
    ``==`` compares two records of one class field by field, ``repr`` names
    every field, and records stay mutable and, as ``__eq__`` without
    ``__hash__`` makes them, unhashable.  The fields are the instance
    attributes, in the order ``__init__`` sets them.  ``Graph`` and
    ``DualNetwork`` define no ``==``, so a field holding one compares by
    identity: two ``extract_dcs`` runs on one input give unequal results.
    (Records are not dataclasses: ``dataclasses`` would add its imports to
    every start.)"""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges, weights > 0.

    Nodes are indices ``0..n-1``; ``labels[i]`` is the external name of node
    ``i`` and the label->index mapping is bijective.  ``Graph(labels, edges)``
    and ``formats.parse_edge_list`` each append every input edge to both
    endpoints' rows in their own checking loop, with no edge table beside
    them; ``_finish`` sorts the rows and collapses a repeated neighbour to
    its maximum weight, counting the dropped edges in ``duplicates_collapsed``.

    Node u's neighbours and their weights are two parallel rows, sorted by
    neighbor index.  Rows are only read once built: a node with no edge may
    share one immutable empty row with the other edgeless nodes, and the
    unit-weight rows of nodes of one degree may be one shared tuple.

    ``_index`` maps each label to its id.  A graph built from labels keeps
    the map its checking loop interned them with; a graph derived from
    another (``subgraph``, the alignment graph) builds it on first read.
    """

    __slots__ = ("labels", "_label_index", "_nbrs", "_wts", "edge_count",
                 "total_weight", "duplicates_collapsed")

    def __init__(self, labels: Sequence[str], edges: Iterable[IndexEdge]):
        labels = tuple(labels)
        index: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise ValueError(f"duplicate node label {lab!r}")
            index[lab] = i
        n = len(labels)
        # Rows hold ``index``'s own id ints, one int object per node.
        ids = list(index.values())
        nbrs: list[list[int]] = [[] for _ in ids]
        wts: list[list[float]] = [[] for _ in ids]
        for u, v, w in edges:
            # ``check_ids``'s rule inline; ``type`` is the cheapest exact bool test.
            if not (isinstance(u, int) and type(u) is not bool and 0 <= u < n
                    and isinstance(v, int) and type(v) is not bool and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u!r}, {v!r})")
            if u == v:
                raise ValueError(f"self-loop on node {labels[u]!r}")
            # The chained test refuses NaN, and an int past float range before converting it.
            if (not isinstance(w, (int, float)) or type(w) is bool
                    or not 0 < w <= sys.float_info.max):
                raise ValueError(f"edge weight must be a positive finite number, got {w!r}")
            w = float(w)
            nbrs[u].append(ids[v])
            wts[u].append(w)
            nbrs[v].append(ids[u])
            wts[v].append(w)
        self._finish(index, nbrs, wts)

    def _finish(self, index: dict[str, int], nbrs: list[list[int]],
                wts: list[list[float]] | None) -> None:
        """The one row finisher: this graph over ``index`` (label -> id, in
        id order) and, per node, the unsorted rows of its input edges'
        other ends and weights, or ``wts`` None when every weight is 1.0.

        Each row becomes a tuple sorted by neighbour, where a repeated
        neighbour keeps its largest weight; ``duplicates_collapsed`` counts
        the edges so dropped.  Unit-weight rows share one ``(1.0,) * d``
        tuple per degree d.  Tuples of ints and floats drop out of the
        cyclic collector's scans."""
        seen = sum(map(len, nbrs)) // 2
        if wts is None:
            for u, row in enumerate(nbrs):
                row.sort()
                nbrs[u] = tuple(row) if len(set(row)) == len(row) else tuple(sorted(set(row)))
            unit = {d: (1.0,) * d for d in set(map(len, nbrs))}
            wts = [unit[len(row)] for row in nbrs]
        else:
            for u, row in enumerate(nbrs):
                # Sorted pairs put a neighbour's largest weight last; the dict keeps it.
                kept = dict(sorted(zip(row, wts[u])))
                nbrs[u], wts[u] = tuple(kept), tuple(kept.values())
        self._set_rows(tuple(index), index, nbrs, wts)
        self.duplicates_collapsed = seen - self.edge_count
        # Densities sum volumes, so twice the total weight must stay finite.
        if not math.isfinite(2.0 * self.total_weight):
            raise ValueError("edge weights too large: twice their total overflows a float")

    def _set_rows(self, labels: tuple[str, ...], index: dict[str, int] | None,
                  nbrs: list[Sequence[int]], wts: list[Sequence[float]]) -> None:
        """Keep finished rows over ``labels`` and their ``index``, None to
        build it on first read, and count their edges and total weight."""
        self.labels, self._label_index, self._nbrs, self._wts = labels, index, nbrs, wts
        self.edge_count = sum(map(len, nbrs)) // 2
        # Each weight is in two rows; halving their exact sum is exact.
        try:
            self.total_weight = math.fsum(chain.from_iterable(wts)) / 2
        except OverflowError:
            self.total_weight = math.inf

    @classmethod
    def _from_rows(cls, labels: Sequence[str], nbrs: list[Sequence[int]],
                   wts: list[Sequence[float]]) -> "Graph":
        """A graph over adjacency rows, sorted by neighbor, that were built
        from data already keeping every rule ``__init__`` checks, so none is
        checked again."""
        g = cls.__new__(cls)
        g._set_rows(tuple(labels), None, nbrs, wts)
        g.duplicates_collapsed = 0
        return g

    @classmethod
    def _from_edges(cls, labels: Sequence[str], edges: Iterable[IndexEdge]) -> "Graph":
        """``Graph(labels, edges)`` for edges ``(u, v, w)`` with u < v, each
        pair once, that already keep every rule ``__init__`` checks.  When the
        edges name fewer endpoints, repeats counted, than there are nodes, the
        edgeless nodes share the empty tuple, so few edges over many nodes make
        few objects for the cyclic collector to scan; else every node gets lists."""
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

    @property
    def _index(self) -> dict[str, int]:
        if self._label_index is None:
            self._label_index = dict(zip(self.labels, range(self.n)))
        return self._label_index

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
        return {1.0}.issuperset(chain.from_iterable(self._wts))

    def subgraph(self, members: Iterable[int]) -> "Graph":
        """Induced subgraph with labels preserved: node i of the result is
        the i-th distinct member in the order given, as ``_induced``'s one group."""
        order = list(dict.fromkeys(check_ids(members, self.n)))
        return self._induced([self.labels[i] for i in order], [dict(zip(order, count()))])

    def _induced(self, labels: Sequence[str], groups: Iterable[dict[int, int]]) -> "Graph":
        """The one induced-row loop: the graph over ``labels`` of this graph's
        edges within a group, each group mapping old ids to new ids ascending.
        Members join their group neighbours' rows in that order, so rows come
        out sorted with no sort; a node with no edge keeps the shared ``()``."""
        nbrs: list[Sequence] = [()] * len(labels)
        wts: list[Sequence] = nbrs.copy()
        for group in groups:
            new_id = group.get
            for old, new in group.items():
                if self._nbrs[old]:
                    nbrs[new], wts[new] = [], []
            for old, new in group.items():
                for v, w in zip(map(new_id, self._nbrs[old]), self._wts[old]):
                    if v is not None:
                        nbrs[v].append(new)
                        wts[v].append(w)
        return Graph._from_rows(labels, nbrs, wts)

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
          within: Collection[int] | None = None) -> set[int]:
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
            targets: Collection[int]) -> tuple[list[int], dict[int, int]] | None:
    """Shortest path from a source to the first target reached, with the
    search's record, or None when no target is reachable.

    Breadth-first search over sorted adjacency, recording each node's
    parent: its earliest-discovered neighbor one layer up (-1 for a
    source).  With sources in ascending order, discovery order within a
    layer is the lexicographic order of the nodes' least shortest paths, so
    the path returned is the lexicographically least shortest source-target
    path.  The record is the parent map in discovery order, ending at the
    target.  Discovery order does not depend on the targets, so a search
    for more targets Y would stop at the record's first node in Y, with
    ``path_to`` that node as its path and the record cut after it.
    """
    parent: dict[int, int] = {}
    for s in sources:
        parent[s] = -1
        if s in targets:
            return [s], parent
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
                    return path_to(parent, y), parent
                layer.append(y)
        frontier = layer
    return None


def path_to(parent: dict[int, int], v: int) -> list[int]:
    """The path from a source to ``v`` in a search record of ``nearest``."""
    path = [v]
    while (v := parent[v]) != -1:
        path.append(v)
    return path[::-1]


# The "quarter" of ``distances_from``'s growth rule.  Swept on the gap-d4
# bench workload and a 20k-node instance, 4 and 8 read the same rows and 2
# a few more; from 16 on, a hub's capped searcher reads its leaves' rows.
_SOURCE_BIAS = 4
# The radius of ``distances_from``'s source-first phase at cap = inf.  On
# the 20k-node instance's per-hop inf build, 3 read the fewest adjacency
# rows (2.96M, against 3.81M with no such phase, 3.80M at 2 and 3.00M from
# 4 on) and tied 4 for the fastest.
_SOURCE_RADIUS = 3


def distances_from(g: Graph, s: int,
                   cap: float = math.inf) -> Callable[[int], int | None]:
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
    which later targets reuse, reaches radius ``ceil(cap / 2)``, or 3 at
    ``cap`` = inf, it is the side that grows unless the target's outer
    layer is under a quarter of its own; past that radius the side with the
    smaller outer layer grows.  At ``cap`` <= 2 the two rules pick the
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
    half = (cap + 1) // 2 if cap < math.inf else _SOURCE_RADIUS  # ceil(cap / 2) if capped

    def distance(t: int) -> int | None:
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
