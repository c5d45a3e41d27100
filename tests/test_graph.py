import io
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import Graph, connected_components, density, peel
from dualdense.formats import export_json, parse_edge_list
from dualdense.graph import distances_from, nearest, reach
from helpers import (ReadLog, assert_collapsed, assert_same_rows, bfs_hops, edge_weight,
                     graphs_equal, hub_graph, least_shortest_path, random_graph, shared_ints,
                     subset_density)


def triangle(w=1.0):
    return Graph(["a", "b", "c"], [(0, 1, w), (1, 2, w), (0, 2, w)])


class TestConstruction:
    def test_labels_bijective(self):
        g = triangle()
        assert g.labels == ("a", "b", "c")
        assert [g.labels.index(lab) for lab in g.labels] == [0, 1, 2]

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate node label"):
            Graph(["a", "a"], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(["a", "b"], [(0, 0, 1.0)])

    @pytest.mark.parametrize("u, v", [(0, 3), (-1, 0), (True, 2), (0, True), (False, 1)])
    def test_endpoint_outside_the_graph_rejected(self, u, v):
        # A bool is an int, so True and False would otherwise be nodes 1 and 0.
        with pytest.raises(ValueError) as info:
            Graph(["a", "b", "c"], [(u, v, 1.0)])
        assert str(info.value) == f"edge endpoint out of range: ({u}, {v})"

    @pytest.mark.parametrize("bad", [1.0, "0", None, True])
    def test_non_int_id_rejected(self, bad):
        # Edge endpoints follow the id rule of member sets: an int, not a bool.
        for edge in [(bad, 1, 1.0), (0, bad, 1.0)]:
            with pytest.raises(ValueError) as info:
                Graph(["a", "b"], [edge])
            assert str(info.value) == f"edge endpoint out of range: ({edge[0]!r}, {edge[1]!r})"
        with pytest.raises(ValueError) as info:
            density(Graph(["a", "b"], [(0, 1, 1.0)]), [0, bad])
        assert str(info.value) == f"node {bad!r} is not in the graph"

    @pytest.mark.parametrize("w", [0.0, -1.0, math.nan, math.inf, True])
    def test_bad_weight_rejected(self, w):
        with pytest.raises(ValueError):
            Graph(["a", "b"], [(0, 1, w)])

    # The second case overflows inside fsum, the third only when doubled.
    @pytest.mark.parametrize("weights", [[1e308], [1e308, 1e308], [8.9e307, 8.9e307]])
    def test_overflowing_total_rejected(self, weights):
        edges = [(0, i + 1, w) for i, w in enumerate(weights)]
        with pytest.raises(ValueError, match="twice their total overflows"):
            Graph(["a", "b", "c"], edges)

    def test_large_finite_total_accepted(self):
        g = Graph(["a", "b", "c"], [(0, 1, 4e307), (1, 2, 4e307)])
        assert g.total_weight == 8e307
        assert density(g, {0, 1, 2}) == pytest.approx(2 * 8e307 / 3)

    def test_duplicate_edges_keep_max(self):
        g = Graph(["a", "b"], [(0, 1, 0.2), (1, 0, 0.7), (0, 1, 0.5)])
        assert g.edge_count == 1
        assert edge_weight(g, 0, 1) == 0.7
        assert g.duplicates_collapsed == 2

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8))
    def test_matches_tuple_keyed_reference(self, data, n):
        # Int weights too, equal to float ones, and pairs in both orientations.
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        weight = st.sampled_from([0.5, 1, 1.0, 2, 2.5, 5e-324, 1e300])
        edges = [(u, v, w) for (u, v), w in data.draw(st.lists(st.tuples(pair, weight),
                                                                max_size=30))]
        labels = [f"v{i}" for i in range(n)]
        assert_collapsed(Graph(labels, edges), labels, edges)

    def test_rows_hold_one_int_per_node(self):
        # Ids past 256 are separate int objects wherever they are computed;
        # rows that held one per entry would take memory on large graphs.
        n = 600
        rng = random.Random(3)
        pairs = [(i, (i + 1) % n) for i in range(n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)]
        labels = [f"v{i}" for i in range(n)]
        text = "".join(f"v{u}\tv{v}\n" for u, v in pairs)
        for g in (Graph(labels, [(u, v, 1.0) for u, v in pairs]),
                  parse_edge_list(io.StringIO(text), weighted=False)):
            assert shared_ints(g) == g.n

    def test_adjacency_symmetric_and_sorted(self):
        rng = random.Random(7)
        g = random_graph(rng, 12, 0.4)
        for u in range(g.n):
            nbrs = list(g.neighbors(u))
            assert nbrs == sorted(nbrs)
            for v in nbrs:
                assert edge_weight(g, u, v) == edge_weight(g, v, u)


class TestDensity:
    def test_single_heavy_edge(self):
        g = Graph(["a", "b"], [(0, 1, 3.0)])
        assert density(g, {0, 1}) == 3.0

    def test_unit_triangle(self):
        assert density(triangle(), {0, 1, 2}) == 2.0

    def test_unit_four_clique(self):
        g = Graph(list("abcd"), [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)])
        assert density(g, {0, 1, 2, 3}) == 3.0

    def test_singleton(self):
        assert density(triangle(), {1}) == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            density(triangle(), set())


def shortest_path_hops(g, u, v, cap=math.inf):
    """Hop distance and one shortest u-v path from ``nearest``, or None when
    v is unreachable or more than ``cap`` hops away."""
    path = nearest(g, (u,), {v})
    return (len(path) - 1, path) if path is not None and len(path) - 1 <= cap else None


class TestShortestPathHops:
    """Single-source, single-target paths from ``nearest``."""

    def test_adjacent(self):
        g = triangle()
        assert shortest_path_hops(g, 0, 1) == (1, [0, 1])

    def test_identity(self):
        g = triangle()
        assert shortest_path_hops(g, 2, 2) == (0, [2])

    def test_unreachable(self):
        g = Graph(["a", "b", "c"], [(0, 1, 1.0)])
        assert shortest_path_hops(g, 0, 2, cap=math.inf) is None

    def test_cap_excludes(self):
        g = Graph(list("abcd"), [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert shortest_path_hops(g, 0, 3, cap=2) is None
        assert shortest_path_hops(g, 0, 3, cap=3) == (3, [0, 1, 2, 3])

    def test_tie_breaks_to_lowest_index(self):
        # Two shortest a->d paths: via b or via c; lowest index wins.
        g = Graph(list("abcd"), [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        assert shortest_path_hops(g, 0, 3) == (2, [0, 1, 3])


def test_subgraph_keeps_member_order_and_drops_repeats():
    g = Graph(list("abcd"), [(0, 1, 0.5), (1, 3, 2.0), (2, 3, 1.0)])
    h = g.subgraph([3, 1, 3, 0])
    assert h.labels == ("d", "b", "a")
    assert list(h.edges()) == [(0, 1, 2.0), (1, 2, 0.5)]
    assert g.subgraph([0, 1, 3]).labels == ("a", "b", "d")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_edgeless_rows_read_like_rebuilt_graph(seed):
    # Few edges over many nodes, none at the first or last node: every
    # reader sees the shared empty rows as ``Graph``'s own empty lists.
    rng = random.Random(seed)
    n = rng.randint(3, 40)
    inner = range(1, n - 1)
    pairs = {tuple(sorted(rng.sample(inner, 2))) for _ in range(rng.randint(0, n // 4))
             if len(inner) >= 2}
    edges = [(u, v, 1.0 - rng.random()) for u, v in sorted(pairs)]
    labels = [f"v{i}" for i in range(n)]
    g, ref = Graph._from_edges(labels, reversed(edges)), Graph(labels, edges)
    assert_same_rows(g, ref)
    assert [g.degree(v) for v in range(n)] == [ref.degree(v) for v in range(n)]
    assert list(g.edges()) == list(ref.edges())
    members = rng.sample(range(n), rng.randint(1, n))
    cap = rng.choice([1, 2, math.inf])
    for v in range(n):
        assert reach(g, (v,), cap) == reach(ref, (v,), cap)
        assert reach(g, (v,), cap, within=members) == reach(ref, (v,), cap, within=members)
    assert connected_components(g) == connected_components(ref)
    assert connected_components(g, members) == connected_components(ref, members)
    assert density(g, members) == density(ref, members)
    assert peel(g) == peel(ref)
    assert export_json(g) == export_json(ref)

    edgeless = [v for v in range(n) if not ref.degree(v)]
    assert {0, n - 1} <= set(edgeless)
    shared = g.neighbors(0)
    for v in edgeless:
        assert g.neighbors(v) is shared and list(g.incident(v)) == []
    # A shared row must not be a list: a node could otherwise grow it for all.
    with pytest.raises(AttributeError):
        shared.append(1)
    with pytest.raises(TypeError):
        shared[0:0] = [1]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_subgraph_matches_rebuilt_graph(seed):
    # Weights span many magnitudes, so the total is exact only if summed
    # exactly; low edge probabilities leave isolated nodes, and member
    # lists may be empty, repeat members, or list every node.
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    edges = [(u, v, rng.choice([1.0 - rng.random(), 1e300 * rng.random() + 1e-300,
                                rng.random() * 1e-300 + 5e-324, 0.1]))
             for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random() * 0.6]
    g = Graph([f"v{i}" for i in range(n)], edges)
    for members in ([], rng.choices(range(n), k=rng.randint(1, 2 * n)),
                    rng.sample(range(n), n), [rng.randrange(n)] * 3):
        order = list(dict.fromkeys(members))
        new = {old: i for i, old in enumerate(order)}
        expected = Graph([g.labels[i] for i in order],
                         [(new[u], new[v], w) for u, v, w in g.edges()
                          if u in new and v in new])
        assert_same_rows(g.subgraph(members), expected)


@pytest.mark.parametrize("members", [[-1, 1], [3], [0, 1.0], ["a"]])
def test_subgraph_rejects_members_outside_the_graph(members):
    # A negative index would otherwise select a node from the end.
    g = Graph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match="is not in the graph"):
        g.subgraph(members)


# A bool is an int, so True and False would act as nodes 1 and 0; and a set
# or dict keeps only 1 of [1, True], so the check must see every member.
@pytest.mark.parametrize("members", [[True, 2], [0, False], [1, True], [True, 1]])
@pytest.mark.parametrize("check", [density, connected_components, Graph.subgraph])
def test_bool_members_rejected(check, members):
    g = Graph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match=r"^node (True|False) is not in the graph$"):
        check(g, members)


class TestConnectedComponents:
    def test_full_triangle(self):
        assert connected_components(triangle(), {0, 1, 2}) == [[0, 1, 2]]

    def test_induced_split(self):
        g = Graph(list("abcd"), [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert connected_components(g, {0, 1, 3}) == [[0, 1], [3]]

    def test_empty(self):
        assert connected_components(triangle(), set()) == []


graphs_strategy = st.builds(
    lambda n, seed, p: random_graph(random.Random(seed), n, p),
    st.integers(2, 16), st.integers(0, 10_000), st.floats(0.1, 0.7))


@settings(max_examples=60, deadline=None)
@given(g=graphs_strategy, seed=st.integers(0, 10_000))
def test_density_matches_edge_enumeration(g, seed):
    rng = random.Random(seed)
    size = rng.randint(1, g.n)
    S = rng.sample(range(g.n), size)
    assert density(g, S) == pytest.approx(subset_density(g, S), rel=1e-9, abs=1e-12)


caps = st.sampled_from([1, 2, 3, 4, 5, math.inf])


def reference_depths(g, sources, cap, within=None):
    """Multi-source hop depths within cap, from per-pair helpers.bfs_hops
    (on the induced subgraph when ``within`` is given)."""
    h = g if within is None else g.subgraph(within)
    to_h = {v: h.labels.index(g.labels[v]) for v in (within if within is not None else range(g.n))}
    out = {}
    for v in to_h:
        ds = [d for s in sources if (d := bfs_hops(h, to_h[s], to_h[v])) is not None]
        if ds and min(ds) <= cap:
            out[v] = min(ds)
    return out


@settings(max_examples=80, deadline=None)
@given(g=graphs_strategy, seed=st.integers(0, 10_000), cap=caps)
def test_reach_matches_reference(g, seed, cap):
    rng = random.Random(seed)
    sources = rng.sample(range(g.n), rng.randint(1, min(3, g.n)))
    for within in (None, set(sources) | set(rng.sample(range(g.n), rng.randint(0, g.n)))):
        assert reach(g, sources, cap, within) == set(reference_depths(g, sources, cap, within))


@settings(max_examples=80, deadline=None)
@given(g=graphs_strategy, seed=st.integers(0, 10_000))
def test_nearest_is_least_shortest_path(g, seed):
    # Several sources (in ascending order, as repair passes a component) and
    # targets; an empty target set and sources among the targets included.
    rng = random.Random(seed)
    sources = sorted(rng.sample(range(g.n), rng.randint(1, min(4, g.n))))
    targets = set(rng.sample(range(g.n), rng.randint(0, min(4, g.n))))
    if rng.random() < 0.7:
        targets -= set(sources)
    path = nearest(g, sources, targets)
    assert path == least_shortest_path(g, sources, targets)
    if path is not None:
        assert path[0] in sources and path[-1] in targets
        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))


def forest_graph(rng):
    """Several components, each a random tree plus a few chords, and
    isolated nodes.  Each tree node hangs off one of the three nodes added
    before it, so hop distances up to about half a component occur.  Node
    indices are shuffled so that components interleave."""
    n = rng.randint(1, 30)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    start = 0
    while start < n:
        block = order[start:start + rng.randint(1, 12)]
        start += len(block)
        for i in range(1, len(block)):
            u, v = block[i], block[rng.randrange(max(0, i - 3), i)]
            edges.add((min(u, v), max(u, v)))
        for _ in range(rng.randint(0, len(block) // 3)):
            u, v = sorted(rng.sample(block, 2))
            edges.add((u, v))
    return Graph([f"v{i}" for i in range(n)], [(u, v, 1.0) for u, v in sorted(edges)])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_distances_from_matches_reference(seed):
    # One searcher per source and cap answers every node in random order,
    # with repeats and the source itself: unreachable targets and targets
    # beyond the cap both give None.
    rng = random.Random(seed)
    for g in (forest_graph(rng), hub_graph(rng, rng.randint(2, 40))):
        hops = {(s, t): bfs_hops(g, s, t) for s in range(g.n) for t in range(g.n)}
        for s in range(g.n):
            for cap in (1, 2, 3, 4, 5, 6, math.inf):
                distance = distances_from(g, s, cap)
                targets = [*range(g.n), *rng.choices(range(g.n), k=g.n // 2), s]
                rng.shuffle(targets)
                for t in targets:
                    d = hops[s, t]
                    expected = d if d is not None and d <= cap else None
                    assert distance(t) == expected, (s, t, cap)


def hub_path(length):
    """Path 0-1-...-length with 30 leaves hanging off node 0, and one
    isolated node; returns the graph and the leaves' indices."""
    n = length + 1
    edges = [(i, i + 1, 1.0) for i in range(length)]
    edges += [(0, n + i, 1.0) for i in range(30)]
    g = Graph([f"v{i}" for i in range(n + 31)], edges)
    g._nbrs = ReadLog(g._nbrs)
    return g, range(n, n + 30)


@pytest.mark.parametrize("hub_first", [True, False])
def test_distances_from_grows_smaller_side(hub_first):
    # Path 0-1-2-3-4 with 30 leaves hanging off 0.  The hub's side grows at
    # most once (its first layer has 31 nodes), so no leaf's adjacency row
    # is ever read, whichever endpoint the search starts from.
    g, leaves = hub_path(4)
    s, t = (0, 4) if hub_first else (4, 0)
    assert distances_from(g, s)(t) == 4
    assert g._nbrs.read.isdisjoint(leaves)


def test_hub_searcher_reads_no_leaf_row():
    # The hub's first layer, kept between targets, is never grown: each far
    # target grows its own, smaller side instead.
    g, leaves = hub_path(6)
    distance = distances_from(g, 0)
    assert [distance(t) for t in (4, 6, 3, 5, 2, 37, 0)] == [4, 6, 3, 5, 2, None, 0]
    capped = distances_from(g, 0, 4)
    assert [capped(t) for t in (6, 5, 4, 37)] == [None, None, 4, None]
    assert g._nbrs.read.isdisjoint(leaves)


def test_capped_source_side_grows_first():
    # A spider: source 0 has three legs 0-a-b-c, each target c three hops
    # away.  Its first layer (3 nodes) outnumbers a target's (1 node) by
    # less than 4, so at cap 4 the source side, not the target's, grows to
    # radius 2; every later target then meets that ball through its own
    # row, and reads no other.
    legs = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    g = Graph([f"v{i}" for i in range(10)],
              [(u, v, 1.0) for a, b, c in legs for u, v in ((0, a), (a, b), (b, c))])
    g._nbrs = ReadLog(g._nbrs)
    distance = distances_from(g, 0, 4)
    assert distance(3) == 3
    for _, _, c in legs[1:]:
        g._nbrs.read.clear()
        assert distance(c) == 3
        assert g._nbrs.read == {c}


def test_exhausted_source_reads_no_row():
    # Once the source's component {0, 1} is exhausted, targets in the path
    # 2-...-99 are answered without reading any adjacency row.
    g = Graph([f"v{i}" for i in range(100)],
              [(0, 1, 1.0)] + [(i, i + 1, 1.0) for i in range(2, 99)])
    g._nbrs = ReadLog(g._nbrs)
    distance = distances_from(g, 0)
    assert distance(50) is None
    g._nbrs.read.clear()
    assert [distance(t) for t in (30, 98, 1, 2)] == [None, None, 1, None]
    assert not g._nbrs.read


def unit_graph(n, edges):
    g = Graph([f"v{i}" for i in range(n)], [(u, v, 1.0) for u, v in edges])
    g._nbrs = ReadLog(g._nbrs)
    return g


def test_source_ball_grows_into_target_row():
    # Path 0-1-2-3-4 with a leaf 5 on node 4.  The target's row {3, 5}
    # never has fewer nodes than the source's outer layer, so the ball
    # around 0 grows twice, to radius 3, and meets that row: the target's
    # side grows no layer, and its row is the only one read outside the ball.
    g = unit_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert distances_from(g, 0)(4) == 4
    assert g._nbrs.read == {0, 1, 2, 4}


def test_source_ball_grows_after_target_side():
    # Source 0's outer layer {1, 2} holds a hub: node 1 has 20 leaves.  The
    # target 6's side grows first, from its row {5} to the layer {4, 7};
    # that layer is no smaller than {1, 2}, so the ball grows next, and
    # meets the target's side at node 7, on the path 0-2-7-5-6.  The rows
    # of the leaves, of 4 and of 7 are never read.
    edges = [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (5, 6), (5, 7), (2, 7)]
    g = unit_graph(28, edges + [(1, leaf) for leaf in range(8, 28)])
    assert distances_from(g, 0)(6) == 4
    assert g._nbrs.read == {0, 1, 2, 5, 6}


def test_capped_last_step_reads_target_rows_only():
    # Source 0 with three legs 0-a-b; at cap 4 the ball grows to radius 2
    # first.  Target 8 (row {7, 9}) is then one layer short of the cap, so
    # its last step tests its neighbours' rows against the ball, in order,
    # and stops at the first that meets it.  Target 12 lies 5 hops away:
    # its row and its neighbours' rows are the only ones read.
    legs = [(0, 1), (1, 4), (0, 2), (2, 5), (0, 3), (3, 6)]
    g = unit_graph(16, legs + [(4, 7), (7, 8), (8, 9), (9, 10), (6, 15), (13, 15),
                               (12, 13), (12, 14)])
    distance = distances_from(g, 0, 4)
    assert distance(8) == 4
    assert g._nbrs.read == {0, 1, 2, 3, 7, 8}
    g._nbrs.read.clear()
    assert distance(12) is None
    assert g._nbrs.read == {12, 13, 14}


def test_outer_layer_target_reads_no_row():
    # Path 0-1-...-9 searched from 0.  Target 3 grows the ball to 0..2,
    # whose outer layer {2} is kept only implicitly; target 9 grows it past
    # that layer, to 0..8.  Targets in the outer layer, 2 and then 8, and
    # targets inside it are answered without reading a row.
    g = unit_graph(10, [(i, i + 1) for i in range(9)])
    distance = distances_from(g, 0)
    assert distance(3) == 3
    g._nbrs.read.clear()
    assert [distance(t) for t in (2, 1, 0)] == [2, 1, 0]
    assert not g._nbrs.read
    assert distance(9) == 9
    g._nbrs.read.clear()
    assert [distance(t) for t in (8, 2, 7, 0)] == [8, 2, 7, 0]
    assert not g._nbrs.read


def test_source_side_reads_each_row_at_most_twice():
    # Path 0-...-40 searched from 0: the ball grows 38 times to meet the
    # target's row.  Each row is read once to grow the ball past its node
    # and once to build the layer beyond it; a layer that kept nodes of
    # older layers would read their rows again at every growth.
    g = unit_graph(41, [(i, i + 1) for i in range(40)])
    assert distances_from(g, 0)(40) == 40
    assert max(g._nbrs.counts.values()) <= 2


def test_path_searcher_memory():
    # One searcher from the middle of a 16k-node path: targets 0 and n - 1
    # grow only their own sides, and n/4 grows the source's side to radius
    # n/4 - 1, keeping its 4k layers of two nodes each.  Before the ball grew
    # in place the traced peak was 1,160,720 bytes on CPython 3.11, and
    # 1,422,724 after: the in-place update sizes the ball's table for
    # twice the entries a set union does.  Nested balls kept instead of
    # layers would take memory quadratic in the radius.
    n = 16_000
    g = Graph([f"v{i}" for i in range(n)], [(i, i + 1, 1.0) for i in range(n - 1)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        distance = distances_from(g, n // 2)
        assert [distance(t) for t in (0, n - 1, n // 4)] == [n // 2, n // 2 - 1, n // 4]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 1_160_720


@settings(max_examples=40, deadline=None)
@given(g=graphs_strategy, seed=st.integers(0, 10_000))
def test_components_partition(g, seed):
    rng = random.Random(seed)
    S = set(rng.sample(range(g.n), rng.randint(0, g.n)))
    comps = connected_components(g, S)
    flat = [v for comp in comps for v in comp]
    assert sorted(flat) == sorted(S)
    assert len(set(flat)) == len(flat)
    block_of = {v: i for i, comp in enumerate(comps) for v in comp}
    for u, v, _ in g.edges():
        if u in S and v in S:
            assert block_of[u] == block_of[v]
    for comp in comps:
        sub = g.subgraph(comp)
        assert len(connected_components(sub)) <= 1


def test_graphs_equal_by_labels():
    a = Graph(["x", "y"], [(0, 1, 0.5)])
    b = Graph(["y", "x"], [(0, 1, 0.5)])
    assert graphs_equal(a, b)
    c = Graph(["x", "y"], [(0, 1, 0.6)])
    assert not graphs_equal(a, c)
