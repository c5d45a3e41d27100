import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import Graph, peel
from helpers import (brute_densest, check_peel_order, edge_weight, exact_densest,
                     random_graph, reference_peel, subset_density)


def clique_plus_pendant():
    """Unit 4-clique with one pendant node hanging off node 0."""
    edges = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
    edges.append((0, 4, 1.0))
    return Graph(list("abcde"), edges)


class TestPeel:
    def test_clique_plus_pendant(self):
        g = clique_plus_pendant()
        # Frozen from brute force over all 2^5 - 1 subsets.
        assert brute_densest(g) == (3.0, frozenset({0, 1, 2, 3}))
        result, _ = peel(g)
        assert result.nodes == frozenset({0, 1, 2, 3})
        assert result.density == 3.0

    def test_single_heavy_edge(self):
        g = Graph(["a", "b"], [(0, 1, 5.0)])
        result, _ = peel(g)
        assert result.nodes == frozenset({0, 1})
        assert result.density == 5.0

    def test_heavy_edge_beats_triangle(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 10.0)]
        g = Graph(list("abcde"), edges)
        assert brute_densest(g)[0] == 10.0
        result, _ = peel(g)
        assert result.nodes == frozenset({3, 4})
        assert result.density == 10.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            peel(Graph([], []))

    def test_trace_shape(self):
        g = clique_plus_pendant()
        result, trace = peel(g)
        assert len(trace.removal_order) == g.n
        assert sorted(trace.removal_order) == list(range(g.n))
        assert len(trace.density_at_prefix) == g.n
        assert trace.density_at_prefix[trace.best_prefix_index] == max(trace.density_at_prefix)
        assert trace.removal_order[0] == 4  # pendant has minimum vol
        assert set(trace.removal_order[trace.best_prefix_index:]) == set(result.nodes)

    def test_min_vol_removed_each_step(self):
        rng = random.Random(3)
        g = random_graph(rng, 14, 0.4)
        _, trace = peel(g)
        alive = set(range(g.n))
        for v in trace.removal_order:
            vols = {u: sum(w for x, w in g.incident(u) if x in alive) for u in alive}
            m = min(vols.values())
            candidates = sorted(u for u in alive if abs(vols[u] - m) <= 1e-12)
            assert v == candidates[0]
            alive.remove(v)

    def test_tie_reports_latest_prefix(self):
        # Two disjoint unit edges: density 1.0 at 4, 2 nodes remaining.
        g = Graph(list("abcd"), [(0, 1, 1.0), (2, 3, 1.0)])
        result, trace = peel(g)
        assert trace.density_at_prefix == [1.0, pytest.approx(2 / 3), 1.0, 0.0]
        assert trace.tied_prefix_indices == [0, 2]
        assert trace.best_prefix_index == 2
        assert result.nodes == frozenset({2, 3})


class TestExactDensest:
    def test_clique_plus_pendant(self):
        result = exact_densest(clique_plus_pendant())
        assert result.nodes == frozenset({0, 1, 2, 3})
        assert result.density == 3.0

    def test_single_node(self):
        result = exact_densest(Graph(["a"], []))
        assert result.nodes == frozenset({0})
        assert result.density == 0.0

    def test_unit_path_takes_all(self):
        g = Graph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)])
        result = exact_densest(g)
        assert result.nodes == frozenset({0, 1, 2})
        assert result.density == pytest.approx(4 / 3)

    def test_limit_refused(self):
        g = random_graph(random.Random(0), 9, 0.3)
        with pytest.raises(ValueError, match="limited to 8"):
            exact_densest(g, limit=8)

    def test_lexicographic_tie_break(self):
        # Two disjoint unit edges tie at density 1; {a, b} wins.
        g = Graph(list("abcd"), [(2, 3, 1.0), (0, 1, 1.0)])
        assert exact_densest(g).nodes == frozenset({0, 1})

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
    def test_matches_independent_enumeration(self, seed, n):
        g = random_graph(random.Random(seed), n, 0.45)
        best_d, _ = brute_densest(g)
        result = exact_densest(g)
        assert result.density == pytest.approx(best_d, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_two_approximation(seed, n):
    g = random_graph(random.Random(seed), n, 0.4)
    greedy, _ = peel(g)
    exact = exact_densest(g)
    assert greedy.density >= 0.5 * exact.density - 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14))
def test_deterministic(seed, n):
    g = random_graph(random.Random(seed), n, 0.4)
    r1, t1 = peel(g)
    r2, t2 = peel(g)
    assert t1.removal_order == t2.removal_order
    assert t1.density_at_prefix == t2.density_at_prefix
    assert r1.nodes == r2.nodes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14))
def test_trace_consistent_with_recomputation(seed, n):
    g = random_graph(random.Random(seed), n, 0.4)
    result, trace = peel(g)
    check_peel_order(g, trace.removal_order)
    for i, d in enumerate(trace.density_at_prefix):
        suffix = trace.removal_order[i:]
        assert d == pytest.approx(subset_density(g, suffix), rel=1e-9, abs=1e-12)
    assert result.density == pytest.approx(trace.density_at_prefix[trace.best_prefix_index],
                                           rel=1e-9, abs=1e-12)
    # Unit weights sum exactly, so ties must go to the lowest index.
    unit = random_graph(random.Random(seed), n, 0.4, weighted=False)
    check_peel_order(unit, peel(unit)[1].removal_order, rel_tol=0.0)


def graph_of_shape(rng: random.Random, shape: str, n: int, weighted: bool) -> Graph:
    """A random graph on n >= 2 nodes: "edgeless"; "isolated", with edges
    only among a random third of the nodes; or "covered", where every node
    has an edge."""
    labels = [f"u{i}" for i in range(n)]

    def weight() -> float:
        return 1.0 - rng.random() if weighted else 1.0

    if shape == "edgeless":
        return Graph(labels, [])
    if shape == "isolated":
        active = rng.sample(range(n), (n + 2) // 3)
        return Graph(labels, [(u, v, weight()) for u, v in combinations(active, 2)
                              if rng.random() < 0.5])
    edges = {(u, v): weight() for u, v in combinations(range(n), 2) if rng.random() < 0.2}
    for v in range(n):
        if not any(v in e for e in edges):
            u = rng.choice([u for u in range(n) if u != v])
            edges[(min(u, v), max(u, v))] = weight()
    return Graph(labels, [(u, v, w) for (u, v), w in edges.items()])


@settings(max_examples=90, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
       shape=st.sampled_from(["isolated", "edgeless", "covered"]), weighted=st.booleans())
def test_zero_volume_prefix_matches_reference(seed, n, shape, weighted):
    g = graph_of_shape(random.Random(seed), shape, n, weighted)
    if shape == "covered":
        assert all(g.degree(v) for v in range(n))
    result, trace = peel(g)
    expected, reference = reference_peel(g)
    assert trace.removal_order == reference.removal_order
    # The reference keeps the remaining weight by subtraction, which drifts.
    assert trace.density_at_prefix == pytest.approx(reference.density_at_prefix,
                                                    rel=1e-9, abs=1e-12)
    assert trace.best_prefix_index == reference.best_prefix_index
    assert trace.tied_prefix_indices == reference.tied_prefix_indices
    assert result.nodes == expected.nodes


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12),
       factor=st.sampled_from([0.5, 2.0, 4.0, 1024.0]))
def test_scaling_weights_preserves_selection(seed, n, factor):
    # Powers of two scale exactly in binary floating point.
    g = random_graph(random.Random(seed), n, 0.4)
    scaled = Graph(g.labels, [(u, v, w * factor) for u, v, w in g.edges()])
    r1, t1 = peel(g)
    r2, t2 = peel(scaled)
    assert t1.removal_order == t2.removal_order
    assert r1.nodes == r2.nodes
    assert r2.density == pytest.approx(r1.density * factor, rel=1e-12)


def test_scaling_by_arbitrary_factor():
    g = random_graph(random.Random(11), 12, 0.4)
    scaled = Graph(g.labels, [(u, v, w * 3.7) for u, v, w in g.edges()])
    assert peel(scaled)[0].nodes == peel(g)[0].nodes


def test_large_scale_peel_under_ten_seconds():
    # O((n+m) log n) heap peeling on 1e5 nodes / 1e6 edges.
    import time
    rng = random.Random(5)
    n, m = 100_000, 1_000_000
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph([str(i) for i in range(n)],
              [(u, v, 1.0 - rng.random()) for u, v in sorted(edges)])
    t0 = time.monotonic()
    result, trace = peel(g)
    elapsed = time.monotonic() - t0
    assert len(trace.removal_order) == n
    assert result.density > 0
    assert elapsed < 10.0


@settings(max_examples=90, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
       shape=st.sampled_from(["isolated", "edgeless", "covered"]))
def test_density_curve_summed_from_the_tail(seed, n, shape):
    g = graph_of_shape(random.Random(seed), shape, n, weighted=True)
    _, trace = peel(g)
    curve, order = trace.density_at_prefix, trace.removal_order
    assert min(curve) >= 0.0
    assert curve[-1] == 0.0
    assert curve[-2] == (edge_weight(g, order[-2], order[-1]) or 0.0)
    for i, d in enumerate(curve):
        suffix = set(order[i:])
        weight = math.fsum(w for u, v, w in g.edges() if u in suffix and v in suffix)
        assert d == pytest.approx(2 * weight / len(suffix), rel=1e-12, abs=0.0)
