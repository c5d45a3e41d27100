import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import (ConfigError, Connectivity, DcsOptions,
                       DualNetwork, Graph, brute_force_dcs, extract_dcs,
                       verify_physical_connectivity)
from helpers import brute_dcs, physically_connected, random_dual_network, random_partial_dual


def identity_dual(conc_edges, phys_edges, labels):
    conceptual = Graph(labels, conc_edges)
    physical = Graph(labels, [(u, v, 1.0) for u, v in phys_edges])
    corr = tuple((lab, lab) for lab in labels)
    return DualNetwork(conceptual, physical, corr)


class TestBruteForceDcs:
    def test_heavy_pair_beats_triangle(self):
        dn = identity_dual([(0, 1, 1.0), (1, 2, 0.1), (0, 2, 0.1)],
                           [(0, 1), (1, 2), (0, 2)], list("abc"))
        result = brute_force_dcs(dn)
        assert result.nodes == frozenset({0, 1})
        assert result.density == 1.0

    def test_connectivity_excludes_isolated(self):
        dn = identity_dual([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                           [(0, 1)], list("abc"))
        result = brute_force_dcs(dn)
        assert result.nodes == frozenset({0, 1})
        assert result.density == 1.0

    def test_shared_four_clique(self):
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        dn = identity_dual([(u, v, 1.0) for u, v in pairs], pairs, list("abcd"))
        result = brute_force_dcs(dn)
        assert result.nodes == frozenset({0, 1, 2, 3})
        assert result.density == 3.0

    def test_ties_prefer_fewer_pairs_then_least_ids(self):
        # {0, 1}, {0, 1, 2} and {3, 4} all have density 1.5.
        dn = identity_dual([(0, 1, 1.5), (1, 2, 0.75), (3, 4, 1.5)],
                           [(0, 1), (1, 2), (3, 4)], list("abcde"))
        result = brute_force_dcs(dn)
        assert result.nodes == frozenset({0, 1})
        assert result.density == 1.5

    def test_cap_refused(self):
        labels = [f"n{i}" for i in range(26)]
        phys = [(i, i + 1) for i in range(25)]
        dn = identity_dual([(0, 1, 0.5)], phys, labels)
        with pytest.raises(ConfigError, match="cap of 25"):
            brute_force_dcs(dn)
        assert brute_force_dcs(dn, node_cap=26).nodes == frozenset({0, 1})

    def test_singleton_fallback(self):
        dn = identity_dual([(0, 1, 0.5)], [], ["a", "b"])
        result = brute_force_dcs(dn)
        assert result.nodes == frozenset({0})
        assert result.density == 0.0

    @pytest.mark.parametrize("bound", [2.5, True, "3"])
    def test_non_integer_max_nodes_refused(self, bound):
        # A bool or a non-integer bound never names a subset size.
        dn = identity_dual([(0, 1, 1.0)], [(0, 1)], ["a", "b"])
        with pytest.raises(ConfigError, match="max_nodes"):
            brute_force_dcs(dn, max_nodes=bound)

    def test_max_nodes_bounds_subset_size(self):
        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        dn = identity_dual([(u, v, 1.0) for u, v in pairs], pairs, list("abcde"))
        result = brute_force_dcs(dn, max_nodes=3)
        assert len(result.nodes) == 3
        assert result.density == 2.0


def count_subtrees(g: Graph) -> int:
    """Connected subsets of a tree, by re-rooted product dynamic programming:
    down[v] = prod(1 + down[child]); total = sum over roots of subsets whose
    minimum-depth node is that root."""
    # For a tree, the number of connected subsets equals the sum over v of
    # the number of connected subsets containing v entirely within the
    # subtree rooted at v (rooting the tree once at node 0 makes each subset
    # counted exactly once, at its unique shallowest node).
    root = 0
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        for y in g.neighbors(x):
            if y not in parent:
                parent[y] = x
                order.append(y)
                stack.append(y)
    down = {v: 1 for v in order}
    for v in reversed(order):
        for y in g.neighbors(v):
            if y != parent[v]:
                down[v] *= 1 + down[y]
    return sum(down.values())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_enumeration_complete_on_trees(seed, n):
    rng = random.Random(seed)
    labels = [f"t{i}" for i in range(n)]
    phys = [(i, rng.randrange(i)) for i in range(1, n)]
    conc = [(u, v, 1.0 - rng.random()) for u, v in phys]
    if not conc:
        conceptual = Graph(labels, [])
    else:
        conceptual = Graph(labels, conc)
    physical = Graph(labels, [(u, v, 1.0) for u, v in phys])
    dn = DualNetwork(conceptual, physical,
                     tuple((lab, lab) for lab in labels))
    result = brute_force_dcs(dn)
    assert result.explored == count_subtrees(physical)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10),
       max_nodes=st.sampled_from([None, 1, 2, 3]))
def test_explored_counts_connected_subsets(seed, n, max_nodes):
    """Every connected subset of at most max_nodes pairs, singletons
    included, is explored exactly once, on random physical graphs with
    cycles."""
    rng = random.Random(seed)
    labels = [f"u{i}" for i in range(n)]
    phys = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    dn = identity_dual([(u, v, 1.0 - rng.random()) for u, v in phys], phys, labels)
    largest = n if max_nodes is None else max_nodes
    expect = sum(1 for size in range(1, largest + 1)
                 for combo in combinations(range(n), size)
                 if physically_connected(dn, combo))
    assert brute_force_dcs(dn, max_nodes=max_nodes).explored == expect


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10),
       max_nodes=st.sampled_from([None, 2, 3]),
       generate=st.sampled_from([random_dual_network, random_partial_dual]))
def test_matches_powerset_enumeration(seed, n, max_nodes, generate):
    # random_partial_dual keeps pair ids and conceptual indices apart, so a
    # weight read from the wrong index space fails.
    dn = generate(random.Random(seed), n)
    expect_density, expect_nodes = brute_dcs(dn, max_size=max_nodes)
    result = brute_force_dcs(dn, max_nodes=max_nodes)
    assert result.density == pytest.approx(expect_density, rel=1e-9, abs=1e-12)
    assert result.nodes == expect_nodes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
def test_result_strictly_connected_and_dominant(seed, n):
    dn = random_dual_network(random.Random(seed), n)
    oracle = brute_force_dcs(dn)
    assert verify_physical_connectivity(dn, oracle.nodes, Connectivity.STRICT)
    pipeline = extract_dcs(dn, DcsOptions(delta=2))
    assert oracle.density >= pipeline.conceptual_density - 1e-9
