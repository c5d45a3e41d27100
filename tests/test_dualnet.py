import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import DualNetwork, Graph, density
from helpers import edge_weight, random_dual_network, random_partial_dual, subset_density


def small_pair():
    conceptual = Graph(["w1", "w2", "w3"], [(0, 1, 0.7), (1, 2, 0.4)])
    physical = Graph(["v1", "v2", "v3"], [(0, 1, 1.0)])
    return conceptual, physical


class TestValidate:
    """Correspondence checks made when a DualNetwork is built."""

    def test_clean(self):
        c, p = small_pair()
        dn = DualNetwork(c, p, (("w1", "v1"), ("w2", "v2"), ("w3", "v3")))
        assert dn.pair_conceptual == [0, 1, 2]
        assert dn.pair_physical == [0, 1, 2]
        assert dn.pair_of_conceptual == {0: 0, 1: 1, 2: 2}
        assert dn.pairs == (("w1", "v1"), ("w2", "v2"), ("w3", "v3"))

    def test_duplicate_conceptual(self):
        c, p = small_pair()
        with pytest.raises(ValueError) as info:
            DualNetwork(c, p, (("w1", "v1"), ("w1", "v2")))
        assert str(info.value) == "invalid dual network: 1 duplicate correspondence entries"

    def test_dangling_label(self):
        c, p = small_pair()
        with pytest.raises(ValueError) as info:
            DualNetwork(c, p, (("w1", "v1"), ("w2", "nope")))
        assert str(info.value) == "invalid dual network: 1 dangling labels ('nope')"

    def test_unmatched_counts(self):
        # Nodes outside the correspondence are allowed and left unpaired.
        c, p = small_pair()
        dn = DualNetwork(c, p, (("w1", "v1"),))
        assert dn.pair_count == 1
        assert dn.pair_of_conceptual == {0: 0}
        assert dn.pair_graph.labels == ("v1",)

    def test_every_problem_reported(self):
        c = Graph(["w1", "w2"], [(0, 1, 0.5)])
        heavy = Graph(["v1", "v2"], [(0, 1, 2.0)])
        corr = (("w1", "v1"), ("w1", "x"), ("y", "v1"), ("w2", "x"))
        with pytest.raises(ValueError) as info:
            DualNetwork(c, heavy, corr)
        assert str(info.value) == (
            "invalid dual network: 2 duplicate correspondence entries; "
            "2 dangling labels ('x', 'y'); physical network must have unit edge weights")

    def test_many_dangling_labels_summarised(self):
        c, p = small_pair()
        corr = tuple((f"c{i}", f"p{i}") for i in range(8000))
        with pytest.raises(ValueError) as info:
            DualNetwork(c, p, corr)
        assert str(info.value) == ("invalid dual network: 16000 dangling labels "
                                   "('c0', 'p0', 'c1', 'p1', 'c2', ...)")


class TestDualNetwork:
    def test_construction_requires_valid(self):
        c, p = small_pair()
        with pytest.raises(ValueError, match="duplicate"):
            DualNetwork(c, p, (("w1", "v1"), ("w1", "v2")))
        with pytest.raises(ValueError, match="empty"):
            DualNetwork(c, p, ())

    def test_physical_must_be_unit(self):
        c, _ = small_pair()
        heavy = Graph(["v1", "v2", "v3"], [(0, 1, 2.0)])
        with pytest.raises(ValueError, match="unit"):
            DualNetwork(c, heavy, (("w1", "v1"),))

    def test_pair_tables(self):
        c, p = small_pair()
        dn = DualNetwork(c, p, (("w2", "v1"), ("w1", "v3")))
        assert dn.pair_count == 2
        assert dn.pairs[0] == ("w2", "v1")
        assert dn.pair_of_conceptual[c.labels.index("w1")] == 1
        assert dn.pair_graph.labels == ("v1", "v3")


def induced(dn, members):
    """Conceptual and physical subgraphs induced by pair ids, read off the
    pair tables."""
    return (dn.conceptual.subgraph(dn.conceptual_nodes(members)),
            dn.physical.subgraph(dn.physical_nodes(members)))


class TestInduced:
    def make(self):
        c, p = small_pair()
        corr = (("w1", "v1"), ("w2", "v2"), ("w3", "v3"))
        return DualNetwork(c, p, corr)

    def test_identity(self):
        dn = self.make()
        ci, pi = induced(dn, {0, 1, 2})
        assert set(ci.labels) == {"w1", "w2", "w3"}
        assert ci.edge_count == 2
        assert pi.edge_count == 1

    def test_single_node(self):
        dn = self.make()
        ci, pi = induced(dn, {1})
        assert ci.labels == ("w2",)
        assert ci.edge_count == 0 and pi.edge_count == 0

    def test_conceptual_only_edge(self):
        dn = self.make()
        ci, pi = induced(dn, {1, 2})
        assert ci.edge_count == 1
        assert pi.edge_count == 0

    def test_unknown_pair_id_rejected(self):
        dn = self.make()
        for members in ({0, 9}, {-1}, {"0"}):
            with pytest.raises(ValueError, match="is not a correspondence pair id"):
                dn.conceptual_nodes(members)
            with pytest.raises(ValueError, match="is not a correspondence pair id"):
                dn.physical_nodes(members)

    @pytest.mark.parametrize("members", [[True, 2], [False], [1, True]])
    def test_bool_pair_id_rejected(self, members):
        # True and False would act as pair ids 1 and 0, and set([1, True])
        # keeps only the 1.
        dn = self.make()
        for check in (dn.conceptual_nodes, dn.physical_nodes, dn.conceptual_density):
            with pytest.raises(ValueError, match="^True is not|^False is not"):
                check(members)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_induced_density_matches_in_place(seed, n):
    rng = random.Random(seed)
    dn = random_dual_network(rng, n)
    size = rng.randint(1, n)
    S = set(rng.sample(range(dn.pair_count), size))
    ci, _ = induced(dn, S)
    in_place = density(dn.conceptual, dn.conceptual_nodes(S))
    assert density(ci, range(ci.n)) == pytest.approx(in_place, rel=1e-9, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["dup_c", "dup_p", "dangling"]))
def test_fuzzed_violations_rejected(seed, kind):
    rng = random.Random(seed)
    dn = random_dual_network(rng, rng.randint(2, 8))
    pairs = list(dn.pairs)
    if kind == "dup_c":
        pairs.append((pairs[0][0], pairs[-1][1] + "x"))
    elif kind == "dup_p":
        pairs.append((pairs[0][0] + "x", pairs[0][1]))
    else:
        pairs.append(("ghost_c", "ghost_p"))
    with pytest.raises(ValueError):
        DualNetwork(dn.conceptual, dn.physical, pairs)


class TestCandidates:
    def test_candidates_skip_uncovered_and_keep_edge_order(self):
        c = Graph(["w1", "w2", "w3", "w4"],
                  [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3), (1, 2, 0.4), (2, 3, 0.5)])
        p = Graph(["v1", "v2", "v3"], [(0, 1, 1.0)])
        # w2 is uncovered, so its two edges are no candidates.
        dn = DualNetwork(c, p, (("w4", "v1"), ("w3", "v2"), ("w1", "v3")))
        assert list(dn.candidates()) == [(2, 1, 0.2), (2, 0, 0.3), (1, 0, 0.5)]


class TestSharedEdges:
    def test_source_whose_larger_neighbours_are_uncovered(self):
        # w1's only larger conceptual neighbours, w3 and w4, are uncovered,
        # though v1 is physically adjacent to nodes of their index.
        c = Graph(["w0", "w1", "w2", "w3", "w4"],
                  [(0, 1, 0.25), (1, 3, 0.5), (1, 4, 0.75)])
        p = Graph(["v0", "v1", "v2", "v3", "v4"], [(0, 1, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
        dn = DualNetwork(c, p, (("w1", "v1"), ("w0", "v0"), ("w2", "v2")))
        assert dn.shared_edges() == [(0, 1, 0.25)]

    def test_no_shared_edge(self):
        # Every conceptual edge is a candidate, and none is physical.
        c = Graph(["w0", "w1", "w2"], [(0, 1, 0.5), (1, 2, 0.5)])
        p = Graph(["v0", "v1", "v2"], [(0, 2, 1.0)])
        dn = DualNetwork(c, p, (("w0", "v0"), ("w1", "v1"), ("w2", "v2")))
        assert len(list(dn.candidates())) == 2
        assert dn.shared_edges() == []


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14),
       generate=st.sampled_from([random_dual_network, random_partial_dual]))
def test_shared_edges_match_pairwise_check(seed, n, generate):
    # random_partial_dual keeps pair ids, conceptual and physical indices
    # apart and leaves nodes of both graphs uncovered.
    dn = generate(random.Random(seed), n)
    pc, pp = dn.pair_conceptual, dn.pair_physical
    expected = [(k, j, edge_weight(dn.conceptual, pc[k], pc[j]))
                for k in range(dn.pair_count) for j in range(k + 1, dn.pair_count)
                if dn.conceptual.has_edge(pc[k], pc[j]) and dn.physical.has_edge(pp[k], pp[j])]
    found = dn.shared_edges()
    assert all(k < j for k, j, _ in found)
    assert sorted(found) == expected
    assert [(k, j) for k, j, _ in found] == \
        [(k, j) if k < j else (j, k) for k, j, _ in dn.candidates()
         if dn.physical.has_edge(pp[k], pp[j])]


def partial_dual_network(rng, n):
    """A random dual network whose correspondence covers a shuffled subset
    of the nodes."""
    dn = random_dual_network(rng, n)
    pairs = rng.sample(dn.pairs, rng.randint(1, n))
    return DualNetwork(dn.conceptual, dn.physical, pairs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_candidates_are_the_covered_conceptual_edges(seed, n):
    dn = partial_dual_network(random.Random(seed), n)
    c, pc = dn.conceptual, dn.pair_conceptual
    found = list(dn.candidates())
    expected = {(k, j, edge_weight(c, pc[k], pc[j])) for k in range(dn.pair_count)
                for j in range(dn.pair_count) if pc[k] < pc[j] and c.has_edge(pc[k], pc[j])}
    assert set(found) == expected and len(found) == len(expected)
    # Conceptual edge order: by the lower endpoint, then the upper.
    ends = [(pc[k], pc[j]) for k, j, _ in found]
    assert ends == sorted(ends)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_conceptual_density_matches_subset_density(seed, n):
    rng = random.Random(seed)
    dn = partial_dual_network(rng, n)
    S = rng.sample(range(dn.pair_count), rng.randint(1, dn.pair_count))
    expected = subset_density(dn.conceptual, [dn.pair_conceptual[k] for k in S])
    assert dn.conceptual_density(S) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_pair_graph_is_the_covered_physical_subgraph(seed, n):
    dn = partial_dual_network(random.Random(seed), n)
    p, pp = dn.physical, dn.pair_physical
    g = dn.pair_graph
    assert g.labels == tuple(p.labels[q] for q in pp)
    expected = [(k, j, 1.0) for k in range(dn.pair_count)
                for j in range(k + 1, dn.pair_count) if p.has_edge(pp[k], pp[j])]
    assert list(g.edges()) == expected == list(p.subgraph(pp).edges())
