import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import (Connectivity, DcsOptions, DualNetwork, GapWeightRule, Graph,
                       IrreparableDisconnection, build_alignment_graph, density, extract_dcs,
                       verify_physical_connectivity)
from dualdense.formats import parse_correspondence, parse_edge_list
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

    def test_pairs_hold_the_graphs_labels(self):
        # Three parsed files hold three copies of each label; the pairs keep
        # the graphs' own, so the correspondence file's copies can be freed.
        c = parse_edge_list(io.StringIO("w1 w2 0.7\nw2 w3 0.4\n"), weighted=True)
        p = parse_edge_list(io.StringIO("v1 v2\nv3 v2\n"), weighted=False)
        corr = parse_correspondence(io.StringIO("w3 v1\nw1 v3\nw2 v2\n"))
        assert corr[0][0] == c.labels[2] and corr[0][0] is not c.labels[2]
        dn = DualNetwork(c, p, corr)
        assert dn.pairs == corr
        for k in range(dn.pair_count):
            assert dn.pairs[k][0] is dn.conceptual.labels[dn.pair_conceptual[k]]
            assert dn.pairs[k][1] is dn.physical.labels[dn.pair_physical[k]]

    def test_pairs_given_as_lists_come_back_as_tuples(self):
        c, p = small_pair()
        dn = DualNetwork(c, p, [["w1", "v1"], ["w3", "v2"]])
        assert dn.pairs == (("w1", "v1"), ("w3", "v2"))

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

    def test_over_subgraphs_resolves_labels(self):
        # A dual network over two subgraphs resolves labels to their new
        # ids, and reports as before.
        c, p = small_pair()
        cs, ps = c.subgraph([2, 0, 1]), p.subgraph([1, 0, 2])
        dn = DualNetwork(cs, ps, (("w1", "v1"), ("w3", "v2")))
        assert dn.pair_conceptual == [1, 0] and dn.pair_physical == [1, 0]
        assert dn.pairs == (("w1", "v1"), ("w3", "v2"))
        with pytest.raises(ValueError) as info:
            DualNetwork(cs, ps, (("w1", "v1"), ("w1", "v2")))
        assert str(info.value) == "invalid dual network: 1 duplicate correspondence entries"
        with pytest.raises(ValueError) as info:
            DualNetwork(cs, ps, (("w1", "v1"), ("w2", "nope")))
        assert str(info.value) == "invalid dual network: 1 dangling labels ('nope')"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
def test_unread_lookups_are_built_on_first_read(seed, n):
    # No stage of a run reads ``pair_of_conceptual``, so a run never builds it.
    rng = random.Random(seed)
    dn = random_partial_dual(rng, n)
    opts = DcsOptions(delta=rng.choice([1, 2, math.inf]),
                      gap_mode=rng.choice(list(GapWeightRule)))
    try:
        extract_dcs(dn, opts)
    except IrreparableDisconnection:
        pass
    assert dn._pair_of_conceptual is None
    assert dn.pair_of_conceptual == {i: k for k, i in enumerate(dn.pair_conceptual)}
    assert dn.pair_of_conceptual is dn._pair_of_conceptual


def induced(dn, members):
    """Conceptual and physical subgraphs induced by pair ids, read off the
    pair tables."""
    return (dn.conceptual.subgraph(dn.conceptual_nodes(members)),
            dn.physical.subgraph({dn.pair_physical[k] for k in members}))


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
                verify_physical_connectivity(dn, members, Connectivity.STRICT)

    @pytest.mark.parametrize("members", [[True, 2], [False], [1, True]])
    def test_bool_pair_id_rejected(self, members):
        # True and False would act as pair ids 1 and 0, and set([1, True])
        # keeps only the 1.
        dn = self.make()
        for check in (dn.conceptual_nodes, dn.conceptual_density,
                      lambda m: verify_physical_connectivity(dn, m, Connectivity.STRICT)):
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


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14),
       generate=st.sampled_from([random_dual_network, random_partial_dual]))
def test_shared_edges_match_pairwise_check(seed, n, generate):
    # The alignment graph at delta = 1 is the edge set the two networks
    # share.  random_partial_dual keeps pair ids, conceptual and physical
    # indices apart and leaves nodes of both graphs uncovered.
    dn = generate(random.Random(seed), n)
    pc, pp = dn.pair_conceptual, dn.pair_physical
    expected = [(k, j, edge_weight(dn.conceptual, pc[k], pc[j]))
                for k in range(dn.pair_count) for j in range(k + 1, dn.pair_count)
                if dn.conceptual.has_edge(pc[k], pc[j]) and dn.physical.has_edge(pp[k], pp[j])]
    for mode in GapWeightRule:
        assert list(build_alignment_graph(dn, 1, mode).graph.edges()) == expected


def partial_dual_network(rng, n):
    """A random dual network whose correspondence covers a shuffled subset
    of the nodes."""
    dn = random_dual_network(rng, n)
    pairs = rng.sample(dn.pairs, rng.randint(1, n))
    return DualNetwork(dn.conceptual, dn.physical, pairs)


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
