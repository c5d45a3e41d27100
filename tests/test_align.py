import gc
import math
import random
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import (AlignmentGraph, ConfigError, Connectivity, DcsOptions, DualDenseError,
                       DualNetwork, GapWeightRule, Graph, build_alignment_graph,
                       WeightUnderflow, align, extract_dcs, generate_planted,
                       result_to_doc)
from dualdense.align import GAP, MATCH, composite_label, parse_delta
from dualdense.formats import load_correspondence, load_graph
from dualdense.graph import distances_from
from helpers import (assert_same_rows, bfs_hops, candidates, edge_weight, hub_dual, kind_of,
                     random_dual_network, random_partial_dual, reference_alignment)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def dual_from(conc_edges, phys_edges, n):
    clabels = [f"w{i}" for i in range(n)]
    plabels = [f"v{i}" for i in range(n)]
    conceptual = Graph(clabels, conc_edges)
    physical = Graph(plabels, [(u, v, 1.0) for u, v in phys_edges])
    corr = tuple(zip(clabels, plabels))
    return DualNetwork(conceptual, physical, corr)


class TestBuildAlignmentGraph:
    def test_match_edge_carries_conceptual_weight(self):
        dn = dual_from([(0, 1, 0.9)], [(0, 1)], 2)
        ag = build_alignment_graph(dn, delta=1)
        assert ag.graph.edge_count == 1
        assert edge_weight(ag.graph, 0, 1) == 0.9
        assert kind_of(ag, 0, 1) == (MATCH, 1)

    def test_gap_edge_per_hop(self):
        # conceptual edge at physical distance 3, delta 4
        dn = dual_from([(0, 3, 0.8)], [(0, 1), (1, 2), (2, 3)], 4)
        ag = build_alignment_graph(dn, delta=4, gap_mode=GapWeightRule.PER_HOP)
        assert ag.graph.edge_count == 1
        assert edge_weight(ag.graph, 0, 3) == pytest.approx(0.8 / 3)
        assert kind_of(ag, 0, 3) == (GAP, 3)

    def test_gap_edge_conceptual_mode(self):
        dn = dual_from([(0, 3, 0.8)], [(0, 1), (1, 2), (2, 3)], 4)
        ag = build_alignment_graph(dn, delta=4, gap_mode=GapWeightRule.CONCEPTUAL)
        assert edge_weight(ag.graph, 0, 3) == 0.8

    def test_distance_above_delta_no_edge(self):
        dn = dual_from([(0, 5, 0.8)], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 6)
        ag = build_alignment_graph(dn, delta=4)
        assert ag.graph.edge_count == 0

    def test_distance_at_delta_included(self):
        dn = dual_from([(0, 4, 0.8)], [(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        ag = build_alignment_graph(dn, delta=4)
        assert kind_of(ag, 0, 4) == (GAP, 4)

    def test_infinite_delta_needs_same_component(self):
        dn = dual_from([(0, 1, 0.5)], [(0, 2), (1, 3)], 4)
        ag = build_alignment_graph(dn, delta=math.inf)
        assert ag.graph.edge_count == 0

    def test_infinite_delta_spans_long_paths(self):
        phys = [(i, i + 1) for i in range(7)]
        dn = dual_from([(0, 7, 0.7)], phys, 8)
        ag = build_alignment_graph(dn, delta=math.inf)
        assert kind_of(ag, 0, 7) == (GAP, 7)

    def test_delta_zero_rejected(self):
        dn = dual_from([(0, 1, 0.5)], [(0, 1)], 2)
        with pytest.raises(ConfigError):
            build_alignment_graph(dn, delta=0)

    @pytest.mark.parametrize("text, delta", [
        ("1", 1), (" 4 ", 4), ("inf", math.inf), ("INF", math.inf), (" Inf ", math.inf)])
    def test_parse_delta(self, text, delta):
        assert parse_delta(text) == delta

    @pytest.mark.parametrize("text", ["0", "-3", "1.5", "x", "", "infinity",
                                      "1_0", "\uff13", "\u0663"])
    def test_parse_delta_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_delta(text)

    def test_per_hop_weight_underflow_names_the_edge(self):
        # 5e-324 is the least positive float: halved, it rounds to zero.
        dn = dual_from([(0, 1, 5e-324), (0, 2, 1.0)], [(0, 2), (2, 1)], 3)
        with pytest.raises(WeightUnderflow, match="conceptual edge 'w0' -- 'w1'"):
            build_alignment_graph(dn, delta=2)
        ag = build_alignment_graph(dn, delta=math.inf, gap_mode=GapWeightRule.CONCEPTUAL)
        assert kind_of(ag, 0, 1) == (GAP, 2)

    def test_bad_gap_mode_rejected(self):
        dn = dual_from([(0, 1, 0.5)], [(0, 1)], 2)
        with pytest.raises(ConfigError):
            build_alignment_graph(dn, delta=2, gap_mode="per-hop")

    def test_uncovered_nodes_excluded(self):
        clabels = ["w0", "w1", "w2"]
        plabels = ["v0", "v1", "v2"]
        conceptual = Graph(clabels, [(0, 1, 0.5), (1, 2, 0.9)])
        physical = Graph(plabels, [(0, 1, 1.0), (1, 2, 1.0)])
        corr = (("w0", "v0"), ("w1", "v1"))  # w2/v2 uncovered
        dn = DualNetwork(conceptual, physical, corr)
        ag = build_alignment_graph(dn, delta=2)
        assert ag.graph.n == 2
        assert ag.graph.edge_count == 1
        assert edge_weight(ag.graph, 0, 1) == 0.5


# random_dual_network maps node i to node i of the other graph and to pair i;
# random_partial_dual keeps the three index spaces apart; hub_dual's physical
# hubs make a target's side of a search grow before or after the source's.
GENERATORS = st.sampled_from([random_dual_network, random_partial_dual, hub_dual])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30),
       delta=st.sampled_from([1, 2, 3, 4, 5, 6, math.inf]),
       mode=st.sampled_from(list(GapWeightRule)), generate=GENERATORS)
def test_matches_pairwise_reference(seed, n, delta, mode, generate):
    dn = generate(random.Random(seed), n)
    ag = build_alignment_graph(dn, delta=delta, gap_mode=mode)
    expected = reference_alignment(dn, delta, mode)
    actual = {}
    for u, v, w in ag.graph.edges():
        kind, dist = kind_of(ag, u, v)
        actual[(u, v)] = (kind, dist, w)
    assert actual.keys() == expected.keys()
    for key, (kind, dist, w) in expected.items():
        akind, adist, aw = actual[key]
        assert (akind, adist) == (kind, dist)
        assert aw == w


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_structural_invariants(seed, n):
    dn = random_dual_network(random.Random(seed), n)
    ag = build_alignment_graph(dn, delta=3)
    for u, v, _ in ag.graph.edges():
        cu, cv = dn.pair_conceptual[u], dn.pair_conceptual[v]
        assert dn.conceptual.has_edge(cu, cv)
        kind, dist = kind_of(ag, u, v)
        pu, pv = dn.pair_physical[u], dn.pair_physical[v]
        if kind == MATCH:
            assert dn.physical.has_edge(pu, pv)
        else:
            assert bfs_hops(dn.physical, pu, pv) == dist
            assert 2 <= dist <= 3


def assert_restriction_in_delta(dn, deltas=range(1, 7)):
    """Under each rule, the graph at each finite delta is the delta=inf
    graph cut to the edges at most delta hops apart, weights and kinds
    equal."""
    for rule in GapWeightRule:
        full = build_alignment_graph(dn, math.inf, rule)
        full_edges = {(u, v): (w, full.kinds[u, v]) for u, v, w in full.graph.edges()}
        for delta in deltas:
            ag = build_alignment_graph(dn, delta, rule)
            edges = {(u, v): (w, ag.kinds[u, v]) for u, v, w in ag.graph.edges()}
            assert ag.kinds.keys() == edges.keys()
            assert edges == {key: (w, kind) for key, (w, kind) in full_edges.items()
                             if kind[1] <= delta}, (delta, rule)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20), generate=GENERATORS)
def test_monotone_in_delta(seed, n, generate):
    assert_restriction_in_delta(generate(random.Random(seed), n))


def test_restriction_in_delta_on_planted_instance():
    # Sparse enough that candidates lie up to ~8 hops apart, so the
    # searcher's source-first phase and target-side growth both run.
    assert_restriction_in_delta(generate_planted(
        2_000, 20, 7, background_edge_prob=0.002, physical_edge_prob=0.0005).dual)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 15), generate=GENERATORS,
       mode=st.sampled_from(list(GapWeightRule)))
def test_delta_one_equals_shared_edge_set(seed, n, generate, mode):
    dn = generate(random.Random(seed), n)
    with mock.patch("dualdense.align.distances_from", _no_search):
        ag = build_alignment_graph(dn, delta=1, gap_mode=mode)
    expected = set()
    for i in range(dn.pair_count):
        for j in range(i + 1, dn.pair_count):
            conc = dn.conceptual.has_edge(dn.pair_conceptual[i], dn.pair_conceptual[j])
            phys = dn.physical.has_edge(dn.pair_physical[i], dn.pair_physical[j])
            if conc and phys:
                expected.add((i, j))
    assert {(u, v) for u, v, _ in ag.graph.edges()} == expected
    assert ag.kinds == dict.fromkeys(expected, (MATCH, 1))
    pc = dn.pair_conceptual
    assert list(ag.graph.edges()) == sorted(
        (u, v, edge_weight(dn.conceptual, pc[u], pc[v])) for u, v in expected)


def test_delta_one_source_whose_larger_neighbours_are_uncovered():
    # w1's only larger conceptual neighbours, w3 and w4, are uncovered,
    # though v1 is physically adjacent to nodes of their index.
    c = Graph(["w0", "w1", "w2", "w3", "w4"],
              [(0, 1, 0.25), (1, 3, 0.5), (1, 4, 0.75)])
    p = Graph(["v0", "v1", "v2", "v3", "v4"], [(0, 1, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
    dn = DualNetwork(c, p, (("w1", "v1"), ("w0", "v0"), ("w2", "v2")))
    assert list(build_alignment_graph(dn, 1).graph.edges()) == [(0, 1, 0.25)]


def test_delta_one_with_no_shared_edge():
    # Both conceptual edges join covered nodes, and neither is physical.
    c = Graph(["w0", "w1", "w2"], [(0, 1, 0.5), (1, 2, 0.5)])
    p = Graph(["v0", "v1", "v2"], [(0, 2, 1.0)])
    dn = DualNetwork(c, p, (("w0", "v0"), ("w1", "v1"), ("w2", "v2")))
    assert len(candidates(dn)) == 2
    assert build_alignment_graph(dn, 1).graph.edge_count == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12), delta=st.integers(1, 4))
def test_connectivity_transfer(seed, n, delta):
    # Every alignment edge certifies a physical detour of at most delta hops.
    dn = random_dual_network(random.Random(seed), n)
    ag = build_alignment_graph(dn, delta=delta)
    for u, v, _ in ag.graph.edges():
        d = bfs_hops(dn.physical, dn.pair_physical[u], dn.pair_physical[v])
        assert d is not None and d <= delta


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14), parts=st.integers(1, 3))
def test_alignment_graph_matches_rebuilt_graph(seed, n, parts):
    # The graph built without ``Graph``'s checks equals ``Graph`` built from
    # the candidates whose pairs lie at most delta physical hops apart, by
    # plain BFS, on dual networks with isolated and uncovered nodes and three
    # distinct index spaces.  A match's distance is 1, so w / d is its
    # weight under either rule.
    rng = random.Random(seed)
    for dn in (split_dual(rng, n, parts), random_partial_dual(rng, n)):
        hops = [(ki, kj, w, bfs_hops(dn.physical, dn.pair_physical[ki], dn.pair_physical[kj]))
                for ki, kj, w in candidates(dn)]
        for delta, rule in product((1, 2, 3, 4, math.inf), GapWeightRule):
            ag = build_alignment_graph(dn, delta, rule)
            edges = [(ki, kj, w if rule is GapWeightRule.CONCEPTUAL else w / d)
                     for ki, kj, w, d in hops if d is not None and d <= delta]
            labels = [composite_label(c, p) for c, p in dn.pairs]
            assert_same_rows(ag.graph, Graph(labels, edges))


def split_dual(rng, n, parts):
    """Dual network whose physical graph has up to ``parts`` blocks, each a
    random tree plus chords, and about one node in five isolated;
    conceptual edges are drawn over all pairs, and node i of one graph
    corresponds to node i of the other for about five nodes in six."""
    block = [None if rng.random() < 0.2 else rng.randrange(parts) for _ in range(n)]
    phys = set()
    for b in range(parts):
        members = [v for v in range(n) if block[v] == b]
        for i, v in enumerate(members[1:], 1):
            phys.add(tuple(sorted((v, rng.choice(members[:i])))))
        for u, v in zip(members, members[2:]):
            if rng.random() < 0.3:
                phys.add((u, v))
    conc = [(u, v, 1.0 - rng.random()) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.4]
    dn = dual_from(conc, sorted(phys), n)
    corr = [pair for i, pair in enumerate(dn.pairs) if i == 0 or rng.random() < 0.85]
    return DualNetwork(dn.conceptual, dn.physical, tuple(corr))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 16), parts=st.integers(1, 3))
def test_one_searcher_per_node_with_a_larger_candidate(seed, n, parts):
    # The searched build starts one searcher, from its physical node, per
    # covered conceptual node with a covered larger conceptual neighbour,
    # in conceptual index order; at delta = 1 it starts none.
    rng = random.Random(seed)
    for dn in (split_dual(rng, n, parts), random_partial_dual(rng, n)):
        pair_of = dn.pair_of_conceptual
        sources = [dn.pair_physical[pair_of[ci]] for ci in sorted(pair_of)
                   if any(cj > ci and cj in pair_of for cj in dn.conceptual.neighbors(ci))]
        for delta, rule in [*product((1, 2, 3, 4), GapWeightRule),
                            (math.inf, GapWeightRule.PER_HOP)]:
            with mock.patch.object(align, "distances_from", wraps=distances_from) as searchers:
                build_alignment_graph(dn, delta, rule)
            started = [call.args[1] for call in searchers.call_args_list]
            assert started == (sources if delta > 1 else []), (delta, rule)


def searched_alignment(dn, delta, gap_mode):
    """The delta=inf conceptual alignment graph with every candidate
    decided by its own ``distances_from`` search."""
    edges = []
    for ci, cj, w in dn.conceptual.edges():
        ki, kj = dn.pair_of_conceptual.get(ci), dn.pair_of_conceptual.get(cj)
        if ki is None or kj is None:
            continue
        if distances_from(dn.physical, dn.pair_physical[ki])(dn.pair_physical[kj]) is not None:
            edges.append((ki, kj, w))
    labels = [composite_label(c, p) for c, p in dn.pairs]
    return AlignmentGraph(Graph(labels, edges), dn, delta, gap_mode)


def _no_search(*args):
    raise AssertionError("a build that needs no distance searched one")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20), parts=st.integers(1, 4))
def test_label_build_matches_searcher_build(seed, n, parts):
    dn = split_dual(random.Random(seed), n, parts)
    with mock.patch("dualdense.align.distances_from", _no_search):
        labelled = build_alignment_graph(dn, math.inf, GapWeightRule.CONCEPTUAL)
    searched = build_alignment_graph(dn, math.inf, GapWeightRule.PER_HOP)
    edges = {(u, v): w for u, v, w in labelled.graph.edges()}
    assert edges.keys() == {(u, v) for u, v, _ in searched.graph.edges()}
    for (u, v), w in edges.items():
        assert w == edge_weight(dn.conceptual, dn.pair_conceptual[u], dn.pair_conceptual[v])
    kinds = labelled.kinds
    assert kinds == searched.kinds
    assert labelled.kinds is kinds

    for connectivity in Connectivity:
        opts = DcsOptions(delta=math.inf, gap_mode=GapWeightRule.CONCEPTUAL,
                          connectivity=connectivity)
        with mock.patch("dualdense.pipeline.build_alignment_graph", searched_alignment):
            expected = _outcome(dn, opts)
        assert _outcome(dn, opts) == expected


def _raise(*args):
    raise AssertionError("the label build searched candidates or sorted edges")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20), parts=st.integers(1, 4))
def test_label_rows_when_index_spaces_disagree(seed, n, parts):
    # Shuffled, the correspondence puts pair ids, conceptual ids and
    # physical ids in three different orders, and the physical components
    # interleave in pair-id order; each row must still come out sorted.
    rng = random.Random(seed)
    dn = split_dual(rng, n, parts)
    physical = [p for _, p in dn.pairs]
    rng.shuffle(physical)
    pairs = [(c, p) for (c, _), p in zip(dn.pairs, physical)]
    rng.shuffle(pairs)
    dn = DualNetwork(dn.conceptual, dn.physical, pairs)
    with mock.patch.object(align, "_search", _raise), \
            mock.patch.object(Graph, "_from_edges", _raise):
        labelled = build_alignment_graph(dn, math.inf, GapWeightRule.CONCEPTUAL)
    edges = [(ki, kj, w) for ki, kj, w in candidates(dn)
             if bfs_hops(dn.physical, dn.pair_physical[ki], dn.pair_physical[kj]) is not None]
    labels = [composite_label(c, p) for c, p in dn.pairs]
    assert_same_rows(labelled.graph, Graph(labels, edges))


def test_label_build_holds_no_edge_list(tmp_path):
    # The label build fills the rows it keeps; it builds no candidate or
    # edge list beside them, so its traced peak stays near what it keeps.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS, write_instance

    write_instance(WORKLOADS["reach-inf"], 311, tmp_path)
    dn = DualNetwork(load_graph(str(tmp_path / "conceptual.tsv"), weighted=True),
                     load_graph(str(tmp_path / "physical.tsv"), weighted=False),
                     load_correspondence(str(tmp_path / "correspondence.tsv")))
    gc.collect()
    tracemalloc.start()
    try:
        ag = build_alignment_graph(dn, math.inf, GapWeightRule.CONCEPTUAL)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ag.graph.edge_count == 10_000
    assert peak <= 1.35 * kept, (peak, kept)


def _outcome(dn, opts):
    try:
        return result_to_doc(extract_dcs(dn, opts), dn, opts)
    except DualDenseError as exc:
        return type(exc)


def test_composite_labels_escape_separator():
    assert composite_label("a", "b") == "a|b"
    assert composite_label("a|b", "c") == "a\\|b|c"
    assert composite_label("a", "b|c") == "a|b\\|c"
    # Injective over every pair of short strings built from the special
    # characters.
    parts = [""] + ["".join(p) for k in (1, 2, 3) for p in product("a|\\", repeat=k)]
    labels = {composite_label(c, p) for c in parts for p in parts}
    assert len(labels) == len(parts) ** 2
