import math
import random
import resource
import functools
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import (ConfigError, Connectivity, DcsOptions, DualNetwork,
                       GapWeightRule, Graph, IrreparableDisconnection, NoFeasibleSubgraph,
                       WeightUnderflow, brute_force_dcs, connected_components, density, extract_dcs,
                       generate_planted, repair_connectivity, result_to_doc,
                       verify_physical_connectivity)
from dualdense.formats import parse_edge_list
from dualdense.graph import nearest
from helpers import (brute_dcs, hub_dual, identity_dual, physically_connected,
                     random_dual_network, random_graph, random_partial_dual, reference_repair,
                     relaxed_connected)


def triangle_with_tail():
    """Conceptual unit triangle {a,b,c} plus weak edges toward {d,e};
    physical path a-b-c with d, e chained off c."""
    labels = list("abcde")
    conc = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 0.1), (3, 4, 0.1)]
    phys = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return identity_dual(conc, phys, labels)


class TestExtractDcs:
    def test_triangle_core(self):
        dn = triangle_with_tail()
        # Oracle agrees: {a,b,c} is the exact DCS of this instance.
        assert brute_dcs(dn) == (2.0, frozenset({0, 1, 2}))
        result = extract_dcs(dn, DcsOptions(delta=1))
        assert result.nodes == frozenset({0, 1, 2})
        assert result.conceptual_density == 2.0
        assert result.physically_connected
        assert result.connector_nodes == frozenset()

    def test_no_feasible_subgraph(self):
        labels = ["a", "b"]
        conceptual = Graph(labels, [(0, 1, 0.5)])
        physical = Graph(labels, [])
        dn = DualNetwork(conceptual, physical,
                         (("a", "a"), ("b", "b")))
        with pytest.raises(NoFeasibleSubgraph):
            extract_dcs(dn, DcsOptions(delta=1))

    def test_planted_instance_recovered(self):
        inst = generate_planted(30, 6, seed=42)
        result = extract_dcs(inst.dual, DcsOptions(delta=2))
        assert result.nodes == inst.planted
        assert result.connector_nodes == frozenset()
        oracle = brute_force_dcs(inst.dual, max_nodes=6, node_cap=30)
        assert oracle.nodes == inst.planted

    def test_density_matches_independent_recomputation(self):
        dn = triangle_with_tail()
        result = extract_dcs(dn, DcsOptions(delta=2))
        ci = dn.conceptual.subgraph(dn.conceptual_nodes(result.all_nodes))
        assert result.conceptual_density == pytest.approx(
            density(ci, range(ci.n)), rel=1e-9)

    def test_irreparable_carries_partial(self):
        # Gap edge spans an uncovered physical node: strict repair cannot
        # route through it, so the selection is irreparable.
        clabels = ["w0", "w1"]
        plabels = ["v0", "x", "v1"]
        conceptual = Graph(clabels, [(0, 1, 0.9)])
        physical = Graph(plabels, [(0, 1, 1.0), (1, 2, 1.0)])
        corr = (("w0", "v0"), ("w1", "v1"))
        dn = DualNetwork(conceptual, physical, corr)
        with pytest.raises(IrreparableDisconnection) as err:
            extract_dcs(dn, DcsOptions(delta=2))
        partial = err.value.partial
        assert partial is not None
        assert partial.nodes == frozenset({0, 1})
        assert partial.connector_nodes == frozenset()
        assert partial.conceptual_density == partial.core_density == 0.9
        assert not partial.physically_connected

    @pytest.mark.parametrize("opts", [DcsOptions(connectivity="strict"), DcsOptions(delta=0)],
                             ids=["connectivity-string", "delta-0"])
    def test_bad_options_raise_config_error(self, opts):
        with pytest.raises(ConfigError):
            extract_dcs(triangle_with_tail(), opts)

    @pytest.mark.parametrize("opts", [DcsOptions(connectivity="strict"), DcsOptions(repair="no"),
                                      DcsOptions(repair=1), DcsOptions(repair=None)],
                             ids=["connectivity-string", "repair-string", "repair-int",
                                  "repair-none"])
    def test_bad_options_are_refused_before_the_build(self, opts):
        dn = triangle_with_tail()
        with mock.patch("dualdense.pipeline.build_alignment_graph",
                        side_effect=AssertionError("built with a bad option")):
            with pytest.raises(ConfigError, match="connectivity|repair"):
                extract_dcs(dn, opts)

    def test_relaxed_mode_reports_detour_connectivity(self):
        clabels = ["w0", "w1"]
        plabels = ["v0", "x", "v1"]
        conceptual = Graph(clabels, [(0, 1, 0.9)])
        physical = Graph(plabels, [(0, 1, 1.0), (1, 2, 1.0)])
        corr = (("w0", "v0"), ("w1", "v1"))
        dn = DualNetwork(conceptual, physical, corr)
        result = extract_dcs(dn, DcsOptions(delta=2, connectivity=Connectivity.RELAXED))
        assert result.nodes == frozenset({0, 1})
        assert result.physically_connected
        assert result.connector_nodes == frozenset()

    def test_no_repair_reports_disconnection(self):
        labels = list("abcd")
        conc = [(0, 3, 1.0)]
        phys = [(0, 1), (1, 2), (2, 3)]
        dn = identity_dual(conc, phys, labels)
        result = extract_dcs(dn, DcsOptions(delta=3, repair=False))
        assert result.nodes == frozenset({0, 3})
        assert not result.physically_connected
        repaired = extract_dcs(dn, DcsOptions(delta=3, repair=True))
        assert repaired.nodes == frozenset({0, 3})
        assert repaired.connector_nodes == frozenset({1, 2})
        assert repaired.physically_connected
        # Headline density covers connectors; the undiluted core is separate.
        assert repaired.core_density == 1.0
        assert repaired.conceptual_density == 0.5

    def test_records_compare_field_by_field(self):
        # Options and results are plain records: ``==`` by field, a repr
        # naming every field, and no hash.
        dn = triangle_with_tail()
        result = extract_dcs(dn, DcsOptions(delta=1))
        assert DcsOptions(1) == DcsOptions(delta=1) != DcsOptions()
        assert result.trace == extract_dcs(dn, DcsOptions(delta=1)).trace
        assert repr(DcsOptions(repair=False)) == (
            "DcsOptions(delta=4, gap_mode=<GapWeightRule.PER_HOP: 'per-hop'>, "
            "connectivity=<Connectivity.STRICT: 'strict'>, repair=False)")
        for record in (DcsOptions(), result, result.trace, result.alignment):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)

    @pytest.mark.parametrize("delta", [1, 2, 4, math.inf])
    def test_tied_components_break_on_least_pair_ids(self, delta):
        # Two unit 3-leaf stars, x and y, tie on conceptual density (1.5) and
        # size (4).  The edge lists name y first, so y's conceptual and
        # physical nodes hold the smaller indices; the correspondence gives
        # x the smaller pair ids, so x is selected.
        edges = [f"{s}c {s}l{i}" for s in "yx" for i in (1, 2, 3)]
        dn = DualNetwork(parse_edge_list([f"{e} 1.0" for e in edges], weighted=True),
                         parse_edge_list(edges, weighted=False),
                         tuple((lab, lab) for lab in
                               "xl1 yl1 xl2 yl2 xl3 yl3 xc yc".split()))
        result = extract_dcs(dn, DcsOptions(delta=delta))
        # The peel keeps all 8 pairs, so the selection sees the tie.
        assert result.trace.best_prefix_index == 0
        peeled = result.trace.removal_order
        assert len(connected_components(result.alignment.graph, peeled)) == 2
        assert result.nodes == frozenset({0, 2, 4, 6})
        assert result.core_density == result.conceptual_density == 1.5
        assert result.connector_nodes == frozenset()


class TestVerifyPhysicalConnectivity:
    def test_edge_endpoints_strict(self):
        dn = triangle_with_tail()
        assert verify_physical_connectivity(dn, {0, 1}, Connectivity.STRICT)

    def test_detour_needs_relaxed(self):
        dn = triangle_with_tail()
        # a and c are joined only through b.
        assert not verify_physical_connectivity(dn, {0, 2}, Connectivity.STRICT)
        assert verify_physical_connectivity(dn, {0, 2}, Connectivity.RELAXED, delta=2)
        assert not verify_physical_connectivity(dn, {0, 2}, Connectivity.RELAXED, delta=1)

    def test_singleton_vacuous(self):
        dn = triangle_with_tail()
        assert verify_physical_connectivity(dn, {3}, Connectivity.STRICT)
        assert verify_physical_connectivity(dn, {3}, Connectivity.RELAXED, delta=1)

    @pytest.mark.parametrize("delta", [0, -2, True, 1.5, "3"])
    def test_relaxed_rejects_bad_delta(self, delta):
        # The same values build_alignment_graph rejects.
        dn = triangle_with_tail()
        with pytest.raises(ConfigError, match="delta"):
            verify_physical_connectivity(dn, {0, 2}, Connectivity.RELAXED, delta)


def partially_covered_dual(rng, n, p_phys_max, p_conc):
    """Random dual network whose correspondence covers a random subset of
    at least two nodes: detours may pass through uncovered nodes."""
    physical = random_graph(rng, n, rng.uniform(0.05, p_phys_max), weighted=False)
    conceptual = random_graph(rng, n, p_conc)
    covered = sorted(rng.sample(range(n), rng.randint(2, n)))
    return DualNetwork(conceptual, physical,
                       tuple((conceptual.labels[i], physical.labels[i]) for i in covered))


# partially_covered_dual gives a node one index in both graphs;
# random_partial_dual keeps pair id, conceptual and physical index apart.
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14),
       delta=st.sampled_from([1, 2, 3, math.inf]), partial=st.booleans())
def test_relaxed_matches_auxiliary_graph(seed, n, delta, partial):
    # Members may be none or one, which are vacuously connected.
    rng = random.Random(seed)
    dn = random_partial_dual(rng, n) if partial else partially_covered_dual(rng, n, 0.4, 0.3)
    members = rng.sample(range(dn.pair_count), rng.randint(0, dn.pair_count))
    assert (verify_physical_connectivity(dn, members, Connectivity.RELAXED, delta)
            == relaxed_connected(dn, members, delta))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14))
def test_strict_is_relaxed_at_one_hop(seed, n):
    # Members chained one physical hop apart form a path among the members,
    # so STRICT and RELAXED at delta 1 answer the same question.
    rng = random.Random(seed)
    dn = partially_covered_dual(rng, n, 0.4, 0.3)
    members = rng.sample(range(dn.pair_count), rng.randint(0, dn.pair_count))
    assert (verify_physical_connectivity(dn, members, Connectivity.STRICT)
            == verify_physical_connectivity(dn, members, Connectivity.RELAXED, 1)
            == physically_connected(dn, members))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12),
       delta=st.sampled_from([1, 2, 3, math.inf]))
def test_relaxed_never_beats_brute_force(seed, n, delta):
    # RELAXED counterpart of C2: a result reported as connected is a
    # feasible set, so its density cannot exceed the exact optimum.  About
    # half the instances have an edgeless alignment graph and stop early.
    dn = partially_covered_dual(random.Random(seed), n, 0.5, 0.5)
    try:
        result = extract_dcs(dn, DcsOptions(delta=delta, connectivity=Connectivity.RELAXED))
    except NoFeasibleSubgraph:
        return
    assert result.connector_nodes == frozenset()
    assert result.physically_connected == relaxed_connected(dn, result.nodes, delta)
    if result.physically_connected:
        best, _ = brute_dcs(dn, delta=delta)
        assert result.conceptual_density <= best + 1e-9 * max(1.0, best)


class TestRepairConnectivity:
    def test_unique_path(self):
        labels = list("abcd")
        dn = identity_dual([(0, 3, 1.0)], [(0, 1), (1, 2), (2, 3)], labels)
        assert repair_connectivity(dn, {0, 3}) == frozenset({1, 2})

    def test_already_connected(self):
        dn = triangle_with_tail()
        assert repair_connectivity(dn, {0, 1, 2}) == frozenset()

    def test_unreachable(self):
        labels = list("abcd")
        dn = identity_dual([(0, 2, 1.0)], [(0, 1), (2, 3)], labels)
        with pytest.raises(IrreparableDisconnection):
            repair_connectivity(dn, {0, 2})

    @pytest.mark.parametrize("members", [[False, 2], [0, 2, False]])
    def test_bool_pair_id_rejected(self, members):
        # False would act as pair id 0 and be joined to 2 through 1.
        dn = triangle_with_tail()
        with pytest.raises(ValueError, match="False is not a correspondence pair id"):
            repair_connectivity(dn, members)

    def test_three_components(self):
        labels = [f"n{i}" for i in range(7)]
        phys = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        dn = identity_dual([(0, 6, 1.0)], phys, labels)
        connectors = repair_connectivity(dn, {0, 3, 6})
        assert connectors == frozenset({1, 2, 4, 5})
        assert physically_connected(dn, {0, 3, 6} | connectors)

    def test_connector_merges_every_touched_component(self):
        # A star: members a, b and c hang off the covered node x.  The least
        # join is a-x-b, and x also touches c, so the one round that adds x
        # merges all three components: one nearest search per component,
        # and no second round.
        dn = identity_dual([(0, 1, 1.0)], [(0, 3), (1, 3), (2, 3)], list("abcx"))
        with mock.patch("dualdense.pipeline.nearest", wraps=nearest) as searched:
            assert repair_connectivity(dn, {0, 1, 2}) == frozenset({3})
        assert searched.call_count == 3

    def test_kept_join_cut_at_the_round_interior(self):
        # Members a (0), p (3) and r (5).  The first round joins p and r
        # through q (4), which a's search record reached before its end r:
        # a-c-g-r.  a's join becomes a-b-f-q, the path to q in that record,
        # and it wins the second round, where a-c-g-r would have added c
        # and g.  Searches: one per component, then one for the merged p-q-r.
        labels = list("abcpqrfg")
        phys = [(0, 1), (0, 2), (1, 6), (6, 4), (3, 4), (4, 5), (2, 7), (7, 5)]
        dn = identity_dual([(0, 3, 1.0)], phys, labels)
        with mock.patch("dualdense.pipeline.nearest", wraps=nearest) as searched:
            connectors = repair_connectivity(dn, {0, 3, 5})
        assert connectors == reference_repair(dn, {0, 3, 5}) == frozenset({1, 4, 6})
        assert searched.call_count == 4

    @pytest.mark.parametrize("k", [2, 3, 10, 40])
    def test_comb_searches_each_component_once(self, k):
        # k single-node components two hops apart on a path: the rounds join
        # them left to right, and each component is searched once, when it
        # forms, the last one not at all.
        labels = [f"n{i}" for i in range(2 * k - 1)]
        dn = identity_dual([(0, 2, 1.0)], [(i, i + 1) for i in range(2 * k - 2)], labels)
        with mock.patch("dualdense.pipeline.nearest", wraps=nearest) as searched:
            connectors = repair_connectivity(dn, range(0, 2 * k - 1, 2))
        assert connectors == frozenset(range(1, 2 * k - 1, 2))
        assert searched.call_count == 2 * k - 2


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(4, 40))
def test_repair_matches_reference(seed, n):
    # About 85% of the nodes are covered, in shuffled pair order, so the
    # least path by pair ids is not the least by physical index.  About 40%
    # of the instances need connectors, and as many cannot be repaired.
    rng = random.Random(seed)
    physical = random_graph(rng, n, rng.uniform(1.5, 5.0) / n, weighted=False)
    conceptual = random_graph(rng, n, 0.3)
    covered = [i for i in range(n) if rng.random() < 0.85] or [0]
    rng.shuffle(covered)
    dn = DualNetwork(conceptual, physical,
                     [(conceptual.labels[i], physical.labels[i]) for i in covered])
    members = [k for k in range(dn.pair_count) if rng.random() < 0.4]
    try:
        expected = reference_repair(dn, members)
    except IrreparableDisconnection:
        with pytest.raises(IrreparableDisconnection):
            repair_connectivity(dn, members)
    else:
        assert repair_connectivity(dn, members) == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(40, 100))
def test_multi_round_repair_matches_reference(seed, n):
    # A random tree plus n/4 chords, about 93% covered, with about 30%
    # members: many components joined over many rounds, so joins kept from
    # earlier rounds get cut.  About half the instances cannot be repaired,
    # and nearly all the others cut a kept join.
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    ids = list(range(n))
    rng.shuffle(ids)
    physical = Graph([f"p{i}" for i in range(n)], [(ids[u], ids[v], 1.0) for u, v in edges])
    conceptual = random_graph(rng, n, 0.1)
    covered = [i for i in range(n) if rng.random() < 0.93]
    rng.shuffle(covered)
    dn = DualNetwork(conceptual, physical,
                     [(conceptual.labels[i], physical.labels[i]) for i in covered])
    members = [k for k in range(dn.pair_count) if rng.random() < 0.3]
    try:
        expected = reference_repair(dn, members)
    except IrreparableDisconnection:
        with pytest.raises(IrreparableDisconnection):
            repair_connectivity(dn, members)
    else:
        assert repair_connectivity(dn, members) == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_delta_one_strict_without_repair(seed, n):
    # Match-only alignment edges imply physical adjacency, so the selected
    # component is always physically connected before any repair.
    dn = random_dual_network(random.Random(seed), n)
    result = extract_dcs(dn, DcsOptions(delta=1, repair=False))
    assert result.physically_connected
    assert physically_connected(dn, result.nodes)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12),
       delta=st.sampled_from([1, 2, 4, math.inf]))
def test_repair_only_adds(seed, n, delta):
    from dualdense import connected_components

    dn = random_dual_network(random.Random(seed), n)
    result = extract_dcs(dn, DcsOptions(delta=delta))
    assert result.nodes.isdisjoint(result.connector_nodes)
    assert result.all_nodes >= result.nodes
    assert physically_connected(dn, result.all_nodes)
    # The selected core is one alignment-graph component.
    assert len(connected_components(result.alignment.graph, result.nodes)) == 1
    ci = dn.conceptual.subgraph(dn.conceptual_nodes(result.all_nodes))
    assert result.conceptual_density == pytest.approx(density(ci, range(ci.n)), rel=1e-9)


# partially_covered_dual's detours through uncovered nodes make some strict
# runs irreparable, which the other three generators seldom are.
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20),
       generate=st.sampled_from([random_dual_network, random_partial_dual, hub_dual,
                                 functools.partial(partially_covered_dual,
                                                   p_phys_max=0.4, p_conc=0.4)]),
       tiny=st.sampled_from([0.0, 0.3, 1.0]), delta=st.sampled_from([1, 2, 3, math.inf]),
       rule=st.sampled_from(list(GapWeightRule)), mode=st.sampled_from(list(Connectivity)))
def test_selection_holds_an_alignment_edge(seed, n, generate, tiny, delta, rule, mode):
    # The peeled set has positive alignment density, so one of its
    # components holds an alignment edge, and that component's two or more
    # pairs beat every singleton on conceptual density, which stays
    # positive (2(k - 1)/k units of 5e-324 at least) where conceptual
    # weights are the least float.  So no selection is a single pair.
    rng = random.Random(seed)
    dn = generate(rng, n)
    conceptual = Graph(dn.conceptual.labels,
                       [(u, v, 5e-324 if rng.random() < tiny else w)
                        for u, v, w in dn.conceptual.edges()])
    dn = DualNetwork(conceptual, dn.physical, dn.pairs)
    try:
        result = extract_dcs(dn, DcsOptions(delta=delta, gap_mode=rule, connectivity=mode))
    except (NoFeasibleSubgraph, WeightUnderflow):
        return
    except IrreparableDisconnection as exc:
        result = exc.partial
    assert len(result.nodes) >= 2
    assert result.warnings == []


def _assert_within_c8_budgets(opts):
    # C8's instance (same generate_planted call and seed) under C8's
    # 120 s and 4 GB budgets, with other options than C8's delta=2.
    n = 100_000
    pair_count = n * (n - 1) // 2
    inst = generate_planted(n, 8, seed=99, background_edge_prob=500_000 / pair_count,
                            physical_edge_prob=(500_000 - (n - 1)) / pair_count)
    t0 = time.monotonic()
    result = extract_dcs(inst.dual, opts)
    elapsed = time.monotonic() - t0
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    assert result.physically_connected
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    assert rss_gb < 4.0, f"peak {rss_gb:.2f} GB"


def test_default_delta_at_c8_scale():
    _assert_within_c8_budgets(DcsOptions())


def test_conceptual_infinite_delta_at_c8_scale():
    # Each physical component's pairs induce their rows; nothing searches a distance.
    _assert_within_c8_budgets(DcsOptions(delta=math.inf, gap_mode=GapWeightRule.CONCEPTUAL,
                                         connectivity=Connectivity.RELAXED))
