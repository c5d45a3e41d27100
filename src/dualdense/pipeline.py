"""End-to-end extraction of the densest connected subgraph of a dual
network: alignment-graph construction, greedy peeling, component selection,
and physical-connectivity verification with optional repair.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum
from itertools import chain

from .align import (AlignmentGraph, GapWeightRule, build_alignment_graph, check_delta,
                    delta_doc)
from .dualnet import DualNetwork
from .errors import ConfigError, IrreparableDisconnection, NoFeasibleSubgraph
from .graph import Record, connected_components, density, nearest, path_to, reach
from .peel import PeelTrace, peel


class Connectivity(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class DcsOptions(Record):
    """Pipeline knobs.  The class attributes are the defaults.

    ``repair`` only matters in STRICT mode (relaxed mode never adds
    connector nodes).
    """

    delta = 4
    gap_mode = GapWeightRule.PER_HOP
    connectivity = Connectivity.STRICT
    repair = True

    def __init__(self, delta: float = delta, gap_mode: GapWeightRule = gap_mode,
                 connectivity: Connectivity = connectivity, repair: bool = repair):
        self.delta = delta
        self.gap_mode = gap_mode
        self.connectivity = connectivity
        self.repair = repair


class DcsResult(Record):
    """Pipeline output, all node sets expressed as correspondence pair ids.

    ``nodes`` is the peeled core; ``connector_nodes`` are the additions made
    by connectivity repair (disjoint from the core).  The headline
    ``conceptual_density`` covers core plus connectors, ``core_density``
    covers the core alone; they coincide when no repair happened.
    ``warnings`` stays empty: the selected core always holds an alignment
    edge, so it has at least two pairs.
    """

    def __init__(self, nodes: frozenset[int], connector_nodes: frozenset[int],
                 conceptual_density: float, core_density: float,
                 alignment_density: float, physically_connected: bool,
                 trace: PeelTrace, alignment: AlignmentGraph,
                 warnings: list[str] | None = None):
        self.nodes = nodes
        self.connector_nodes = connector_nodes
        self.conceptual_density = conceptual_density
        self.core_density = core_density
        self.alignment_density = alignment_density
        self.physically_connected = physically_connected
        self.trace = trace
        self.alignment = alignment
        self.warnings = [] if warnings is None else warnings

    @property
    def all_nodes(self) -> frozenset[int]:
        return self.nodes | self.connector_nodes


def verify_physical_connectivity(dn: DualNetwork, members: Iterable[int],
                                 mode: Connectivity,
                                 delta: float = math.inf) -> bool:
    """RELAXED: members are connected in the auxiliary graph that joins two
    members whenever their hop distance in the full physical graph is at
    most delta, a positive integer or infinity.  STRICT, a connected induced
    physical subgraph, is RELAXED at delta 1 (``delta`` is ignored): members
    chained one hop apart are a path among the members.  Empty sets and
    singletons are vacuously connected.  ``extract_dcs`` needs only STRICT
    (its RELAXED selections are connected by construction)."""
    if not isinstance(mode, Connectivity):
        raise ConfigError(f"unknown connectivity mode: {mode!r}")
    delta = 1 if mode is Connectivity.STRICT else check_delta(delta)
    remaining = {dn.pair_physical[k] for k in dn._check(members)}
    if not remaining:
        return True
    # Breadth-first search of the auxiliary graph, one layer per ball: the
    # members within delta hops of the previous layer form the next one.  At
    # delta infinity the first ball is the whole physical component.
    layer = {remaining.pop()}
    while layer and remaining:
        layer = reach(dn.physical, layer, delta) & remaining
        remaining -= layer
    return not remaining


def repair_connectivity(dn: DualNetwork, members: Iterable[int]) -> frozenset[int]:
    """Connector pairs that stitch the members into one physically connected
    set.

    Components of the induced physical subgraph are joined one round at a
    time, through correspondence-covered physical nodes only (connectors
    must belong to the dual universe so their conceptual density is
    defined).  Each round adds the interior of the lexicographically least
    shortest path, in pair ids, that joins two components: shortest first,
    then the least node sequence.  The partition is found once and kept
    across rounds: the path's interior merges into one component with
    every component holding a neighbour of the interior, both ends'
    included, and the others stay as they were.

    Each component is searched once, when it forms, by one ``nearest``
    for its join: its least shortest path to another member.  A round
    that leaves a component alone only adds the round's interior to its
    targets, so the search's record holds its new join: the path to the
    record's first interior node, if any, else the old join.  Returns only
    the added pairs; raises IrreparableDisconnection as soon as a
    component's search finds no other member, as it can never gain one.
    """
    S = dn._check(members)
    g = dn.pair_graph
    current = set(S)
    comps = connected_components(g, current)
    comp_of = {k: comp for comp in comps for k in comp}

    def search(comp: list[int]) -> tuple[list[int], list[int], dict[int, int]]:
        found = nearest(g, comp, current.difference(comp))
        if found is None:
            raise IrreparableDisconnection(
                "selected components cannot be joined through "
                "correspondence-covered physical nodes")
        return comp, *found

    # Components are lists, so they are told apart by identity.
    joins = {id(comp): search(comp) for comp in comps} if len(comps) > 1 else {}
    while len(joins) > 1:
        interior = set(min((path for _, path, _ in joins.values()),
                           key=lambda path: (len(path), path))[1:-1])
        current |= interior
        touched = {id(comp): comp for v in interior for u in g.neighbors(v)
                   if (comp := comp_of.get(u)) is not None}
        for key in touched:
            del joins[key]
        for key, (comp, _, record) in joins.items():
            # The search would now stop at the record's first interior node.
            if not record.keys().isdisjoint(interior):
                kept: dict[int, int] = {}
                for v, p in record.items():
                    kept[v] = p
                    if v in interior:
                        break
                joins[key] = comp, path_to(kept, v), kept
        merged = sorted(chain(interior, *touched.values()))
        comp_of.update(dict.fromkeys(merged, merged))
        if joins:
            joins[id(merged)] = search(merged)
    return frozenset(current - S)


def extract_dcs(dn: DualNetwork, opts: DcsOptions | None = None) -> DcsResult:
    """Run the full pipeline and return the densest connected subgraph.

    The peeled subgraph may span several alignment-graph components; the
    one with maximum conceptual density is kept (ties: larger size, then
    lexicographically smallest).  Raises ConfigError for a bad option before
    any work, NoFeasibleSubgraph when the alignment graph has no edges, and
    IrreparableDisconnection (carrying the unrepaired result) when strict
    repair is impossible.
    """
    opts = opts or DcsOptions()
    if not isinstance(opts.connectivity, Connectivity):
        raise ConfigError(f"unknown connectivity mode: {opts.connectivity!r}")
    if not isinstance(opts.repair, bool):
        raise ConfigError(f"repair must be True or False, got {opts.repair!r}")
    ag = build_alignment_graph(dn, opts.delta, opts.gap_mode)
    if ag.graph.edge_count == 0:
        raise NoFeasibleSubgraph(
            "alignment graph has no edges; no multi-node candidate exists "
            f"(delta={opts.delta}, {dn.pair_count} composite nodes)")

    peeled, trace = peel(ag.graph)
    core_density, _, negated_ids = max(
        (dn.conceptual_density(comp), len(comp), tuple(-k for k in comp))
        for comp in connected_components(ag.graph, peeled.nodes))
    selected = frozenset(-k for k in negated_ids)
    # A RELAXED selection is connected by construction: it is one
    # alignment-graph component, and every alignment edge joins pairs at
    # most delta physical hops apart, which is an auxiliary-graph edge.  So
    # only a STRICT selection can need repair.
    result = DcsResult(
        nodes=selected, connector_nodes=frozenset(),
        conceptual_density=core_density, core_density=core_density,
        alignment_density=density(ag.graph, selected),
        physically_connected=(opts.connectivity is Connectivity.RELAXED
                              or verify_physical_connectivity(dn, selected, opts.connectivity)),
        trace=trace, alignment=ag)

    if not result.physically_connected and opts.repair:
        try:
            result.connector_nodes = repair_connectivity(dn, selected)
        except IrreparableDisconnection as exc:
            exc.partial = result
            raise
        result.conceptual_density = dn.conceptual_density(result.all_nodes)
        result.physically_connected = True
    return result


def result_to_doc(result: DcsResult, dn: DualNetwork, opts: DcsOptions) -> dict:
    """JSON-ready document for a pipeline result; the CLI emits exactly
    this, so library and CLI serializations cannot diverge."""
    def pairs_doc(members: Iterable[int]) -> list[list[str]]:
        return sorted([list(dn.pairs[k]) for k in members])

    return {
        "delta": delta_doc(opts.delta),
        "gap_mode": opts.gap_mode.value,
        "connectivity": opts.connectivity.value,
        "repair": opts.repair,
        "nodes": pairs_doc(result.nodes),
        "connector_nodes": pairs_doc(result.connector_nodes),
        "node_count": len(result.nodes),
        "conceptual_density": result.conceptual_density,
        "core_conceptual_density": result.core_density,
        "alignment_density": result.alignment_density,
        "physically_connected": result.physically_connected,
        "warnings": list(result.warnings),
        "peel": result.trace.to_doc(result.alignment.graph.labels),
    }
