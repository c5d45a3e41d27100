"""End-to-end extraction of the densest connected subgraph of a dual
network: alignment-graph construction, greedy peeling, component selection,
and physical-connectivity verification with optional repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .align import AlignmentGraph, GapWeightRule, build_alignment_graph, check_delta
from .dualnet import DualNetwork
from .errors import ConfigError, IrreparableDisconnection, NoFeasibleSubgraph
from .graph import Graph, bfs, connected_components, density, is_connected, path_to
from .peel import PeelTrace, peel


class Connectivity(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


@dataclass
class DcsOptions:
    """Pipeline knobs.

    ``repair`` only matters in STRICT mode (relaxed mode never adds
    connector nodes).
    """

    delta: float = 4
    gap_mode: GapWeightRule = GapWeightRule.PER_HOP
    connectivity: Connectivity = Connectivity.STRICT
    repair: bool = True


@dataclass
class DcsResult:
    """Pipeline output, all node sets expressed as correspondence pair ids.

    ``nodes`` is the peeled core; ``connector_nodes`` are the additions made
    by connectivity repair (disjoint from the core).  The headline
    ``conceptual_density`` covers core plus connectors, ``core_density``
    covers the core alone; they coincide when no repair happened.
    """

    nodes: frozenset[int]
    connector_nodes: frozenset[int]
    conceptual_density: float
    core_density: float
    alignment_density: float
    physically_connected: bool
    trace: PeelTrace
    alignment: AlignmentGraph
    warnings: list[str] = field(default_factory=list)

    @property
    def all_nodes(self) -> frozenset[int]:
        return self.nodes | self.connector_nodes


def verify_physical_connectivity(dn: DualNetwork, members: Iterable[int],
                                 mode: Connectivity,
                                 delta: float = math.inf) -> bool:
    """STRICT: the induced physical subgraph on the members is connected.
    RELAXED: members are connected in the auxiliary graph that joins two
    members whenever their hop distance in the full physical graph is at
    most delta.  Empty sets and singletons are vacuously connected."""
    S = dn._check(members)
    if len(S) <= 1:
        return True
    phys = {dn.pair_physical[k] for k in S}
    if mode is Connectivity.STRICT:
        return is_connected(dn.physical, phys)
    if mode is not Connectivity.RELAXED:
        raise ConfigError(f"unknown connectivity mode: {mode!r}")

    # Breadth-first search of the auxiliary graph, one layer per call: the
    # members within delta hops of the previous layer form the next one.
    remaining = set(phys)
    layer = [remaining.pop()]
    while layer and remaining:
        hits = bfs(dn.physical, layer, delta, targets=remaining)[1]
        layer = [p for p, _ in hits]
        remaining.difference_update(layer)
    return not remaining


def _closest_other_component(g: Graph, comp: list[int],
                             others: set[int]) -> tuple[int, tuple[int, ...]] | None:
    """Multi-source BFS from one component over covered physical pairs,
    stopping at the first node belonging to another component.  Sorted
    seeds and sorted adjacency make the returned path deterministic."""
    parent, hits = bfs(g, comp, targets=others, need=1)
    if not hits:
        return None
    target, depth = hits[0]
    return depth, tuple(path_to(parent, target))


def repair_connectivity(dn: DualNetwork, members: Iterable[int]) -> frozenset[int]:
    """Connector pairs that stitch the members into one physically connected
    set.

    Components of the induced physical subgraph are joined iteratively,
    closest pair of components first, along a shortest path through
    correspondence-covered physical nodes (connectors must belong to the
    dual universe so their conceptual density is defined).  Returns only the
    added pairs; raises IrreparableDisconnection when some components cannot
    be joined through covered nodes.
    """
    S = dn._check(members)
    g = dn.pair_graph
    current = set(S)
    connectors: set[int] = set()
    comps = connected_components(g, current)
    while len(comps) > 1:
        member_of = {}
        for idx, comp in enumerate(comps):
            for k in comp:
                member_of[k] = idx
        best: tuple[int, tuple[int, ...]] | None = None
        for idx, comp in enumerate(comps):
            others = {k for k in current if member_of[k] != idx}
            hit = _closest_other_component(g, comp, others)
            if hit is not None and (best is None or hit < best):
                best = hit
        if best is None:
            raise IrreparableDisconnection(
                "selected components cannot be joined through "
                "correspondence-covered physical nodes")
        new_nodes = [k for k in best[1] if k not in current]
        connectors.update(new_nodes)
        current.update(new_nodes)
        comps = connected_components(g, current)
    return frozenset(connectors)


def extract_dcs(dn: DualNetwork, opts: DcsOptions | None = None) -> DcsResult:
    """Run the full pipeline and return the densest connected subgraph.

    The peeled subgraph may span several alignment-graph components; the
    one with maximum conceptual density is kept (ties: larger size, then
    lexicographically smallest).  Raises NoFeasibleSubgraph when the
    alignment graph has no edges, and IrreparableDisconnection (carrying the
    partial result) when strict repair is impossible.
    """
    opts = opts or DcsOptions()
    check_delta(opts.delta)
    ag = build_alignment_graph(dn, opts.delta, opts.gap_mode)
    if ag.graph.edge_count == 0:
        raise NoFeasibleSubgraph(
            "alignment graph has no edges; no multi-node candidate exists "
            f"(delta={opts.delta}, {dn.pair_count} composite nodes)")

    peeled, trace = peel(ag.graph)
    warnings: list[str] = []

    components = connected_components(ag.graph, peeled.nodes)
    best_comp: list[int] | None = None
    best_key: tuple[float, int, tuple[int, ...]] | None = None
    for comp in components:
        cd = density(dn.conceptual, dn.conceptual_nodes(comp))
        key = (cd, len(comp), tuple(-k for k in comp))
        if best_key is None or key > best_key:
            best_key = key
            best_comp = comp
    assert best_comp is not None
    selected = frozenset(best_comp)
    if len(selected) == 1:
        warnings.append("best component is a single node (density 0)")

    core_density = density(dn.conceptual, dn.conceptual_nodes(selected))
    alignment_density = density(ag.graph, selected)

    connectors: frozenset[int] = frozenset()
    if opts.connectivity is Connectivity.STRICT:
        connected = verify_physical_connectivity(dn, selected, Connectivity.STRICT)
        if not connected and opts.repair:
            try:
                connectors = repair_connectivity(dn, selected)
            except IrreparableDisconnection as exc:
                exc.partial = DcsResult(
                    nodes=selected, connector_nodes=frozenset(),
                    conceptual_density=core_density, core_density=core_density,
                    alignment_density=alignment_density, physically_connected=False,
                    trace=trace, alignment=ag, warnings=warnings)
                raise
            connected = True
    elif opts.connectivity is Connectivity.RELAXED:
        connected = verify_physical_connectivity(
            dn, selected, Connectivity.RELAXED, delta=opts.delta)
    else:
        raise ConfigError(f"unknown connectivity mode: {opts.connectivity!r}")

    final = selected | connectors
    conceptual_density = (core_density if not connectors
                          else density(dn.conceptual, dn.conceptual_nodes(final)))
    return DcsResult(
        nodes=selected, connector_nodes=connectors,
        conceptual_density=conceptual_density, core_density=core_density,
        alignment_density=alignment_density, physically_connected=connected,
        trace=trace, alignment=ag, warnings=warnings)


def result_to_doc(result: DcsResult, dn: DualNetwork, opts: DcsOptions) -> dict:
    """JSON-ready document for a pipeline result; the CLI emits exactly
    this, so library and CLI serializations cannot diverge."""
    def pairs_doc(members: Iterable[int]) -> list[list[str]]:
        return sorted([list(dn.pair_labels(k)) for k in members])

    return {
        "delta": "inf" if opts.delta == math.inf else opts.delta,
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
