"""Weighted alignment-graph construction.

The two networks are merged into a single weighted graph over composite
nodes (one per correspondence pair).  For every conceptually adjacent pair
of composite nodes: physical adjacency yields a Match edge carrying the
conceptual weight; a physical hop distance d with 2 <= d <= delta yields a
Gap(d) edge weighted by the selected gap rule; anything farther yields no
edge.  Two builds serve the cases.  delta = infinity turns the distance
test into same-component reachability; under the conceptual rule, where a
gap weighs w_c at any distance, the alignment graph is the covered
conceptual graph in pair ids cut along physical components, each
component's pairs inducing their own rows (``Graph._induced``) with no
search, no candidate list and no sort.  Everywhere else the searched build
(``_search``) walks the covered conceptual nodes once, each deciding its
covered larger neighbours together: at delta = 1, where no gap edge can
exist, by one set intersection with no search; otherwise by one capped
bidirectional searcher from its physical node (``graph.distances_from``).
The source's side of the search is shared by those neighbours and grows
first, to radius about delta/2 (3 at delta = infinity), unless a target's
side is much smaller; each candidate then grows only its own side, so the
work per candidate grows with the balls of radius about delta/2 around its
endpoints rather than with one ball of radius delta, and memory stays that
of the two graphs plus one source's layers and one target's search.
Every build returns only its graph; ``AlignmentGraph.kinds`` finds each
edge's kind from that graph on first read, so ``dcs`` never pays for kinds
and ``align`` at delta >= 2 searches the physical graph a second time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from functools import cached_property
from itertools import islice

from .dualnet import DualNetwork
from .errors import ConfigError, WeightUnderflow
from .graph import Graph, Record, connected_components, distances_from

MATCH = "match"
GAP = "gap"


class GapWeightRule(Enum):
    """How a gap edge derives its weight from the conceptual weight w_c of
    endpoints at physical hop distance d.

    CONCEPTUAL keeps w_c unchanged (the endpoints are directly adjacent in
    the conceptual network, so the one-edge path average is w_c itself).
    PER_HOP spreads w_c over the physical detour, w_c / d, penalizing long
    gaps.  PER_HOP is the default throughout.
    """

    CONCEPTUAL = "conceptual"
    PER_HOP = "per-hop"


class AlignmentGraph(Record):
    """A weighted graph over composite nodes plus per-edge match/gap tags.

    Composite node k corresponds to correspondence pair k; its label is
    ``composite_label(conceptual, physical)``.  ``dual`` is the dual network
    it was built from.  ``kinds`` maps each edge (u, v) with u < v to
    ("match", 1) or ("gap", d), d being its pairs' physical hop distance,
    found on first read by one ``distances_from`` searcher per pair u with
    a larger neighbour and then kept; edges of one distance share one tuple.
    """

    def __init__(self, graph: Graph, dual: DualNetwork, delta: float,
                 gap_mode: GapWeightRule):
        self.graph = graph
        self.dual = dual
        self.delta = delta
        self.gap_mode = gap_mode

    @cached_property
    def kinds(self) -> dict[tuple[int, int], tuple[str, int]]:
        physical, pair_physical = self.dual.physical, self.dual.pair_physical
        kinds, by_distance = {}, {1: (MATCH, 1)}
        source = distance = None
        for u, v, _ in self.graph.edges():
            if u != source:
                source, distance = u, distances_from(physical, pair_physical[u], self.delta)
            d = distance(pair_physical[v])
            kinds[u, v] = by_distance.get(d) or by_distance.setdefault(d, (GAP, d))
        return kinds


def check_delta(delta) -> float:
    """Normalize the gap threshold: a positive integer or math.inf."""
    if delta == math.inf:
        return math.inf
    if isinstance(delta, bool) or not isinstance(delta, int):
        raise ConfigError(f"delta must be a positive integer or infinity, got {delta!r}")
    if delta < 1:
        raise ConfigError(f"delta must be at least 1, got {delta}")
    return delta


def parse_delta(text: str) -> float:
    """Read a gap threshold written as an integer or as 'inf' (in any case,
    surrounding spaces allowed), checked by ``check_delta``."""
    try:
        # ``int`` also reads digit-group underscores and non-ASCII digits,
        # which a delta, like an edge weight, may not hold.
        if "_" in text or not text.isascii():
            raise ValueError
        value = math.inf if text.strip().lower() == "inf" else int(text)
    except ValueError:
        raise ConfigError(f"delta must be a positive integer or 'inf', got {text!r}") from None
    return check_delta(value)


def delta_doc(delta: float) -> int | str:
    """A gap threshold as output shows it: the integer, or 'inf'."""
    return "inf" if delta == math.inf else delta


def _escape(part: str) -> str:
    return part.replace("\\", "\\\\").replace("|", "\\|")


def composite_label(conceptual: str, physical: str) -> str:
    """``conceptual|physical``, with backslash and '|' escaped inside each
    part so that distinct pairs never share a label."""
    return f"{_escape(conceptual)}|{_escape(physical)}"


def build_alignment_graph(dn: DualNetwork, delta=4,
                          gap_mode: GapWeightRule = GapWeightRule.PER_HOP) -> AlignmentGraph:
    """Merge a dual network into its weighted alignment graph at gap
    threshold ``delta`` (a positive integer or math.inf) under ``gap_mode``,
    by the build the module docstring names for that case.  Raises
    ConfigError for a bad threshold or rule, and WeightUnderflow when a gap
    weight rounds to 0.
    """
    delta = check_delta(delta)
    if not isinstance(gap_mode, GapWeightRule):
        raise ConfigError(f"unknown gap weight rule: {gap_mode!r}")

    labels = [composite_label(c, p) for c, p in dn.pairs]
    if delta == math.inf and gap_mode is GapWeightRule.CONCEPTUAL:
        component = {p: c for c, ps in enumerate(connected_components(dn.physical)) for p in ps}
        groups: dict[int, dict[int, int]] = {}  # conceptual node -> pair id
        for k, (ci, pi) in enumerate(zip(dn.pair_conceptual, dn.pair_physical)):
            groups.setdefault(component[pi], {})[ci] = k
        graph = dn.conceptual._induced(labels, groups.values())
    else:
        graph = Graph._from_edges(labels, _search(dn, delta, gap_mode))
    return AlignmentGraph(graph, dn, delta, gap_mode)


def _search(dn: DualNetwork, delta: float, gap_mode: GapWeightRule) -> list:
    """The searched build: its edges ``(u, v, w)``, u < v.  A covered
    conceptual node's covered larger neighbours are decided at delta = 1 by
    one set intersection with its physical row, else by one searcher from
    its physical node, started at the first of them.  The edges are distinct
    conceptual edges weighing at most their conceptual weights, so they need
    none of ``Graph``'s checks."""
    conceptual, physical = dn.conceptual, dn.physical
    # Indexed by conceptual node, None where uncovered: faster than a dict.
    pair_of: list[int | None] = [None] * conceptual.n
    physical_of: list[int | None] = [None] * conceptual.n
    for k, (ci, pi) in enumerate(zip(dn.pair_conceptual, dn.pair_physical)):
        pair_of[ci] = k
        physical_of[ci] = pi
    to_physical = physical_of.__getitem__
    edges: list[tuple[int, int, float]] = []
    matches_only = delta == 1
    # ``GapWeightRule``'s rule, picked once: w > 0 and d >= 2 need no check.
    per_hop = gap_mode is GapWeightRule.PER_HOP
    for ci, ki in enumerate(pair_of):
        if ki is None:
            continue
        row = conceptual.neighbors(ci)
        start = bisect_right(row, ci)
        if matches_only:
            # None, for an uncovered neighbour, is in no physical row.
            hits = set(physical.neighbors(physical_of[ci])).intersection(
                map(to_physical, row[start:]))
            if not hits:
                continue
        distance = dict.fromkeys(hits, 1).get if matches_only else None
        for cj, w in islice(conceptual.incident(ci), start, None):
            pj = physical_of[cj]
            if pj is None:
                continue
            distance = distance or distances_from(physical, physical_of[ci], delta)
            d = distance(pj)
            if d is None:
                continue
            if per_hop and d > 1:
                weight = w / d
                if not weight:
                    raise WeightUnderflow(
                        f"gap weight underflows to 0: conceptual edge {conceptual.labels[ci]!r} "
                        f"-- {conceptual.labels[cj]!r} weighs {w!r}, over {d} physical hops")
                w = weight
            kj = pair_of[cj]
            edges.append((ki, kj, w) if ki < kj else (kj, ki, w))
    return edges
