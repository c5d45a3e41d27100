"""Weighted alignment-graph construction.

The two networks are merged into a single weighted graph over composite
nodes (one per correspondence pair).  For every conceptually adjacent pair
of composite nodes: physical adjacency yields a Match edge carrying the
conceptual weight; a physical hop distance d with 2 <= d <= delta yields a
Gap(d) edge weighted by the selected gap rule; anything farther yields no
edge.  Three builds serve the three cases.  At delta = 1 no gap edge can
exist, so the alignment graph is the dual network's shared edge set
(``DualNetwork.shared_edges``), found by set intersections with no search.
delta = infinity turns the distance test into same-component
reachability; under the conceptual rule, where a gap weighs w_c at any
distance, physical component labels then decide it with no search.
Otherwise ``DualNetwork.candidates`` yields each conceptual node's
candidates together, and one capped bidirectional searcher per source
physical node (``graph.distances_from``) answers them all: distance 1 is a
match, and distances 2..delta are gaps.  The source's side of the search
is shared by those candidates and grows first, to radius about delta/2,
unless a target's side is much smaller; each candidate then grows only its
own side, so the work per candidate grows with the balls of radius about
delta/2 around its endpoints rather than with one ball of radius delta,
and memory stays that of the two graphs plus one source's layers and one
target's search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dualnet import DualNetwork
from .errors import ConfigError, WeightUnderflow
from .graph import Graph, connected_components, distances_from

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


def gap_weight(rule: GapWeightRule, w_c: float, d: int) -> float:
    """Weight assigned to a gap edge with conceptual weight w_c spanning a
    physical detour of d >= 2 hops."""
    if w_c <= 0:
        raise ValueError(f"conceptual weight must be positive, got {w_c}")
    if d < 2:
        raise ValueError(f"gap distance must be at least 2, got {d}")
    if rule is GapWeightRule.CONCEPTUAL:
        return w_c
    if rule is GapWeightRule.PER_HOP:
        return w_c / d
    raise ConfigError(f"unknown gap weight rule: {rule!r}")


@dataclass
class AlignmentGraph:
    """A weighted graph over composite nodes plus per-edge match/gap tags.

    Composite node k corresponds to correspondence pair k; its label is
    ``composite_label(conceptual, physical)``.  ``kinds`` maps each edge
    (u, v) with u < v to ("match", 1) or ("gap", d).  ``dual`` is the dual
    network it was built from.  The label build (delta = infinity,
    conceptual rule) knows no distances, so its kinds are found on first
    read by the searcher build.
    """

    graph: Graph
    dual: DualNetwork
    delta: float
    gap_mode: GapWeightRule
    _kinds: dict[tuple[int, int], tuple[str, int]] | None = None

    @property
    def kinds(self) -> dict[tuple[int, int], tuple[str, int]]:
        if self._kinds is None:
            self._kinds = _search(self.dual, self.delta, self.gap_mode)[1]
        return self._kinds


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
    if text.strip().lower() == "inf":
        return math.inf
    try:
        value = int(text)
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
    if delta == 1:
        edges = dn.shared_edges()
        kinds = dict.fromkeys([(ki, kj) for ki, kj, _ in edges], (MATCH, 1))
        return AlignmentGraph(Graph._from_edges(labels, edges), dn, delta, gap_mode, kinds)
    if delta == math.inf and gap_mode is GapWeightRule.CONCEPTUAL:
        component = {p: c for c, ps in enumerate(connected_components(dn.physical)) for p in ps}
        label = [component[p] for p in dn.pair_physical]
        edges = [(ki, kj, w) if ki < kj else (kj, ki, w)
                 for ki, kj, w in dn.candidates() if label[ki] == label[kj]]
        return AlignmentGraph(Graph._from_edges(labels, edges), dn, delta, gap_mode)
    edges, kinds = _search(dn, delta, gap_mode)
    return AlignmentGraph(Graph._from_edges(labels, edges), dn, delta, gap_mode, kinds)


def _search(dn: DualNetwork, delta: float, gap_mode: GapWeightRule) -> tuple[list, dict]:
    """The searcher build, for delta >= 2: its edges ``(u, v, w)``, u < v,
    and their kinds.  Each edge is a distinct conceptual edge weighing at
    most its conceptual weight, so the edges need none of ``Graph``'s checks.
    """
    physical, pair_physical = dn.physical, dn.pair_physical
    edges: list[tuple[int, int, float]] = []
    kinds: dict[tuple[int, int], tuple[str, int]] = {}
    source = distance = None
    for ki, kj, w in dn.candidates():
        pi, pj = pair_physical[ki], pair_physical[kj]
        if pi != source:
            source, distance = pi, distances_from(physical, pi, delta)
        d = distance(pj)
        if d is None:
            continue
        if d == 1:
            kind = (MATCH, 1)
        else:
            weight = gap_weight(gap_mode, w, d)
            if not weight:
                raise WeightUnderflow(
                    f"gap weight underflows to 0: conceptual edge {dn.pairs[ki][0]!r} -- "
                    f"{dn.pairs[kj][0]!r} weighs {w!r}, over {d} physical hops")
            kind, w = (GAP, d), weight
        if ki > kj:
            ki, kj = kj, ki
        edges.append((ki, kj, w))
        kinds[ki, kj] = kind
    return edges, kinds
