"""The dual-network problem instance: a weighted conceptual graph and a
unit-weight physical graph bound by a one-to-one node correspondence."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph import Graph


@dataclass(frozen=True)
class Correspondence:
    """One-to-one pairing of conceptual labels with physical labels."""

    pairs: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class ValidationReport:
    """Outcome of checking a (conceptual, physical, correspondence) triple.

    ``ok`` is True exactly when there are no duplicate pairs and no dangling
    labels; unmatched node counts are informational only.
    """

    unmatched_conceptual: int = 0
    unmatched_physical: int = 0
    duplicate_pairs: int = 0
    dangling_labels: list[str] = field(default_factory=list)
    ok: bool = True


def validate(conceptual: Graph, physical: Graph, corr: Correspondence) -> ValidationReport:
    """Enumerate correspondence violations without raising."""
    report = ValidationReport()
    seen_c: set[str] = set()
    seen_p: set[str] = set()
    for c_label, p_label in corr.pairs:
        if c_label in seen_c:
            report.duplicate_pairs += 1
        seen_c.add(c_label)
        if p_label in seen_p:
            report.duplicate_pairs += 1
        seen_p.add(p_label)
        if not conceptual.has_label(c_label) and c_label not in report.dangling_labels:
            report.dangling_labels.append(c_label)
        if not physical.has_label(p_label) and p_label not in report.dangling_labels:
            report.dangling_labels.append(p_label)
    report.unmatched_conceptual = sum(1 for lab in conceptual.labels if lab not in seen_c)
    report.unmatched_physical = sum(1 for lab in physical.labels if lab not in seen_p)
    report.ok = report.duplicate_pairs == 0 and not report.dangling_labels
    return report


class DualNetwork:
    """A validated dual network.

    Pair k of the correspondence becomes the shared node identity: helper
    tables map pair ids to node indices in either graph.  Nodes of either
    graph that appear in no pair stay in their graphs but are excluded from
    alignment and from any extracted subgraph.
    """

    __slots__ = ("conceptual", "physical", "correspondence",
                 "pair_conceptual", "pair_physical",
                 "pair_of_conceptual", "pair_of_physical", "_pair_graph")

    def __init__(self, conceptual: Graph, physical: Graph, correspondence: Correspondence):
        report = validate(conceptual, physical, correspondence)
        problems = []
        if report.duplicate_pairs:
            problems.append(f"{report.duplicate_pairs} duplicate correspondence entries")
        if report.dangling_labels:
            problems.append(f"dangling labels {report.dangling_labels}")
        if len(correspondence) < 1:
            problems.append("correspondence is empty")
        if not physical.is_unit_weighted():
            problems.append("physical network must have unit edge weights")
        if problems:
            raise ValueError("invalid dual network: " + "; ".join(problems))

        self.conceptual = conceptual
        self.physical = physical
        self.correspondence = correspondence
        self.pair_conceptual = [conceptual.index_of(c) for c, _ in correspondence.pairs]
        self.pair_physical = [physical.index_of(p) for _, p in correspondence.pairs]
        self.pair_of_conceptual = {c: k for k, c in enumerate(self.pair_conceptual)}
        self.pair_of_physical = {p: k for k, p in enumerate(self.pair_physical)}
        self._pair_graph: Graph | None = None

    @property
    def pair_count(self) -> int:
        return len(self.pair_conceptual)

    def pair_labels(self, k: int) -> tuple[str, str]:
        return self.correspondence.pairs[k]

    def pair_by_conceptual_label(self, label: str) -> int:
        return self.pair_of_conceptual[self.conceptual.index_of(label)]

    def conceptual_nodes(self, members: Iterable[int]) -> set[int]:
        return {self.pair_conceptual[k] for k in self._check(members)}

    def physical_nodes(self, members: Iterable[int]) -> set[int]:
        return {self.pair_physical[k] for k in self._check(members)}

    @property
    def pair_graph(self) -> Graph:
        """The physical graph induced on covered nodes, re-indexed by pair id
        and labelled with the physical labels.  Built on first use (only
        repair and the oracle need it) and cached."""
        if self._pair_graph is None:
            pair_of = self.pair_of_physical
            edges = []
            for k, p in enumerate(self.pair_physical):
                for q in self.physical.neighbors(p):
                    j = pair_of.get(q)
                    if j is not None and k < j:
                        edges.append((k, j, 1.0))
            labels = [self.physical.labels[p] for p in self.pair_physical]
            self._pair_graph = Graph(labels, edges)
        return self._pair_graph

    def _check(self, members: Iterable[int]) -> set[int]:
        S = set(members)
        for k in S:
            if not (isinstance(k, int) and 0 <= k < self.pair_count):
                raise ValueError(f"{k!r} is not a correspondence pair id")
        return S


def induced(dn: DualNetwork, members: Iterable[int]) -> tuple[Graph, Graph]:
    """Induced conceptual and physical subgraphs over the given pair ids."""
    S = dn._check(members)
    conceptual = dn.conceptual.subgraph(dn.pair_conceptual[k] for k in S)
    physical = dn.physical.subgraph(dn.pair_physical[k] for k in S)
    return conceptual, physical
