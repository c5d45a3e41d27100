"""The dual-network problem instance: a weighted conceptual graph and a
unit-weight physical graph bound by a one-to-one node correspondence."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from .graph import Graph, check_ids, density


class DualNetwork:
    """A validated dual network.

    ``pairs`` is the correspondence: one ``(conceptual_label,
    physical_label)`` tuple per shared node, of the graphs' own label
    objects, so that the caller's copies can be freed.  Pair k becomes the
    shared node identity: ``pair_conceptual[k]`` and ``pair_physical[k]``
    are its node indices in the two graphs, which ``align``, the oracle and
    ``cli gen`` read; the methods below answer in pair ids.  Nodes of either
    graph that appear in no pair stay in their graphs but are excluded from
    alignment and from any extracted subgraph.  ``pair_of_conceptual``,
    which no pipeline stage reads, and ``pair_graph``, which only repair
    and the oracle read, are built on first read.
    """

    __slots__ = ("conceptual", "physical", "pairs", "pair_conceptual",
                 "pair_physical", "_pair_of_conceptual", "_pair_graph")

    def __init__(self, conceptual: Graph, physical: Graph,
                 pairs: Iterable[tuple[str, str]]):
        c_index, p_index = conceptual._index, physical._index
        pair_conceptual: list = []
        pair_physical: list = []
        dangling: dict[str, None] = {}  # insertion-ordered set
        for c, p in pairs:
            i, j = c_index.get(c), p_index.get(p)
            if i is None:
                dangling[c] = None
            if j is None:
                dangling[p] = None
            pair_conceptual.append(i)
            pair_physical.append(j)

        problems = []
        # A repeated label maps to a node already in the table, so each
        # repeat adds no new distinct node.
        duplicates = sum(len(t) - t.count(None) - len(set(t) - {None})
                         for t in (pair_conceptual, pair_physical))
        if duplicates:
            problems.append(f"{duplicates} duplicate correspondence entries")
        if dangling:
            shown = [repr(label) for label in islice(dangling, 5)]
            if len(dangling) > len(shown):
                shown.append("...")
            problems.append(f"{len(dangling)} dangling labels ({', '.join(shown)})")
        if not pair_conceptual:
            problems.append("correspondence is empty")
        if not physical.is_unit_weighted():
            problems.append("physical network must have unit edge weights")
        if problems:
            raise ValueError("invalid dual network: " + "; ".join(problems))

        self.conceptual = conceptual
        self.physical = physical
        self.pairs = tuple(zip(map(conceptual.labels.__getitem__, pair_conceptual),
                               map(physical.labels.__getitem__, pair_physical)))
        self.pair_conceptual = pair_conceptual
        self.pair_physical = pair_physical
        self._pair_of_conceptual: dict[int, int] | None = None
        self._pair_graph: Graph | None = None

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    def conceptual_nodes(self, members: Iterable[int]) -> set[int]:
        return {self.pair_conceptual[k] for k in self._check(members)}

    def physical_nodes(self, members: Iterable[int]) -> set[int]:
        return {self.pair_physical[k] for k in self._check(members)}

    def conceptual_density(self, members: Iterable[int]) -> float:
        """Conceptual density of a set of pair ids."""
        return density(self.conceptual, self.conceptual_nodes(members))

    @property
    def pair_of_conceptual(self) -> dict[int, int]:
        """Conceptual node index -> pair id, for covered nodes.  Built on
        first read and cached."""
        if self._pair_of_conceptual is None:
            self._pair_of_conceptual = {i: k for k, i in enumerate(self.pair_conceptual)}
        return self._pair_of_conceptual

    @property
    def pair_graph(self) -> Graph:
        """The physical graph induced on covered nodes, re-indexed by pair id
        and labelled with the physical labels.  Built on first use (only
        repair and the oracle need it) and cached."""
        if self._pair_graph is None:
            self._pair_graph = self.physical.subgraph(self.pair_physical)
        return self._pair_graph

    def _check(self, members: Iterable[int]) -> set[int]:
        return set(check_ids(members, self.pair_count, "{!r} is not a correspondence pair id"))
