"""Work counts of the pipeline on seed 311 of each benchmark workload.

Times drift with the host; these counts do not.  They are the same on
Python 3.10 to 3.13 and under any ``PYTHONHASHSEED``.  Three count work
done, and are ceilings, so that an algorithmic regression fails here even
where timing noise hides it: the physical adjacency rows that
``build_alignment_graph`` reads, the heap pops of ``peel``, stale entries
included, and the ``nearest`` calls that ``extract_dcs`` makes to repair.
The sizes (candidates, alignment edges, core pairs and connectors) and the
``distances_from`` searchers that ``extract_dcs`` starts are exact.  A
change that moves a value states the new value and the reason in
``CHANGES.md``.

``extract_dcs`` never reads ``AlignmentGraph.kinds``, so its searchers are
the searcher build's own, and none at delta = 1 or under the label build.
A first read of ``kinds`` starts at most one searcher per pair with a
larger neighbour, and a second read starts none.

The instances come from the benchmark's own generator, which this only
imports; nothing under ``perfbench/`` is written to.
"""

from __future__ import annotations

import heapq
import sys
from pathlib import Path
from unittest import mock

import pytest

from dualdense import (Connectivity, DcsOptions, DualNetwork, GapWeightRule, align,
                       build_alignment_graph, extract_dcs, pipeline)
from dualdense.formats import load_correspondence, load_graph
from helpers import ReadLog, candidates

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, write_instance  # noqa: E402

SEED = 311
# Per workload: exact sizes, then work ceilings.
EXPECTED = {
    "scale-d1": ({"candidates": 50_000, "alignment_edges": 75, "core_pairs": 8,
                  "connectors": 0, "searchers": 0},
                 {"build_rows_read": 10_000, "peel_pops": 149, "nearest_calls": 0}),
    "gap-d4": ({"candidates": 10_000, "alignment_edges": 9_999, "core_pairs": 40,
                "connectors": 36, "searchers": 1_787},
               {"build_rows_read": 41_227, "peel_pops": 3_030, "nearest_calls": 75}),
    "reach-inf": ({"candidates": 10_000, "alignment_edges": 10_000, "core_pairs": 8,
                   "connectors": 0, "searchers": 0},
                  {"build_rows_read": 2_000, "peel_pops": 3_109, "nearest_calls": 0}),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_work_counts(name, tmp_path):
    w = WORKLOADS[name]
    write_instance(w, SEED, tmp_path)
    physical = load_graph(str(tmp_path / "physical.tsv"), weighted=False)
    dn = DualNetwork(load_graph(str(tmp_path / "conceptual.tsv"), weighted=True), physical,
                     load_correspondence(str(tmp_path / "correspondence.tsv")))
    opts = DcsOptions(delta=w.delta, gap_mode=GapWeightRule(w.gap_mode),
                      connectivity=Connectivity(w.connectivity))
    physical._nbrs = log = ReadLog(physical._nbrs)
    ag = build_alignment_graph(dn, opts.delta, opts.gap_mode)
    rows_read = sum(log.counts.values())
    with mock.patch.object(pipeline, "nearest", wraps=pipeline.nearest) as nearest, \
            mock.patch.object(heapq, "heappop", wraps=heapq.heappop) as pops, \
            mock.patch.object(align, "distances_from", wraps=align.distances_from) as searchers:
        result = extract_dcs(dn, opts)
    with mock.patch.object(align, "distances_from", wraps=align.distances_from) as kind_searchers:
        kinds = ag.kinds
        first_read = kind_searchers.call_count
        assert ag.kinds is kinds
    g = ag.graph
    assert first_read <= sum(1 for u in range(g.n) if any(v > u for v in g.neighbors(u)))
    assert kind_searchers.call_count == first_read

    sizes, ceilings = EXPECTED[name]
    assert {"candidates": len(candidates(dn)),
            "alignment_edges": ag.graph.edge_count,
            "core_pairs": len(result.nodes),
            "connectors": len(result.connector_nodes), "searchers": searchers.call_count} == sizes
    work = {"build_rows_read": rows_read, "peel_pops": pops.call_count,
            "nearest_calls": nearest.call_count}
    assert {key: value for key, value in work.items() if value > ceilings[key]} == {}, work
