"""Child-process tasks of the benchmark: generate an instance, time the
library path, replay the pipeline with spans, check a result.

Usage: python3 perfbench/worker.py gen|time|trace|check WORKLOAD DIR [SEED|RUN_ID|OUTPUT]

Every task runs in its own process, started by run.py, so that the
orchestrating process never holds an instance in memory (a child's peak
RSS includes the high-water mark of the process that spawned it).  Each
task prints one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import probe
from workloads import WORKLOADS, Workload, write_instance


def _import_program():
    """Import the checked-out dualdense, never an installed copy."""
    import dualdense
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(dualdense.__file__).resolve().parent.parent != src:
        raise SystemExit(f"dualdense imported from {dualdense.__file__}, not {src}")


def _options(w: Workload):
    from dualdense.align import GapWeightRule
    from dualdense.pipeline import Connectivity, DcsOptions
    return DcsOptions(delta=w.delta, gap_mode=GapWeightRule(w.gap_mode),
                      connectivity=Connectivity(w.connectivity))


def _inputs(d: Path) -> tuple[str, str, str]:
    return (str(d / "conceptual.tsv"), str(d / "physical.tsv"),
            str(d / "correspondence.tsv"))


def task_time(w: Workload, d: Path) -> dict:
    """Untraced library path: set-up, solve and serialization times, each
    with the speed probe's rate over it."""
    _import_program()
    from dualdense import formats
    from dualdense.dualnet import DualNetwork
    from dualdense.pipeline import extract_dcs, result_to_doc

    c_path, p_path, f_path = _inputs(d)
    opts = _options(w)
    reader = probe.Reader(d / "probe.state")
    marks = [(time.perf_counter(), reader.read())]
    conceptual = formats.load_graph(c_path, weighted=True)
    physical = formats.load_graph(p_path, weighted=False)
    corr = formats.load_correspondence(f_path)
    dn = DualNetwork(conceptual, physical, corr)
    marks.append((time.perf_counter(), reader.read()))
    result = extract_dcs(dn, opts)
    marks.append((time.perf_counter(), reader.read()))
    text = formats.canonical_json(result_to_doc(result, dn, opts))
    marks.append((time.perf_counter(), reader.read()))
    reader.close()
    out: dict = {"speeds": {}, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    for key, (t0, p0), (t1, p1) in zip(("setup_s", "solve_s", "serialize_s"), marks, marks[1:]):
        out[key] = t1 - t0
        out["speeds"][key] = probe.speed(p0, p1)
    return out


class Spans:
    """In-memory span recorder: (name, start, end, parent index, run id),
    plus the speed probe's rate over the span."""

    def __init__(self, run_id: str, reader: probe.Reader):
        self.run_id, self.reader = run_id, reader
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str):
        index = len(self.records)
        before = self.reader.read()
        self.records.append({"name": name, "run": self.run_id,
                             "parent": self._open[-1] if self._open else None,
                             "start": time.perf_counter(), "end": None})
        self._open.append(index)
        try:
            yield
        finally:
            record = self.records[index]
            record["end"] = time.perf_counter()
            record["speed"] = probe.speed(before, self.reader.read())
            self._open.pop()


def task_trace(w: Workload, d: Path, run_id: str) -> dict:
    """Replay extract_dcs through its public calls, in its order, with a
    span around each layer call; counts are taken outside the spans."""
    _import_program()
    from dualdense import formats
    from dualdense.align import GAP, MATCH, build_alignment_graph, check_delta
    from dualdense.dualnet import DualNetwork
    from dualdense.errors import NoFeasibleSubgraph
    from dualdense.graph import connected_components, density
    from dualdense.peel import peel
    from dualdense.pipeline import (Connectivity, DcsResult, repair_connectivity,
                                    result_to_doc, verify_physical_connectivity)

    c_path, p_path, f_path = _inputs(d)
    opts = _options(w)
    reader = probe.Reader(d / "probe.state")
    span = Spans(run_id, reader)
    with span("dcs"):
        with span("formats.parse_conceptual"):
            conceptual = formats.load_graph(c_path, weighted=True)
        with span("formats.parse_physical"):
            physical = formats.load_graph(p_path, weighted=False)
        with span("formats.parse_correspondence"):
            corr = formats.load_correspondence(f_path)
        with span("dualnet.init"):
            dn = DualNetwork(conceptual, physical, corr)
        with span("align.build"):
            check_delta(opts.delta)
            ag = build_alignment_graph(dn, opts.delta, opts.gap_mode)
        if ag.graph.edge_count == 0:
            raise NoFeasibleSubgraph("alignment graph has no edges")
        with span("peel.peel"):
            peeled, trace = peel(ag.graph)
        warnings: list[str] = []
        with span("pipeline.select"):
            components = connected_components(ag.graph, peeled.nodes)
            best_comp, best_key = None, None
            for comp in components:
                cd = density(dn.conceptual, dn.conceptual_nodes(comp))
                key = (cd, len(comp), tuple(-k for k in comp))
                if best_key is None or key > best_key:
                    best_key, best_comp = key, comp
            selected = frozenset(best_comp)
            if len(selected) == 1:
                warnings.append("best component is a single node (density 0)")
            core_density = density(dn.conceptual, dn.conceptual_nodes(selected))
            alignment_density = density(ag.graph, selected)
        connectors: frozenset[int] = frozenset()
        with span("pipeline.verify"):
            if opts.connectivity is Connectivity.STRICT:
                connected = verify_physical_connectivity(dn, selected, Connectivity.STRICT)
            else:
                connected = verify_physical_connectivity(
                    dn, selected, Connectivity.RELAXED, delta=opts.delta)
        with span("pipeline.repair"):
            if opts.connectivity is Connectivity.STRICT and not connected and opts.repair:
                connectors = repair_connectivity(dn, selected)
                connected = True
            conceptual_density = (core_density if not connectors else density(
                dn.conceptual, dn.conceptual_nodes(selected | connectors)))
        result = DcsResult(
            nodes=selected, connector_nodes=connectors,
            conceptual_density=conceptual_density, core_density=core_density,
            alignment_density=alignment_density, physically_connected=connected,
            trace=trace, alignment=ag, warnings=warnings)
        with span("formats.serialize"):
            text = formats.canonical_json(result_to_doc(result, dn, opts))
    reader.close()
    (d / f"traced-{run_id}.json").write_text(text, encoding="utf-8")

    # Counts, outside every span.
    physical_g = dn.physical
    candidates = queries = 0
    for ci, cj, _ in dn.conceptual.edges():
        ki, kj = dn.pair_of_conceptual.get(ci), dn.pair_of_conceptual.get(cj)
        if ki is None or kj is None:
            continue
        candidates += 1
        if opts.delta >= 2 and not physical_g.has_edge(dn.pair_physical[ki],
                                                       dn.pair_physical[kj]):
            queries += 1
    kinds = list(ag.kinds.values())
    gaps = [dist for kind, dist in kinds if kind == GAP]
    counts = {
        "formats.input_edges": _data_lines(c_path) + _data_lines(p_path),
        "formats.duplicates_collapsed": (conceptual.duplicates_collapsed
                                         + physical.duplicates_collapsed),
        "align.candidates": candidates,
        "align.distance_queries": queries,
        "align.match_edges": sum(1 for kind, _ in kinds if kind == MATCH),
        "align.gap_edges": len(gaps),
        "align.gap_edges_d2": sum(1 for x in gaps if x == 2),
        "align.gap_edges_d3": sum(1 for x in gaps if x == 3),
        "align.gap_edges_d4": sum(1 for x in gaps if x == 4),
        "align.gap_edges_dfar": sum(1 for x in gaps if x > 4),
        "align.gap_yield": len(gaps) / queries if queries else 0.0,
        "peel.steps": len(trace.removal_order),
        "peel.isolated_nodes": sum(1 for v in range(ag.graph.n) if ag.graph.degree(v) == 0),
        "peel.kept_nodes": len(peeled.nodes),
        "pipeline.peeled_components": len(components),
        "pipeline.selected_nodes": len(selected),
        "pipeline.connectors": len(connectors),
        "formats.output_bytes": len(text.encode("utf-8")),
        "formats.trace_entries": len(trace.removal_order),
    }
    return {"spans": span.records, "counts": counts,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _data_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    task, name, d = argv[0], argv[1], Path(argv[2])
    w = WORKLOADS[name]
    if task == "gen":
        out = write_instance(w, int(argv[3]), d)
    elif task == "time":
        out = task_time(w, d)
    elif task == "trace":
        out = task_trace(w, d, argv[3])
    elif task == "check":
        from verify import check
        out = check(w, d, argv[3])
    else:
        raise SystemExit(f"unknown task {task!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
