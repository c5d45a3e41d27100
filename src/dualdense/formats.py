"""Parsing and serialization: edge lists, correspondence files, check-in
CSVs, and DOT/GraphML/JSON graph exports.

Edge lists are whitespace-separated ``src dst [weight]`` records with ``#``
comments; every line is either consumed, skipped as comment/blank, or
reported with its line number.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Union
from xml.sax.saxutils import escape, quoteattr

from .align import AlignmentGraph
from .dualnet import Correspondence
from .errors import ParseError
from .graph import Graph

LineSource = Union[IO[str], Iterable[str]]


@dataclass(frozen=True)
class CheckinRecord:
    user: str
    lat: float
    lon: float


def parse_edge_list(source: LineSource, weighted: bool, name: str | None = None) -> Graph:
    """Parse an undirected edge list into a Graph.

    Unweighted lists get weight 1.0 everywhere; a weight column on an
    unweighted parse (or a missing one on a weighted parse) is an error, as
    are non-positive weights and self-loops.  Duplicate edges collapse to
    the maximum weight (counted on the resulting graph).
    """
    expected = 3 if weighted else 2

    def triples():
        for line_no, raw in enumerate(source, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != expected:
                raise ParseError(
                    f"expected {expected} fields ({'src dst weight' if weighted else 'src dst'}),"
                    f" got {len(parts)}", line_no, name)
            src, dst = parts[0], parts[1]
            if src == dst:
                raise ParseError(f"self-loop on {src!r}", line_no, name)
            if weighted:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise ParseError(f"invalid weight {parts[2]!r}", line_no, name) from None
                if not math.isfinite(w) or w <= 0:
                    raise ParseError(f"edge weight must be positive, got {parts[2]}",
                                     line_no, name)
            else:
                w = 1.0
            yield src, dst, w

    return Graph.from_label_edges(triples())


def parse_correspondence(source: LineSource, name: str | None = None) -> Correspondence:
    """Parse ``conceptual physical`` pairs, one per line; duplicates on
    either side are rejected (the mapping must be one-to-one)."""
    pairs: list[tuple[str, str]] = []
    seen_c: set[str] = set()
    seen_p: set[str] = set()
    for line_no, raw in enumerate(source, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'conceptual physical', got {len(parts)} fields",
                             line_no, name)
        c, p = parts
        if c in seen_c:
            raise ParseError(f"duplicate conceptual label {c!r}", line_no, name)
        if p in seen_p:
            raise ParseError(f"duplicate physical label {p!r}", line_no, name)
        seen_c.add(c)
        seen_p.add(p)
        pairs.append((c, p))
    return Correspondence(tuple(pairs))


def parse_checkins(source: LineSource, name: str | None = None) -> list[CheckinRecord]:
    """Parse ``user,lat,lon`` CSV records.

    The first row is treated as a header exactly when its coordinate fields
    do not parse as numbers; coordinate errors on any later row are
    reported with their line number.
    """
    records: list[CheckinRecord] = []
    for line_no, row in enumerate(csv.reader(source), 1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 'user,lat,lon', got {len(row)} fields", line_no, name)
        user, lat_s, lon_s = (f.strip() for f in row)
        try:
            lat, lon = float(lat_s), float(lon_s)
        except ValueError:
            if line_no == 1:
                continue  # header row
            raise ParseError(f"invalid coordinates {lat_s!r},{lon_s!r}", line_no, name) from None
        if not -90.0 <= lat <= 90.0:
            raise ParseError(f"latitude {lat} outside [-90, 90]", line_no, name)
        if not -180.0 <= lon <= 180.0:
            raise ParseError(f"longitude {lon} outside [-180, 180]", line_no, name)
        records.append(CheckinRecord(user, lat, lon))
    return records


def load_graph(path: str, weighted: bool) -> Graph:
    # utf-8-sig reads a leading byte-order mark as encoding, not label text.
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_edge_list(fh, weighted, name=path)


def load_correspondence(path: str) -> Correspondence:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_correspondence(fh, name=path)


def write_edge_list(g: Graph, path: str, weighted: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, w in g.label_edges():
            fh.write(f"{a}\t{b}\t{w!r}\n" if weighted else f"{a}\t{b}\n")


def canonical_json(doc) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def graph_to_doc(g: Graph) -> dict:
    """Canonical JSON document: sorted node labels, sorted edge triples."""
    edges = []
    for a, b, w in g.label_edges():
        if b < a:
            a, b = b, a
        edges.append([a, b, w])
    edges.sort()
    return {"nodes": sorted(g.labels), "edges": edges}


def graph_to_json(g: Graph) -> str:
    return canonical_json(graph_to_doc(g))


def graph_from_json(text: str, name: str | None = None) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", None, name) from None
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ParseError("graph JSON must contain 'nodes' and 'edges'", None, name)
    try:
        return Graph.from_label_edges(
            ((a, b, w) for a, b, w in doc["edges"]), nodes=doc["nodes"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}", None, name) from None


def _dot_id(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph, name: str = "G",
                 highlight: set[str] | None = None) -> str:
    """DOT rendering with weight attributes; ``highlight`` labels (and edges
    between them) are colored red."""
    out = [f"graph {name} {{"]
    for lab in g.labels:
        attrs = ' [color=red, style=bold]' if highlight and lab in highlight else ""
        out.append(f"  {_dot_id(lab)}{attrs};")
    for a, b, w in g.label_edges():
        attrs = [f"weight={w!r}"]
        if highlight and a in highlight and b in highlight:
            attrs.append("color=red")
            attrs.append("style=bold")
        out.append(f"  {_dot_id(a)} -- {_dot_id(b)} [{', '.join(attrs)}];")
    out.append("}")
    return "\n".join(out) + "\n"


def graph_to_graphml(g: Graph) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        '  <graph edgedefault="undirected">',
    ]
    for lab in g.labels:
        out.append(f"    <node id={quoteattr(lab)}/>")
    for a, b, w in g.label_edges():
        out.append(f"    <edge source={quoteattr(a)} target={quoteattr(b)}>")
        out.append(f'      <data key="weight">{w!r}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def alignment_to_doc(ag: AlignmentGraph) -> dict:
    g = ag.graph
    edges = []
    for u, v, w in g.edges():
        kind, dist = ag.kind_of(u, v)
        a, b = g.labels[u], g.labels[v]
        if b < a:
            a, b = b, a
        edges.append({"source": a, "target": b, "weight": w,
                      "kind": kind, "distance": dist})
    edges.sort(key=lambda e: (e["source"], e["target"]))
    return {
        "nodes": sorted(g.labels),
        "edges": edges,
        "delta": "inf" if ag.delta == math.inf else ag.delta,
        "gap_mode": ag.gap_mode.value,
    }


def alignment_to_json(ag: AlignmentGraph) -> str:
    return canonical_json(alignment_to_doc(ag))


def alignment_to_dot(ag: AlignmentGraph, name: str = "alignment") -> str:
    g = ag.graph
    out = [f"graph {name} {{"]
    for lab in g.labels:
        out.append(f"  {_dot_id(lab)};")
    for u, v, w in g.edges():
        kind, dist = ag.kind_of(u, v)
        attrs = f'weight={w!r}, kind="{kind}", distance={dist}'
        out.append(f"  {_dot_id(g.labels[u])} -- {_dot_id(g.labels[v])} [{attrs}];")
    out.append("}")
    return "\n".join(out) + "\n"


def alignment_to_graphml(ag: AlignmentGraph) -> str:
    g = ag.graph
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        '  <key id="kind" for="edge" attr.name="kind" attr.type="string"/>',
        '  <key id="distance" for="edge" attr.name="distance" attr.type="int"/>',
        '  <graph edgedefault="undirected">',
    ]
    for lab in g.labels:
        out.append(f"    <node id={quoteattr(lab)}/>")
    for u, v, w in g.edges():
        kind, dist = ag.kind_of(u, v)
        out.append(f"    <edge source={quoteattr(g.labels[u])} target={quoteattr(g.labels[v])}>")
        out.append(f'      <data key="weight">{w!r}</data>')
        out.append(f'      <data key="kind">{escape(kind)}</data>')
        out.append(f'      <data key="distance">{dist}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def export_graph(obj: Graph | AlignmentGraph, fmt: str) -> str:
    """Dispatch export by format name ('json', 'dot', 'graphml')."""
    is_alignment = isinstance(obj, AlignmentGraph)
    table = {
        ("json", False): graph_to_json,
        ("dot", False): graph_to_dot,
        ("graphml", False): graph_to_graphml,
        ("json", True): alignment_to_json,
        ("dot", True): alignment_to_dot,
        ("graphml", True): alignment_to_graphml,
    }
    try:
        return table[(fmt, is_alignment)](obj)
    except KeyError:
        raise ValueError(f"unknown export format {fmt!r}") from None
