"""Every file the program reads or writes: edge lists, correspondence
files, graph exports and the UTF-8 writer they all go through.

There is one exporter per format (``export_json``, ``export_dot``,
``export_graphml``); each takes a plain ``Graph`` or an ``AlignmentGraph``,
whose edges also carry ``kind`` and ``distance``.

Edge lists are whitespace-separated ``src dst [weight]`` records with ``#``
comments; every line is either consumed, skipped as comment/blank, or
reported with its line number.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Iterable, Iterator

from .align import AlignmentGraph, delta_doc
from .errors import ParseError
from .graph import Graph


def _data_lines(source: Iterable[str], usage: str, name: str | None) -> Iterator[tuple]:
    """``(line number, whitespace-split fields)`` of each line that is not
    blank or a ``#`` comment.  A line with other than as many fields as
    ``usage`` names is a ParseError: ``expected N fields (usage), got M``."""
    expected = len(usage.split())
    for line_no, raw in enumerate(source, 1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != expected:
            raise ParseError(f"expected {expected} fields ({usage}), got {len(fields)}",
                             line_no, name)
        yield line_no, fields


def parse_edge_list(source: Iterable[str], weighted: bool, name: str | None = None) -> Graph:
    """Parse an undirected edge list into a Graph.

    Unweighted lists get weight 1.0 everywhere; a weight column on an
    unweighted parse (or a missing one on a weighted parse) is an error, as
    are non-positive weights and self-loops.  Each edge goes straight into
    the graph's integer-keyed table, where duplicates collapse to the
    maximum weight (counted on the resulting graph).
    """
    index: dict[str, int] = {}
    intern = index.setdefault

    def triples():
        for line_no, fields in _data_lines(source, "src dst weight" if weighted else "src dst",
                                           name):
            src, dst = fields[0], fields[1]
            if src == dst:
                raise ParseError(f"self-loop on {src!r}", line_no, name)
            if weighted:
                try:
                    w = float(fields[2])
                except ValueError:
                    raise ParseError(f"invalid weight {fields[2]!r}", line_no, name) from None
                if not math.isfinite(w) or w <= 0:
                    raise ParseError(f"edge weight must be positive, got {fields[2]}",
                                     line_no, name)
            else:
                w = 1.0
            # len(index) is the next free id, so ids follow first appearance.
            yield intern(src, len(index)), intern(dst, len(index)), w

    # Graph rejects edge weights whose total overflows; that is an input
    # error too, so it becomes a ParseError naming the file.  Errors raised
    # while reading lines pass through (``_load`` reports undecodable text).
    try:
        return Graph._from_index(index, triples())
    except (ParseError, UnicodeDecodeError):
        raise
    except ValueError as exc:
        raise ParseError(str(exc), None, name) from None


def parse_correspondence(source: Iterable[str],
                         name: str | None = None) -> tuple[tuple[str, str], ...]:
    """Parse ``conceptual physical`` pairs, one per line, into the pair
    tuple ``DualNetwork`` takes; duplicates on either side are rejected
    (the mapping must be one-to-one)."""
    pairs: dict[str, str] = {}
    seen_p: set[str] = set()
    for line_no, (c, p) in _data_lines(source, "conceptual physical", name):
        if c in pairs:
            raise ParseError(f"duplicate conceptual label {c!r}", line_no, name)
        if p in seen_p:
            raise ParseError(f"duplicate physical label {p!r}", line_no, name)
        pairs[c] = p
        seen_p.add(p)
    return tuple(pairs.items())


def _load(path: str, parse, *args):
    # utf-8-sig reads a leading byte-order mark as encoding, not label text.
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse(fh, *args, name=path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", None, path) from None


def load_graph(path: str, weighted: bool) -> Graph:
    return _load(path, parse_edge_list, weighted)


def load_correspondence(path: str) -> tuple[tuple[str, str], ...]:
    return _load(path, parse_correspondence)


def write_text(text: str, path: str | None = None) -> None:
    """Write ``text`` as UTF-8 to ``path``, or else to stdout, which gets the
    same bytes whatever its own encoding (a text stream without a byte
    buffer, such as ``io.StringIO``, is handed the text itself)."""
    data = text.encode("utf-8")
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(text)


def _data_line(*fields: str) -> str:
    """A tab-separated line that ``_data_lines`` reads back as ``fields``;
    ValueError if a field is empty or holds whitespace (it would not read
    back as one field), or if the first starts with ``#`` (a comment line)."""
    for field in fields:
        if field.split() != [field]:
            raise ValueError(f"label {field!r} is empty or holds whitespace and cannot be a field")
    if fields[0].startswith("#"):
        raise ValueError(f"label {fields[0]!r} starts with '#' and cannot lead a line")
    return "\t".join(fields) + "\n"


def write_edge_list(g: Graph, path: str, weighted: bool) -> None:
    """Write ``g`` as the edge list ``parse_edge_list`` reads, tab separated;
    an endpoint led by ``#`` goes second, where it is data, not a comment."""
    rows = ((b, a, w) if a.startswith("#") else (a, b, w) for a, b, w in g.label_edges())
    write_text("".join(_data_line(a, b, repr(w)) if weighted else _data_line(a, b)
                       for a, b, w in rows), path)


def write_correspondence(pairs: Iterable[tuple[str, str]], path: str) -> None:
    """Write pairs as the correspondence file ``parse_correspondence`` reads."""
    write_text("".join(_data_line(c, p) for c, p in pairs), path)


def canonical_json(doc) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _edge_rows(obj: Graph | AlignmentGraph) -> tuple[Graph, tuple[str, ...], Iterator[tuple]]:
    """The graph, its edge attribute names (``weight``, plus ``kind`` and
    ``distance`` for an alignment graph), and its edges in index order as
    ``(label_u, label_v, attribute values)``; ``kinds`` keys edges as ``edges`` yields them."""
    if isinstance(obj, AlignmentGraph):
        g, kinds = obj.graph, obj.kinds
        rows = ((g.labels[u], g.labels[v], (w, *kinds[u, v])) for u, v, w in g.edges())
        return g, ("weight", "kind", "distance"), rows
    return obj, ("weight",), ((a, b, (w,)) for a, b, w in obj.label_edges())


def export_json(obj: Graph | AlignmentGraph) -> str:
    """Canonical JSON: sorted node labels and sorted edges.  A plain graph's
    edges are ``[a, b, weight]`` triples; an alignment graph's are objects
    that add ``kind`` and ``distance``, and the document records ``delta``
    and ``gap_mode``."""
    g, keys, rows = _edge_rows(obj)
    # Label pairs are unique, so the sort never compares attribute values.
    edges = sorted([*sorted((a, b)), *values] for a, b, values in rows)
    doc = {"nodes": sorted(g.labels), "edges": edges}
    if isinstance(obj, AlignmentGraph):
        names = ("source", "target", *keys)
        doc["edges"] = [dict(zip(names, edge)) for edge in edges]
        doc["delta"] = delta_doc(obj.delta)
        doc["gap_mode"] = obj.gap_mode.value
    return canonical_json(doc)


def _dot_value(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(value)


def export_dot(obj: Graph | AlignmentGraph, name: str | None = None,
               highlight: set[str] | None = None) -> str:
    """DOT rendering with one attribute per edge value; ``highlight``
    labels (and edges between them) are colored red.  The graph is named
    ``G``, or ``alignment`` for an alignment graph, unless ``name`` is
    given."""
    g, keys, rows = _edge_rows(obj)
    if name is None:
        name = "alignment" if isinstance(obj, AlignmentGraph) else "G"
    highlight = highlight or set()
    out = [f"graph {name} {{"]
    for lab in g.labels:
        attrs = " [color=red, style=bold]" if lab in highlight else ""
        out.append(f"  {_dot_value(lab)}{attrs};")
    for a, b, values in rows:
        attrs = [f"{k}={_dot_value(v)}" for k, v in zip(keys, values)]
        if a in highlight and b in highlight:
            attrs += ["color=red", "style=bold"]
        out.append(f"  {_dot_value(a)} -- {_dot_value(b)} [{', '.join(attrs)}];")
    out.append("}")
    return "\n".join(out) + "\n"


_GRAPHML_TYPES = {"weight": "double", "kind": "string", "distance": "int"}


def export_graphml(obj: Graph | AlignmentGraph) -> str:
    """GraphML document; raises ValueError for a label holding a character
    that XML 1.0 cannot represent."""
    # Imported here: xml.sax pulls in urllib, http and ssl at start-up.
    from xml.sax.saxutils import escape, quoteattr
    # Characters outside the XML 1.0 ``Char`` production; no escape can
    # carry them.  Compiled here, not at import (``re`` caches it).
    not_xml_char = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    g, keys, rows = _edge_rows(obj)
    for lab in g.labels:
        bad = not_xml_char.search(lab)
        if bad:
            raise ValueError(f"GraphML cannot carry the label {lab!r}: "
                             f"XML 1.0 has no character {bad.group()!r}")
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">']
    for k in keys:
        out.append(f'  <key id="{k}" for="edge" attr.name="{k}" attr.type="{_GRAPHML_TYPES[k]}"/>')
    out.append('  <graph edgedefault="undirected">')
    for lab in g.labels:
        out.append(f"    <node id={quoteattr(lab)}/>")
    for a, b, values in rows:
        out.append(f"    <edge source={quoteattr(a)} target={quoteattr(b)}>")
        for k, v in zip(keys, values):
            out.append(f'      <data key="{k}">{escape(v) if isinstance(v, str) else repr(v)}</data>')
        out.append("    </edge>")
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


_EXPORTERS = {"json": export_json, "dot": export_dot, "graphml": export_graphml}


def export_graph(obj: Graph | AlignmentGraph, fmt: str) -> str:
    """Dispatch export by format name ('json', 'dot', 'graphml')."""
    if fmt not in _EXPORTERS:
        raise ValueError(f"unknown export format {fmt!r}")
    return _EXPORTERS[fmt](obj)
