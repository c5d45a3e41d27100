import io
import math
import random
import re
import sys
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import (DualNetwork, GapWeightRule, Graph, ParseError,
                       build_alignment_graph)
from dualdense.formats import (canonical_json, export_dot, export_graph, export_graphml,
                               export_json, load_correspondence, load_graph,
                               parse_correspondence, parse_edge_list, write_correspondence,
                               write_edge_list, write_text)
from helpers import (assert_collapsed, edge_weight, graph_from_json, graphs_equal,
                     random_dual_network, random_graph)


# Parser fuzzing: comment marks, quotes, NUL, digits, separators and the
# Unicode whitespace that str.split() honours but line iteration does not.
FUZZ_TEXT = (st.text(alphabet='ab01.-e#, "\'\x00\t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u3000é',
                     max_size=200)
             | st.text(max_size=100))


def data_lines(text):
    """Whitespace-split fields of the non-blank, non-comment lines."""
    return [line.split() for line in text.split("\n")
            if line.strip() and not line.strip().startswith("#")]


def assert_parsed(g, text, weighted):
    """``g`` is the graph of ``text``'s data lines, each ``src dst [w]``,
    with labels numbered in order of first appearance."""
    rows = data_lines(text)
    assert all(len(fields) == (3 if weighted else 2) for fields in rows)
    labels = list(dict.fromkeys(label for fields in rows for label in fields[:2]))
    ids = {label: i for i, label in enumerate(labels)}
    assert_collapsed(g, labels, [(ids[fields[0]], ids[fields[1]],
                                  float(fields[2]) if weighted else 1.0) for fields in rows])


# Equal values in several spellings, so duplicates tie as well as differ.
WEIGHT_TOKENS = st.sampled_from(["0.5", "1", "1.0", "1e0", "2", "2.50", "5e-324", "1e300"])


@st.composite
def edge_list_texts(draw):
    """``(text, weighted)``: an edge list the parser accepts, over few
    labels so that pairs repeat."""
    weighted = draw(st.booleans())
    lines = []
    for kind in draw(st.lists(st.sampled_from(["edge"] * 4 + ["comment", "blank"]),
                              max_size=30)):
        if kind == "comment":
            line = draw(st.sampled_from(["#", "# a b 1", "  #c d"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t"]))
        else:
            fields = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "é", "x#"]),
                                   min_size=2, max_size=2, unique=True))
            if weighted:
                fields.append(draw(WEIGHT_TOKENS))
            line = draw(st.sampled_from(["", " ", "\t"])) + draw(
                st.sampled_from([" ", "\t", " \t "])).join(fields)
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(lines), weighted


class TestParseEdgeList:
    def test_unweighted(self):
        g = parse_edge_list(io.StringIO("a b\nb c\n"), weighted=False)
        assert g.n == 3
        assert g.edge_count == 2
        assert g.is_unit_weighted()

    def test_weighted_with_comment(self):
        g = parse_edge_list(io.StringIO("a b 0.5\n# comment\nb c 0.25\n"), weighted=True)
        assert g.edge_count == 2
        assert edge_weight(g, g.labels.index("a"), g.labels.index("b")) == 0.5
        assert edge_weight(g, g.labels.index("b"), g.labels.index("c")) == 0.25

    def test_negative_weight_cites_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list(io.StringIO("a b -1\n"), weighted=True)

    def test_zero_weight_rejected(self):
        with pytest.raises(ParseError, match="positive"):
            parse_edge_list(io.StringIO("a b 0\n"), weighted=True)

    def test_column_mismatch(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list(io.StringIO("a b\nb c 0.5\n"), weighted=False)
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list(io.StringIO("a b\n"), weighted=True)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_edge_list(io.StringIO("a a\n"), weighted=False)

    def test_duplicates_keep_max(self):
        g = parse_edge_list(io.StringIO("a b 0.5\nb a 0.9\n"), weighted=True)
        assert g.edge_count == 1
        assert edge_weight(g, 0, 1) == 0.9
        assert g.duplicates_collapsed == 1

    def test_bad_weight_token(self):
        with pytest.raises(ParseError, match="invalid weight"):
            parse_edge_list(io.StringIO("a b heavy\n"), weighted=True)

    @pytest.mark.parametrize("text, weighted, message", [
        ("a b\nb c 0.5\n", False, "f.tsv:line 2: expected 2 fields (src dst), got 3"),
        ("a b\n", True, "f.tsv:line 1: expected 3 fields (src dst weight), got 2"),
        ("# c\n\nb b\n", False, "f.tsv:line 3: self-loop on 'b'"),
        ("a b x\n", True, "f.tsv:line 1: invalid weight 'x'"),
        ("a b 1\na c -1\n", True, "f.tsv:line 2: edge weight must be positive, got -1"),
        ("a b nan\n", True, "f.tsv:line 1: edge weight must be positive, got nan"),
        ("a b 1e308\n", True,
         "f.tsv: edge weights too large: twice their total overflows a float"),
        ("a b 1e308\nb c 1e308\n", True,
         "f.tsv: edge weights too large: twice their total overflows a float"),
        # After a duplicate the first bad line still wins; kept weights
        # that overflow only once collapsed give no line.
        ("a b 1\nb a 2\na c x\nb c -1\n", True, "f.tsv:line 3: invalid weight 'x'"),
        ("a b 1\nb a 2\nc c 1\nb c -1\n", True, "f.tsv:line 3: self-loop on 'c'"),
        ("a b 1\nb a 1e308\nc a 1e308\na c 2\n", True,
         "f.tsv: edge weights too large: twice their total overflows a float"),
    ])
    def test_error_messages(self, text, weighted, message):
        with pytest.raises(ParseError) as info:
            parse_edge_list(io.StringIO(text), weighted=weighted, name="f.tsv")
        assert str(info.value) == message
        assert (info.value.line_no is None) == (":line" not in message)

    @settings(max_examples=300, deadline=None)
    @given(text=FUZZ_TEXT, weighted=st.booleans())
    def test_totality_on_fuzz(self, text, weighted):
        # Every line either parses, is skipped as blank/comment, or raises a
        # ParseError carrying a line number within the input; an accepted
        # list has exactly the labels its data lines name.
        try:
            g = parse_edge_list(io.StringIO(text), weighted=weighted)
        except ParseError as exc:
            assert exc.line_no is not None
            assert 1 <= exc.line_no <= len(text.split("\n"))
            return
        assert_parsed(g, text, weighted)

    @settings(max_examples=300, deadline=None)
    @given(case=edge_list_texts())
    def test_matches_reference(self, case):
        # Duplicates in both orientations, at larger, smaller and equal
        # weights, between comments, blank lines, CRLF endings and tabs.
        text, weighted = case
        assert_parsed(parse_edge_list(io.StringIO(text), weighted=weighted), text, weighted)

    def test_duplicate_keeping_the_max_does_not_overflow(self):
        # 8e307 doubled is finite; summed duplicates would overflow.
        g = parse_edge_list(io.StringIO("a b 8e307\nb a 8e307\n"), weighted=True)
        assert (g.total_weight, g.duplicates_collapsed) == (8e307, 1)


class TestParseCorrespondence:
    def test_pairs(self):
        corr = parse_correspondence(io.StringIO("w1 v1\nw2 v2\n"))
        assert corr == (("w1", "v1"), ("w2", "v2"))

    def test_duplicate_conceptual(self):
        with pytest.raises(ParseError, match="duplicate conceptual"):
            parse_correspondence(io.StringIO("w1 v1\nw1 v2\n"))

    def test_duplicate_physical(self):
        with pytest.raises(ParseError, match="duplicate physical"):
            parse_correspondence(io.StringIO("w1 v1\nw2 v1\n"))

    def test_short_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_correspondence(io.StringIO("w1\n"))

    def test_empty_file_is_empty_correspondence(self):
        assert parse_correspondence(io.StringIO("")) == ()

    @pytest.mark.parametrize("text, message", [
        ("w1\n", "f.tsv:line 1: expected 2 fields (conceptual physical), got 1"),
        ("# c\n\nw1 v1 x\n", "f.tsv:line 3: expected 2 fields (conceptual physical), got 3"),
        ("w1 v1\nw1 v2\n", "f.tsv:line 2: duplicate conceptual label 'w1'"),
        ("w1 v1\nw2 v1\n", "f.tsv:line 2: duplicate physical label 'v1'"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_correspondence(io.StringIO(text), name="f.tsv")
        assert str(info.value) == message


class TestWrite:
    LABELS = ("a", "é", "日本", "x#y")

    def test_files_read_back(self, tmp_path):
        g = Graph(self.LABELS, [(0, 1, 0.1), (1, 2, 1e-300), (2, 3, 2.5)])
        pairs = tuple(zip(self.LABELS, reversed(self.LABELS)))
        write_edge_list(g, str(tmp_path / "g.tsv"), weighted=True)
        write_edge_list(g, str(tmp_path / "u.tsv"), weighted=False)
        write_correspondence(pairs, str(tmp_path / "f.tsv"))
        assert graphs_equal(load_graph(str(tmp_path / "g.tsv"), weighted=True), g)
        assert load_graph(str(tmp_path / "u.tsv"), weighted=False).edge_count == 3
        assert load_correspondence(str(tmp_path / "f.tsv")) == pairs
        assert (tmp_path / "f.tsv").read_bytes() == "a\tx#y\né\t日本\n日本\té\nx#y\ta\n".encode()

    def test_hash_led_label_written_second(self, tmp_path):
        # The reader takes "#x" as a second field; as a first it is a comment.
        g = parse_edge_list(["a #x 1.0", "b #x 2.0"], weighted=True)
        for weighted in (True, False):
            write_edge_list(g, str(tmp_path / "g.tsv"), weighted)
            back = load_graph(str(tmp_path / "g.tsv"), weighted)
            assert sorted(back.label_edges()) == sorted(
                (a, b, w if weighted else 1.0) for a, b, w in g.label_edges())

    def test_line_led_by_hash_refused(self, tmp_path):
        with pytest.raises(ValueError, match="'#y' starts with '#'"):
            write_edge_list(Graph(["#x", "#y"], [(0, 1, 1.0)]), str(tmp_path / "g.tsv"), True)
        with pytest.raises(ValueError, match="'#w' starts with '#'"):
            write_correspondence([("a", "b"), ("#w", "v")], str(tmp_path / "f.tsv"))
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("label", ["a b", "", "a\tb", " a", "a\n", "a\u00a0b", "a\x1cb"])
    def test_label_that_is_not_one_field_refused(self, tmp_path, label):
        # The reader splits lines on whitespace, so such a label would come
        # back as no field or as two.
        g = Graph([label, "c"], [(0, 1, 1.0)])
        message = f"label {label!r} is empty or holds whitespace"
        for weighted in (True, False):
            with pytest.raises(ValueError, match=re.escape(message)):
                write_edge_list(g, str(tmp_path / "g.tsv"), weighted)
        for pair in ((label, "p"), ("c", label)):
            with pytest.raises(ValueError, match=re.escape(message)):
                write_correspondence([("x", "y"), pair], str(tmp_path / "f.tsv"))
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-16"])
    def test_stdout_gets_the_file_bytes(self, tmp_path, monkeypatch, encoding):
        text = "é 日\nz\n"
        write_text(text, str(tmp_path / "out"))
        data = (tmp_path / "out").read_bytes()
        assert data == text.encode("utf-8")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
        monkeypatch.setattr(sys, "stdout", stdout)
        print("first", end=" ")  # text still pending in the wrapper comes first
        write_text(text)
        assert stdout.buffer.getvalue() == "first ".encode(encoding) + data

    def test_text_stream_without_buffer_gets_the_text(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        write_text("é 日\n")
        assert sys.stdout.getvalue() == "é 日\n"


def test_byte_order_mark_is_not_label_text(tmp_path):
    files = {"c.tsv": "a b 0.5\nb c 1.0\n", "p.tsv": "a b\nb c\n", "f.tsv": "a a\nb b\n"}
    loaded = {}
    for bom in ("", "\ufeff"):
        for name, text in files.items():
            (tmp_path / name).write_text(bom + text, encoding="utf-8")
        loaded[bom] = (load_graph(str(tmp_path / "c.tsv"), weighted=True),
                       load_graph(str(tmp_path / "p.tsv"), weighted=False),
                       load_correspondence(str(tmp_path / "f.tsv")))
    (c0, p0, f0), (c1, p1, f1) = loaded[""], loaded["\ufeff"]
    assert c1.labels == c0.labels == ("a", "b", "c")
    assert graphs_equal(c0, c1) and graphs_equal(p0, p1)
    assert f1 == f0


class TestParserFuzz:
    """Arbitrary text yields a result or a ParseError, never another error
    (edge lists: ``TestParseEdgeList.test_totality_on_fuzz``)."""

    @settings(max_examples=300, deadline=None)
    @given(text=FUZZ_TEXT)
    def test_correspondence(self, text):
        try:
            pairs = parse_correspondence(io.StringIO(text))
        except ParseError:
            return
        assert pairs == tuple(tuple(fields) for fields in data_lines(text))


class TestJsonRoundTrip:
    def test_empty_graph(self):
        g = Graph([], [])
        assert graphs_equal(graph_from_json(export_json(g)), g)

    def test_single_edge(self):
        g = Graph(["a", "b"], [(0, 1, 0.25)])
        text = export_json(g)
        assert '"a"' in text and "0.25" in text
        assert graphs_equal(graph_from_json(text), g)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 50))
    def test_random_round_trip(self, seed, n):
        g = random_graph(random.Random(seed), n, 0.2)
        assert graphs_equal(graph_from_json(export_json(g)), g)

    def test_bad_json_rejected(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            graph_from_json("{nope")
        with pytest.raises(ParseError, match="'nodes'"):
            graph_from_json('{"edges": []}')


class TestExports:
    def test_empty_documents_valid(self):
        g = Graph([], [])
        assert export_json(g) == '{\n  "edges": [],\n  "nodes": []\n}\n'
        assert export_dot(g) == "graph G {\n}\n"
        assert export_graphml(g) == "".join(line + "\n" for line in [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
            '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
            '  <graph edgedefault="undirected">',
            '  </graph>',
            '</graphml>'])

    def test_dot_contains_weight(self):
        g = Graph(["a", "b"], [(0, 1, 0.5)])
        dot = export_dot(g)
        assert '"a" -- "b" [weight=0.5]' in dot

    def test_graphml_contains_weight(self):
        g = Graph(["a", "b"], [(0, 1, 0.5)])
        xml = export_graphml(g)
        assert '<data key="weight">0.5</data>' in xml

    @pytest.mark.parametrize("label", ["a\x01", "b\x1f", "c\ufffe", "d\uffff", "e\ud800"])
    def test_graphml_refuses_labels_xml_cannot_carry(self, label):
        g = Graph([label, "ok"], [(0, 1, 0.5)])
        with pytest.raises(ValueError) as info:
            export_graphml(g)
        assert repr(label) in str(info.value)
        # JSON and DOT carry any label.
        assert graphs_equal(graph_from_json(export_json(g)), g)
        assert f'  "{label}";' in export_dot(g)

    def test_graphml_parses_with_unusual_labels(self):
        labels = ["\u00e9", "\x7f", "\U0001f600", "\ufffd", 'q"<&>']
        g = Graph(labels, [(0, 1, 0.5), (2, 3, 1.0), (3, 4, 2.0)])
        root = ElementTree.fromstring(export_graphml(g).encode("utf-8"))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        assert [node.get("id") for node in root.iter(ns + "node")] == labels

    def test_alignment_exports_carry_kind(self):
        dn = random_dual_network(random.Random(4), 8)
        ag = build_alignment_graph(dn, delta=3, gap_mode=GapWeightRule.PER_HOP)
        assert ag.graph.edge_count > 0
        json_text = export_json(ag)
        assert '"kind"' in json_text
        dot = export_dot(ag)
        assert 'kind="match"' in dot or 'kind="gap"' in dot
        xml = export_graphml(ag)
        assert '<data key="kind">' in xml
        assert f'"delta": {ag.delta}' in json_text

    def test_infinite_delta_serialized(self):
        dn = random_dual_network(random.Random(4), 6)
        ag = build_alignment_graph(dn, delta=math.inf)
        assert '"delta": "inf"' in export_json(ag)

    def test_canonical_json_stable(self):
        doc = {"b": [3, 2], "a": {"y": 1.5, "x": None}}
        assert canonical_json(doc) == canonical_json({"a": {"x": None, "y": 1.5}, "b": [3, 2]})

    def test_export_dispatcher(self):
        g = Graph(["a", "b"], [(0, 1, 0.5)])
        assert export_graph(g, "dot") == export_dot(g)
        assert export_graph(g, "json") == export_json(g)
        assert export_graph(g, "graphml") == export_graphml(g)
        with pytest.raises(ValueError, match="unknown export format"):
            export_graph(g, "yaml")
        dn = random_dual_network(random.Random(1), 6)
        ag = build_alignment_graph(dn, delta=2)
        assert export_graph(ag, "json") == export_json(ag)
        assert export_graph(ag, "dot") == export_dot(ag)
        assert export_graph(ag, "graphml") == export_graphml(ag)


# Exact export bytes.  Every label needs escaping in at least one format, and
# the alignment graph has match edges and one gap edge (distance 3).
LABELS = ['q"t', 'b\\s', 'p|i', 'l<t', 'a&p']


def golden_graph() -> Graph:
    return Graph(LABELS, [(0, 1, 0.5), (1, 2, 1.25), (0, 3, 2.0), (3, 4, 0.1)])


def golden_alignment():
    physical = Graph(LABELS, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    dn = DualNetwork(golden_graph(), physical, tuple((x, x) for x in LABELS))
    return build_alignment_graph(dn, 3, GapWeightRule.PER_HOP)


PLAIN_JSON = r"""{
  "edges": [
    [
      "a&p",
      "l<t",
      0.1
    ],
    [
      "b\\s",
      "p|i",
      1.25
    ],
    [
      "b\\s",
      "q\"t",
      0.5
    ],
    [
      "l<t",
      "q\"t",
      2.0
    ]
  ],
  "nodes": [
    "a&p",
    "b\\s",
    "l<t",
    "p|i",
    "q\"t"
  ]
}
"""

PLAIN_DOT = r"""graph G {
  "q\"t" [color=red, style=bold];
  "b\\s" [color=red, style=bold];
  "p|i";
  "l<t";
  "a&p" [color=red, style=bold];
  "q\"t" -- "b\\s" [weight=0.5, color=red, style=bold];
  "q\"t" -- "l<t" [weight=2.0];
  "b\\s" -- "p|i" [weight=1.25];
  "l<t" -- "a&p" [weight=0.1];
}
"""

PLAIN_GRAPHML = r"""<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>
  <graph edgedefault="undirected">
    <node id='q"t'/>
    <node id="b\s"/>
    <node id="p|i"/>
    <node id="l&lt;t"/>
    <node id="a&amp;p"/>
    <edge source='q"t' target="b\s">
      <data key="weight">0.5</data>
    </edge>
    <edge source='q"t' target="l&lt;t">
      <data key="weight">2.0</data>
    </edge>
    <edge source="b\s" target="p|i">
      <data key="weight">1.25</data>
    </edge>
    <edge source="l&lt;t" target="a&amp;p">
      <data key="weight">0.1</data>
    </edge>
  </graph>
</graphml>
"""

ALIGN_JSON = r"""{
  "delta": 3,
  "edges": [
    {
      "distance": 1,
      "kind": "match",
      "source": "a&p|a&p",
      "target": "l<t|l<t",
      "weight": 0.1
    },
    {
      "distance": 1,
      "kind": "match",
      "source": "b\\\\s|b\\\\s",
      "target": "p\\|i|p\\|i",
      "weight": 1.25
    },
    {
      "distance": 1,
      "kind": "match",
      "source": "b\\\\s|b\\\\s",
      "target": "q\"t|q\"t",
      "weight": 0.5
    },
    {
      "distance": 3,
      "kind": "gap",
      "source": "l<t|l<t",
      "target": "q\"t|q\"t",
      "weight": 0.6666666666666666
    }
  ],
  "gap_mode": "per-hop",
  "nodes": [
    "a&p|a&p",
    "b\\\\s|b\\\\s",
    "l<t|l<t",
    "p\\|i|p\\|i",
    "q\"t|q\"t"
  ]
}
"""

ALIGN_DOT = r"""graph alignment {
  "q\"t|q\"t";
  "b\\\\s|b\\\\s";
  "p\\|i|p\\|i";
  "l<t|l<t";
  "a&p|a&p";
  "q\"t|q\"t" -- "b\\\\s|b\\\\s" [weight=0.5, kind="match", distance=1];
  "q\"t|q\"t" -- "l<t|l<t" [weight=0.6666666666666666, kind="gap", distance=3];
  "b\\\\s|b\\\\s" -- "p\\|i|p\\|i" [weight=1.25, kind="match", distance=1];
  "l<t|l<t" -- "a&p|a&p" [weight=0.1, kind="match", distance=1];
}
"""

ALIGN_GRAPHML = r"""<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>
  <key id="kind" for="edge" attr.name="kind" attr.type="string"/>
  <key id="distance" for="edge" attr.name="distance" attr.type="int"/>
  <graph edgedefault="undirected">
    <node id='q"t|q"t'/>
    <node id="b\\s|b\\s"/>
    <node id="p\|i|p\|i"/>
    <node id="l&lt;t|l&lt;t"/>
    <node id="a&amp;p|a&amp;p"/>
    <edge source='q"t|q"t' target="b\\s|b\\s">
      <data key="weight">0.5</data>
      <data key="kind">match</data>
      <data key="distance">1</data>
    </edge>
    <edge source='q"t|q"t' target="l&lt;t|l&lt;t">
      <data key="weight">0.6666666666666666</data>
      <data key="kind">gap</data>
      <data key="distance">3</data>
    </edge>
    <edge source="b\\s|b\\s" target="p\|i|p\|i">
      <data key="weight">1.25</data>
      <data key="kind">match</data>
      <data key="distance">1</data>
    </edge>
    <edge source="l&lt;t|l&lt;t" target="a&amp;p|a&amp;p">
      <data key="weight">0.1</data>
      <data key="kind">match</data>
      <data key="distance">1</data>
    </edge>
  </graph>
</graphml>
"""


class TestGoldenExports:
    def test_plain_graph(self):
        g = golden_graph()
        assert export_json(g) == PLAIN_JSON
        assert export_dot(g, highlight={'q"t', 'b\\s', 'a&p'}) == PLAIN_DOT
        assert export_graphml(g) == PLAIN_GRAPHML
        assert graphs_equal(graph_from_json(PLAIN_JSON), g)

    def test_alignment_graph(self):
        ag = golden_alignment()
        assert export_json(ag) == ALIGN_JSON
        assert export_dot(ag) == ALIGN_DOT
        assert export_graphml(ag) == ALIGN_GRAPHML
