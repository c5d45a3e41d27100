import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdense import DcsOptions, DualNetwork, extract_dcs, result_to_doc
from dualdense.cli import _options, build_parser, main
from dualdense.formats import canonical_json, load_correspondence, load_graph

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def toy_instance(tmp_path):
    """Conceptual unit triangle plus tail, physical path; see pipeline tests."""
    conceptual = tmp_path / "conceptual.tsv"
    conceptual.write_text("a b 1.0\nb c 1.0\na c 1.0\nc d 0.1\nd e 0.1\n")
    physical = tmp_path / "physical.tsv"
    physical.write_text("a b\nb c\nc d\nd e\n")
    corr = tmp_path / "correspondence.tsv"
    corr.write_text("a a\nb b\nc c\nd d\ne e\n")
    return {"conceptual": str(conceptual), "physical": str(physical),
            "correspondence": str(corr)}


def dual_args(paths):
    return ["--conceptual", paths["conceptual"], "--physical", paths["physical"],
            "--correspondence", paths["correspondence"]]


class TestDcsCommand:
    def test_matches_library(self, toy_instance, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["dcs", *dual_args(toy_instance), "--delta", "2",
                     "--output", str(out)])
        assert code == 0
        cli_text = out.read_text()

        dn = DualNetwork(load_graph(toy_instance["conceptual"], True),
                         load_graph(toy_instance["physical"], False),
                         load_correspondence(toy_instance["correspondence"]))
        opts = DcsOptions(delta=2)
        lib_text = canonical_json(result_to_doc(extract_dcs(dn, opts), dn, opts))
        assert cli_text == lib_text

        doc = json.loads(cli_text)
        assert doc["nodes"] == [["a", "a"], ["b", "b"], ["c", "c"]]
        assert doc["conceptual_density"] == 2.0
        assert doc["physically_connected"] is True

    def test_stdout_default(self, toy_instance, capsys):
        assert main(["dcs", *dual_args(toy_instance)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta"] == 4
        assert doc["gap_mode"] == "per-hop"

    def test_defaults_are_the_library_defaults(self, toy_instance, capsys):
        args = build_parser().parse_args(["dcs", *dual_args(toy_instance)])
        assert _options(args) == DcsOptions()
        with pytest.raises(SystemExit):
            main(["dcs", "--help"])
        assert "(default 4)" in " ".join(capsys.readouterr().out.split())

    def test_deterministic_bytes(self, toy_instance, tmp_path):
        out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
        main(["dcs", *dual_args(toy_instance), "--output", str(out1)])
        main(["dcs", *dual_args(toy_instance), "--output", str(out2)])
        main(["dcs", *dual_args(toy_instance), "--output", str(out3)])
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    def test_malformed_correspondence_exit_2(self, toy_instance, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a a\na b\n")
        code = main(["dcs", "--conceptual", toy_instance["conceptual"],
                     "--physical", toy_instance["physical"],
                     "--correspondence", str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, problem", [
        ("a a\nz z\n", "1 dangling labels ('z')"),
        ("# no pairs\n", "correspondence is empty"),
    ])
    def test_invalid_dual_network_cites_correspondence(self, toy_instance, tmp_path, capsys,
                                                       rows, problem):
        corr = tmp_path / "f.tsv"
        corr.write_text(rows)
        assert main(["dcs", *dual_args(dict(toy_instance, correspondence=str(corr)))]) == 2
        assert capsys.readouterr().err == f"error: {corr}: invalid dual network: {problem}\n"

    def test_missing_file_exit_2(self, toy_instance, capsys):
        code = main(["dcs", "--conceptual", "/nonexistent/path.tsv",
                     "--physical", toy_instance["physical"],
                     "--correspondence", toy_instance["correspondence"]])
        assert code == 2

    def test_bad_delta_exit_3(self, toy_instance, capsys):
        assert main(["dcs", *dual_args(toy_instance), "--delta", "zero"]) == 3
        assert main(["dcs", *dual_args(toy_instance), "--delta", "0"]) == 3

    def test_infeasible_exit_1(self, tmp_path, capsys):
        # a and b live in different physical components: no match edge at
        # delta 1, so the alignment graph is edgeless.
        (tmp_path / "c.tsv").write_text("a b 0.5\n")
        (tmp_path / "p.tsv").write_text("a c\nb d\n")
        (tmp_path / "f.tsv").write_text("a a\nb b\n")
        code = main(["dcs", "--conceptual", str(tmp_path / "c.tsv"),
                     "--physical", str(tmp_path / "p.tsv"),
                     "--correspondence", str(tmp_path / "f.tsv"),
                     "--delta", "1"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dcs", "align"])
    def test_underflowing_gap_weight_exit_2(self, tmp_path, capsys, command):
        # Spread over the 2-hop detour a-x-b, the least positive float
        # rounds to a per-hop gap weight of 0.
        paths = {}
        for name, text in (("conceptual", "a b 5e-324\na x 1.0\n"), ("physical", "a x\nx b\n"),
                           ("correspondence", "a a\nb b\nx x\n")):
            paths[name] = str(tmp_path / f"{name}.tsv")
            Path(paths[name]).write_text(text)
        assert main([command, *dual_args(paths)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: gap weight underflows to 0: conceptual edge 'a' -- 'b' "
                       "weighs 5e-324, over 2 physical hops\n")
        for delta in ("4", "inf"):
            assert main([command, *dual_args(paths), "--delta", delta,
                         "--gap-mode", "conceptual"]) == 0

    def test_dot_output_highlights(self, toy_instance, capsys):
        assert main(["dcs", *dual_args(toy_instance), "--delta", "2",
                     "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert "graph conceptual {" in out
        assert "graph physical {" in out
        assert "color=red" in out

    def test_relaxed_flag(self, toy_instance, capsys):
        assert main(["dcs", *dual_args(toy_instance),
                     "--connectivity", "relaxed"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["connectivity"] == "relaxed"

    def test_gap_mode_flag(self, toy_instance, capsys):
        assert main(["dcs", *dual_args(toy_instance),
                     "--gap-mode", "conceptual"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap_mode"] == "conceptual"


    def test_labels_with_separator(self, tmp_path, capsys):
        # ("a|b", "c") and ("a", "b|c") would share the composite label a|b|c
        # without escaping.
        conceptual = tmp_path / "c.tsv"
        conceptual.write_text("a|b a 1.0\n")
        physical = tmp_path / "p.tsv"
        physical.write_text("c b|c\n")
        corr = tmp_path / "f.tsv"
        corr.write_text("a|b c\na b|c\n")
        assert main(["dcs", "--conceptual", str(conceptual), "--physical", str(physical),
                     "--correspondence", str(corr)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"] == [["a", "b|c"], ["a|b", "c"]]
        assert sorted(doc["peel"]["removal_order"]) == ["a\\|b|c", "a|b\\|c"]


class TestAlignCommand:
    def test_json_export(self, toy_instance, capsys):
        assert main(["align", *dual_args(toy_instance), "--delta", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta"] == 2
        kinds = {e["kind"] for e in doc["edges"]}
        assert kinds == {"match", "gap"}

    def test_dot_and_graphml(self, toy_instance, capsys):
        assert main(["align", *dual_args(toy_instance), "--format", "dot"]) == 0
        assert "kind=" in capsys.readouterr().out
        assert main(["align", *dual_args(toy_instance), "--format", "graphml"]) == 0
        assert "<graphml" in capsys.readouterr().out

    def test_inf_delta(self, toy_instance, capsys):
        for delta in ("inf", "INF", " Inf "):
            assert main(["align", *dual_args(toy_instance), "--delta", delta]) == 0
            assert json.loads(capsys.readouterr().out)["delta"] == "inf"


class TestPeelCommand:
    def test_reports_densest_prefix(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("a b 1.0\na c 1.0\nb c 1.0\nc d 0.1\n")
        assert main(["peel", "--graph", str(graph)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"] == ["a", "b", "c"]
        assert doc["density"] == 2.0
        assert len(doc["removal_order"]) == 4
        assert len(doc["density_curve"]) == 4

    def test_unweighted_flag(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("a b\nb c\n")
        assert main(["peel", "--graph", str(graph), "--unweighted"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["density"] == pytest.approx(4 / 3)


class TestOracleCommand:
    def test_small_instance(self, toy_instance, capsys):
        assert main(["oracle", *dual_args(toy_instance)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"] == [["a", "a"], ["b", "b"], ["c", "c"]]
        assert doc["conceptual_density"] == 2.0
        assert doc["explored"] > 0

    def test_cap_exceeded_exit_3(self, tmp_path, capsys):
        lines_p = [f"n{i} n{i+1}" for i in range(29)]
        (tmp_path / "p.tsv").write_text("\n".join(lines_p) + "\n")
        lines_c = [f"n{i} n{i+1} 0.5" for i in range(29)]
        (tmp_path / "c.tsv").write_text("\n".join(lines_c) + "\n")
        (tmp_path / "f.tsv").write_text("\n".join(f"n{i} n{i}" for i in range(30)) + "\n")
        code = main(["oracle", "--conceptual", str(tmp_path / "c.tsv"),
                     "--physical", str(tmp_path / "p.tsv"),
                     "--correspondence", str(tmp_path / "f.tsv")])
        assert code == 3
        assert "cap of 25" in capsys.readouterr().err


class TestGenAndStats:
    def test_gen_then_dcs_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "inst"
        assert main(["gen", "--nodes", "20", "--planted-size", "4",
                     "--seed", "11", "--out-dir", str(out_dir)]) == 0
        meta = json.loads((out_dir / "instance.json").read_text())
        assert len(meta["planted"]) == 4
        code = main(["dcs",
                     "--conceptual", str(out_dir / "conceptual.tsv"),
                     "--physical", str(out_dir / "physical.tsv"),
                     "--correspondence", str(out_dir / "correspondence.tsv"),
                     "--delta", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [pair[0] for pair in doc["nodes"]] == meta["planted"]

    def test_sparse_gen_then_dcs(self, tmp_path, capsys):
        # At this sparsity many nodes appear in no conceptual edge; gen must
        # not write correspondence rows that dcs would reject as dangling.
        out_dir = tmp_path / "inst"
        assert main(["gen", "--nodes", "2000", "--planted-size", "8",
                     "--background-edge-prob", "0.001", "--out-dir", str(out_dir)]) == 0
        meta = json.loads((out_dir / "instance.json").read_text())
        code = main(["dcs",
                     "--conceptual", str(out_dir / "conceptual.tsv"),
                     "--physical", str(out_dir / "physical.tsv"),
                     "--correspondence", str(out_dir / "correspondence.tsv")])
        assert code == 0, capsys.readouterr().err
        doc = json.loads(capsys.readouterr().out)
        assert [pair[0] for pair in doc["nodes"]] == meta["planted"]

    @pytest.mark.parametrize("prob", ["nan", "inf", "-0.5", "1.5"])
    def test_gen_rejects_bad_edge_probability(self, tmp_path, capsys, prob):
        out_dir = tmp_path / "inst"
        assert main(["gen", "--nodes", "20", "--planted-size", "4",
                     "--background-edge-prob", prob, "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"error: background edge probability must lie in [0, 1], got {float(prob)}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("cap", [5e-324, sys.float_info.min])
    def test_gen_rejects_underflowing_weight_cap(self, tmp_path, capsys, cap):
        out_dir = tmp_path / "inst"
        assert main(["gen", "--nodes", "10", "--planted-size", "2",
                     "--background-weight-cap", repr(cap), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"error: background weight cap {cap!r} is too small:"
            " weights drawn below it underflow to 0\n")
        assert not out_dir.exists()

    def test_stats_reports_both_densities(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("a b 1.0\nb c 1.0\na c 1.0\n")
        assert main(["stats", "--graph", str(graph)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"] == 3
        assert doc["edges"] == 3
        assert doc["density"] == 2.0  # 2W/n
        assert doc["edge_ratio_density"] == 1.0  # m/n
        assert doc["edge_fraction_density"] == 1.0  # 2m/(n(n-1))
        assert doc["components"] == 1


@pytest.mark.parametrize("command", ["dcs", "peel", "stats"])
@pytest.mark.parametrize("text", ["a b 1e308\n", "a b 1e308\nb c 1e308\n"],
                         ids=["one-edge", "two-edges"])
def test_overflowing_weights_exit_2(toy_instance, tmp_path, capsys, command, text):
    big = tmp_path / "big.tsv"
    big.write_text(text)
    if command == "dcs":
        args = ["dcs", *dual_args(dict(toy_instance, conceptual=str(big)))]
    else:
        args = [command, "--graph", str(big)]
    assert main(args) == 2
    assert tuple(capsys.readouterr()) == (
        "", f"error: {big}: edge weights too large: twice their total overflows a float\n")


@pytest.mark.parametrize("char", ["\x01", "\ufffe", "\uffff"])
def test_graphml_refuses_label_xml_cannot_carry(tmp_path, capsys, char):
    paths = {"conceptual": tmp_path / "c.tsv", "physical": tmp_path / "p.tsv",
             "correspondence": tmp_path / "f.tsv"}
    paths["conceptual"].write_text(f"a{char} b 1.0\n", encoding="utf-8")
    paths["physical"].write_text(f"a{char} b\n", encoding="utf-8")
    paths["correspondence"].write_text(f"a{char} a{char}\nb b\n", encoding="utf-8")
    args = ["align", *dual_args({k: str(v) for k, v in paths.items()})]
    out = tmp_path / "align.graphml"
    assert main([*args, "--format", "graphml", "--output", str(out)]) == 2
    label = f"a{char}|a{char}"
    assert capsys.readouterr().err == (
        f"error: GraphML cannot carry the label {label!r}: XML 1.0 has no character {char!r}\n")
    assert not out.exists()
    assert main([*args, "--format", "json"]) == 0
    assert label in json.loads(capsys.readouterr().out)["nodes"]
    assert main([*args, "--format", "dot"]) == 0
    assert f'"{label}";' in capsys.readouterr().out


@pytest.mark.parametrize("command", ["dcs", "stats"])
def test_non_utf8_input_exit_2(toy_instance, tmp_path, capsys, command):
    # On line 2, and past the first 8 KB, which the file reader decodes
    # in one block while the parser has already taken edges.
    bad = tmp_path / "bad.tsv"
    if command == "dcs":
        args = ["dcs", *dual_args(dict(toy_instance, conceptual=str(bad)))]
    else:
        args = ["stats", "--graph", str(bad)]
    for head in (b"a b 1.0\n", b"a b 1.0\nb a 2.0\n" * 1000):
        bad.write_bytes(head + b"\xff\xfe c 1.0\n")
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("command", ["peel", "oracle", "stats"])
def test_json_only_commands_have_no_format_flag(toy_instance, capsys, command):
    args = dual_args(toy_instance) if command == "oracle" else ["--graph", toy_instance["conceptual"]]
    assert main([command, *args]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_module_entry_point(toy_instance):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "dualdense", "dcs", *dual_args(toy_instance),
         "--delta", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["conceptual_density"] == 2.0


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("command", [
    ["dcs"], ["dcs", "--format", "dot"], ["align"], ["align", "--format", "graphml"], ["oracle"],
    ["peel", "--graph"], ["stats", "--graph"]], ids=" ".join)
def test_stdout_carries_the_output_bytes(tmp_path, command, encoding):
    # 'é' is outside ASCII and '日' outside Latin-1: whatever encoding
    # stdout has, it must carry the UTF-8 bytes that --output writes.
    files = {"c.tsv": "é 日 1.0\n日 x 1.0\né x 0.5\n", "p.tsv": "é 日\n日 x\n",
             "f.tsv": "é é\n日 日\nx x\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = {name: str(tmp_path / name) for name in files}
    argv = [*command, paths["c.tsv"]] if command[-1] == "--graph" else [
        *command, "--conceptual", paths["c.tsv"], "--physical", paths["p.tsv"],
        "--correspondence", paths["f.tsv"]]
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 0
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING=encoding)
    proc = subprocess.run([sys.executable, "-m", "dualdense", *argv], capture_output=True,
                          env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == out.read_bytes()


def test_cli_import_leaves_out_xml_and_network_modules():
    # xml.sax.saxutils pulls in urllib.request and http.client; only the
    # GraphML exporter needs it, so start-up must not import it.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, dualdense.cli; "
             "print(sorted({'xml.sax', 'urllib.request', 'http.client'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# CLI fuzzing: every subcommand with random flag values and short random
# input files.  Labels come from a small set and three files in four are
# well formed, so that many drawn instances reach the pipeline.
def _mostly(good, bad):
    """``good`` three times in four, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


def _lines(line, min_size=0):
    return st.lists(line, min_size=min_size, max_size=8).map("\n".join)


LABEL = st.sampled_from("abcde")
EDGE = st.lists(LABEL, min_size=2, max_size=2, unique=True).map(" ".join)
NOISE_TEXT = _lines(st.one_of(
    st.tuples(LABEL, LABEL, st.sampled_from(["0", "-1", "1e308", "nan", "x"])
              | st.floats().map(repr)).map(" ".join),
    st.tuples(LABEL, LABEL).map(" ".join),
    st.text(max_size=12)))
# 5e-324, the least positive float, parses but underflows as a per-hop
# gap weight.
WEIGHTED_TEXT = _mostly(
    _lines(st.tuples(EDGE, st.sampled_from(["1", "0.5", "2", "5e-324"])
                     | st.floats(1e-3, 1e3).map(repr))
           .map(" ".join), min_size=1),
    NOISE_TEXT)
UNWEIGHTED_TEXT = _mostly(_lines(EDGE, min_size=1), NOISE_TEXT)
DELTA = st.sampled_from(["0", "-3", "1", "2", "4", "1.5", "x", "inf"])
# Float flags: any float, or the smallest subnormal or normal float, which
# plain ``st.floats()`` draws only rarely.
FLOAT = st.floats() | st.sampled_from([5e-324, sys.float_info.min])


def _labels(text):
    return sorted({label for line in text.splitlines() for label in line.split()[:2]})


@st.composite
def dual_files(draw):
    """Conceptual, physical and correspondence texts; a well-formed
    correspondence pairs labels that occur in the two edge lists."""
    conceptual, physical = draw(WEIGHTED_TEXT), draw(UNWEIGHTED_TEXT)
    c_labels, p_labels = _labels(conceptual), _labels(physical)
    if not (c_labels and p_labels):
        return conceptual, physical, draw(NOISE_TEXT)
    pairs = st.lists(st.tuples(st.sampled_from(c_labels), st.sampled_from(p_labels)),
                     min_size=1, unique_by=(lambda t: t[0], lambda t: t[1]))
    text = pairs.map(lambda ps: "\n".join(" ".join(pair) for pair in ps))
    return conceptual, physical, draw(_mostly(text, NOISE_TEXT))


def _flag(name, values):
    """Strategy for an optional ``--name=value`` argument (a list of zero
    or one argv entries); the ``=`` form keeps values such as ``-inf``
    from being read as options."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _switch(name):
    return st.sampled_from([[], [f"--{name}"]])


@st.composite
def cli_argv(draw, command, paths):
    """Argument vector for ``command``; ``paths`` name the three input
    files, a missing file, an output file, a path under a missing directory
    and a directory for ``gen``."""
    inputs = st.sampled_from([paths["conceptual"], paths["physical"], paths["missing"]])
    argv = [command]
    if command in ("dcs", "align", "oracle"):
        for name in ("conceptual", "physical", "correspondence"):
            argv.append(f"--{name}={draw(_mostly(st.just(paths[name]), inputs))}")
    if command in ("dcs", "align"):
        argv += draw(_flag("delta", DELTA))
        argv += draw(_flag("gap-mode", st.sampled_from(["conceptual", "per-hop"])))
    if command == "dcs":
        argv += draw(_flag("connectivity", st.sampled_from(["strict", "relaxed"])))
        argv += draw(_switch("no-repair"))
        argv += draw(_flag("format", st.sampled_from(["json", "dot"])))
    elif command == "align":
        argv += draw(_flag("format", st.sampled_from(["json", "dot", "graphml"])))
    elif command == "oracle":
        argv += draw(_flag("max-oracle-nodes", st.integers(-2, 8)))
    elif command in ("peel", "stats"):
        argv.append(f"--graph={draw(inputs)}")
        argv += draw(_switch("unweighted"))
    if command == "gen":
        # At most 60 nodes keeps every instance small.
        nodes = draw(_mostly(st.integers(10, 60), st.integers(-2, 9)))
        size = _mostly(st.integers(2, max(nodes, 2)), st.integers(-2, 62))
        argv += [f"--nodes={nodes}", f"--planted-size={draw(size)}",
                 f"--out-dir={draw(st.sampled_from([paths['gen'], paths['conceptual']]))}"]
        argv += draw(_flag("seed", st.integers()))
        argv += draw(_flag("background-weight-cap", FLOAT.map(repr)))
        argv += draw(_flag("background-edge-prob", FLOAT.map(repr)))
    else:
        argv += draw(_flag("output", st.sampled_from([paths["output"], paths["unwritable"]])))
    # Now and then lose one argument (argparse then exits 2).
    if draw(st.integers(0, 9)) == 9:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@pytest.mark.parametrize("command", ["dcs", "align", "peel", "oracle", "gen", "stats"])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), files=dual_files())
def test_exit_code_mapping_is_total(command, data, files):
    """Any argv and any short input files end in a documented exit code
    (argparse's own usage errors exit 2); no other exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in
                 ("conceptual", "physical", "correspondence", "missing", "output", "gen")}
        paths["unwritable"] = os.path.join(tmp, "missing", "out")
        for name, text in zip(("conceptual", "physical", "correspondence"), files):
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = data.draw(cli_argv(command, paths))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 3)
