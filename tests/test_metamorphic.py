"""Metamorphic properties of the ``dcs`` command: rewriting its input in a
way that names the same dual network must not change its output.

Shuffling the data lines of both edge lists and swapping each line's
endpoints renumbers the conceptual and physical nodes but keeps the pair
ids, which follow the correspondence file, so every tie-break keyed on
pair ids gives the same bytes and exit code.

Shuffling the correspondence lines renumbers the pairs.  Pair ids order the
connectors' paths and the peel trace, but not the selected core: the core,
its conceptual density, the connectivity verdict and the exit code stay.

Multiplying every conceptual weight by a power of two multiplies every
weight, sum and density the pipeline computes by the same factor, exactly,
so every comparison (and tie) it makes comes out the same: the selection,
the connectors and the peel order stay, and each density scales.

Nodes outside the correspondence never enter the alignment graph, a
density or a connector path, so appending physical leaves and
conceptual-only nodes to the edge lists changes no byte of the output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from dualdense import DualDenseError, DualNetwork, Graph, extract_dcs, generate_planted
from dualdense.cli import _options, build_parser, main
from dualdense.formats import (load_correspondence, load_graph, write_correspondence,
                               write_edge_list)

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = ("readme", "connector", "irreparable", "gen", "planted")
OPTION_SETS = {
    "defaults": (),
    "delta-1": ("--delta", "1"),
    "delta-2": ("--delta", "2"),
    "delta-inf": ("--delta", "inf"),
    "inf-conceptual-relaxed": ("--delta", "inf", "--gap-mode", "conceptual",
                               "--connectivity", "relaxed"),
    "no-repair": ("--no-repair",),
}
SHUFFLE_SEEDS = (1, 2, 3)
SCALE_FACTORS = (2.0 ** -40, 0.5, 2.0, 1024.0)
UNCOVERED = 200
UNCOVERED_WEIGHTS = (0.05, 1.0, 50.0)


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory) -> Path:
    """A 300-node planted instance whose planted set keeps no internal
    physical edge, so its members join only through detours and repair,
    written as ``dualdense gen`` writes one."""
    out = tmp_path_factory.mktemp("planted")
    inst = generate_planted(300, 12, 311, background_edge_prob=0.02, physical_edge_prob=0.002)
    dn, planted = inst.dual, inst.planted
    physical = Graph(dn.physical.labels, [(u, v, w) for u, v, w in dn.physical.edges()
                                          if u not in planted or v not in planted])
    write_edge_list(dn.conceptual, str(out / "conceptual.tsv"), True)
    write_edge_list(physical, str(out / "physical.tsv"), False)
    # As ``dualdense gen`` does: an edge list cannot name an isolated node.
    write_correspondence((pair for pair, ci, pi in zip(dn.pairs, dn.pair_conceptual,
                                                       dn.pair_physical)
                          if dn.conceptual.degree(ci) and physical.degree(pi)),
                         str(out / "correspondence.tsv"))
    return out


def shuffled_lines(text: str, rng: random.Random) -> str:
    """The data lines of an edge list in a random order, each with its
    endpoints swapped unless that would lead the line with a ``#`` label."""
    lines = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if not fields[1].startswith("#"):
            fields[0], fields[1] = fields[1], fields[0]
        lines.append("\t".join(fields) + "\n")
    rng.shuffle(lines)
    return "".join(lines)


def run_dcs(directory: Path, options) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["dcs", "--conceptual", str(directory / "conceptual.tsv"),
                     "--physical", str(directory / "physical.tsv"),
                     "--correspondence", str(directory / "correspondence.tsv"), *options])
    return code, out.getvalue()


@pytest.mark.parametrize("options", sorted(OPTION_SETS))
@pytest.mark.parametrize("instance", INSTANCES)
def test_line_order_and_orientation_keep_dcs_output(instance, options, planted_dir, tmp_path):
    source = planted_dir if instance == "planted" else GOLDEN / instance
    expected = run_dcs(source, OPTION_SETS[options])
    for seed in SHUFFLE_SEEDS:
        rng = random.Random(seed)
        for name in ("conceptual.tsv", "physical.tsv"):
            text = (source / name).read_text(encoding="utf-8")
            (tmp_path / name).write_text(shuffled_lines(text, rng), encoding="utf-8")
        (tmp_path / "correspondence.tsv").write_bytes(
            (source / "correspondence.tsv").read_bytes())
        assert run_dcs(tmp_path, OPTION_SETS[options]) == expected, f"shuffle seed {seed}"


def core_outcome(directory: Path, options) -> tuple:
    """``dcs``'s exit code with its selected core, the core's conceptual
    density and the connectivity verdict, or with None when the run writes
    nothing (an irreparable selection)."""
    code, out = run_dcs(directory, options)
    if not out:
        return code, None
    doc = json.loads(out)
    return code, doc["nodes"], doc["core_conceptual_density"], doc["physically_connected"]


@pytest.mark.parametrize("options", sorted(OPTION_SETS))
@pytest.mark.parametrize("instance", INSTANCES)
def test_correspondence_order_keeps_dcs_core(instance, options, planted_dir, tmp_path):
    source = planted_dir if instance == "planted" else GOLDEN / instance
    expected = core_outcome(source, OPTION_SETS[options])
    for name in ("conceptual.tsv", "physical.tsv"):
        (tmp_path / name).write_bytes((source / name).read_bytes())
    lines = (source / "correspondence.tsv").read_text(encoding="utf-8").splitlines()
    for seed in SHUFFLE_SEEDS:
        shuffled = random.Random(seed).sample(lines, len(lines))
        (tmp_path / "correspondence.tsv").write_text(
            "".join(line + "\n" for line in shuffled), encoding="utf-8")
        assert core_outcome(tmp_path, OPTION_SETS[options]) == expected, f"shuffle seed {seed}"


def dcs_outcome(dn: DualNetwork, options):
    """``extract_dcs``'s result under the ``dcs`` flags ``options``, or the
    type of the error it raises."""
    args = build_parser().parse_args(["dcs", "--conceptual", "", "--physical", "",
                                      "--correspondence", "", *options])
    try:
        return extract_dcs(dn, _options(args))
    except DualDenseError as exc:
        return type(exc)


def scaled_fields(result, factor: float) -> tuple:
    """What ``result`` must read as once every conceptual weight is
    multiplied by ``factor``; densities are compared with ``==``."""
    trace = result.trace
    return (result.nodes, result.connector_nodes, result.physically_connected,
            result.warnings, trace.removal_order, trace.best_prefix_index,
            trace.tied_prefix_indices,
            [result.conceptual_density * factor, result.core_density * factor,
             result.alignment_density * factor],
            [d * factor for d in trace.density_at_prefix])


@pytest.mark.parametrize("options", sorted(OPTION_SETS))
@pytest.mark.parametrize("instance", INSTANCES)
def test_power_of_two_weight_scaling_scales_densities(instance, options, planted_dir):
    source = planted_dir if instance == "planted" else GOLDEN / instance
    conceptual = load_graph(str(source / "conceptual.tsv"), weighted=True)
    physical = load_graph(str(source / "physical.tsv"), weighted=False)
    pairs = load_correspondence(str(source / "correspondence.tsv"))
    expected = dcs_outcome(DualNetwork(conceptual, physical, pairs), OPTION_SETS[options])
    for factor in SCALE_FACTORS:
        scaled = Graph(conceptual.labels, [(u, v, w * factor) for u, v, w in conceptual.edges()])
        got = dcs_outcome(DualNetwork(scaled, physical, pairs), OPTION_SETS[options])
        if isinstance(expected, type):
            assert got is expected, f"factor {factor}"
        else:
            assert scaled_fields(got, 1.0) == scaled_fields(expected, factor), f"factor {factor}"


@pytest.mark.parametrize("options", sorted(OPTION_SETS))
@pytest.mark.parametrize("instance", INSTANCES)
def test_uncovered_nodes_keep_dcs_output(instance, options, planted_dir, tmp_path):
    source = planted_dir if instance == "planted" else GOLDEN / instance
    expected = run_dcs(source, OPTION_SETS[options])
    pairs = load_correspondence(str(source / "correspondence.tsv"))
    physical = load_graph(str(source / "physical.tsv"), weighted=False).labels
    conceptual = load_graph(str(source / "conceptual.tsv"), weighted=True).labels
    new = [f"uncovered{i}" for i in range(UNCOVERED)]
    assert not set(new) & {*physical, *conceptual}
    rng = random.Random(311)
    # Physical leaves hang off any physical node; conceptual-only nodes off
    # covered conceptual nodes, light, unit and heavy in turn.
    added = {"physical.tsv": [f"{rng.choice(physical)}\t{leaf}\n" for leaf in new],
             "conceptual.tsv": [f"{rng.choice(pairs)[0]}\t{node}\t{w!r}\n" for node, w
                                in zip(new, itertools.cycle(UNCOVERED_WEIGHTS))]}
    for name, lines in added.items():
        text = (source / name).read_text(encoding="utf-8")
        (tmp_path / name).write_text(text + "".join(lines), encoding="utf-8")
    (tmp_path / "correspondence.tsv").write_bytes((source / "correspondence.tsv").read_bytes())
    assert run_dcs(tmp_path, OPTION_SETS[options]) == expected
