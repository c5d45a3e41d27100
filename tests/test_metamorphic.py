"""Metamorphic properties of the ``dcs`` command: rewriting its input in a
way that names the same dual network must not change its output.

Shuffling the data lines of both edge lists and swapping each line's
endpoints renumbers the conceptual and physical nodes but keeps the pair
ids, which follow the correspondence file, so every tie-break keyed on
pair ids gives the same bytes and exit code.

Multiplying every conceptual weight by a power of two multiplies every
weight, sum and density the pipeline computes by the same factor, exactly,
so every comparison (and tie) it makes comes out the same: the selection,
the connectors and the peel order stay, and each density scales.
"""

from __future__ import annotations

import contextlib
import io
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
