"""Command-line interface.

Subcommands: ``dcs`` (full pipeline), ``align`` (alignment graph export),
``peel`` (densest subgraph of one weighted graph), ``oracle`` (exact
brute-force result), ``gen`` (planted instance files), ``stats`` (graph
metrics).  Each command returns the text it outputs, which ``main`` writes
to ``--output`` or stdout; ``gen`` writes its own files.  Exit codes: 0
success, 1 infeasible result, 2 input/parse error (a per-hop gap weight
that underflows included), 3 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import formats
from .align import GapWeightRule, build_alignment_graph, delta_doc, parse_delta
from .dualnet import DualNetwork
from .errors import (ConfigError, IrreparableDisconnection, NoFeasibleSubgraph,
                     ParseError, WeightUnderflow)
from .graph import connected_components, density
from .oracle import brute_force_dcs
from .peel import peel
from .pipeline import Connectivity, DcsOptions, extract_dcs, result_to_doc
from .synth import generate_planted

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3


def _load_dual(args) -> DualNetwork:
    conceptual = formats.load_graph(args.conceptual, weighted=True)
    physical = formats.load_graph(args.physical, weighted=False)
    pairs = formats.load_correspondence(args.correspondence)
    try:
        return DualNetwork(conceptual, physical, pairs)
    except ValueError as exc:
        raise ParseError(str(exc), None, args.correspondence) from None


def _options(args) -> DcsOptions:
    return DcsOptions(
        delta=parse_delta(args.delta),
        gap_mode=GapWeightRule(args.gap_mode),
        connectivity=Connectivity(args.connectivity),
        repair=not args.no_repair,
    )


def cmd_dcs(args) -> str:
    dn = _load_dual(args)
    opts = _options(args)
    result = extract_dcs(dn, opts)
    if args.format == "json":
        return formats.canonical_json(result_to_doc(result, dn, opts))
    c_hl = {dn.pairs[k][0] for k in result.all_nodes}
    p_hl = {dn.pairs[k][1] for k in result.all_nodes}
    return (formats.export_dot(dn.conceptual, name="conceptual", highlight=c_hl)
            + formats.export_dot(dn.physical, name="physical", highlight=p_hl))


def cmd_align(args) -> str:
    dn = _load_dual(args)
    ag = build_alignment_graph(dn, parse_delta(args.delta), GapWeightRule(args.gap_mode))
    try:
        return formats.export_graph(ag, args.format)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def cmd_peel(args) -> str:
    g = formats.load_graph(args.graph, weighted=not args.unweighted)
    if g.n == 0:
        raise ParseError(f"{args.graph}: graph is empty")
    result, trace = peel(g)
    doc = {
        "nodes": sorted(g.labels[v] for v in result.nodes),
        "node_count": len(result.nodes),
        "density": result.density,
        "exact": False,
        **trace.to_doc(g.labels),
    }
    return formats.canonical_json(doc)


def cmd_oracle(args) -> str:
    dn = _load_dual(args)
    result = brute_force_dcs(dn, max_nodes=args.max_oracle_nodes)
    doc = {
        "nodes": sorted([list(dn.pairs[k]) for k in result.nodes]),
        "node_count": len(result.nodes),
        "conceptual_density": result.density,
        "explored": result.explored,
        "physically_connected": True,
        "exact": True,
    }
    return formats.canonical_json(doc)


def cmd_gen(args) -> None:
    inst = generate_planted(args.nodes, args.planted_size, args.seed,
                            background_weight_cap=args.background_weight_cap,
                            background_edge_prob=args.background_edge_prob)
    os.makedirs(args.out_dir, exist_ok=True)
    dn = inst.dual
    formats.write_edge_list(dn.conceptual, os.path.join(args.out_dir, "conceptual.tsv"), True)
    formats.write_edge_list(dn.physical, os.path.join(args.out_dir, "physical.tsv"), False)
    # Edge lists cannot name isolated nodes, so a pair is written only when
    # both of its nodes appear in the written edge lists.
    formats.write_correspondence(
        (pair for pair, ci, pj in zip(dn.pairs, dn.pair_conceptual, dn.pair_physical)
         if dn.conceptual.degree(ci) and dn.physical.degree(pj)),
        os.path.join(args.out_dir, "correspondence.tsv"))
    meta = {
        "seed": inst.seed,
        "nodes": args.nodes,
        "planted_size": args.planted_size,
        "planted": sorted(dn.pairs[k][0] for k in inst.planted),
        "background_weight_cap": args.background_weight_cap,
        "background_edge_prob": args.background_edge_prob,
    }
    formats.write_text(formats.canonical_json(meta), os.path.join(args.out_dir, "instance.json"))
    print(f"wrote planted instance to {args.out_dir}", file=sys.stderr)


def cmd_stats(args) -> str:
    g = formats.load_graph(args.graph, weighted=not args.unweighted)
    n, m = g.n, g.edge_count
    doc = {
        "nodes": n,
        "edges": m,
        "total_weight": g.total_weight,
        "density": (2.0 * g.total_weight / n) if n else 0.0,
        "edge_ratio_density": (m / n) if n else 0.0,
        "edge_fraction_density": (2.0 * m / (n * (n - 1))) if n > 1 else 0.0,
        "components": len(connected_components(g)),
        "duplicates_collapsed": g.duplicates_collapsed,
    }
    return formats.canonical_json(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualdense",
        description="Densest connected subgraph mining on dual networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dual_inputs(p):
        p.add_argument("--conceptual", required=True, help="weighted edge list")
        p.add_argument("--physical", required=True, help="unweighted edge list")
        p.add_argument("--correspondence", required=True,
                       help="one 'conceptual physical' pair per line")

    def add_output(p):
        p.add_argument("--output", default=None, help="output path (default stdout)")

    def add_align_opts(p):
        p.add_argument("--delta", default=str(delta_doc(DcsOptions.delta)),
                       help="gap threshold: positive integer or 'inf' (default %(default)s)")
        p.add_argument("--gap-mode", default=DcsOptions.gap_mode.value,
                       choices=[r.value for r in GapWeightRule])

    p = sub.add_parser("dcs", help="full pipeline: alignment, peeling, connectivity")
    add_dual_inputs(p)
    add_align_opts(p)
    p.add_argument("--connectivity", default=DcsOptions.connectivity.value,
                   choices=[c.value for c in Connectivity])
    p.add_argument("--no-repair", action="store_true",
                   help="report disconnection instead of adding connector nodes")
    p.add_argument("--format", default="json", choices=["json", "dot"])
    add_output(p)
    p.set_defaults(func=cmd_dcs)

    p = sub.add_parser("align", help="build and export the alignment graph")
    add_dual_inputs(p)
    add_align_opts(p)
    p.add_argument("--format", default="json", choices=["json", "dot", "graphml"])
    add_output(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("peel", help="densest subgraph of a single weighted graph")
    p.add_argument("--graph", required=True, help="edge list path")
    p.add_argument("--unweighted", action="store_true")
    add_output(p)
    p.set_defaults(func=cmd_peel)

    p = sub.add_parser("oracle", help="exact brute-force result (small instances)")
    add_dual_inputs(p)
    p.add_argument("--max-oracle-nodes", type=int, default=None,
                   help="largest subset size the enumeration scores")
    add_output(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a planted dual-network instance")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--planted-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--background-weight-cap", type=float, default=0.1)
    p.add_argument("--background-edge-prob", type=float, default=0.15)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="graph metrics, including both density diagnostics")
    p.add_argument("--graph", required=True, help="edge list path")
    p.add_argument("--unweighted", action="store_true")
    add_output(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
        if text is not None:
            formats.write_text(text, args.output)
        return EXIT_OK
    except (ParseError, WeightUnderflow, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoFeasibleSubgraph, IrreparableDisconnection) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
