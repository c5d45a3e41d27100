"""Densest connected subgraph mining on dual networks.

A dual network pairs an edge-weighted conceptual graph with an unweighted
physical graph over corresponding nodes.  The pipeline merges the two into
a weighted alignment graph (match/gap scoring with a hop threshold), peels
it greedily for a densest subgraph, and verifies or repairs physical
connectivity of the selection.

``oracle`` and ``synth``, which the pipeline never runs, load on first use
of one of their names, so importing the package does not compile them.
"""

from .align import AlignmentGraph, GapWeightRule, build_alignment_graph
from .dualnet import DualNetwork
from .errors import (ConfigError, DualDenseError, IrreparableDisconnection,
                     NoFeasibleSubgraph, ParseError, WeightUnderflow)
from .graph import Graph, connected_components, density
from .peel import DensestResult, PeelTrace, peel
from .pipeline import (Connectivity, DcsOptions, DcsResult, extract_dcs,
                       repair_connectivity, result_to_doc,
                       verify_physical_connectivity)

__version__ = "0.1.0"

__all__ = [
    "AlignmentGraph", "GapWeightRule", "build_alignment_graph",
    "DualNetwork",
    "ConfigError", "DualDenseError", "IrreparableDisconnection",
    "NoFeasibleSubgraph", "ParseError", "WeightUnderflow",
    "Graph", "connected_components", "density",
    "OracleResult", "brute_force_dcs",
    "DensestResult", "PeelTrace", "peel",
    "Connectivity", "DcsOptions", "DcsResult", "extract_dcs",
    "repair_connectivity", "result_to_doc", "verify_physical_connectivity",
    "PlantedInstance", "generate_planted",
]


def __getattr__(name: str):
    if name in ("OracleResult", "brute_force_dcs"):
        from . import oracle as module
    elif name in ("PlantedInstance", "generate_planted"):
        from . import synth as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
