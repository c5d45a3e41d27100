"""Exception types shared across the package.

The CLI maps these onto exit codes: infeasible results exit 1, bad input
files (and weights that underflow) exit 2, bad options exit 3.
"""

from __future__ import annotations


class DualDenseError(Exception):
    """Base class for all package-specific errors."""


class ParseError(DualDenseError, ValueError):
    """An input file could not be parsed; carries the offending location."""

    def __init__(self, message: str, line_no: int | None = None, source: str | None = None):
        self.line_no = line_no
        self.source = source
        where = ""
        if source is not None:
            where += f"{source}:"
        if line_no is not None:
            where += f"line {line_no}: "
        elif where:
            where += " "
        super().__init__(where + message)


class ConfigError(DualDenseError, ValueError):
    """An option or parameter value is out of its documented domain."""


class WeightUnderflow(DualDenseError, ValueError):
    """A per-hop gap weight rounds to zero: the conceptual weight is too
    small to divide by the physical detour length."""


class NoFeasibleSubgraph(DualDenseError):
    """The alignment graph has no edges, so no multi-node candidate exists."""


class IrreparableDisconnection(DualDenseError):
    """Connectivity repair failed: the selected components cannot be joined
    through correspondence-covered physical nodes.

    ``partial`` holds the unrepaired pipeline result when raised by
    ``extract_dcs``, and is None when raised by ``repair_connectivity``
    directly.
    """

    partial = None
