"""Qudit graph states over prime fields.

Construction, rank-based entanglement certification, local Clifford
rewriting, conversion of classical MDS codes to AME graph states,
composite-dimension constructions, exhaustive/randomized search, and
quantum secret sharing - all cross-checked against a dense state-vector
oracle.
"""

from .graph import (
    CzCircuit,
    Graph,
    LabeledGraph,
    canonical_form,
    graph_from_edges,
    load_graph,
    op_mult,
    op_star,
    parse_graph,
    format_graph,
    permute,
    truncate,
    z_measure_symbolic,
)
from .entanglement import AmeReport, cut_edits, is_ame, is_ame_grouped, lc_orbit
from .simulator import StateVector, build_graph_state, build_labeled
from .stabilizer import GeneratorMatrix, from_graph, to_graph
from .codes import LinearCode, code_to_ame_graph, grs_code, hamming433

__all__ = [
    "AmeReport",
    "CzCircuit",
    "GeneratorMatrix",
    "Graph",
    "LabeledGraph",
    "LinearCode",
    "StateVector",
    "build_graph_state",
    "build_labeled",
    "canonical_form",
    "code_to_ame_graph",
    "cut_edits",
    "format_graph",
    "from_graph",
    "graph_from_edges",
    "grs_code",
    "hamming433",
    "is_ame",
    "is_ame_grouped",
    "lc_orbit",
    "load_graph",
    "op_mult",
    "op_star",
    "parse_graph",
    "permute",
    "to_graph",
    "truncate",
    "z_measure_symbolic",
]
