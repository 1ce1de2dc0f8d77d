"""Packing-chromatic criticality with per-deletion certificates.

Edge criticality is decided by single-edge deletions, which is equivalent
to full subgraph criticality for graphs without isolated vertices; inputs
with isolated vertices are rejected rather than silently extended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import PreconditionError
from .graphs import Edge, Graph, delete_edge, delete_vertex, radius
from .packing import chi_rho

Deletion = Union[Edge, int]


@dataclass(frozen=True)
class CriticalityReport:
    """Verdict plus the full per-deletion table of packing chromatic values.

    ``witness`` names a deletion that fails to lower the value (present
    exactly when the graph is not critical).
    """

    base_chi_rho: int
    critical: bool
    witness: Optional[Deletion]
    table: tuple[tuple[Deletion, int], ...]


def _deletion_report(G: Graph, deletions: Iterator[tuple[Deletion, Graph]]) -> CriticalityReport:
    """Solve ``G``, then each (deletion, remaining graph) pair in order; the
    witness is the first deletion that does not lower the value."""
    base = chi_rho(G).value
    table = tuple((deletion, chi_rho(sub).value) for deletion, sub in deletions)
    witness = next((deletion for deletion, val in table if val >= base), None)
    return CriticalityReport(base, witness is None, witness, table)


def is_edge_critical(G: Graph) -> CriticalityReport:
    """Does every single-edge deletion lower the packing chromatic number?"""
    if G.n == 0:
        raise PreconditionError("criticality undefined on the empty graph")
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise PreconditionError("edge-criticality test requires no isolated vertices")
    return _deletion_report(G, ((e, delete_edge(G, e)) for e in G.edges()))


def is_vertex_critical(G: Graph) -> CriticalityReport:
    """Does every single-vertex deletion lower the packing chromatic number?"""
    if G.n < 2:
        raise PreconditionError("vertex-criticality test requires at least two vertices")
    return _deletion_report(G, ((v, delete_vertex(G, v)[0]) for v in range(G.n)))


def has_leaf_violation(G: Graph) -> Optional[int]:
    """Fast necessary-condition filter for radius-1 graphs on >= 3 vertices:
    a critical graph there has no leaf, so any returned leaf certifies
    non-criticality."""
    if G.n < 3 or radius(G) != 1:
        raise PreconditionError("leaf filter applies to radius-1 graphs on >= 3 vertices")
    for v in range(G.n):
        if G.degree(v) == 1:
            return v
    return None
