"""Packing-chromatic criticality with per-deletion certificates.

Edge criticality is decided by single-edge deletions, which is equivalent
to full subgraph criticality for graphs without isolated vertices; inputs
with isolated vertices are rejected rather than silently extended.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

from .errors import PreconditionError
from .graphs import Edge, Graph, delete_edge, delete_vertex, radius
from .packing import chi_rho, packs_within

Deletion = Union[Edge, int]
Deletions = Callable[[Graph], Iterator[tuple[Deletion, Graph]]]


@dataclass(frozen=True)
class CriticalityReport:
    """Verdict, with the full per-deletion table of packing chromatic values
    on demand.

    ``witness`` names a deletion that fails to lower the value (present
    exactly when the graph is not critical).  ``table`` solves every
    deletion from scratch, so it is computed only when first read.
    """

    base_chi_rho: int
    critical: bool
    witness: Optional[Deletion]
    graph: Graph = field(repr=False, compare=False)
    deletions: Deletions = field(repr=False, compare=False)

    @cached_property
    def table(self) -> tuple[tuple[Deletion, int], ...]:
        return tuple((deletion, chi_rho(sub).value) for deletion, sub in self.deletions(self.graph))


def _edge_deletions(G: Graph) -> Iterator[tuple[Deletion, Graph]]:
    return ((e, delete_edge(G, e)) for e in G.edges())


def _vertex_deletions(G: Graph) -> Iterator[tuple[Deletion, Graph]]:
    return ((v, delete_vertex(G, v)[0]) for v in range(G.n))


def _deletion_report(G: Graph, deletions: Deletions) -> CriticalityReport:
    """Solve ``G`` once; the witness is the first deletion whose graph has no
    packing coloring with one color fewer.

    Deletions never raise the value (distances only grow, so a packing
    coloring of ``G`` stays one), so a single bounded search per deletion
    decides whether it lowers the value, and the deletions after the
    witness are never built.
    """
    base = chi_rho(G).value
    witness = next((deletion for deletion, sub in deletions(G) if packs_within(sub, base - 1) is None), None)
    return CriticalityReport(base, witness is None, witness, G, deletions)


def is_edge_critical(G: Graph) -> CriticalityReport:
    """Does every single-edge deletion lower the packing chromatic number?"""
    if G.n == 0:
        raise PreconditionError("criticality undefined on the empty graph")
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise PreconditionError("edge-criticality test requires no isolated vertices")
    return _deletion_report(G, _edge_deletions)


def is_vertex_critical(G: Graph) -> CriticalityReport:
    """Does every single-vertex deletion lower the packing chromatic number?"""
    if G.n < 2:
        raise PreconditionError("vertex-criticality test requires at least two vertices")
    return _deletion_report(G, _vertex_deletions)


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
