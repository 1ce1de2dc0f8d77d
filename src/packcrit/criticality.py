"""Packing-chromatic criticality with per-deletion certificates.

Edge criticality is decided by single-edge deletions, which is equivalent
to full subgraph criticality for graphs without isolated vertices; inputs
with isolated vertices are rejected rather than silently extended.

No coloring is kept: the value of G and, for each deletion, whether it
still fits within one color fewer are yes/no questions to the packing
solver (``packing.fits_within``).  When G has diameter <= 2,
``packing.Diameter2Edges`` answers the value and every edge deletion that
keeps the diameter off one MIS memo of G, with no deletion graph built.

The verdict stops at the first deletion that keeps the value, and it asks
the cheap questions first: the memo's, in order, and then the others, those
touching a vertex of least degree first.  A critical graph has few leaves
(at radius 1 none, beyond K2), so a leaf's deletion is the likeliest to
keep the value.  The witness, the first such deletion in order, is found
only when read.

Two deletions in one orbit of Aut(G) leave isomorphic graphs, so the
verdict is searched once per orbit: a deletion to be built that lies in
the orbit of one that already lowered the value is skipped.  Once two
deletions have lowered the value, the group is the twin group (a product
of symmetric groups, read off the neighborhoods in closed form) until a
deletion outside its orbits has a lowered one's degree signature; only
then does the certificate search of ``enumeration`` run, once, for
generators of the whole group (B. D. McKay and A. Piperno, "Practical
graph isomorphism, II", J. Symbolic Comput. 60, 2014).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from . import enumeration
from .errors import PreconditionError
from .graphs import Edge, Graph, delete_edge, delete_vertex, radius, twin_classes
from .packing import Diameter2Edges, chi_rho, fits_within

Deletion = Union[Edge, int]


@dataclass(frozen=True)
class CriticalityReport:
    """Verdict, with the witness and the full per-deletion table of packing
    chromatic values on demand.

    ``witness`` is the first deletion, in the order ``deletions`` yields
    them, that fails to lower the value (present exactly when the graph is
    not critical).  The verdict decides deletions in its own order, so the
    witness is found when first read: the scan reuses every answer the
    verdict recorded and the orbits it saw lowered, and decides the rest.
    ``table`` solves every deletion from scratch, so it too is computed
    only when first read.
    """

    base_chi_rho: int
    critical: bool
    graph: Graph = field(repr=False, compare=False)
    deletions: _Deletions = field(repr=False, compare=False)
    _kept: Optional[_Kept] = field(default=None, repr=False, compare=False)

    @cached_property
    def witness(self) -> Optional[Deletion]:
        if self._kept is None:
            return None
        stop, postponed, answers, lowered = self._kept
        for deletion in postponed:
            fits = answers.get(deletion)
            if fits is None:
                if deletion in lowered:
                    continue
                fits = fits_within(self.deletions.apply(self.graph, deletion), self.base_chi_rho - 1)
                if fits:
                    lowered.add(deletion)
            if not fits:
                return deletion
        return stop

    @cached_property
    def table(self) -> tuple[tuple[Deletion, int], ...]:
        return tuple((deletion, chi_rho(sub).value) for deletion, sub in self.deletions(self.graph))


class _Deletions(NamedTuple):
    """One kind of single deletion.  Called on a graph, it yields each
    deletion, in order, with the graph it leaves."""

    keys: Callable[[Graph], Sequence[Deletion]]
    apply: Callable[[Graph, Deletion], Graph]
    ends: Callable[[Deletion], tuple[int, ...]]  # the vertices it touches

    def __call__(self, G: Graph) -> Iterator[tuple[Deletion, Graph]]:
        return ((d, self.apply(G, d)) for d in self.keys(G))


# The deletion functions are looked up when called, so a wrapper installed
# on this module sees every deletion built.
_EDGES = _Deletions(Graph.edges, lambda G, e: delete_edge(G, e), lambda e: e)
_VERTICES = _Deletions(Graph.vertices, lambda G, v: delete_vertex(G, v)[0], lambda v: (v,))


class _LoweredOrbits:
    """The deletions of G in the orbit, under Aut(G), of one that lowered
    the value, as far as they are cheap to know.

    Nothing is set up until two deletions have lowered the value, so a
    verdict that stops early pays nothing.  Then the twin classes
    give the twin group's orbits in closed form: it is a product of
    symmetric groups, so a deletion's orbit is named by its vertices' class
    multiset.  A deletion outside those orbits can still lie in an orbit of
    the whole group only if its degree signature (each vertex's degree,
    with its neighbors' sorted degrees, which every automorphism keeps)
    equals a lowered deletion's; the first time one does, the certificate
    search runs once and its generators close the lowered deletions'
    orbits.
    """

    def __init__(self, G: Graph, ends: Callable[[Deletion], tuple[int, ...]]):
        self._G = G
        self._ends = ends
        self._lowered: list[tuple[int, ...]] = []  # what each lowering deletion touches
        self._twin: list[int] = []
        self._vertex_sigs: list[tuple[int, tuple[int, ...]]] = []
        self._twin_keys: set[tuple[int, ...]] = set()
        self._sigs: set[tuple] = set()
        self._orbits: Optional[enumeration._MaskOrbits] = None

    def _twin_key(self, vs: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted([self._twin[v] for v in vs]))

    def _sig(self, vs: tuple[int, ...]) -> tuple:
        return tuple(sorted([self._vertex_sigs[v] for v in vs]))

    def _note(self, ws: tuple[int, ...]) -> None:
        """Key a lowered deletion by its twin key and signature, and close
        its orbit once the certificate search has run."""
        self._twin_keys.add(self._twin_key(ws))
        self._sigs.add(self._sig(ws))
        if self._orbits is not None:
            self._orbits.add(_mask(ws))

    def add(self, deletion: Deletion) -> None:
        """Record a deletion that lowered the value."""
        ws = self._ends(deletion)
        self._lowered.append(ws)
        if self._twin:
            self._note(ws)

    def __contains__(self, deletion: Deletion) -> bool:
        if len(self._lowered) < 2:
            return False
        if not self._twin:
            G = self._G
            self._twin = twin_classes(G.adjacency_bits())
            nbrs = [G.neighbors(v) for v in range(G.n)]
            deg = [len(ns) for ns in nbrs]
            self._vertex_sigs = [(deg[v], tuple(sorted([deg[w] for w in ns]))) for v, ns in enumerate(nbrs)]
            for ws in self._lowered:
                self._note(ws)
        vs = self._ends(deletion)
        if self._twin_key(vs) in self._twin_keys:
            return True
        if self._orbits is None:
            if self._sig(vs) not in self._sigs:
                return False
            self._orbits = enumeration._MaskOrbits(enumeration._search(self._G)[1])
            for ws in self._lowered:
                self._orbits.add(_mask(ws))
        return _mask(vs) in self._orbits


def _mask(vs: tuple[int, ...]) -> int:
    return sum(1 << v for v in vs)


class _Kept(NamedTuple):
    """What the witness scan needs of a verdict that found a deletion
    keeping the value."""

    stop: Deletion  # the deletion the verdict stopped at
    postponed: Sequence[Deletion]  # the deletions the memo left, in order
    answers: dict[Deletion, bool]  # the second pass's answers for them
    lowered: _LoweredOrbits


def _deletion_report(G: Graph, deletions: _Deletions) -> CriticalityReport:
    """Decide ``G``'s value once, then whether some deletion's graph still
    has no packing coloring with one color fewer.

    Deletions never raise the value (distances only grow, so a packing
    coloring of ``G`` stays one), so one yes/no question per deletion
    decides whether it lowers the value, and the report stops at the first
    that does not.  At diameter <= 2 the value, and every edge deletion
    that keeps the diameter, are read off G's MIS memo
    (``packing.Diameter2Edges``), in order and with no graph built;
    otherwise the value is ``chi_rho``'s.  Every other deletion is then
    built and asked ``fits_within``, those touching a vertex of least
    degree first (a leaf's deletion is the likeliest to keep the value),
    ties in order.  A built deletion in the orbit of one that already
    lowered the value is skipped: its graph is isomorphic to that one's,
    so it lowers the value too.  That holds in any order, so the verdict
    is the one that searching every deletion gives.  The memo's answers
    are not skipped, as they cost less than the orbit test, which may run
    a certificate search.

    The witness scan needs only the deletions the memo left, in order, and
    the answers they got: every other deletion the memo pass reached
    lowered the value.  The list is allocated when the memo first leaves
    one, and the answers when the second pass starts.
    """
    diameter2 = Diameter2Edges.of(G) if deletions is _EDGES else None
    k = (diameter2.value if diameter2 else chi_rho(G).value) - 1
    lowered = _LoweredOrbits(G, deletions.ends)
    postponed: Optional[Sequence[Deletion]] = None
    if diameter2:
        for deletion in deletions.keys(G):
            fits = diameter2.fits(deletion, k)
            if fits is None:
                if postponed is None:
                    postponed = []
                postponed.append(deletion)
            elif not fits:
                return CriticalityReport(k + 1, False, G, deletions, _Kept(deletion, postponed or (), {}, lowered))
            else:
                lowered.add(deletion)
        if postponed is None:
            return CriticalityReport(k + 1, True, G, deletions)
    else:
        postponed = deletions.keys(G)
    answers: dict[Deletion, bool] = {}
    ends, degree = deletions.ends, G.degree
    for deletion in sorted(postponed, key=lambda d: min(map(degree, ends(d)))):
        if deletion in lowered:
            continue
        fits = answers[deletion] = fits_within(deletions.apply(G, deletion), k)
        if not fits:
            return CriticalityReport(k + 1, False, G, deletions, _Kept(deletion, postponed, answers, lowered))
        lowered.add(deletion)
    return CriticalityReport(k + 1, True, G, deletions)


def is_edge_critical(G: Graph) -> CriticalityReport:
    """Does every single-edge deletion lower the packing chromatic number?"""
    if G.n == 0:
        raise PreconditionError("criticality undefined on the empty graph")
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise PreconditionError("edge-criticality test requires no isolated vertices")
    return _deletion_report(G, _EDGES)


def is_vertex_critical(G: Graph) -> CriticalityReport:
    """Does every single-vertex deletion lower the packing chromatic number?"""
    if G.n < 2:
        raise PreconditionError("vertex-criticality test requires at least two vertices")
    return _deletion_report(G, _VERTICES)


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
