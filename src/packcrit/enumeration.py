"""Isomorph-free generation of small graphs, trees, cacti, and block graphs.

Each structure class is one row of ``_TABLE``: its default size cap, the
class predicate ``EnumerationFilter.matches`` applies, and the neighbor
subsets a new vertex may take when it extends a parent.  Every subset grows
a member of the class, so no candidate is re-tested.  The subsets are
arbitrary in general and a single neighbor for trees.  For cacti they are a
single neighbor, or two neighbors joined by a path of bridges: deleting a
non-cut vertex of a leaf block always leaves a cactus, and a new vertex on
u and v closes a cycle through every block between them, so the result is
a cactus exactly when those blocks are all bridges.  For block graphs they
are a single neighbor, or the whole vertex set of one block: two
non-adjacent neighbors of the new vertex would lie in one non-complete
block with it, and a clique short of its block would merge into that block
without completing it.

Representatives at each order extend the previous order's representatives
by those subsets.  Candidates deduplicate by canonical certificate, keeping
the first candidate of each class, and each level is emitted sorted by that
certificate, so the stream is deterministic.  A parent is extended once per
orbit of its automorphism group on the row's subsets (B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): every row's
subsets are closed under the group, two subsets in one orbit grow
isomorphic candidates, and only the first subset of each orbit, in the
row's order, is tried.  The first candidate of a class is always the first
of its orbit, so the kept representatives, and with them the stream, are
those of trying every subset.

A candidate whose class an earlier parent has already grown is not
certified at all.  Let C grow from the parent of rank i in its level (the
order ``_level`` extends parents in).  If deleting some vertex u of C other
than the new one leaves a graph of the row's class whose degree multiset
only parents of rank below i have, then C less u is isomorphic to a parent
of rank r < i.  The row extends that parent by every subset that grows a
member of the class, so by the image of u's neighbors, and the first
subset of that image's orbit grew a candidate isomorphic to C before C.
C is then not the first candidate of its class, and its certificate search
could only find a certificate already kept, so skipping it leaves every
kept representative, certificate, generator and stream as they were.  The
degree multiset is an exact key (``_degree_key``), and the key of C less u
is read off C's own in O(deg u) (``_earlier_parent``).  C less u lies in
the class always for ``all`` and, for every other row, whenever it is
connected: cacti, trees and block graphs are each closed under connected
induced subgraphs.  A new row must meet that condition, its class closed
under deleting any vertex that leaves the graph connected, besides
extending by every subset that grows a member; otherwise the skip could
drop a class.  This is the cheap invariant of McKay's method that rejects
a candidate before any canonical labelling is computed.

A filter with a radius needs only the classes of that radius at its top
order, and no order above it is grown from that level.  So ``_level(s, n,
radius)`` grows candidates from the full level n - 1 as the full level n
does, and drops a candidate that ``_earlier_parent`` lets through unless
``graphs.has_radius`` holds for it at that radius, before its certificate
search.  That check grows closed balls (``grow_balls``) for at most radius
rounds, so a candidate of a larger radius costs no more than one of the
kept radius, and it fails on a disconnected candidate.  Radius is an
isomorphism invariant: every candidate of a class of that radius has it,
so the first candidate of each such class is still searched and kept, and
a dropped candidate's whole class is one the filter rejects.  The radius
level is therefore the full level's representatives of that radius, with
the same certificates, generators and order.  ``enumerate_graphs`` reads it
at the filter's top order only, whatever else the filter asks; lower orders
are parent levels and stay full, and so does ``representatives``.  A filter
with a radius accepts no disconnected graph, and a radius level holds none,
so a filter that also asks for disconnected graphs yields nothing from
either level.  The level is keyed on the radius alone, so filters that
differ only in diameter or connectivity share one build, and those
constraints still apply afterwards.

A candidate is grown as adjacency bitmasks (the parent's plus the new
vertex) and certified from those.  A ``Graph`` is built for the candidate a
class keeps and, at a radius level, for the radius check, in both cases
straight from the bitmasks (``_graph``) with no edge list to validate.
The certificate search that admits a candidate also returns its
automorphism group's generators, and the level stores them beside the
representative, so the next order extends it without searching again.
``iso`` stays out of this path: it is the independent oracle the tests
check the certificates against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import CapExceededError
from .graphs import (
    Graph,
    block_decomposition,
    bridges,
    components,
    eccentricities,
    flood,
    has_radius,
    is_block_graph,
    is_cactus,
    is_connected,
    is_tree,
    twin_classes,
)

ENV_CAP = "PACKCRIT_MAX_N"


def env_cap() -> Optional[int]:
    """The PACKCRIT_MAX_N override, or None when the variable is unset.  A
    value that is not an integer raises CapExceededError."""
    env = os.environ.get(ENV_CAP)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise CapExceededError(f"{ENV_CAP} must be an integer, got {env!r}") from None


def hard_cap(structure: str) -> int:
    """Vertex-count ceiling for a structure class; the PACKCRIT_MAX_N
    environment variable overrides the built-in defaults."""
    cap = env_cap()
    return _TABLE[structure].cap if cap is None else cap


def _check_cap(structure: str, n: int) -> None:
    cap = hard_cap(structure)
    if n > cap:
        raise CapExceededError(f"order {n} exceeds the {structure} cap {cap}")


@dataclass(frozen=True)
class EnumerationFilter:
    """What to enumerate: order range, structure class, and optional
    connectivity / exact radius / exact diameter constraints."""

    max_n: int
    min_n: int = 1
    structure: str = "all"
    connected: Optional[bool] = None
    radius: Optional[int] = None
    diameter: Optional[int] = None

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.min_n < 1 or self.max_n < self.min_n:
            raise ValueError(f"bad order range [{self.min_n}, {self.max_n}]")
        for name in ("radius", "diameter"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    def matches(self, g: Graph) -> bool:
        """Whether ``g`` lies in the filtered class: order range, structure,
        and the connectivity / radius / diameter constraints."""
        if not self.min_n <= g.n <= self.max_n:
            return False
        member = _TABLE[self.structure].member
        if member is not None and not member(g):
            return False
        return not self._reads_metrics or self._accepts(*_metrics(g))

    @property
    def _reads_metrics(self) -> bool:
        return self.connected is not None or self.radius is not None or self.diameter is not None

    def _accepts(self, connected: bool, radius: Optional[int], diameter: Optional[int]) -> bool:
        """The connectivity / radius / diameter constraints, given a graph's
        metrics; radius and diameter are None when they were not computed,
        which is always so for a disconnected graph."""
        if not connected:
            return self.connected is False and self.radius is None and self.diameter is None
        return self.connected is not False and self.radius in (None, radius) and self.diameter in (None, diameter)


_Metrics = tuple[bool, Optional[int], Optional[int]]


def _metrics(g: Graph) -> _Metrics:
    """(connected, radius, diameter), the last two None when disconnected."""
    if not is_connected(g):
        return (False, None, None)
    eccs = eccentricities(g)
    return (True, min(eccs), max(eccs))


# -- canonical certificates ---------------------------------------------------


# Each neighbor bitmask the certificate search has met, with its members in
# increasing order: a candidate's rows are mostly its parent's, so reading
# them here replaces a scan of every vertex pair per search.  Cleared when
# it reaches ``_MEMBERS_CAP`` entries, which keeps it small on long runs.
_MEMBERS: dict[int, tuple[int, ...]] = {}
_MEMBERS_CAP = 1 << 16


def _members(mask: int) -> tuple[int, ...]:
    """The vertices in ``mask``, in increasing order."""
    members = _MEMBERS.get(mask)
    if members is None:
        if len(_MEMBERS) >= _MEMBERS_CAP:
            _MEMBERS.clear()
        members = _MEMBERS[mask] = tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
    return members


# An ordered partition of the vertices: ``cells[s]`` is the cell that starts
# at position s, its members in increasing order, and None at a position
# inside a cell; ``color[v]`` is the start of v's cell.  Cells are
# contiguous, so ordering vertices by color orders them by cell, and a cell
# that splits leaves every other cell's color as it was.
_Cells = list[Optional[list[int]]]


def _refine(nbrs: tuple[tuple[int, ...], ...], cells: _Cells, color: list[int], starts: Iterable[int]) -> None:
    """Refine the ordered partition ``cells``/``color`` in place until it is
    equitable, examining in the first round only the cells that start at
    ``starts``.

    Each round splits every cell at once by the sorted colors of its
    members' neighbors, the parts in increasing order of that key, and the
    rounds stop at the first one that splits no cell.  A split marks every
    part but its largest (the first such, in a tie), and the next round
    examines only the cells with a member next to a marked vertex.  That
    skips no split.  The members of a cell had one key in the round before,
    so each has as many neighbors as the others in every cell that split
    then.  A member of an unexamined cell has all of those neighbors in the
    unmarked part, and they all take its color, so every member's key
    changes in the same way and the cell stays whole.  The caller states
    which cells the first round examines: every cell of a partition that
    need not be equitable, or, right after a split of an equitable one
    (``_split``, ``_individualize``), the cells next to a vertex it
    marked."""
    color_of = color.__getitem__
    while True:
        splits = []
        for s in starts:
            cell = cells[s]
            if len(cell) > 1:
                keys = [tuple(sorted(map(color_of, nbrs[v]))) for v in cell]
                if keys.count(keys[0]) < len(keys):
                    splits.append((s, sorted(zip(keys, cell))))
        if not splits:
            return
        marked: list[int] = []
        for s, keyed in splits:
            marked += _split(cells, color, s, keyed)
        starts = {color[w] for v in marked for w in nbrs[v]}


def _split(cells: _Cells, color: list[int], s: int, keyed: list[tuple[object, int]]) -> list[int]:
    """Split the cell at ``s`` into the runs of equal key in ``keyed``, its
    members as sorted (key, vertex) pairs, and return the vertices the split
    marks: those of every part but the largest (the first such, in a tie)."""
    parts: list[list[int]] = []
    prev = None
    for key, v in keyed:
        if key != prev:
            prev = key
            part: list[int] = []
            parts.append(part)
        part.append(v)
    largest = max(parts, key=len)
    marked = []
    for part in parts:
        cells[s] = part
        for v in part:
            color[v] = s
        s += len(part)
        if part is not largest:
            marked += part
    return marked


def _individualize(
    nbrs: tuple[tuple[int, ...], ...], cells: _Cells, color: list[int], v: int
) -> tuple[_Cells, list[int]]:
    """A refined copy of the equitable partition ``cells``/``color`` in which
    ``v`` is split off at the front of its cell.  That split marks ``v``
    alone, so the first round examines only the cells next to ``v`` (see
    ``_refine``)."""
    s = color[v]
    cells = cells[:]
    color = color[:]
    rest = [u for u in cells[s] if u != v]
    cells[s] = [v]
    cells[s + 1] = rest
    for u in rest:
        color[u] = s + 1
    _refine(nbrs, cells, color, {color[w] for w in nbrs[v]})
    return cells, color


def _search(G: Graph) -> tuple[int, list[list[int]]]:
    """The individualization-refinement search behind ``canonical_cert``:
    the minimum adjacency code over the discrete leaves, and permutations
    (``perm[v]`` is the image of ``v``) that generate Aut(G).  See
    ``_search_bits``."""
    return _search_bits(G.adjacency_bits())


def _search_bits(adj: tuple[int, ...]) -> tuple[int, list[list[int]]]:
    """``_search`` on the graph whose vertex v has neighbor bitmask
    ``adj[v]``, its twin classes (``twin_classes``) read from ``adj``.

    Split the vertices by degree, refine that to an equitable partition
    (``_refine``), split the first non-singleton cell on every member in
    increasing order (``_individualize``), and read each discrete leaf's
    adjacency code: the upper triangle of the relabelled adjacency matrix,
    row by row.  A leaf's rows are built with the positions reversed, one
    bit per neighbor, so each row's part above the diagonal is a mask of
    its low bits.  Two kinds of generator come out of the search.  A leaf
    whose code equals the best leaf's gives the automorphism between the
    two labelings.  A twin (a vertex in the ``twin_classes`` class of a
    member already split on) is not split on, because the transposition
    of the two twins is an automorphism that fixes the current node; that
    transposition is returned, once however many nodes skip it.  Any
    automorphism maps the best leaf to a leaf of the unskipped tree, twin
    transpositions move that leaf into the searched tree, where its code
    equals the best and was recorded, so the returned permutations generate
    the whole group.

    ``_refine`` skips only cells that cannot split, so every node holds
    the partition that refining every cell in every round gives, and the
    leaves, their order, the certificate and the generators are those of
    that plain search (``tests/oracles.py::reference_search_bits``).
    """
    n = len(adj)
    if n <= 1:
        return 0, []
    nbrs = tuple(map(_members, adj))
    twin_class = twin_classes(adj)
    # the low-bit mask of each row's part above the diagonal
    above = [(1 << (n - 1 - p)) - 1 for p in range(n)]
    best: Optional[int] = None
    best_inv: list[int] = []
    gens: list[list[int]] = []
    swapped: set[tuple[int, int]] = set()  # twin transpositions already in gens

    def leaf(cells: _Cells, color: list[int]) -> None:
        nonlocal best, best_inv
        inv = [cell[0] for cell in cells]
        rev = [1 << (n - 1 - p) for p in color]
        rev_of = rev.__getitem__
        bits = 0
        for p, v in enumerate(inv):
            bits = (bits << (n - 1 - p)) | (sum(map(rev_of, nbrs[v])) & above[p])
        if best is None or bits < best:
            best, best_inv = bits, inv
        elif bits == best:
            perm = [0] * n
            for p, v in enumerate(best_inv):
                perm[v] = inv[p]
            gens.append(perm)

    def search(cells: _Cells, color: list[int], s: int) -> None:
        # cells before s are singletons: the parent's first non-singleton
        # cell started there, and refinement only splits cells
        while s < n:
            cell = cells[s]
            if len(cell) > 1:
                break
            s += 1
        else:
            leaf(cells, color)
            return
        split_on: dict[int, int] = {}  # twin class -> its member split on
        for v in cell:
            twin = split_on.get(twin_class[v])
            if twin is not None:
                if (twin, v) not in swapped:
                    swapped.add((twin, v))
                    swap = list(range(n))
                    swap[v], swap[twin] = twin, v
                    gens.append(swap)
                continue
            split_on[twin_class[v]] = v
            search(*_individualize(nbrs, cells, color, v), s)

    # The first round on the one-cell partition splits it by degree: every
    # key is a run of zeros, ordered by its length.
    cells: _Cells = [None] * n
    color = [0] * n
    marked = _split(cells, color, 0, sorted(zip(map(len, nbrs), range(n))))
    _refine(nbrs, cells, color, {color[w] for v in marked for w in nbrs[v]})
    search(cells, color, 0)
    assert best is not None
    return best, gens


def canonical_cert(G: Graph) -> tuple[int, int]:
    """Canonical certificate (order, packed adjacency bits): equal exactly
    for isomorphic graphs.  The minimum leaf code of ``_search``."""
    return (G.n, _search(G)[0])


# -- representative lattices ---------------------------------------------------


def _all_subsets(parent: Graph) -> Iterable[int]:
    return range(1 << parent.n)


def _single_vertices(parent: Graph) -> Iterator[int]:
    return (1 << v for v in range(parent.n))


def _bridge_paths(parent: Graph) -> Iterator[int]:
    """Every single vertex, then every pair inside one component of the
    bridge forest: the cactus extensions (see the module docstring), in the
    order of all one- and two-vertex masks."""
    n = parent.n
    comp = [0] * n
    for i, members in enumerate(components(Graph(n, bridges(parent)))):
        for v in members:
            comp[v] = i
    yield from _single_vertices(parent)
    for u in range(n):
        for v in range(u + 1, n):
            if comp[u] == comp[v]:
                yield (1 << u) | (1 << v)


def _single_vertices_and_blocks(parent: Graph) -> Iterator[int]:
    """Every single vertex, then the vertex set of every block with an edge,
    blocks in increasing mask order: the block-graph extensions (see the
    module docstring)."""
    yield from _single_vertices(parent)
    yield from sorted(
        sum(1 << v for v in b.vertices) for b in block_decomposition(parent).blocks if len(b.vertices) > 1
    )


class _MaskOrbits:
    """A union of orbits of the group generated by ``gens`` (``perm[v]`` is
    the image of ``v``) acting on vertex sets, which are bitmasks."""

    def __init__(self, gens: Sequence[Sequence[int]]):
        self._images = [[1 << w for w in perm] for perm in gens]
        self._seen: set[int] = set()

    def __contains__(self, mask: int) -> bool:
        return mask in self._seen

    def add(self, mask: int) -> None:
        """Add the orbit of ``mask``: its images under the generators, until
        no new one appears."""
        if mask in self._seen:
            return
        self._seen.add(mask)
        stack = [mask]
        while stack:
            m = stack.pop()
            for image in self._images:
                x = m
                y = 0
                while x:
                    b = x & -x
                    y |= image[b.bit_length() - 1]
                    x ^= b
                if y not in self._seen:
                    self._seen.add(y)
                    stack.append(y)


def _orbit_firsts(masks: Iterable[int], gens: Sequence[Sequence[int]]) -> Iterator[int]:
    """The first mask, in the order ``masks`` yields them, of each orbit of
    the group generated by ``gens`` acting on vertex sets.  ``masks`` must
    be closed under that group."""
    if not gens:
        yield from masks
        return
    orbits = _MaskOrbits(gens)
    for mask in masks:
        if mask not in orbits:
            yield mask
            orbits.add(mask)


def _grow(parent: Graph, mask: int) -> tuple[int, ...]:
    """The adjacency bitmasks of ``parent`` plus a new vertex whose
    neighbors are the vertices in ``mask``."""
    new = 1 << parent.n
    return tuple(a | new if mask >> v & 1 else a for v, a in enumerate(parent.adjacency_bits())) + (mask,)


def _degree_key(adj: Sequence[int], w: int) -> int:
    """The degree multiset of the graph with neighbor bitmasks ``adj``, as
    the sum of 2^(w * degree) over its vertices.  Each field of ``w`` bits
    counts the vertices of one degree, so the key is exact while fewer than
    2^w vertices share a degree: ``_level`` takes w from the order it
    builds."""
    return sum(1 << w * a.bit_count() for a in adj)


def _earlier_parent(adj: tuple[int, ...], w: int, last_rank: dict[int, int], i: int, connected: bool) -> bool:
    """Whether the candidate ``adj``, grown from the parent of rank i, has an
    old vertex u such that the candidate less u lies in the row's class and
    its degree key (``_degree_key`` at width w) belongs only to parents of
    rank below i: ``last_rank`` maps each parent's key to the last rank
    that has it.  The candidate less u lies in the class always for ``all``
    and, for a row with a ``member`` predicate (``connected``), whenever it
    is connected.  A candidate this holds for was grown earlier from
    another parent (see the module docstring).

    The key of the candidate less u is read off the candidate's own key in
    O(deg u): deleting u drops its term and moves each neighbor's term one
    field down."""
    term = [1 << w * a.bit_count() for a in adj]
    key = sum(term)
    drop = [t - (t >> w) for t in term]
    new = len(adj) - 1
    full = (1 << len(adj)) - 1
    for u in range(new):
        k = key - term[u]
        for v in _members(adj[u]):
            k -= drop[v]
        if last_rank.get(k, i) < i:
            rest = full ^ 1 << u
            if not connected or flood(adj, rest, new) == rest:
                return True
    return False


def _graph(adj: tuple[int, ...]) -> Graph:
    """The graph whose vertex v has neighbor bitmask ``adj[v]``, built from
    ``adj`` and the ``_members`` memo rather than a re-validated edge list."""
    return Graph._from_rows(tuple(map(_members, adj)), adj)


@dataclass(frozen=True)
class _Structure:
    """One row of the structure table (see the module docstring).  The
    order in which ``extensions`` yields masks fixes which candidate of a
    class ``representatives`` keeps."""

    cap: int
    member: Optional[Callable[[Graph], bool]]
    extensions: Callable[[Graph], Iterable[int]]


# Row order is the order of the ``packcrit enumerate`` structure flags.
_TABLE = {
    "all": _Structure(8, None, _all_subsets),
    "cactus": _Structure(11, is_cactus, _bridge_paths),
    "tree": _Structure(11, is_tree, _single_vertices),
    "block-graph": _Structure(11, is_block_graph, _single_vertices_and_blocks),
}

STRUCTURES = tuple(_TABLE)

# Each cached level holds its representatives and, beside each, the
# distinct generators of its automorphism group that its certificate search
# found, as tuples: smaller than lists, and the garbage collector stops
# tracking a tuple of ints.  A level is keyed by (structure, order, radius),
# the radius None for the full level.
_Gens = tuple[tuple[int, ...], ...]
_Level = tuple[tuple[Graph, ...], tuple[_Gens, ...]]
_LevelKey = tuple[str, int, Optional[int]]
_REPS_CACHE: dict[_LevelKey, _Level] = {}
# ``_level_metrics`` of the cached levels that a connectivity, radius or
# diameter filter has read, under the same keys.
_METRICS_CACHE: dict[_LevelKey, tuple[_Metrics, ...]] = {}


def representatives(structure: str, n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of the structure at order n,
    sorted by canonical certificate.  Results are cached per process."""
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    _check_cap(structure, n)
    return _level(structure, n)[0]


def _level(structure: str, n: int, radius: Optional[int] = None) -> _Level:
    """``representatives(structure, n)`` and their automorphism generators,
    cached per process; with ``radius`` given, only those of that radius.
    The parents are always the full level n - 1: a radius level is never
    extended (see the module docstring)."""
    key = (structure, n, radius)
    level = _REPS_CACHE.get(key)
    if level is not None:
        return level

    if n == 1:
        level = ((Graph(1),), ((),)) if radius in (None, 0) else ((), ())
    else:
        row = _TABLE[structure]
        parents, parent_gens = _level(structure, n - 1)
        # at most n vertices share a degree, so n.bit_length() bits per
        # field never carry, whatever cap the order was allowed by
        w = n.bit_length()
        last_rank = {_degree_key(parent.adjacency_bits(), w): r for r, parent in enumerate(parents)}
        connected = row.member is not None
        # certificate -> bits and generators of the class's first candidate
        kept: dict[int, tuple[tuple[int, ...], list[list[int]]]] = {}
        for i, (parent, gens) in enumerate(zip(parents, parent_gens)):
            for mask in _orbit_firsts(row.extensions(parent), gens):
                adj = _grow(parent, mask)
                if _earlier_parent(adj, w, last_rank, i, connected):
                    continue
                if radius is not None and not has_radius(_graph(adj), radius):
                    continue
                cert, cand_gens = _search_bits(adj)
                if cert not in kept:
                    kept[cert] = (adj, cand_gens)
        certs = sorted(kept)
        level = (
            tuple(_graph(kept[c][0]) for c in certs),
            tuple(tuple(dict.fromkeys(map(tuple, kept[c][1]))) for c in certs),
        )
    _REPS_CACHE[key] = level
    return level


def _level_metrics(structure: str, n: int, radius: Optional[int] = None) -> tuple[_Metrics, ...]:
    """``_metrics`` of each representative of ``_level(structure, n,
    radius)``, in the same order, computed on the first read and cached per
    process."""
    key = (structure, n, radius)
    metrics = _METRICS_CACHE.get(key)
    if metrics is None:
        metrics = _METRICS_CACHE[key] = tuple(map(_metrics, _level(structure, n, radius)[0]))
    return metrics


def enumerate_graphs(filt: EnumerationFilter) -> Iterator[Graph]:
    """Stream exactly one representative per isomorphism class matching the
    filter, in deterministic (order, canonical certificate) order.  An
    order past the structure's cap raises before anything is yielded.

    A filter with a radius reads its top order from the radius level; every
    lower order is a parent level and is read in full."""
    _check_cap(filt.structure, filt.max_n)
    for n in range(filt.min_n, filt.max_n + 1):
        radius = filt.radius if n == filt.max_n else None
        reps = _level(filt.structure, n, radius)[0]
        if not filt._reads_metrics:
            yield from reps
            continue
        for G, metrics in zip(reps, _level_metrics(filt.structure, n, radius)):
            if filt._accepts(*metrics):
                yield G
