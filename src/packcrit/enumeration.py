"""Isomorph-free generation of small graphs, trees, cacti, and block graphs.

Each structure class is one row of ``_TABLE``: its default size cap, the
class predicate ``EnumerationFilter.matches`` applies, the neighbor subsets
a new vertex may take when it extends a parent, and whether a grown
candidate must be re-tested against the predicate.  The subsets are
arbitrary in general and a single neighbor for trees.  For cacti they are a
single neighbor, or two neighbors joined by a path of bridges: deleting a
non-cut vertex of a leaf block always leaves a cactus, and a new vertex on
u and v closes a cycle through every block between them, so the result is
a cactus exactly when those blocks are all bridges.  Block graphs take
clique-cluster subsets.  Only block-graph candidates are re-tested; a leaf
added to a tree is a tree, the cactus subsets grow only cacti, and every
graph is in ``all``.  Representatives at each order extend the previous
order's representatives by those subsets.  Candidates deduplicate by
canonical certificate, keeping the first candidate of each class, and each
level is emitted sorted by that certificate, so the stream is
deterministic.  ``iso`` stays out of this path: it is the independent
oracle the tests check the certificates against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import CapExceededError
from .graphs import (
    Graph,
    bridges,
    components,
    eccentricities,
    is_block_graph,
    is_cactus,
    is_connected,
    is_tree,
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

    def matches(self, g: Graph) -> bool:
        """Whether ``g`` lies in the filtered class: order range, structure,
        and the connectivity / radius / diameter constraints."""
        if not self.min_n <= g.n <= self.max_n:
            return False
        member = _TABLE[self.structure].member
        if member is not None and not member(g):
            return False
        return self._metrics_match(g)

    def _metrics_match(self, g: Graph) -> bool:
        wants_metrics = self.radius is not None or self.diameter is not None
        if self.connected is None and not wants_metrics:
            return True
        if not is_connected(g):
            return self.connected is False and not wants_metrics
        if self.connected is False:
            return False
        if not wants_metrics:
            return True
        eccs = eccentricities(g)
        return self.radius in (None, min(eccs)) and self.diameter in (None, max(eccs))


# -- canonical certificates ---------------------------------------------------


def _refine(nbrs: tuple[tuple[int, ...], ...], colors: list[int]) -> list[int]:
    """Refine a dense coloring (colors 0..k-1) until it is equitable.

    Each round walks the cells in color order.  A singleton cell takes the
    next color as it is; a larger cell splits by the sorted colors of its
    members' neighbors, in increasing order of that key.  The colors stay
    dense and ordered, so the rounds stop at the first one that splits no
    cell."""
    n = len(colors)
    while True:
        cells: list[list[int]] = [[] for _ in range(n)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        new = [0] * n
        nxt = 0
        split = False
        color_of = colors.__getitem__
        for cell in cells:
            if not cell:
                break
            if len(cell) == 1:
                new[cell[0]] = nxt
                nxt += 1
                continue
            keyed = sorted([(tuple(sorted(map(color_of, nbrs[v]))), v) for v in cell])
            prev = keyed[0][0]
            for sig, v in keyed:
                if sig != prev:
                    prev = sig
                    nxt += 1
                    split = True
                new[v] = nxt
            nxt += 1
        if not split:
            return new
        colors = new


def canonical_cert(G: Graph) -> tuple[int, int]:
    """Canonical certificate (order, packed adjacency bits): equal exactly
    for isomorphic graphs.

    Individualization-refinement search: refine the all-equal coloring to a
    stable partition, split the first non-singleton cell on every member,
    and keep the minimum adjacency encoding over the discrete leaves.
    """
    n = G.n
    if n <= 1:
        return (n, 0)
    nbrs = tuple(G.neighbors(v) for v in range(n))
    adj = G.adjacency_bits()
    best: Optional[int] = None

    def leaf_bits(colors: list[int]) -> int:
        inv = [0] * n
        for v, c in enumerate(colors):
            inv[c] = v
        bits = 0
        for p in range(n):
            ap = adj[inv[p]]
            for q in range(p + 1, n):
                bits = (bits << 1) | ((ap >> inv[q]) & 1)
        return bits

    def search(colors: list[int]):
        nonlocal best
        if max(colors) == n - 1:
            cert = leaf_bits(colors)
            if best is None or cert < best:
                best = cert
            return
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        cell_color = min(c for c, k in counts.items() if k >= 2)
        cell = [v for v in range(n) if colors[v] == cell_color]
        # Twin vertices (equal open or closed neighborhoods) are swapped by
        # an automorphism, so one branch per twin class suffices.
        seen_twin_keys: set[tuple] = set()
        for v in cell:
            kf = ("f", adj[v])
            kt = ("t", adj[v] | (1 << v))
            if kf in seen_twin_keys or kt in seen_twin_keys:
                continue
            seen_twin_keys.add(kf)
            seen_twin_keys.add(kt)
            # v alone keeps the cell's color; the rest of the cell and every
            # later cell move up one, so the coloring stays dense
            search(_refine(nbrs, [c + (c > cell_color or (c == cell_color and u != v))
                                  for u, c in enumerate(colors)]))

    search(_refine(nbrs, [0] * n))
    assert best is not None
    return (n, best)


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


def _cluster_subsets(parent: Graph) -> Iterator[int]:
    """Subsets whose induced subgraph is a disjoint union of cliques (the
    only neighborhoods a new block-graph vertex can take)."""
    n = parent.n
    bits = parent.adjacency_bits()
    for mask in range(1 << n):
        ok = True
        rem = mask
        while rem and ok:
            b = rem & -rem
            v = b.bit_length() - 1
            comp = 0
            stack = [v]
            while stack:
                x = stack.pop()
                xb = 1 << x
                if comp & xb:
                    continue
                comp |= xb
                nxt = bits[x] & mask & ~comp
                while nxt:
                    nb = nxt & -nxt
                    stack.append(nb.bit_length() - 1)
                    nxt ^= nb
            cnt = comp.bit_count()
            m = comp
            while m and ok:
                vb = m & -m
                u = vb.bit_length() - 1
                m ^= vb
                if (bits[u] & comp).bit_count() != cnt - 1:
                    ok = False
            rem &= ~comp
        if ok:
            yield mask


def _grow(parent: Graph, mask: int) -> Graph:
    n = parent.n
    edges = parent.edges()
    m = mask
    while m:
        b = m & -m
        edges.append((b.bit_length() - 1, n))
        m ^= b
    return Graph(n + 1, edges)


@dataclass(frozen=True)
class _Structure:
    """One row of the structure table (see the module docstring).  The
    order in which ``extensions`` yields masks fixes which candidate of a
    class ``representatives`` keeps."""

    cap: int
    member: Optional[Callable[[Graph], bool]]
    extensions: Callable[[Graph], Iterable[int]]
    retest: bool


# Row order is the order of the ``packcrit enumerate`` structure flags.
_TABLE = {
    "all": _Structure(8, None, _all_subsets, False),
    "cactus": _Structure(11, is_cactus, _bridge_paths, False),
    "tree": _Structure(11, is_tree, _single_vertices, False),
    "block-graph": _Structure(11, is_block_graph, _cluster_subsets, True),
}

STRUCTURES = tuple(_TABLE)

_REPS_CACHE: dict[tuple[str, int], tuple[Graph, ...]] = {}


def representatives(structure: str, n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of the structure at order n,
    sorted by canonical certificate.  Results are cached per process."""
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    _check_cap(structure, n)
    key = (structure, n)
    cached = _REPS_CACHE.get(key)
    if cached is not None:
        return cached

    if n == 1:
        reps = (Graph(1),)
    else:
        row = _TABLE[structure]
        kept: dict[tuple[int, int], Graph] = {}
        for parent in representatives(structure, n - 1):
            for mask in row.extensions(parent):
                cand = _grow(parent, mask)
                if row.retest and not row.member(cand):
                    continue
                kept.setdefault(canonical_cert(cand), cand)
        reps = tuple(kept[cert] for cert in sorted(kept))
    _REPS_CACHE[key] = reps
    return reps


def enumerate_graphs(filt: EnumerationFilter) -> Iterator[Graph]:
    """Stream exactly one representative per isomorphism class matching the
    filter, in deterministic (order, canonical certificate) order."""
    for n in range(filt.min_n, filt.max_n + 1):
        for G in representatives(filt.structure, n):
            if filt._metrics_match(G):
                yield G


def cacti_by_block_attachment(max_n: int) -> list[Graph]:
    """Second, independent cactus generator: grow block trees by attaching a
    fresh K2 or cycle block at an existing vertex.  Used to cross-check the
    augmentation lattice on overlapping ranges."""
    _check_cap("cactus", max_n)
    seen: dict[tuple[int, int], Graph] = {}
    frontier: list[Graph] = [Graph(1)]
    seen[canonical_cert(Graph(1))] = Graph(1)
    while frontier:
        nxt: list[Graph] = []
        for G in frontier:
            for anchor in range(G.n):
                # pendant edge
                sizes = [2]
                # new cycle blocks C_len using len-1 fresh vertices
                sizes.extend(range(3, max_n - G.n + 2))
                for blk in sizes:
                    fresh = blk - 1
                    if G.n + fresh > max_n:
                        continue
                    edges = G.edges()
                    ring = [anchor] + [G.n + i for i in range(fresh)]
                    if blk == 2:
                        edges.append((ring[0], ring[1]))
                    else:
                        edges.extend(
                            (ring[i], ring[(i + 1) % blk]) for i in range(blk)
                        )
                    cand = Graph(G.n + fresh, edges)
                    cert = canonical_cert(cand)
                    if cert not in seen:
                        seen[cert] = cand
                        nxt.append(cand)
        frontier = nxt
    return [seen[cert] for cert in sorted(seen)]
