"""Immutable simple-graph core: construction, metrics, and block structure.

Vertices are dense integers ``0..n-1``.  All operations are pure functions;
``Graph`` and ``DistanceMatrix`` never mutate after construction.  A
``Graph`` is its sorted neighbour rows; its bitmasks are built on first use
unless they came with the rows.  ``Graph(n, edges)`` validates an edge list,
and every graph derived from another (edge and vertex deletions, induced
subgraphs, enumeration's representatives) is built from rows through
``Graph._from_rows``, so no other module touches the storage.  Distance
metrics grow closed-ball bitmasks one distance at a time (``grow_balls``),
as the packing solver does; ``all_pairs_distances`` is a separate BFS table
for the checks that must not share that route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import DisconnectedGraphError, GraphInputError

Edge = tuple[int, int]

#: Marker for pairs with no connecting path.  Strictly greater than every
#: finite distance, so packing-feasibility comparisons work unchanged.
UNREACHABLE = float("inf")


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


class Graph:
    """Finite simple undirected graph on the vertex set ``{0, ..., n-1}``,
    stored as its sorted neighbour rows; the neighbour bitmasks are built
    from them on first use.

    Equality and hashing are by exact labeled structure (the rows, whose
    count is the vertex count), not by isomorphism.  Duplicate edges in the
    input collapse; self-loops and out-of-range endpoints are rejected.
    """

    __slots__ = ("n", "_adj", "_bits")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise GraphInputError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for pair in edges:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge {pair!r}: endpoint out of range for n={n}")
            if u == v:
                raise GraphInputError(f"edge {pair!r}: self-loop")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        self._bits: Optional[tuple[int, ...]] = None

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...], bits: Optional[tuple[int, ...]] = None) -> Graph:
        """The graph with sorted neighbour rows ``rows`` (and, if given, the
        matching bitmasks ``bits``), taken as they are: the route for graphs
        derived from another, whose rows are valid by construction."""
        G = cls.__new__(cls)
        G.n = len(rows)
        G._adj = rows
        G._bits = bits
        return G

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, w) for u, nbrs in enumerate(self._adj) for w in nbrs if u < w]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def vertices(self) -> range:
        return range(self.n)

    def adjacency_bits(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmask; cached on first use."""
        if self._bits is None:
            self._bits = tuple(sum(1 << w for w in nbrs) for nbrs in self._adj)
        return self._bits

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def build_graph(n: int, edges: Iterable[Edge] = ()) -> Graph:
    """Construct a graph, validating endpoints and rejecting self-loops."""
    return Graph(n, edges)


class DistanceMatrix:
    """All-pairs shortest-path distances; ``UNREACHABLE`` across components."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: tuple[tuple[float, ...], ...]):
        self.n = len(rows)
        self.rows = rows

    def __getitem__(self, uv: Edge) -> float:
        u, v = uv
        return self.rows[u][v]

    def is_reachable(self, u: int, v: int) -> bool:
        return self.rows[u][v] != UNREACHABLE


def _bfs_row(G: Graph, src: int) -> tuple[float, ...]:
    dist: list[float] = [UNREACHABLE] * G.n
    dist[src] = 0
    q = deque([src])
    while q:
        v = q.popleft()
        dv = dist[v]
        for w in G.neighbors(v):
            if dist[w] == UNREACHABLE:
                dist[w] = dv + 1
                q.append(w)
    return tuple(dist)


def all_pairs_distances(G: Graph) -> DistanceMatrix:
    """BFS-exact distances for every vertex pair."""
    return DistanceMatrix(tuple(_bfs_row(G, v) for v in range(G.n)))


# -- metrics ---------------------------------------------------------------


def grow_balls(G: Graph, balls: list[int]) -> list[int]:
    """G's closed balls one step wider: each ball joined with its neighbours'."""
    grown = []
    for b, vn in zip(balls, G._adj):
        for w in vn:
            b |= balls[w]
        grown.append(b)
    return grown


def eccentricities(G: Graph) -> tuple[int, ...]:
    """Eccentricity of every vertex of a connected, non-empty graph: the
    first radius at which its closed ball (``grow_balls``) is full.  A round
    that grows no ball while one is not full means G is disconnected."""
    if G.n == 0:
        raise DisconnectedGraphError("metric undefined on the empty graph")
    full = (1 << G.n) - 1
    balls = [1 << v for v in range(G.n)]
    eccs = [0] * G.n
    while balls.count(full) < G.n:
        grown = grow_balls(G, balls)
        if grown == balls:
            raise DisconnectedGraphError("metric undefined: graph is disconnected")
        for v, b in enumerate(balls):
            if b != full:
                eccs[v] += 1
        balls = grown
    return tuple(eccs)


def radius(G: Graph) -> int:
    return min(eccentricities(G))


def has_radius(G: Graph, r: int) -> bool:
    """Whether G is connected, non-empty and of radius ``r``: no closed ball
    (``grow_balls``) is full after r - 1 rounds and one is after r.  It
    grows at most r rounds; no ball of a disconnected or empty graph is
    ever full, so it is False there."""
    full = (1 << G.n) - 1
    balls = [1 << v for v in range(G.n)]
    for _ in range(r):
        if full in balls:
            return False
        balls = grow_balls(G, balls)
    return full in balls


def diameter(G: Graph) -> int:
    return max(eccentricities(G))


def center(G: Graph) -> frozenset[int]:
    """Vertices of minimum eccentricity."""
    eccs = eccentricities(G)
    rad = min(eccs)
    return frozenset(v for v in range(G.n) if eccs[v] == rad)


# -- twins -----------------------------------------------------------------


def twin_classes(adj: Sequence[int]) -> list[int]:
    """Each vertex's twin class, named by its first member, from the
    adjacency bitmasks: twins have equal open or equal closed neighborhoods.

    An open neighborhood never equals a closed one: the closed one of v
    holds v, so it could only be the open one of a neighbor u of v, which
    lacks u.  And no vertex has both an open twin and a closed twin: a
    closed twin w of v is a neighbor of v, so it is adjacent to an open
    twin u of v as well, which puts u in N[w] = N[v], though open twins are
    never adjacent.  So both kinds of key share one dict, and the classes
    partition the vertices; transposing two members of a class is an
    automorphism."""
    first: dict[int, int] = {}
    classes = []
    for v, a in enumerate(adj):
        c = first.get(a)
        if c is None:
            b = a | (1 << v)
            c = first.get(b)
            if c is None:
                c = first[a] = first[b] = v
        classes.append(c)
    return classes


# -- deletions -------------------------------------------------------------


def delete_edge(G: Graph, e: Edge) -> Graph:
    """G without the edge ``e``: G's rows with the two ends dropped from
    each other's, built through ``Graph._from_rows``.  The bitmasks are
    built only if read."""
    u, v = _norm(*e)
    if not G.has_edge(u, v):
        raise GraphInputError(f"edge {(u, v)!r} not in graph")
    adj = list(G._adj)
    adj[u] = tuple(w for w in adj[u] if w != v)
    adj[v] = tuple(w for w in adj[v] if w != u)
    return Graph._from_rows(tuple(adj))


def delete_vertex(G: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    """Remove ``v`` and relabel the remaining vertices to ``0..n-2``.

    Returns the new graph together with the old->new relabeling map.
    """
    if not (0 <= v < G.n):
        raise GraphInputError(f"vertex {v} not in graph")
    return induced_subgraph(G, (u for u in range(G.n) if u != v))


def induced_subgraph(G: Graph, vs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``vs``, relabeled densely; returns old->new map.
    The kept rows are relabeled in place: relabeling keeps their order."""
    keep = sorted(set(vs))
    if keep and not (0 <= keep[0] and keep[-1] < G.n):
        raise GraphInputError(f"vertex set not within 0..{G.n - 1}")
    relabel = {u: i for i, u in enumerate(keep)}
    rows = tuple(tuple(relabel[w] for w in G._adj[u] if w in relabel) for u in keep)
    return Graph._from_rows(rows), relabel


# -- connectivity ----------------------------------------------------------


def components(G: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by smallest member.  Empty graph: []."""
    seen = [False] * G.n
    out = []
    for s in range(G.n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in G.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def flood(bits: Sequence[int], mask: int, v: int) -> int:
    """The connected component of ``v`` within ``mask``, as a bitmask, for
    the graph whose per-vertex neighbour bitmasks are ``bits``.  Each round
    expands the whole frontier, until none is left or the component is all
    of ``mask``."""
    frontier = bits[v] & mask
    comp = frontier | (1 << v)
    while frontier and comp != mask:
        reach = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            reach |= bits[b.bit_length() - 1]
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp


def is_connected(G: Graph) -> bool:
    """True when the graph has at most one component (vacuously for n=0):
    a flood over the adjacency bitmasks from vertex 0 reaches every vertex."""
    if G.n <= 1:
        return True
    full = (1 << G.n) - 1
    return flood(G.adjacency_bits(), full, 0) == full


# -- articulation structure -------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A maximal subgraph without a cut vertex, as a vertex set plus its
    induced edges.  Isolated vertices form edgeless singleton blocks."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def is_k2(self) -> bool:
        return len(self.vertices) == 2 and len(self.edges) == 1

    @property
    def is_cycle(self) -> bool:
        return len(self.vertices) >= 3 and len(self.edges) == len(self.vertices)

    @property
    def is_complete(self) -> bool:
        k = len(self.vertices)
        return len(self.edges) == k * (k - 1) // 2


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks and cut vertices; every edge of the graph lies in exactly one
    block."""

    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]


def _edge_blocks(G: Graph) -> list[list[Edge]]:
    """The edge lists of the blocks that contain an edge, over all components.

    Lowlink DFS with an edge stack (Hopcroft and Tarjan), started from every
    unvisited vertex: when a child subtree cannot reach above its attachment
    point, the edges pushed since the tree edge to that child form one
    block.  Isolated vertices lie in none of the returned blocks.
    """
    n = G.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    pushed_at = [0] * n  # estack position of the tree edge into each vertex
    estack: list[Edge] = []
    blocks: list[list[Edge]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, iter(G.neighbors(root)))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    parent[w] = v
                    pushed_at[w] = len(estack)
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(G.neighbors(w))))
                    advanced = True
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        blocks.append(estack[pushed_at[v]:])
                        del estack[pushed_at[v]:]
    return blocks


def _shared_vertices(vertex_sets: Iterable[frozenset[int]]) -> frozenset[int]:
    """Vertices lying in two or more of the blocks: the cut vertices."""
    seen: set[int] = set()
    shared: set[int] = set()
    for vs in vertex_sets:
        shared |= seen & vs
        seen |= vs
    return frozenset(shared)


def cut_vertices(G: Graph) -> frozenset[int]:
    """Articulation points (over all components)."""
    return _shared_vertices(frozenset(chain.from_iterable(blk)) for blk in _edge_blocks(G))


def bridges(G: Graph) -> frozenset[Edge]:
    """Cut edges (over all components): the edges of the one-edge blocks."""
    return frozenset(_norm(*blk[0]) for blk in _edge_blocks(G) if len(blk) == 1)


def block_decomposition(G: Graph) -> BlockDecomposition:
    """Decompose a connected graph into its blocks, ordered by sorted vertex
    list."""
    if G.n == 0 or not is_connected(G):
        raise DisconnectedGraphError("block decomposition requires a connected, non-empty graph")
    if G.n == 1:
        return BlockDecomposition((Block(frozenset({0}), frozenset()),), frozenset())
    blocks = sorted(
        (Block(frozenset(chain.from_iterable(blk)), frozenset(_norm(*e) for e in blk)) for blk in _edge_blocks(G)),
        key=lambda b: sorted(b.vertices),
    )
    return BlockDecomposition(tuple(blocks), _shared_vertices(b.vertices for b in blocks))


# -- structural predicates ---------------------------------------------------


def is_tree(G: Graph) -> bool:
    """Connected and acyclic (the one-vertex graph counts)."""
    return G.n >= 1 and G.edge_count == G.n - 1 and is_connected(G)


def _every_block(G: Graph, ok) -> bool:
    """Connected, non-empty, and every block satisfies ``ok``.  K1 always
    qualifies: its only block is an edgeless singleton."""
    if G.n == 1:
        return True
    try:
        blocks = block_decomposition(G).blocks
    except DisconnectedGraphError:
        return False
    return all(ok(b) for b in blocks)


def is_cactus(G: Graph) -> bool:
    """Connected with every block a cycle or a K2.  Trees qualify."""
    return _every_block(G, lambda b: b.is_k2 or b.is_cycle)


def is_block_graph(G: Graph) -> bool:
    """Connected with every block complete."""
    return _every_block(G, lambda b: b.is_complete)


def universal_vertices(G: Graph) -> frozenset[int]:
    """Vertices adjacent to every other vertex."""
    return frozenset(v for v in range(G.n) if G.degree(v) == G.n - 1 and G.n >= 2)


def leaves(G: Graph) -> frozenset[int]:
    """Vertices of degree exactly one."""
    return frozenset(v for v in range(G.n) if G.degree(v) == 1)
