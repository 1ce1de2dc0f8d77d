"""Packing colorings: verification, exact chromatic value, counting bounds.

A k-packing coloring partitions the vertices into classes X_1..X_k where
class X_i only holds vertices pairwise further apart than i.  The exact
solver deepens k and searches with per-class capacity limits (the exact
maximum i-packing sizes) and distance-ball conflict masks for the colors
below the diameter d.  The colors from d on hold one vertex each and are
interchangeable, so the search keeps them as one counter of the high colors
still free and opens them in increasing order.  A connected solve reads no
distance table: the distance-<=i balls are bitmasks grown one distance at a
time (``graphs.grow_balls``), and the first radius at which every ball is
the whole graph is the diameter.  The ball masks and caps of color i are
built only once k reaches i, so colors above the answer never pay for a
maximum independent set, and a k whose caps sum below |V| is skipped.  Inside the
search a node is refused when its colors can no longer hold the uncolored
vertices: a necessary condition for any completion, so the search still
visits the surviving nodes in the same order and finds the same coloring.
A yes/no question (``fits_within``) keeps no coloring, and with at most
one color below the diameter it needs no search either: color 1 holds at
most alpha vertices and every other color one, so the caps decide it.  At
diameter <= 2 that rule reads the value |V| - alpha + 1, and
``Diameter2Edges`` answers it for an edge deletion G - uv that keeps the
diameter off G's own MIS memo (``independence.EdgeAlphas``), with no
graph built.

Twins (vertices with equal open or equal closed neighbourhoods) are
interchangeable, and the search does not color them both ways round: each
vertex's colors start from a floor, the color of the previous member of
its twin class in search order.  This is the twin-group part of the
lex-leader construction (J. Crawford, M. Ginsberg, E. Luks and A. Roy,
"Symmetry-breaking predicates for search problems", KR 1996).  The
unfloored search returns the lexicographically least coloring, in search
order, whose high colors open in increasing order.  If that coloring s had
s(u) > s(v) for twins u before v, then s(v) is a low color (two high
colors open in order), and swapping u and v, an automorphism, would give
a coloring that agrees with s before u and is smaller at u.  So the floors
cut only subtrees that hold no first coloring, and every witness is
unchanged.  The twin classes are read once per graph from the distance-1
balls, and only when a search runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import DisconnectedGraphError, PreconditionError
from .graphs import (
    Edge,
    Graph,
    all_pairs_distances,
    components,
    diameter,
    grow_balls,
    induced_subgraph,
    is_connected,
    twin_classes,
)
from .independence import EdgeAlphas, alpha, mis_size_bits


@dataclass(frozen=True)
class PackingColoring:
    """Vertex -> color map witnessing a k-packing coloring.

    Colors are 1-based; ``k`` is the largest color and is always used by at
    least one vertex.
    """

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if not self.colors:
            raise ValueError("coloring of an empty vertex set")
        if any(not isinstance(c, int) or c < 1 for c in self.colors):
            raise ValueError("colors must be positive integers")
        if self.k != max(self.colors):
            raise ValueError(f"k={self.k} does not match max color {max(self.colors)}")

    @classmethod
    def from_colors(cls, colors) -> "PackingColoring":
        colors = tuple(colors)
        return cls(colors, max(colors) if colors else 0)


class PackingCheck(NamedTuple):
    ok: bool
    violation: Optional[tuple[int, int, int, float]]  # (color, u, v, distance)


class ChiRho(NamedTuple):
    value: int
    witness: PackingColoring


def verify_packing_coloring(G: Graph, coloring: PackingColoring) -> PackingCheck:
    """Check every color class is an i-packing; report the first violation.

    Unreachable pairs never conflict, so classes may span components.
    """
    if len(coloring.colors) != G.n:
        raise ValueError(f"coloring length {len(coloring.colors)} != vertex count {G.n}")
    if any(c < 1 for c in coloring.colors):
        raise ValueError("colors must be positive")
    dm = all_pairs_distances(G)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(coloring.colors):
        classes.setdefault(c, []).append(v)
    for i, members in sorted(classes.items()):
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                u, v = members[a], members[b]
                if dm[u, v] <= i:
                    return PackingCheck(False, (i, u, v, dm[u, v]))
    return PackingCheck(True, None)


def _open(balls: list[int]) -> list[int]:
    """Per-vertex bitmask of the other vertices in its closed ball."""
    return [b ^ (1 << v) for v, b in enumerate(balls)]


def max_i_packing(G: Graph, i: int) -> int:
    """Exact maximum size of an i-packing (alpha of the i-th distance power)."""
    if G.n < 1:
        raise PreconditionError("i-packing size undefined on the empty graph")
    if i < 1:
        raise ValueError(f"packing index must be positive, got {i}")
    balls = [1 << v for v in range(G.n)]
    for _ in range(min(i, G.n - 1)):  # no ball grows past n - 1 steps
        balls = grow_balls(G, balls)
    return mis_size_bits(_open(balls), (1 << G.n) - 1)


class _ClassCaps:
    """Ball masks and exact class caps of a connected graph's colors, grown
    one distance at a time and only as far as they are asked for.

    The closed balls of radius i are those of radius i - 1 joined with the
    neighbours' ones; the first radius at which every ball holds the whole
    graph is the diameter d.  ``masks[i]`` holds the distance-<=i balls
    (without the centre) and ``caps[i]`` the exact maximum i-packing size of
    color i, for each i built so far below d; index 0 is an empty
    placeholder.
    """

    def __init__(self, G: Graph):
        self.full = (1 << G.n) - 1
        self._G = G
        self._balls = [1 << v for v in range(G.n)]  # radius len(masks) - 1
        self._d: Optional[int] = 0 if G.n == 1 else None
        self.masks: list[list[int]] = [[0] * G.n]
        self.caps = [0]

    @cached_property
    def plan(self) -> tuple[list[int], list[int]]:
        """The search order, non-increasing degree with ties in vertex
        order, and each vertex's previous twin in that order
        (``graphs.twin_classes``; n for the first of its class).  Read once
        per graph, when a search first asks, from the distance-1 balls
        ``masks[1]``, which are the adjacency bitmasks, so color 1 must be
        built (or the diameter found) first.  Twins share a degree, so a
        class is searched in vertex order.  Below diameter 2 the graph is
        complete and no vertex gets a twin: every color is then high, and
        the high colors already open in order."""
        n = len(self.masks[0])
        if len(self.masks) == 1:
            return list(range(n)), [n] * n
        adj = self.masks[1]
        order = sorted(range(n), key=[-a.bit_count() for a in adj].__getitem__)
        last = [n] * n
        prev = []
        for v, c in enumerate(twin_classes(adj)):
            prev.append(last[c])
            last[c] = v
        return order, prev

    @property
    def d(self) -> int:
        """The diameter; finding it builds every color below it."""
        while self._d is None:
            self.capacity(len(self.masks))
        return self._d

    def capacity(self, k: int) -> int:
        """Build the colors up to min(k, d - 1) and return how many vertices
        colors 1..k hold at most: their exact caps below the diameter, one
        each from it on."""
        while self._d is None and len(self.masks) <= k:
            balls = grow_balls(self._G, self._balls)
            if all(b == self.full for b in balls):
                self._d = len(self.masks)
                break
            self._balls = balls
            self.masks.append(_open(balls))
            self.caps.append(mis_size_bits(self.masks[-1], self.full))
        return sum(self.caps[: k + 1]) + max(0, k + 1 - len(self.caps))

    def fits(self, k: int) -> bool:
        """Whether the graph has a k-packing coloring.  With at most one low
        color, top = min(k, d - 1) <= 1, color 1 holds an independent set of
        at most caps[1] = alpha vertices and every other color one vertex,
        so the caps decide it; otherwise the search does."""
        if self.capacity(k) < self._G.n:
            return False
        return min(k, len(self.masks) - 1) <= 1 or _search_k(self, k) is not None


def chi_rho_lower_bound(G: Graph) -> int:
    """Counting bound: classes below the diameter are capped by the exact
    i-packing maxima and every further class is a singleton."""
    if G.n == 0 or not is_connected(G):
        raise DisconnectedGraphError("lower bound requires a connected, non-empty graph")
    classes = _ClassCaps(G)
    d = classes.d
    return max(1, G.n - classes.capacity(d - 1) + d - 1)


def diam2_formula(G: Graph) -> int:
    """|V| - alpha + 1, the exact packing chromatic number at diameter two."""
    if G.n == 0 or not is_connected(G):
        raise DisconnectedGraphError("formula requires a connected graph")
    if diameter(G) != 2:
        raise PreconditionError("formula applies only at diameter 2")
    return G.n - alpha(G) + 1


class Diameter2Edges:
    """A graph G of diameter <= 2: its value and the edge deletions that
    keep the diameter, read off G's bitmasks and one MIS memo.

    At diameter <= 2 ``_ClassCaps.fits`` is decided by the caps: k colors
    fit exactly when alpha + k - 1 >= |V|, so the value is |V| - alpha + 1.
    A path of length <= 2 between x and y uses the edge uv only when x or
    y is u or v, so G - uv keeps diameter <= 2 exactly when the closed
    2-balls of u and v in G - uv are the whole graph, and the same rule
    then decides it with alpha(G - uv) from ``EdgeAlphas``.
    """

    def __init__(self, G: Graph, closed: list[int]):
        self._G = G
        self._closed = closed
        self._full = (1 << G.n) - 1
        self._alphas = EdgeAlphas(G)
        self.value = G.n - self._alphas.alpha + 1

    @classmethod
    def of(cls, G: Graph) -> Optional[Diameter2Edges]:
        """The deciders of G's edge deletions, or None unless G (of order at
        least two) has diameter <= 2: its closed 2-balls are all full.  The
        test stops at the first vertex whose 2-ball is not."""
        closed = [b | 1 << v for v, b in enumerate(G.adjacency_bits())]
        full = (1 << G.n) - 1
        for v, ball in enumerate(closed):
            for w in G.neighbors(v):
                ball |= closed[w]
            if ball != full:
                return None
        return cls(G, closed)

    def _ball2_full(self, u: int, v: int) -> bool:
        """Whether u's closed 2-ball in G - uv is the whole graph."""
        ball = self._closed[u] ^ 1 << v
        for w in self._G.neighbors(u):
            if w != v:
                ball |= self._closed[w]
        return ball == self._full

    def fits(self, e: Edge, k: int) -> Optional[bool]:
        """Whether G - e fits within k colors, or None when G - e has
        diameter above 2."""
        u, v = e
        if not (self._ball2_full(u, v) and self._ball2_full(v, u)):
            return None
        return self._alphas.without(e) + k - 1 >= self._G.n


def _search_k(classes: _ClassCaps, k: int) -> Optional[list[int]]:
    """Find a k-packing coloring of the connected graph ``classes`` was
    built from, or prove none exists.

    ``classes.capacity(k)`` has built every color below min(k + 1, d) for
    the diameter d, so ``len(masks)`` is d whenever k >= d - 1.  Vertices
    are assigned in non-increasing degree order.  The low colors 1..top,
    top = min(k, d - 1), check the distance-<=i ball mask and the exact
    class-size cap.  The high colors d..k hold one vertex each and are
    interchangeable, so they are one counter, ``free_high``: they open in
    increasing order, the used ones are d..k - free_high, and after the
    low colors a vertex tries only the next one, k + 1 - free_high.  That
    is the smallest empty high color, the one a search over every color
    would try among them; a floor that is a high color is a used one, so
    it never skips that color.

    Each low color keeps ``blocked[i]``, its members and every vertex
    within distance i of one, so the colors can bound what they still hold.
    A node refuses before it branches when its colors cannot hold the
    uncolored vertices U:

    - room: the free high colors plus, over the low colors with room left,
      min(cap_i - cnt_i, |U minus blocked[i]|) is below |U|; or
    - dead vertices: more vertices of U than free high colors are blocked in
      every low color with room left, so each needs a high color of its own.

    Both are necessary for any completion, so a refused node has no
    coloring below it; the surviving nodes are visited in the same order,
    and the first coloring found is the one the unpruned search finds.

    Each vertex tries colors from its floor: the color of the previous
    member of its twin class in search order (``_ClassCaps.plan``), or 1
    for the first member.  For twins u before v the transposition (u v) is
    an automorphism, so a coloring s with s(u) > s(v) has a smaller image:
    s(v) is low (two high colors open in order), and the image agrees with
    s before u and takes the low s(v) at u.  The first coloring the
    unfloored search finds therefore meets every floor, and a node below a
    floor holds no coloring the search would return first.

    The search recurses once per vertex; a component too large for the
    interpreter's recursion limit raises PreconditionError.
    """
    masks, caps = classes.masks, classes.caps
    n = len(masks[0])
    d = len(masks)
    top = min(k, d - 1)
    low = tuple(range(1, top + 1))
    order, prev = classes.plan
    colors = [0] * n + [1]  # colors[n] = 1: the floor of a vertex with no earlier twin
    class_cnt = [0] * (top + 1)
    blocked = [0] * (top + 1)

    def dfs(pos: int, uncolored: int, free_high: int) -> bool:
        if pos == n:
            return True
        room = free_high
        reach = 0
        for i in low:
            spare = caps[i] - class_cnt[i]
            if spare:
                open_i = uncolored & ~blocked[i]
                reach |= open_i
                fits = open_i.bit_count()
                room += spare if spare < fits else fits
        if room < n - pos or (uncolored & ~reach).bit_count() > free_high:
            return False
        v = order[pos]
        vb = 1 << v
        rest = uncolored ^ vb
        for i in range(colors[prev[v]], top + 1):
            if class_cnt[i] >= caps[i] or blocked[i] & vb:
                continue
            before = blocked[i]
            colors[v] = i
            blocked[i] |= masks[i][v] | vb
            class_cnt[i] += 1
            if dfs(pos + 1, rest, free_high):
                return True
            blocked[i] = before
            class_cnt[i] -= 1
        if free_high:
            colors[v] = k + 1 - free_high
            return dfs(pos + 1, rest, free_high - 1)
        return False

    try:
        found = dfs(0, (1 << n) - 1, max(0, k - d + 1))
    except RecursionError:
        raise PreconditionError(f"component of order {n} is too deep for the recursive packing search") from None
    return colors[:n] if found else None


def _first_coloring(G: Graph, ks: Iterable[int]) -> Optional[list[int]]:
    """The coloring of connected G that the search finds at the first k in
    ``ks`` it succeeds at, or None.  A k whose colors hold fewer than |V|
    vertices is refused unsearched; that is never weaker than the counting
    bound, since each color below the diameter that is not built holds at
    least one vertex.  Over k = 1, 2, ... the coloring is optimal: its
    largest color is the value, since the search at every smaller k
    failed."""
    if G.n == 1:
        return [1] if any(k >= 1 for k in ks) else None
    classes = _ClassCaps(G)
    for k in ks:
        if classes.capacity(k) >= G.n:
            found = _search_k(classes, k)
            if found is not None:
                return found
    return None


def _components(G: Graph) -> Iterator[tuple[Graph, Optional[dict[int, int]]]]:
    """Each component of non-empty G with its old -> new labels, or G itself
    with None when it is connected."""
    if G.n == 0:
        raise PreconditionError("packing chromatic number undefined on the empty graph")
    comps = components(G)
    if len(comps) == 1:
        yield G, None
        return
    for comp in comps:
        yield induced_subgraph(G, comp)


def _by_component(G: Graph, ks: Iterable[int]) -> Optional[list[int]]:
    """``_first_coloring(component, ks)`` on each component of non-empty G,
    merged; None as soon as one component has none.  ``ks`` is iterated
    once per component."""
    merged = [0] * G.n
    for sub, relabel in _components(G):
        cols = _first_coloring(sub, ks)
        if cols is None or relabel is None:
            return cols
        for old, new in relabel.items():
            merged[old] = cols[new]
    return merged


def packs_within(G: Graph, k: int) -> Optional[list[int]]:
    """A packing coloring of non-empty G with colors in 1..k, or None when
    none exists.

    Decides ``chi_rho(G) <= k`` with one bounded search per component,
    skipped when the component's caps of colors 1..k sum below its order.
    """
    return _by_component(G, (k,))


def fits_within(G: Graph, k: int) -> bool:
    """Whether non-empty G has a packing coloring with colors in 1..k:
    ``packs_within(G, k) is not None``, with no coloring kept and no search
    where a component's caps decide it (``_ClassCaps.fits``)."""
    return all(_ClassCaps(sub).fits(k) for sub, _ in _components(G))


def chi_rho(G: Graph) -> ChiRho:
    """Exact packing chromatic number with a verifying witness coloring.

    On disconnected input the value is the maximum over components; the
    witness colors each component optimally and classes merge freely across
    components (cross-component distances are unbounded).
    """
    coloring = PackingColoring.from_colors(_by_component(G, range(1, G.n + 1)))
    return ChiRho(coloring.k, coloring)
