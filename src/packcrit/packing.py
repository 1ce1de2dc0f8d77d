"""Packing colorings: verification, exact chromatic value, counting bounds.

A k-packing coloring partitions the vertices into classes X_1..X_k where
class X_i only holds vertices pairwise further apart than i.  The exact
solver deepens k starting from a counting lower bound and searches with
per-class capacity limits (the exact maximum i-packing sizes), distance-ball
conflict masks, and interchangeable-high-color symmetry breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, NamedTuple, Optional

from .errors import DisconnectedGraphError, PreconditionError
from .graphs import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    components,
    diameter,
    induced_subgraph,
    is_connected,
)
from .independence import alpha, mis_size_bits


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


def _ball_masks(dm: DistanceMatrix, i: int) -> list[int]:
    """Per-vertex bitmask of the other vertices within distance ``i``."""
    return [sum(1 << u for u, duv in enumerate(row) if u != v and duv <= i) for v, row in enumerate(dm.rows)]


def max_i_packing(G: Graph, i: int) -> int:
    """Exact maximum size of an i-packing (alpha of the i-th distance power)."""
    if G.n < 1:
        raise PreconditionError("i-packing size undefined on the empty graph")
    if i < 1:
        raise ValueError(f"packing index must be positive, got {i}")
    return mis_size_bits(_ball_masks(all_pairs_distances(G), i), (1 << G.n) - 1)


def _packing_bounds(G: Graph) -> tuple[int, list[list[int]], list[int]]:
    """Counting bound, ball masks and class caps of a connected graph, all
    read from one distance table.

    ``masks[i]`` holds the distance-<=i balls and ``caps[i]`` the exact
    maximum i-packing size of each color i below the diameter d; index 0 is
    an empty placeholder, so ``len(masks) == d``.
    """
    dm = all_pairs_distances(G)
    d = max(max(row) for row in dm.rows)
    full = (1 << G.n) - 1
    masks = [_ball_masks(dm, i) if i else [0] * G.n for i in range(d)]
    caps = [0] + [mis_size_bits(m, full) for m in masks[1:]]
    return max(1, G.n - sum(caps) + d - 1), masks, caps


def chi_rho_lower_bound(G: Graph) -> int:
    """Counting bound: classes below the diameter are capped by the exact
    i-packing maxima and every further class is a singleton."""
    if G.n == 0 or not is_connected(G):
        raise DisconnectedGraphError("lower bound requires a connected, non-empty graph")
    return _packing_bounds(G)[0]


def diam2_formula(G: Graph) -> int:
    """|V| - alpha + 1, the exact packing chromatic number at diameter two."""
    if G.n == 0 or not is_connected(G):
        raise DisconnectedGraphError("formula requires a connected graph")
    if diameter(G) != 2:
        raise PreconditionError("formula applies only at diameter 2")
    return G.n - alpha(G) + 1


def _search_k(G: Graph, masks: list[list[int]], caps: list[int], k: int) -> Optional[list[int]]:
    """Find a k-packing coloring of connected G, or prove none exists.

    ``masks`` and ``caps`` come from ``_packing_bounds``; the diameter d is
    ``len(masks)``.  Vertices are assigned in non-increasing degree order.
    Colors i < d check the distance-<=i ball mask and the exact class-size
    cap; colors >= d force singletons, and among the currently empty high
    colors only the smallest is ever tried (they are interchangeable).
    """
    n = G.n
    d = len(masks)
    capf = [0] + [caps[i] if i < d else 1 for i in range(1, k + 1)]
    if sum(capf) < n:
        return None

    order = sorted(range(n), key=lambda v: (-G.degree(v), v))

    colors = [0] * n
    class_bits = [0] * (k + 1)
    class_cnt = [0] * (k + 1)

    def dfs(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        vb = 1 << v
        seen_empty_high = False
        for i in range(1, k + 1):
            if class_cnt[i] >= capf[i]:
                continue
            if i >= d:
                if seen_empty_high:
                    continue
                seen_empty_high = True
            elif class_bits[i] & masks[i][v]:
                continue
            colors[v] = i
            class_bits[i] |= vb
            class_cnt[i] += 1
            if dfs(pos + 1):
                return True
            class_bits[i] ^= vb
            class_cnt[i] -= 1
            colors[v] = 0
        return False

    return list(colors) if dfs(0) else None


def _chi_rho_connected(G: Graph) -> list[int]:
    """An optimal packing coloring of connected G; its largest color is the
    value, since the search at every smaller k failed."""
    if G.n == 1:
        return [1]
    lb, masks, caps = _packing_bounds(G)
    for k in count(lb):
        found = _search_k(G, masks, caps, k)
        if found is not None:
            return found
    raise AssertionError("unreachable: n distinct colors always succeed")


def _packs_within_connected(G: Graph, k: int) -> Optional[list[int]]:
    if G.n == 1:
        return [1] if k >= 1 else None
    lb, masks, caps = _packing_bounds(G)
    return None if lb > k else _search_k(G, masks, caps, k)


def _by_component(G: Graph, solve: Callable[[Graph], Optional[list[int]]]) -> Optional[list[int]]:
    """Run ``solve`` on each component of non-empty G and merge the colorings
    it returns; None as soon as one component has none."""
    if G.n == 0:
        raise PreconditionError("packing chromatic number undefined on the empty graph")
    comps = components(G)
    if len(comps) == 1:
        return solve(G)
    merged = [0] * G.n
    for comp in comps:
        sub, relabel = induced_subgraph(G, comp)
        cols = solve(sub)
        if cols is None:
            return None
        for old, new in relabel.items():
            merged[old] = cols[new]
    return merged


def packs_within(G: Graph, k: int) -> Optional[list[int]]:
    """A packing coloring of non-empty G with colors in 1..k, or None when
    none exists.

    Decides ``chi_rho(G) <= k`` with one bounded search per component,
    skipped when the component's counting bound already exceeds ``k``.
    """
    return _by_component(G, lambda sub: _packs_within_connected(sub, k))


def chi_rho(G: Graph) -> ChiRho:
    """Exact packing chromatic number with a verifying witness coloring.

    On disconnected input the value is the maximum over components; the
    witness colors each component optimally and classes merge freely across
    components (cross-component distances are unbounded).
    """
    coloring = PackingColoring.from_colors(_by_component(G, _chi_rho_connected))
    return ChiRho(coloring.k, coloring)
