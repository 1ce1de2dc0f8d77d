"""Graph isomorphism by backtracking with invariant pruning.

Instances in this package stay small (tens of vertices), so a careful
backtracking matcher with degree and distance-profile pruning is exact and
fast; witnesses are verified before being returned.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .graphs import Graph


def vertex_profiles(G: Graph) -> list[tuple]:
    """Per-vertex isomorphism invariant: degree, sorted neighbor degrees,
    BFS level sizes, and the count of unreachable vertices."""
    bits = G.adjacency_bits()
    degs = [b.bit_count() for b in bits]
    out = []
    for v in range(G.n):
        seen = 1 << v
        frontier = seen
        levels = []
        while frontier:
            nxt = 0
            f = frontier
            while f:
                lb = f & -f
                nxt |= bits[lb.bit_length() - 1]
                f ^= lb
            frontier = nxt & ~seen
            seen |= frontier
            if frontier:
                levels.append(frontier.bit_count())
        nbr_degs = tuple(sorted(degs[w] for w in G.neighbors(v)))
        out.append((degs[v], nbr_degs, tuple(levels), G.n - seen.bit_count()))
    return out


def find_isomorphism(G: Graph, H: Graph) -> Optional[dict[int, int]]:
    """An edge-preserving bijection V(G) -> V(H), or None.

    The returned mapping is re-verified against both edge sets before being
    handed back.
    """
    if G.n != H.n or G.edge_count != H.edge_count:
        return None
    if G.n == 0:
        return {}
    sig_g = vertex_profiles(G)
    sig_h = vertex_profiles(H)
    if Counter(sig_g) != Counter(sig_h):
        return None

    by_sig: dict[tuple, list[int]] = {}
    for u in range(H.n):
        by_sig.setdefault(sig_h[u], []).append(u)
    cands = [by_sig[sig_g[v]] for v in range(G.n)]

    # Static order: scarcest signature first, ties broken toward high degree,
    # then preferring vertices adjacent to already-placed ones.
    base = sorted(range(G.n), key=lambda v: (len(cands[v]), -G.degree(v), v))
    order: list[int] = []
    placed: set[int] = set()
    pool = list(base)
    while pool:
        pick = None
        for v in pool:
            if any(w in placed for w in G.neighbors(v)):
                pick = v
                break
        if pick is None:
            pick = pool[0]
        pool.remove(pick)
        order.append(pick)
        placed.add(pick)

    mapping: dict[int, int] = {}
    used = [False] * H.n
    hbits = H.adjacency_bits()
    gadj = [set(G.neighbors(v)) for v in range(G.n)]

    def extend(idx: int) -> bool:
        if idx == G.n:
            return True
        v = order[idx]
        mapped_nbrs = [mapping[w] for w in gadj[v] if w in mapping]
        mapped_non = [mapping[w] for w in mapping if w not in gadj[v]]
        for u in cands[v]:
            if used[u]:
                continue
            ub = hbits[u]
            if any(not (ub >> x) & 1 for x in mapped_nbrs):
                continue
            if any((ub >> x) & 1 for x in mapped_non):
                continue
            mapping[v] = u
            used[u] = True
            if extend(idx + 1):
                return True
            used[u] = False
            del mapping[v]
        return False

    if not extend(0):
        return None
    assert all(H.has_edge(mapping[a], mapping[b]) for a, b in G.edges())
    assert len(set(mapping.values())) == G.n
    return dict(mapping)


def is_isomorphic(G: Graph, H: Graph) -> bool:
    return find_isomorphism(G, H) is not None
