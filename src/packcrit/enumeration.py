"""Isomorph-free generation of small graphs, trees, cacti, and block graphs.

Representatives at each order extend the previous order's representatives by
one vertex over the neighbor subsets that can produce the target class
(arbitrary subsets in general; a single neighbor for trees; one or two for
cacti, since deleting a non-cut vertex of a leaf block always leaves a
cactus; clique-cluster subsets for block graphs).  Candidates deduplicate
by canonical certificate, keeping the first candidate of each class, and each
level is emitted sorted by that certificate, so the stream is deterministic.
``iso`` stays out of this path: it is the independent oracle the tests check
the certificates against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import CapExceededError
from .graphs import (
    Graph,
    diameter,
    is_block_graph,
    is_cactus,
    is_connected,
    radius,
)

STRUCTURES = ("all", "tree", "cactus", "block-graph")

_DEFAULT_CAPS = {"all": 8, "tree": 11, "cactus": 11, "block-graph": 11}

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
    return _DEFAULT_CAPS[structure] if cap is None else cap


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


# -- canonical certificates ---------------------------------------------------


def _refine(nbrs: tuple[tuple[int, ...], ...], colors: list[int]) -> list[int]:
    n = len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(n)
        ]
        order = sorted(range(n), key=lambda v: sigs[v])
        new = [0] * n
        cur = 0
        for idx, v in enumerate(order):
            if idx and sigs[v] != sigs[order[idx - 1]]:
                cur += 1
            new[v] = cur
        if new == colors:
            return colors
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
            split = list(colors)
            # pull v in front of its cell, then renumber densely and refine
            keyed = sorted(range(n), key=lambda u: (split[u], 0 if u == v else 1, 0))
            dense = [0] * n
            cur = 0
            for idx, u in enumerate(keyed):
                if idx:
                    prev = keyed[idx - 1]
                    if (split[u], u == v) != (split[prev], prev == v):
                        cur += 1
                dense[u] = cur
            search(_refine(nbrs, dense))

    search(_refine(nbrs, [0] * n))
    assert best is not None
    return (n, best)


# -- representative lattices ---------------------------------------------------


def _subsets_all(n: int) -> Iterator[int]:
    return iter(range(1 << n))


def _subsets_of_size(n: int, sizes: tuple[int, ...]) -> Iterator[int]:
    from itertools import combinations

    for k in sizes:
        for combo in combinations(range(n), k):
            yield sum(1 << i for i in combo)


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


_PREDICATES = {
    "all": lambda g: True,
    "tree": lambda g: True,  # leaf additions preserve trees
    "cactus": is_cactus,
    "block-graph": is_block_graph,
}

_REPS_CACHE: dict[tuple[str, int], tuple[Graph, ...]] = {}


def representatives(structure: str, n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of the structure at order n,
    sorted by canonical certificate.  Results are cached per process."""
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    cap = hard_cap(structure)
    if n > cap:
        raise CapExceededError(f"order {n} exceeds the {structure} cap {cap}")
    key = (structure, n)
    cached = _REPS_CACHE.get(key)
    if cached is not None:
        return cached

    if n == 1:
        reps = (Graph(1),)
        _REPS_CACHE[key] = reps
        return reps

    parents = representatives(structure, n - 1)
    predicate = _PREDICATES[structure]
    kept: dict[tuple[int, int], Graph] = {}
    for parent in parents:
        if structure == "tree":
            subsets = _subsets_of_size(parent.n, (1,))
        elif structure == "cactus":
            subsets = _subsets_of_size(parent.n, (1, 2))
        elif structure == "block-graph":
            subsets = _cluster_subsets(parent)
        else:
            subsets = _subsets_all(parent.n)
        for mask in subsets:
            cand = _grow(parent, mask)
            if structure != "all" and not predicate(cand):
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
            if filt.connected is not None and is_connected(G) != filt.connected:
                continue
            if filt.radius is not None or filt.diameter is not None:
                if not is_connected(G):
                    continue
                if filt.radius is not None and radius(G) != filt.radius:
                    continue
                if filt.diameter is not None and diameter(G) != filt.diameter:
                    continue
            yield G


def enumerate_cacti(filt: EnumerationFilter) -> Iterator[Graph]:
    """Cactus stream; same contract as enumerate_graphs with the structure
    pinned (cacti are connected by definition)."""
    pinned = EnumerationFilter(
        max_n=filt.max_n,
        min_n=filt.min_n,
        structure="cactus",
        connected=filt.connected,
        radius=filt.radius,
        diameter=filt.diameter,
    )
    return enumerate_graphs(pinned)


def cacti_by_block_attachment(max_n: int) -> list[Graph]:
    """Second, independent cactus generator: grow block trees by attaching a
    fresh K2 or cycle block at an existing vertex.  Used to cross-check the
    augmentation lattice on overlapping ranges."""
    cap = hard_cap("cactus")
    if max_n > cap:
        raise CapExceededError(f"order {max_n} exceeds the cactus cap {cap}")
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
    return sorted(seen.values(), key=canonical_cert)
