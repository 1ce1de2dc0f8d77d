"""Independent brute-force oracles the package is tested against.

Everything here is deliberately written in a different style from the
package internals (bit-string decoding, raw subset loops, permutation
counting) so a shared bug is unlikely.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial, inf
from typing import NamedTuple, Optional

from packcrit.enumeration import canonical_cert
from packcrit.errors import DisconnectedGraphError
from packcrit.graphs import (
    UNREACHABLE,
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    delete_edge,
    delete_vertex,
    twin_classes,
)
from packcrit.independence import mis_size_bits
from packcrit.packing import chi_rho, packs_within


# -- reference graph6 codec (the decoder was written first; the format oracle) --


def reference_parse_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Straightforward decoder from the format definition: 6-bit chunks as
    binary strings, upper triangle column by column."""
    data = text.rstrip("\n")
    n = ord(data[0]) - 63
    assert 0 <= n <= 62, "reference decoder handles the short form only"
    stream = ""
    for ch in data[1:]:
        val = ord(ch) - 63
        assert 0 <= val <= 63
        stream += format(val, "06b")
    pairs = [(i, j) for j in range(n) for i in range(j)]
    assert len(stream) >= len(pairs)
    edges = [pairs[idx] for idx, bit in enumerate(stream[: len(pairs)]) if bit == "1"]
    assert all(bit == "0" for bit in stream[len(pairs):])
    return n, edges


def reference_emit_graph6(G: Graph) -> str:
    """The graph6 encoder that asks ``has_edge`` once per vertex pair, in
    the format's pair order, packing six bits per byte."""
    n = G.n
    assert n <= 62, "reference encoder handles the short form only"
    out = [n + 63]
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if G.has_edge(i, j) else 0)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc, filled = 0, 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


# -- brute-force independence --------------------------------------------------


def brute_alpha(G: Graph) -> int:
    best = 0
    for size in range(G.n, -1, -1):
        for combo in combinations(range(G.n), size):
            if all(not G.has_edge(u, v) for u, v in combinations(combo, 2)):
                return size
    return best


def brute_all_mis(G: Graph) -> list[frozenset[int]]:
    a = brute_alpha(G)
    out = []
    for combo in combinations(range(G.n), a):
        if all(not G.has_edge(u, v) for u, v in combinations(combo, 2)):
            out.append(frozenset(combo))
    return out


# -- reference metrics (the BFS eccentricities the ball growth replaced) ----------


def reference_eccentricities(G: Graph) -> tuple[int, ...]:
    """Eccentricity of every vertex, read from one distance table; requires
    a connected, non-empty graph."""
    if G.n == 0:
        raise DisconnectedGraphError("metric undefined on the empty graph")
    eccs = tuple(max(row) for row in all_pairs_distances(G).rows)
    if UNREACHABLE in eccs:
        raise DisconnectedGraphError("metric undefined: graph is disconnected")
    return eccs


# -- brute-force packing colorings ----------------------------------------------


def _distances(G: Graph) -> list[list[float]]:
    n = G.n
    d = [[inf] * n for _ in range(n)]
    for s in range(n):
        d[s][s] = 0
        frontier = [s]
        step = 0
        while frontier:
            step += 1
            nxt = []
            for v in frontier:
                for w in G.neighbors(v):
                    if d[s][w] == inf:
                        d[s][w] = step
                        nxt.append(w)
            frontier = nxt
    return d


def brute_has_packing_coloring(G: Graph, k: int) -> bool:
    """Plain backtracking over color assignments 1..k in vertex order; the
    only pruning is the pairwise feasibility of the partial assignment."""
    if k <= 0:
        return G.n == 0
    d = _distances(G)
    colors = [0] * G.n

    def assign(v: int) -> bool:
        if v == G.n:
            return True
        for c in range(1, k + 1):
            ok = True
            for u in range(v):
                if colors[u] == c and d[u][v] <= c:
                    ok = False
                    break
            if ok:
                colors[v] = c
                if assign(v + 1):
                    return True
                colors[v] = 0
        return False

    return assign(0)


def brute_max_i_packing(G: Graph, i: int) -> int:
    """Largest vertex subset whose pairwise distances all exceed i, by
    trying subsets from the largest size down."""
    d = _distances(G)
    for size in range(G.n, 0, -1):
        for combo in combinations(range(G.n), size):
            if all(d[u][v] > i for u, v in combinations(combo, 2)):
                return size
    return 0


def brute_lower_bound(G: Graph) -> int:
    """The counting bound of a connected graph rebuilt from the brute caps:
    colors i below the diameter d hold at most brute_max_i_packing(G, i)
    vertices, every further color one."""
    d = int(max(max(row) for row in _distances(G)))
    cap_sum = sum(brute_max_i_packing(G, i) for i in range(1, d))
    return max(1, G.n - cap_sum + d - 1)


def brute_chi_rho(G: Graph) -> int:
    for k in range(1, G.n + 1):
        if brute_has_packing_coloring(G, k):
            return k
    raise AssertionError("n colors always suffice")


# -- reference packing search ----------------------------------------------------


def reference_search_k(G: Graph, masks: list[list[int]], caps: list[int], k: int) -> Optional[list[int]]:
    """The exact solver's depth-first search without its room refusals: the
    same degree order, caps, ball masks and high-color symmetry breaking,
    so it finds the same first coloring the pruned search must find.

    ``masks`` and ``caps`` come from ``_ClassCaps.capacity(k)``, which built
    every color below min(k + 1, d) for the diameter d, so ``len(masks)``
    is d whenever k >= d - 1.  Vertices are assigned in non-increasing
    degree order.  Colors i < ``len(masks)`` check the distance-<=i ball
    mask and the exact class-size cap; colors from there on force
    singletons, and among the currently empty ones only the smallest is
    ever tried (they are interchangeable).
    """
    n = G.n
    d = len(masks)
    capf = [0] + [caps[i] if i < d else 1 for i in range(1, k + 1)]
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


# -- reference criticality ----------------------------------------------------------


def reference_deletion_report(G: Graph, kind: str) -> tuple[int, bool, Optional[object]]:
    """(base value, critical, witness) by one bounded search per deletion in
    order, ``kind`` "edge" or "vertex", with no deletion skipped: the
    witness is the first deletion that still needs every color."""
    if kind == "edge":
        deletions = ((e, delete_edge(G, e)) for e in G.edges())
    else:
        deletions = ((v, delete_vertex(G, v)[0]) for v in range(G.n))
    base = chi_rho(G).value
    witness = next((deletion for deletion, sub in deletions if packs_within(sub, base - 1) is None), None)
    return base, witness is None, witness


# -- reference class caps ----------------------------------------------------------


def reference_ball_masks(dm: DistanceMatrix, i: int) -> list[int]:
    """Per-vertex bitmask of the other vertices within distance ``i``, read
    off a distance table."""
    return [sum(1 << u for u, duv in enumerate(row) if u != v and duv <= i) for v, row in enumerate(dm.rows)]


class ReferenceCaps(NamedTuple):
    capacity: int
    masks: list[list[int]]
    caps: list[int]
    d: int


def reference_class_caps(G: Graph, k: int) -> ReferenceCaps:
    """What ``packing._ClassCaps(G).capacity(k)`` builds for connected G,
    read from one distance table: the ball masks and exact caps of colors
    1..min(k, d - 1) for the diameter d (index 0 an empty placeholder), and
    how many vertices colors 1..k hold at most."""
    full = (1 << G.n) - 1
    dm = all_pairs_distances(G)
    d = int(max(max(row) for row in dm.rows))
    masks: list[list[int]] = [[0] * G.n]
    caps = [0]
    for i in range(1, min(k, d - 1) + 1):
        masks.append(reference_ball_masks(dm, i))
        caps.append(mis_size_bits(masks[i], full))
    capacity = sum(caps[: k + 1]) + max(0, k + 1 - len(caps))
    return ReferenceCaps(capacity, masks, caps, d)


# -- unlabeled graph counts (Burnside + Euler transform) -------------------------


def count_unlabeled_graphs(n: int) -> int:
    """Number of graphs on n unlabeled vertices, by averaging the number of
    edge-subsets fixed by each vertex permutation."""
    total = 0
    pairs = list(combinations(range(n), 2))
    for perm in permutations(range(n)):
        seen = set()
        orbits = 0
        for (a, b) in pairs:
            if (a, b) in seen:
                continue
            orbits += 1
            x, y = a, b
            while True:
                seen.add((x, y) if x < y else (y, x))
                x, y = perm[x], perm[y]
                lo, hi = (x, y) if x < y else (y, x)
                if (lo, hi) == (a, b):
                    break
        total += 2 ** orbits
    return total // factorial(n)


def connected_counts_from_all(all_counts: list[int]) -> list[int]:
    """Inverse Euler transform: recover connected class counts c[1..N] from
    total class counts a[1..N] (1-indexed lists with a[0] unused)."""
    N = len(all_counts) - 1
    c = [0] * (N + 1)
    # b[n] = sum_{d | n} d * c[d], a relates via a[n] = (b[n] + sum b[k] a[n-k]) / n
    b = [0] * (N + 1)
    for n in range(1, N + 1):
        s = sum(b[k] * all_counts[n - k] for k in range(1, n))
        b[n] = n * all_counts[n] - s
        divisor_part = sum(d * c[d] for d in range(1, n) if n % d == 0)
        c[n] = (b[n] - divisor_part) // n
    return c


# -- brute-force cut vertices and bridges ------------------------------------------


def _component_count(vertices: set[int], edges: list[tuple[int, int]]) -> int:
    """Union-find over an explicit vertex set and edge list."""
    root = {v: v for v in vertices}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    count = len(vertices)
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            count -= 1
    return count


def brute_cut_vertices(G: Graph) -> frozenset[int]:
    """Vertices whose deletion raises the number of components."""
    vertices = set(range(G.n))
    edges = G.edges()
    before = _component_count(vertices, edges)
    return frozenset(
        v for v in vertices
        if _component_count(vertices - {v}, [e for e in edges if v not in e]) > before
    )


def brute_bridges(G: Graph) -> frozenset[tuple[int, int]]:
    """Edges whose deletion raises the number of components."""
    vertices = set(range(G.n))
    edges = G.edges()
    before = _component_count(vertices, edges)
    return frozenset(
        e for e in edges if _component_count(vertices, [f for f in edges if f != e]) > before
    )


# -- reference color refinement ------------------------------------------------


def reference_refine(nbrs: tuple[tuple[int, ...], ...], colors: list[int]) -> list[int]:
    """Color refinement by a global sort: every round sorts all vertices on
    (own color, sorted neighbor colors) and numbers the distinct keys in
    order, until a round changes nothing."""
    n = len(colors)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(n)]
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


# -- reference certificate search ---------------------------------------------
# The certificate search with a refinement that keys every cell in every
# round; ``enumeration._search_bits``, which keys only the cells a split can
# reach, must return the same certificate and the same generators, in order.


def reference_cell_refine(nbrs: tuple[tuple[int, ...], ...], colors: list[int]) -> list[int]:
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


def reference_search_bits(adj: tuple[int, ...]) -> tuple[int, list[list[int]]]:
    """``_search`` on the graph whose vertex v has neighbor bitmask
    ``adj[v]``.

    Refine the all-equal coloring to a stable partition, split the first
    non-singleton cell on every member, and read each discrete leaf's
    adjacency code.  Two kinds of generator come out of the search.  A leaf
    whose code equals the best leaf's gives the automorphism between the
    two labelings.  A twin (a vertex in the ``twin_classes`` class of a
    member already split on) is not split on, because the transposition
    of the two twins is an automorphism that fixes the current node; that
    transposition is returned, once however many nodes skip it.  Any
    automorphism maps the best leaf to a leaf of the unskipped tree, twin
    transpositions move that leaf into the searched tree, where its code
    equals the best and was recorded, so the returned permutations generate
    the whole group.
    """
    n = len(adj)
    if n <= 1:
        return 0, []
    nbrs = tuple(tuple(w for w in range(n) if a >> w & 1) for a in adj)
    twin_class = twin_classes(adj)
    best: Optional[int] = None
    best_inv: list[int] = []
    gens: list[list[int]] = []
    swapped: set[tuple[int, int]] = set()  # twin transpositions already in gens

    def leaf(colors: list[int]) -> None:
        nonlocal best, best_inv
        inv = [0] * n
        for v, c in enumerate(colors):
            inv[c] = v
        bits = 0
        for p in range(n):
            ap = adj[inv[p]]
            for q in range(p + 1, n):
                bits = (bits << 1) | ((ap >> inv[q]) & 1)
        if best is None or bits < best:
            best, best_inv = bits, inv
        elif bits == best:
            perm = [0] * n
            for p, v in enumerate(best_inv):
                perm[v] = inv[p]
            gens.append(perm)

    def search(colors: list[int]) -> None:
        if max(colors) == n - 1:
            leaf(colors)
            return
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        cell_color = min(c for c, k in counts.items() if k >= 2)
        cell = [v for v in range(n) if colors[v] == cell_color]
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
            # v alone keeps the cell's color; the rest of the cell and every
            # later cell move up one, so the coloring stays dense
            search(reference_cell_refine(nbrs, [c + (c > cell_color or (c == cell_color and u != v))
                                                for u, c in enumerate(colors)]))

    search(reference_cell_refine(nbrs, [0] * n))
    assert best is not None
    return best, gens


# -- brute-force automorphisms -------------------------------------------------


def brute_automorphisms(G: Graph) -> frozenset[tuple[int, ...]]:
    """Every permutation p (p[v] is the image of v) that maps edges to edges.

    Vertices are assigned in index order; a partial assignment survives only
    while every pair among the assigned vertices keeps its adjacency, which
    keeps graphs of up to eight or so vertices quick."""
    n = G.n
    adjacent = [[False] * n for _ in range(n)]
    for a, b in G.edges():
        adjacent[a][b] = adjacent[b][a] = True
    found = []
    image: list[int] = []

    def extend() -> None:
        v = len(image)
        if v == n:
            found.append(tuple(image))
            return
        for w in range(n):
            if w in image:
                continue
            if all(adjacent[u][v] == adjacent[image[u]][w] for u in range(v)):
                image.append(w)
                extend()
                image.pop()

    extend()
    return frozenset(found)


# -- cacti by block attachment (the cactus lattice's second route) ------------


def cacti_by_block_attachment(max_n: int) -> list[Graph]:
    """Second, independent cactus generator: grow block trees by attaching a
    fresh K2 or cycle block at an existing vertex.  Used to cross-check the
    augmentation lattice on overlapping ranges."""
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
