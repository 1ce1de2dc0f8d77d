"""Exact maximum independent sets and independence-criticality checks.

The solver is a memoised branch and reduce over bitmask-encoded vertex
sets (Fomin, Grandoni and Kratsch, JACM 56, 2009; Akiba and Iwata, TCS
609, 2016).  Two reductions come first, in a loop inside one call, so a
chain of them adds no recursion depth:

- degree <= 1: a residue of isolated vertices and disjoint edges is
  counted in closed form;
- simplicial vertex: when the neighbourhood of a minimum-degree vertex is
  a clique, some maximum independent set holds that vertex, so it is taken
  and its closed neighbourhood dropped.  When it is a leaf, the leaves that
  dropping its neighbour leaves behind are taken in turn without scanning
  the mask again, so a path of n vertices costs one scan, not n / 2.

Only then does it branch on a maximum-degree vertex (include/exclude),
and it splits a disconnected mask: a bit-parallel search grows the
component of the branching vertex, the branches stay inside that
component, and the memoised answer on the rest of the mask is added.  The
search is skipped when the branching vertex sees every other vertex of the
mask, which is then connected.  A distance power of a path reduces
without a single branch.  Witnesses are the lexicographically smallest
maximum independent sets, so every result is reproducible.  alpha(G - uv)
for an edge uv is read off G's own memo as
max(alpha(G), 2 + alpha(G - N[u] - N[v])), with no graph built per edge.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import PreconditionError
from .graphs import UNREACHABLE, Edge, Graph, all_pairs_distances, flood


class MisResult(NamedTuple):
    alpha: int
    witness: frozenset[int]


class AlphaCriticality(NamedTuple):
    critical: bool
    witness_edge: Optional[Edge]  # an edge whose removal keeps alpha, when not critical


def _mis_size(bits: Sequence[int], mask: int, memo: dict[int, int]) -> int:
    # Reductions take a vertex outright and loop in this frame, so a chain
    # of them adds no recursion depth: ``taken`` counts the vertices taken
    # on the way from ``top`` down to the mask that is finally solved.
    top, taken = mask, 0
    while mask and mask not in memo:
        # Scan the degrees within the mask: a maximum-degree vertex to branch
        # on, a minimum-degree vertex to reduce, and the edge count.
        best_v, best_deg = -1, -1
        low_v, low_deg = -1, mask.bit_count()
        m = mask
        edge_halves = 0
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            d = (bits[v] & mask).bit_count()
            edge_halves += d
            if d > best_deg:
                best_deg = d
                best_v = v
            if d < low_deg:
                low_deg = d
                low_v = v
        if best_deg <= 1:
            # A disjoint union of edges and isolated vertices.
            memo[mask] = mask.bit_count() - edge_halves // 2
            break
        # Simplicial: when N(low_v) is a clique, some maximum independent
        # set holds low_v, so take it and drop its closed neighbourhood.
        nbrs = bits[low_v] & mask
        m = nbrs
        while m:
            b = m & -m
            m ^= b
            if nbrs & ~bits[b.bit_length() - 1] != b:
                break
        else:
            # When low_v is a leaf, follow the leaves that removing its
            # neighbour leaves behind, without a rescan: a vertex of ``near``
            # (next to a removed vertex) with one neighbour, itself of degree
            # >= 2, is taken with that neighbour, whose other neighbours
            # join ``near``.  A path then costs one scan, not one per take;
            # isolated vertices and edges are left to the next scan.
            taken += 1
            mask &= ~(nbrs | (1 << low_v))
            near = bits[nbrs.bit_length() - 1] & mask if low_deg == 1 else 0
            while near:
                b = near & -near
                near ^= b
                nb = bits[b.bit_length() - 1] & mask
                if nb and nb & (nb - 1) == 0:
                    x = bits[nb.bit_length() - 1] & mask
                    if x & (x - 1):
                        taken += 1
                        mask ^= b | nb
                        near = (near | x) & mask
            continue
        # Branch inside best_v's component and add the rest of the mask; a
        # vertex that sees the whole mask leaves nothing outside it.
        comp = flood(bits, mask, best_v) if best_deg + 1 < mask.bit_count() else mask
        vb = 1 << best_v
        excl = _mis_size(bits, comp ^ vb, memo)
        incl = 1 + _mis_size(bits, comp & ~(bits[best_v] | vb), memo)
        result = excl if excl >= incl else incl
        if comp != mask:
            result += _mis_size(bits, mask ^ comp, memo)
        memo[mask] = result
        break
    result = taken + memo.get(mask, 0)
    if taken:
        memo[top] = result
    return result


def mis_size_bits(bits: Sequence[int], mask: int) -> int:
    """Maximum independent set size within ``mask`` for bitmask adjacency."""
    return _mis_size(bits, mask, {})


def _lexmin_witness(bits: Sequence[int], mask: int, size: int, memo: dict[int, int]) -> frozenset[int]:
    """The lexicographically smallest independent set of ``size`` vertices in
    ``mask``, where ``size`` is the maximum; ``memo`` is shared with the
    ``_mis_size`` calls over the same ``bits``."""
    chosen = []
    cur = mask
    need = size
    while need and cur:
        vb = cur & -cur
        v = vb.bit_length() - 1
        rest = cur & ~(bits[v] | vb)
        if 1 + _mis_size(bits, rest, memo) == need:
            chosen.append(v)
            cur = rest
            need -= 1
        else:
            cur ^= vb
    return frozenset(chosen)


def alpha(G: Graph) -> int:
    """Independence number."""
    return mis_size_bits(G.adjacency_bits(), (1 << G.n) - 1)


def max_independent_set(G: Graph) -> MisResult:
    """Exact alpha with the lexicographically smallest witness set."""
    bits = G.adjacency_bits()
    full = (1 << G.n) - 1
    memo: dict[int, int] = {}
    a = _mis_size(bits, full, memo)
    return MisResult(a, _lexmin_witness(bits, full, a, memo))


class EdgeAlphas:
    """alpha(G) and, for each edge uv of G, alpha(G - uv), off one
    ``_mis_size`` memo over G's bitmasks, with no graph built per edge.

    An independent set of G - uv that misses u or v is one of G, and one
    that holds both holds nothing else of N[u] and N[v], so
    alpha(G - uv) = max(alpha(G), 2 + alpha(G - N[u] - N[v])).  As u and v
    are adjacent in G, N[u] and N[v] together are N(u) and N(v) together.
    """

    def __init__(self, G: Graph):
        self._nbr_bits = G.adjacency_bits()
        self._full = (1 << G.n) - 1
        self._memo: dict[int, int] = {}
        self.alpha = _mis_size(self._nbr_bits, self._full, self._memo)

    def without(self, e: Edge) -> int:
        u, v = e
        bits = self._nbr_bits
        rest = self._full & ~(bits[u] | bits[v])
        return max(self.alpha, 2 + _mis_size(bits, rest, self._memo))


def is_alpha_critical(G: Graph) -> AlphaCriticality:
    """Whether deleting any single edge raises alpha.

    Edgeless graphs are vacuously critical.  When not critical, the first
    (sorted) edge whose removal keeps alpha is returned as a witness.
    """
    alphas = EdgeAlphas(G)
    for e in G.edges():
        if alphas.without(e) == alphas.alpha:
            return AlphaCriticality(False, e)
    return AlphaCriticality(True, None)


def haynes_check(G: Graph) -> bool:
    """Per-edge maximum-independent-set criterion equivalent to
    alpha-criticality: for each edge uv there is a maximum independent set
    containing u whose only contact with N(v) is u itself (and symmetrically).
    """
    bits = G.adjacency_bits()
    full = (1 << G.n) - 1
    memo: dict[int, int] = {}
    a = _mis_size(bits, full, memo)

    def oriented(u: int, v: int) -> bool:
        allowed = full & ~(bits[u] | (1 << u)) & ~bits[v]
        return 1 + _mis_size(bits, allowed, memo) == a

    return all(oriented(u, v) and oriented(v, u) for u, v in G.edges())


def mis_avoiding(G: Graph, forbidden: Iterable[int]) -> Optional[MisResult]:
    """A maximum independent set of G disjoint from ``forbidden``, if any:
    the lexicographically smallest one."""
    bits = G.adjacency_bits()
    full = (1 << G.n) - 1
    allowed = full
    for v in forbidden:
        allowed &= ~(1 << v)
    memo: dict[int, int] = {}
    a = _mis_size(bits, full, memo)
    if _mis_size(bits, allowed, memo) != a:
        return None
    return MisResult(a, _lexmin_witness(bits, allowed, a, memo))


def every_vertex_avoidable(G: Graph) -> bool:
    """Whether each vertex is missed by some maximum independent set: one
    memo serves alpha and every vertex's avoiding maximum."""
    bits = G.adjacency_bits()
    full = (1 << G.n) - 1
    memo: dict[int, int] = {}
    a = _mis_size(bits, full, memo)
    return all(_mis_size(bits, full & ~(1 << v), memo) == a for v in range(G.n))


def check_lemma_rad3(G: Graph) -> bool:
    """For an alpha-critical graph of radius >= 3: every vertex pair at
    distance exactly 3 admits a maximum independent set avoiding both.

    Raises PreconditionError when the hypothesis fails, as distinct from a
    False return, which would be a genuine property violation.
    """
    dm = all_pairs_distances(G)
    eccs = [max(row) for row in dm.rows]
    if G.n == 0 or UNREACHABLE in eccs or min(eccs) < 3:
        raise PreconditionError("requires a connected graph of radius >= 3")
    if not is_alpha_critical(G).critical:
        raise PreconditionError("requires an alpha-critical graph")
    bits = G.adjacency_bits()
    full = (1 << G.n) - 1
    memo: dict[int, int] = {}
    a = _mis_size(bits, full, memo)
    for x in range(G.n):
        for y in range(x + 1, G.n):
            if dm[x, y] == 3 and _mis_size(bits, full & ~(1 << x) & ~(1 << y), memo) != a:
                return False
    return True
