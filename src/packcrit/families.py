"""Named graph families: generators, closed-form values, and recognizers.

Two parametrized cactus families carry most of the weight:

* ``Gqr(r, ((k1, m1), ..., (kq, mq)))`` - a main cycle C_r whose first q
  consecutive vertices are cut vertices, the i-th carrying k_i pendant
  edges and m_i pendant triangles (k_i + m_i >= 1, r in {3, 4, 5}).
* ``H(k1, m1; k2, m2)`` - two adjacent hub vertices, each carrying k_i
  pendant edges and m_i pendant triangles (k_i + m_i >= 1).

Plus the classics: paths, cycles, complete graphs, stars K_{1,n}, wheels
(hub joined to a cycle), and friendship graphs (n triangles sharing one
vertex).  The text grammar, e.g. ``G2^4(1,2;2,1)``, ``H(0,2;2,0)``, ``T3``,
``K1,7``, is parsed and emitted exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import DisconnectedGraphError, SpecSyntaxError
from .graphs import (
    Graph,
    block_decomposition,
    components,
    is_cactus,
    is_connected,
    universal_vertices,
)

KINDS = ("path", "cycle", "complete", "star", "wheel", "friendship", "gqr", "h")

Pair = tuple[int, int]


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic description of one family member.

    ``n`` parametrizes the simple families; ``r`` and ``pairs`` parametrize
    Gqr (q = len(pairs)); H uses exactly two pairs.
    """

    kind: str
    n: int = 0
    r: int = 0
    pairs: tuple[Pair, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "path" and self.n < 1:
            raise ValueError("path needs n >= 1")
        if self.kind == "cycle" and self.n < 3:
            raise ValueError("cycle needs n >= 3")
        if self.kind == "complete" and self.n < 1:
            raise ValueError("complete graph needs n >= 1")
        if self.kind == "star" and self.n < 1:
            raise ValueError("star K1,n needs n >= 1")
        if self.kind == "wheel" and self.n < 4:
            raise ValueError("wheel needs n >= 4 (hub plus a cycle)")
        if self.kind == "friendship" and self.n < 1:
            raise ValueError("friendship graph needs n >= 1")
        if self.kind == "gqr":
            q = len(self.pairs)
            if self.r not in (3, 4, 5):
                raise ValueError(f"Gqr main cycle length must be 3, 4 or 5, got {self.r}")
            if not 1 <= q <= self.r:
                raise ValueError(f"Gqr needs 1 <= q <= r, got q={q}, r={self.r}")
            self._check_pairs()
        if self.kind == "h":
            if len(self.pairs) != 2:
                raise ValueError("H takes exactly two (k, m) pairs")
            self._check_pairs()

    def _check_pairs(self):
        for k, m in self.pairs:
            if k < 0 or m < 0:
                raise ValueError(f"pendant counts must be non-negative, got ({k}, {m})")
            if k + m < 1:
                raise ValueError("every decorated vertex needs k + m >= 1")

    @property
    def q(self) -> int:
        return len(self.pairs)

    def vertex_count(self) -> int:
        if self.kind == "path" or self.kind == "cycle" or self.kind == "complete":
            return self.n
        if self.kind == "star":
            return self.n + 1
        if self.kind == "wheel":
            return self.n
        if self.kind == "friendship":
            return 2 * self.n + 1
        extra = sum(k + 2 * m for k, m in self.pairs)
        return (self.r if self.kind == "gqr" else 2) + extra

    def __str__(self) -> str:
        if self.kind == "path":
            return f"P{self.n}"
        if self.kind == "cycle":
            return f"C{self.n}"
        if self.kind == "complete":
            return f"K{self.n}"
        if self.kind == "star":
            return f"K1,{self.n}"
        if self.kind == "wheel":
            return f"W{self.n}"
        if self.kind == "friendship":
            return f"T{self.n}"
        body = ";".join(f"{k},{m}" for k, m in self.pairs)
        if self.kind == "gqr":
            return f"G{self.q}^{self.r}({body})"
        return f"H({body})"


# -- grammar -----------------------------------------------------------------

_PAIRS_RE = re.compile(r"\d+,\d+(;\d+,\d+)*")


def _parse_pairs(text: str, start: int, end: int) -> tuple[Pair, ...]:
    body = text[start:end]
    if not _PAIRS_RE.fullmatch(body):
        # Locate the first offending character for the caret diagnostic.
        pos = start
        for i, ch in enumerate(body):
            if ch not in "0123456789,;":
                pos = start + i
                break
        raise SpecSyntaxError("expected 'k,m' pairs separated by ';'", text, pos)
    return tuple(
        (int(p.split(",")[0]), int(p.split(",")[1])) for p in body.split(";")
    )


def parse_spec(text: str) -> FamilySpec:
    """Parse the family grammar: G{q}^{r}(k1,m1;...), H(k1,m1;k2,m2),
    T{n}, C{n}, P{n}, K{n}, K1,{n}, W{n}."""
    s = text.strip()
    if not s:
        raise SpecSyntaxError("empty spec", text, 0)
    head = s[0]
    try:
        if head == "G":
            m = re.fullmatch(r"G(\d+)\^(\d+)\((.*)\)", s)
            if not m:
                raise SpecSyntaxError("expected G{q}^{r}(k1,m1;...)", s, 1)
            q, r = int(m.group(1)), int(m.group(2))
            pairs = _parse_pairs(s, m.start(3), m.end(3))
            if len(pairs) != q:
                raise SpecSyntaxError(f"G{q}^{r} needs exactly {q} pairs", s, m.start(3))
            return FamilySpec("gqr", r=r, pairs=pairs)
        if head == "H":
            m = re.fullmatch(r"H\((.*)\)", s)
            if not m:
                raise SpecSyntaxError("expected H(k1,m1;k2,m2)", s, 1)
            pairs = _parse_pairs(s, m.start(1), m.end(1))
            if len(pairs) != 2:
                raise SpecSyntaxError("H takes exactly two pairs", s, m.start(1))
            return FamilySpec("h", pairs=pairs)
        if head == "K":
            m = re.fullmatch(r"K1,(\d+)", s)
            if m:
                return FamilySpec("star", n=int(m.group(1)))
            m = re.fullmatch(r"K(\d+)", s)
            if m:
                return FamilySpec("complete", n=int(m.group(1)))
            raise SpecSyntaxError("expected K{n} or K1,{n}", s, 1)
        simple = {"P": "path", "C": "cycle", "T": "friendship", "W": "wheel"}
        if head in simple:
            m = re.fullmatch(rf"{head}(\d+)", s)
            if not m:
                raise SpecSyntaxError(f"expected {head}{{n}}", s, 1)
            return FamilySpec(simple[head], n=int(m.group(1)))
    except SpecSyntaxError:
        raise
    except ValueError as exc:
        # parameter-invariant violations surfaced by FamilySpec itself
        raise SpecSyntaxError(str(exc), s, 0) from None
    raise SpecSyntaxError("unknown family letter", s, 0)


# -- construction ------------------------------------------------------------


@dataclass(frozen=True)
class BuiltFamily:
    graph: Graph
    roles: dict[int, str] = field(compare=False)


def build(spec: FamilySpec) -> BuiltFamily:
    """Realize the spec with a fixed canonical labeling and a vertex->role map."""
    kind = spec.kind
    edges: list[tuple[int, int]] = []
    roles: dict[int, str] = {}
    if kind == "path":
        n = spec.n
        edges = [(i, i + 1) for i in range(n - 1)]
        roles = {i: f"v{i + 1}" for i in range(n)}
        return BuiltFamily(Graph(n, edges), roles)
    if kind == "cycle":
        n = spec.n
        edges = [(i, (i + 1) % n) for i in range(n)]
        roles = {i: f"x{i + 1}" for i in range(n)}
        return BuiltFamily(Graph(n, edges), roles)
    if kind == "complete":
        n = spec.n
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        roles = {i: f"v{i + 1}" for i in range(n)}
        return BuiltFamily(Graph(n, edges), roles)
    if kind == "star":
        n = spec.n + 1
        edges = [(0, i) for i in range(1, n)]
        roles = {0: "hub", **{i: f"leaf{i}" for i in range(1, n)}}
        return BuiltFamily(Graph(n, edges), roles)
    if kind == "wheel":
        n = spec.n
        rim = n - 1
        edges = [(1 + i, 1 + (i + 1) % rim) for i in range(rim)] + [(0, 1 + i) for i in range(rim)]
        roles = {0: "hub", **{1 + i: f"r{i + 1}" for i in range(rim)}}
        return BuiltFamily(Graph(n, edges), roles)
    if kind == "friendship":
        n = 2 * spec.n + 1
        roles = {0: "hub"}
        for t in range(spec.n):
            a, b = 1 + 2 * t, 2 + 2 * t
            edges += [(0, a), (0, b), (a, b)]
            roles[a] = f"a{t + 1}"
            roles[b] = f"b{t + 1}"
        return BuiltFamily(Graph(n, edges), roles)
    if kind == "gqr":
        r = spec.r
        edges = [(i, (i + 1) % r) for i in range(r)]
        roles = {i: f"x{i + 1}" for i in range(r)}
        nxt = r
        for i, (k, m) in enumerate(spec.pairs, start=1):
            anchor = i - 1
            for j in range(1, k + 1):
                edges.append((anchor, nxt))
                roles[nxt] = f"w{i}_{j}"
                nxt += 1
            for j in range(1, m + 1):
                u, v = nxt, nxt + 1
                edges += [(anchor, u), (anchor, v), (u, v)]
                roles[u] = f"u{i}_{j}"
                roles[v] = f"v{i}_{j}"
                nxt += 2
        return BuiltFamily(Graph(nxt, edges), roles)
    # kind == "h"
    edges = [(0, 1)]
    roles = {0: "u1", 1: "u2"}
    nxt = 2
    for i, (k, m) in enumerate(spec.pairs, start=1):
        anchor = i - 1
        for j in range(1, k + 1):
            edges.append((anchor, nxt))
            roles[nxt] = f"w{i}_{j}"
            nxt += 1
        for j in range(1, m + 1):
            u, v = nxt, nxt + 1
            edges += [(anchor, u), (anchor, v), (u, v)]
            roles[u] = f"a{i}_{j}"
            roles[v] = f"b{i}_{j}"
            nxt += 2
    return BuiltFamily(Graph(nxt, edges), roles)


# -- closed forms ------------------------------------------------------------


def closed_form_chi_rho(spec: FamilySpec) -> Optional[int]:
    """The family's exact packing chromatic number when a closed form is
    known; None where no formula covers the parameters."""
    kind = spec.kind
    if kind == "complete":
        return spec.n
    if kind == "star":
        return 2 if spec.n >= 1 else None
    if kind == "friendship":
        return spec.n + 2
    if kind == "cycle":
        return {3: 3, 4: 3, 5: 4}.get(spec.n)
    if kind == "path":
        return {1: 1, 2: 2, 3: 2, 4: 3, 5: 3}.get(spec.n)
    if kind == "gqr":
        t = sum(m for _, m in spec.pairs)
        if spec.r == 5 and spec.q == 1:
            return 4 if t == 0 else t + 3
        if spec.r == 5 and spec.q == 2:
            m1, m2 = spec.pairs[0][1], spec.pairs[1][1]
            if m1 == 0 and m2 == 0:
                return 4
            if m1 == 0 or m2 == 0:
                return t + 3
            return t + 2
        if spec.r == 4 and spec.q == 1:
            return 3 if t == 0 else t + 2
        if spec.r == 4 and spec.q == 2:
            return 4 if t == 0 else t + 3
        return None
    if kind == "h":
        for (ka, ma), (kb, mb) in (spec.pairs, spec.pairs[::-1]):
            if ma >= 1 and mb == 0 and kb >= 2:
                return ma + 3  # |V| - alpha + 1 for this shape
        return None
    return None


def _triangles_only(pairs: Iterable[Pair]) -> bool:
    """Every decorated vertex carries two or more pendant triangles and no
    pendant edge."""
    return all(k == 0 and m >= 2 for k, m in pairs)


#: The critical radius-2, diameter-3 cacti, clause by clause: (name,
#: predicate on the spec).  Pendant positions on a triangle main block and on
#: the two H hubs are interchangeable, so those clauses match sorted pairs.
_CRITICAL_CLAUSES = (
    ("i", lambda s: s.kind == "path" and s.n == 4),
    ("ii", lambda s: s.kind == "gqr" and s.r == 5 and s.q == 1
        and s.pairs[0][0] == 0 and s.pairs[0][1] >= 2),
    ("iii", lambda s: s.kind == "gqr" and s.r == 4 and s.q == 2
        and sorted(s.pairs) == [(1, 0), (1, 0)]),
    ("iv", lambda s: s.kind == "gqr" and s.r == 4 and s.q == 2
        and all(k == 0 and m >= 1 for k, m in s.pairs)),
    ("v", lambda s: s.kind == "gqr" and s.r == 3 and s.q == 3
        and sorted(s.pairs) == [(1, 0), (1, 0), (1, 0)]),
    ("vi", lambda s: s.kind == "gqr" and s.r == 3 and s.q == 3
        and sorted(s.pairs) == [(0, 1), (2, 0), (2, 0)]),
    ("vii", lambda s: s.kind == "gqr" and s.r == 3 and s.q == 3 and _triangles_only(s.pairs)),
    ("viii", lambda s: s.kind == "gqr" and s.r == 3 and s.q == 3
        and sorted(s.pairs)[2] == (2, 0) and _triangles_only(sorted(s.pairs)[:2])),
    ("ix", lambda s: s.kind == "gqr" and s.r == 3 and s.q == 3
        and sorted(s.pairs)[1:] == [(2, 0), (2, 0)] and _triangles_only(sorted(s.pairs)[:1])),
    ("x", lambda s: s.kind == "h" and sorted(s.pairs) == [(0, 1), (2, 0)]),
    ("xi", lambda s: s.kind == "h" and _triangles_only(s.pairs)),
    ("xii", lambda s: s.kind == "h" and sorted(s.pairs)[1] == (2, 0) and _triangles_only(sorted(s.pairs)[:1])),
)

#: The (r, q) shapes of Gqr that are radius-2, diameter-3 cacti.
_CLAUSE_SCOPE = frozenset({(5, 1), (5, 2), (4, 1), (4, 2), (3, 3), (3, 2)})


def critical_clause(spec: FamilySpec) -> Optional[str]:
    """The first clause, (i) to (xii), of the critical radius-2 diameter-3
    cactus list that ``spec`` satisfies, by name, or None.  H(1,0;1,0) is
    P4 and matches clause (i)."""
    if spec.kind == "h" and sorted(spec.pairs) == [(1, 0), (1, 0)]:
        spec = FamilySpec("path", n=4)
    return next((name for name, pred in _CRITICAL_CLAUSES if pred(spec)), None)


def closed_form_critical(spec: FamilySpec) -> Optional[bool]:
    """The family's criticality verdict where one is characterized: complete
    graphs, P2 and P4, and the radius-2 diameter-3 members of H and Gqr,
    which are critical exactly when ``critical_clause`` names a clause."""
    kind = spec.kind
    if kind == "complete":
        return spec.n >= 2 or None
    if kind == "path":
        return True if spec.n in (2, 4) else None  # P2 is K2
    if kind == "h" or (kind == "gqr" and (spec.r, spec.q) in _CLAUSE_SCOPE):
        return critical_clause(spec) is not None
    return None


# -- recognition -------------------------------------------------------------


def _degree_multiset(G: Graph) -> list[int]:
    return sorted(G.degree(v) for v in range(G.n))


def _recognize_simple(G: Graph) -> Optional[FamilySpec]:
    n = G.n
    m = G.edge_count
    if m == n * (n - 1) // 2 and n >= 1:
        return FamilySpec("complete", n=n)
    degs = _degree_multiset(G)
    if n >= 4 and m == n and all(d == 2 for d in degs):
        return FamilySpec("cycle", n=n)
    if n >= 3 and degs == [1] * (n - 1) + [n - 1]:
        return FamilySpec("star", n=n - 1)
    if n >= 4 and m == n - 1 and degs == [1, 1] + [2] * (n - 2):
        return FamilySpec("path", n=n)
    for u in sorted(universal_vertices(G)):
        rest = [v for v in range(G.n) if v != u]
        rest_degs = sorted(G.degree(v) for v in rest)
        if n >= 5 and rest_degs == [3] * (n - 1):
            # hub + cycle: the rim must be one connected cycle, not several
            rim_edges = [e for e in G.edges() if u not in e]
            if len(rim_edges) == n - 1:
                rim = Graph(G.n, rim_edges)
                if len([c for c in components(rim) if len(c) > 1]) == 1:
                    return FamilySpec("wheel", n=n)
        if n >= 5 and n % 2 == 1 and rest_degs == [2] * (n - 1):
            rim_edges = [e for e in G.edges() if u not in e]
            if len(rim_edges) == (n - 1) // 2:
                return FamilySpec("friendship", n=(n - 1) // 2)
    return None


def _pendant_profile(bd, main_vertices: frozenset[int]):
    """Classify every non-main block as a pendant K2 or triangle on a main
    vertex; None when any block fails the shape."""
    counts: dict[int, list[int]] = {}
    for b in bd.blocks:
        if b.vertices == main_vertices:
            continue
        shared = b.vertices & main_vertices
        if len(shared) != 1:
            return None
        anchor = next(iter(shared))
        if b.is_k2:
            counts.setdefault(anchor, [0, 0])[0] += 1
        elif b.is_cycle and b.order == 3:
            counts.setdefault(anchor, [0, 0])[1] += 1
        else:
            return None
    return counts


def _recognize_gqr(G: Graph) -> Optional[FamilySpec]:
    bd = block_decomposition(G)
    cycles = [b for b in bd.blocks if b.is_cycle]
    if not cycles:
        return None
    best_len = max(b.order for b in cycles)
    if best_len not in (3, 4, 5):
        return None
    # Among largest cycles, try each as the main block in lexicographic
    # order.  Any two cycles that both qualify share every cut vertex, so
    # they read off the same parameters and the choice cannot change the
    # outcome.
    mains = sorted(
        (b for b in cycles if b.order == best_len),
        key=lambda b: tuple(sorted(b.vertices)),
    )
    for main in mains:
        spec = _read_gqr_with_main(G, bd, main)
        if spec is not None:
            return spec
    return None


def _read_gqr_with_main(G: Graph, bd, main) -> Optional[FamilySpec]:
    if not bd.cut_vertices <= main.vertices:
        return None
    counts = _pendant_profile(bd, main.vertices)
    if counts is None:
        return None
    if set(counts) != set(bd.cut_vertices) or not counts:
        return None

    # Cyclic order of the main block, then require the cut vertices to form
    # a consecutive arc; read the (k, m) tuple in every valid direction and
    # keep the lexicographically least.
    r = main.order
    adj_in_main = {v: [] for v in main.vertices}
    for a, b in main.edges:
        adj_in_main[a].append(b)
        adj_in_main[b].append(a)
    start = min(main.vertices)
    cyc = [start, min(adj_in_main[start])]
    while len(cyc) < r:
        prev, cur = cyc[-2], cyc[-1]
        cyc.append(next(w for w in adj_in_main[cur] if w != prev))
    cuts = set(counts)
    q = len(cuts)
    candidates = []
    for direction in (1, -1):
        seq = cyc if direction == 1 else list(reversed(cyc))
        for off in range(r):
            rot = [seq[(off + i) % r] for i in range(r)]
            if all(v in cuts for v in rot[:q]) and all(v not in cuts for v in rot[q:]):
                candidates.append(tuple((counts[v][0], counts[v][1]) for v in rot[:q]))
    if not candidates:
        return None
    return FamilySpec("gqr", r=r, pairs=min(candidates))


def _recognize_h(G: Graph) -> Optional[FamilySpec]:
    bd = block_decomposition(G)
    hubs = bd.cut_vertices
    if len(hubs) != 2 or not any(b.vertices == hubs for b in bd.blocks):
        return None  # two hubs, and the hub edge a bridge block of its own
    counts = _pendant_profile(bd, hubs)
    if counts is None or set(counts) != hubs:
        return None  # a non-hub block off the hubs, or a hub without pendants
    p1, p2 = (tuple(counts[u]) for u in sorted(hubs))
    return FamilySpec("h", pairs=min((p1, p2), (p2, p1)))


def recognize(G: Graph) -> Optional[FamilySpec]:
    """Match a connected graph against the named families.

    Overlapping memberships resolve by a fixed priority (complete, cycle,
    star, path, wheel, friendship, Gqr, H), so e.g. a triangle reports as K3
    and P4 as a path.  Building the returned spec always yields a graph
    isomorphic to the input.
    """
    if G.n == 0 or not is_connected(G):
        raise DisconnectedGraphError("recognition requires a connected, non-empty graph")
    simple = _recognize_simple(G)
    if simple is not None:
        return simple
    if not is_cactus(G):
        return None
    if G.edge_count >= G.n:  # has a cycle
        got = _recognize_gqr(G)
        if got is not None:
            return got
    return _recognize_h(G)
