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

Each classic kind is one row of ``_SIMPLE``: its spec prefix, least n,
order, labeled edges and roles, and closed-form packing chromatic number,
which validation, text, parsing, building and the closed form all read.
Gqr and H share one builder and one reader: H's hub edge is a two-vertex
main block that carries the pendants as Gqr's C_r does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import DisconnectedGraphError, SpecSyntaxError
from .graphs import (
    Block,
    BlockDecomposition,
    Edge,
    Graph,
    block_decomposition,
    delete_vertex,
    is_connected,
)

Pair = tuple[int, int]


class _Simple(NamedTuple):
    """One simple kind: its spec prefix, the least ``n`` with the error text
    for a smaller one, the order, the labeled edges and per-vertex roles,
    and the closed-form packing chromatic number (None where no formula
    covers ``n``), each a function of ``n``."""

    prefix: str
    least: int
    error: str
    order: Callable[[int], int]
    edges: Callable[[int], list[Edge]]
    roles: Callable[[int], list[str]]
    chi_rho: Callable[[int], Optional[int]]


def _ring(n: int, first: int = 0) -> list[Edge]:
    """The edges of a cycle through first, ..., first + n - 1, in order."""
    return [(first + i, first + (i + 1) % n) for i in range(n)]


_SIMPLE = {
    "path": _Simple(
        "P", 1, "path needs n >= 1", lambda n: n,
        lambda n: [(i, i + 1) for i in range(n - 1)],
        lambda n: [f"v{i + 1}" for i in range(n)],
        {1: 1, 2: 2, 3: 2, 4: 3, 5: 3}.get),
    "cycle": _Simple(
        "C", 3, "cycle needs n >= 3", lambda n: n, _ring,
        lambda n: [f"x{i + 1}" for i in range(n)],
        {3: 3, 4: 3, 5: 4}.get),
    "complete": _Simple(
        "K", 1, "complete graph needs n >= 1", lambda n: n,
        lambda n: list(combinations(range(n), 2)),
        lambda n: [f"v{i + 1}" for i in range(n)],
        lambda n: n),
    "star": _Simple(
        "K1,", 1, "star K1,n needs n >= 1", lambda n: n + 1,
        lambda n: [(0, i) for i in range(1, n + 1)],
        lambda n: ["hub"] + [f"leaf{i}" for i in range(1, n + 1)],
        lambda n: 2),
    "wheel": _Simple(
        "W", 4, "wheel needs n >= 4 (hub plus a cycle)", lambda n: n,
        lambda n: _ring(n - 1, 1) + [(0, i) for i in range(1, n)],
        lambda n: ["hub"] + [f"r{i}" for i in range(1, n)],
        lambda n: None),
    "friendship": _Simple(
        "T", 1, "friendship graph needs n >= 1", lambda n: 2 * n + 1,
        lambda n: [e for a in range(1, 2 * n, 2) for e in ((0, a), (0, a + 1), (a, a + 1))],
        lambda n: ["hub"] + [f"{c}{t}" for t in range(1, n + 1) for c in "ab"],
        lambda n: n + 2),
}

#: Decorated kind -> (role letter of its main block, role letters of a
#: pendant triangle).  Gqr's main block is C_r; H's is the hub edge.
_DECORATED = {"gqr": ("x", "uv"), "h": ("u", "ab")}

KINDS = (*_SIMPLE, *_DECORATED)

#: The letters a spec text can start with.
SPEC_LETTERS = "GH" + "".join(dict.fromkeys(row.prefix[0] for row in _SIMPLE.values()))


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic description of one family member.

    ``n`` parametrizes the simple families; ``r`` and ``pairs`` parametrize
    Gqr (q = len(pairs)); H uses exactly two pairs.  A field the kind does
    not read keeps its default, so H's ``r`` is 0.
    """

    kind: str
    n: int = 0
    r: int = 0
    pairs: tuple[Pair, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        unread = ("r", "pairs") if self.kind in _SIMPLE else ("n",) if self.kind == "gqr" else ("n", "r")
        extra = [name for name in unread if getattr(self, name)]
        if extra:
            raise ValueError(f"a {self.kind} spec takes no {' or '.join(extra)}")
        if self.kind in _SIMPLE:
            row = _SIMPLE[self.kind]
            if self.n < row.least:
                raise ValueError(row.error)
            return
        if self.kind == "gqr":
            if self.r not in (3, 4, 5):
                raise ValueError(f"Gqr main cycle length must be 3, 4 or 5, got {self.r}")
            if not 1 <= self.q <= self.r:
                raise ValueError(f"Gqr needs 1 <= q <= r, got q={self.q}, r={self.r}")
        elif self.q != 2:
            raise ValueError("H takes exactly two (k, m) pairs")
        for k, m in self.pairs:
            if k < 0 or m < 0:
                raise ValueError(f"pendant counts must be non-negative, got ({k}, {m})")
            if k + m < 1:
                raise ValueError("every decorated vertex needs k + m >= 1")

    @property
    def q(self) -> int:
        return len(self.pairs)

    def mirror(self) -> FamilySpec:
        """The spec read from the other end of its main block: Gqr's pairs
        reversed, H's two pairs swapped, any other kind itself.  It builds a
        graph isomorphic to this spec's: the reflection x -> q - 1 - x
        (mod r) of C_r, or the swap of H's two hubs, maps the i-th decorated
        vertex onto the (q + 1 - i)-th."""
        if self.kind in _SIMPLE:
            return self
        return FamilySpec(self.kind, r=self.r, pairs=self.pairs[::-1])

    def vertex_count(self) -> int:
        if self.kind in _SIMPLE:
            return _SIMPLE[self.kind].order(self.n)
        return (self.r or 2) + sum(k + 2 * m for k, m in self.pairs)

    def __str__(self) -> str:
        if self.kind in _SIMPLE:
            return f"{_SIMPLE[self.kind].prefix}{self.n}"
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
        pos = next((start + i for i, ch in enumerate(body) if ch not in "0123456789,;"), start)
        raise SpecSyntaxError("expected 'k,m' pairs separated by ';'", text, pos)
    return tuple(tuple(map(int, p.split(","))) for p in body.split(";"))


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
        rows = [(kind, row) for kind, row in _SIMPLE.items() if row.prefix[0] == head]
        for kind, row in rows:
            m = re.fullmatch(rf"{row.prefix}(\d+)", s)
            if m:
                return FamilySpec(kind, n=int(m.group(1)))
        if rows:
            raise SpecSyntaxError("expected " + " or ".join(row.prefix + "{n}" for _, row in rows), s, 1)
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
    """Realize the spec with a fixed canonical labeling and a vertex->role map.

    A decorated kind is its main block on vertices 0, 1, ..., with the i-th
    pair's pendant edges, then its pendant triangles, on main vertex i - 1.
    """
    if spec.kind in _SIMPLE:
        row = _SIMPLE[spec.kind]
        return BuiltFamily(Graph(row.order(spec.n), row.edges(spec.n)), dict(enumerate(row.roles(spec.n))))
    main, (a, b) = _DECORATED[spec.kind]
    r = spec.r or 2  # H's main block is its two hubs
    edges = _ring(r)  # for r = 2, (0, 1) and (1, 0): Graph keeps one hub edge
    roles = [f"{main}{i + 1}" for i in range(r)]
    for i, (k, m) in enumerate(spec.pairs, start=1):
        for j in range(1, k + 1):
            edges.append((i - 1, len(roles)))
            roles.append(f"w{i}_{j}")
        for j in range(1, m + 1):
            u = len(roles)
            edges += [(i - 1, u), (i - 1, u + 1), (u, u + 1)]
            roles += [f"{a}{i}_{j}", f"{b}{i}_{j}"]
    return BuiltFamily(Graph(len(roles), edges), dict(enumerate(roles)))


# -- closed forms ------------------------------------------------------------


#: Gqr's closed forms by (r, q), from the pendant-triangle counts m_i.
_GQR_CHI_RHO = {
    (5, 1): lambda ms: 4 if sum(ms) == 0 else sum(ms) + 3,
    (5, 2): lambda ms: 4 if sum(ms) == 0 else sum(ms) + (3 if 0 in ms else 2),
    (4, 1): lambda ms: 3 if sum(ms) == 0 else sum(ms) + 2,
    (4, 2): lambda ms: 4 if sum(ms) == 0 else sum(ms) + 3,
}


def closed_form_chi_rho(spec: FamilySpec) -> Optional[int]:
    """The family's exact packing chromatic number when a closed form is
    known; None where no formula covers the parameters."""
    if spec.kind in _SIMPLE:
        return _SIMPLE[spec.kind].chi_rho(spec.n)
    if spec.kind == "gqr":
        form = _GQR_CHI_RHO.get((spec.r, spec.q))
        return None if form is None else form([m for _, m in spec.pairs])
    for (ka, ma), (kb, mb) in (spec.pairs, spec.pairs[::-1]):
        if ma >= 1 and mb == 0 and kb >= 2:
            return ma + 3  # |V| - alpha + 1 for this shape
    return None


def _triangles_only(pairs: Iterable[Pair]) -> bool:
    """Every decorated vertex carries two or more pendant triangles and no
    pendant edge."""
    return all(k == 0 and m >= 2 for k, m in pairs)


#: The critical radius-2, diameter-3 cacti, clause by clause: (name, the
#: (kind, r, q) shape it covers, predicate on the sorted pairs).  Pendant
#: positions on a triangle main block and on the two H hubs are
#: interchangeable, and the other clauses read no position.  Clause (i) is
#: P4, which is H(1,0;1,0).
_CRITICAL_CLAUSES = (
    ("i", ("h", 0, 2), lambda p: p == [(1, 0), (1, 0)]),
    ("ii", ("gqr", 5, 1), lambda p: p[0][0] == 0 and p[0][1] >= 2),
    ("iii", ("gqr", 4, 2), lambda p: p == [(1, 0), (1, 0)]),
    ("iv", ("gqr", 4, 2), lambda p: all(k == 0 and m >= 1 for k, m in p)),
    ("v", ("gqr", 3, 3), lambda p: p == [(1, 0), (1, 0), (1, 0)]),
    ("vi", ("gqr", 3, 3), lambda p: p == [(0, 1), (2, 0), (2, 0)]),
    ("vii", ("gqr", 3, 3), _triangles_only),
    ("viii", ("gqr", 3, 3), lambda p: p[2] == (2, 0) and _triangles_only(p[:2])),
    ("ix", ("gqr", 3, 3), lambda p: p[1:] == [(2, 0), (2, 0)] and _triangles_only(p[:1])),
    ("x", ("h", 0, 2), lambda p: p == [(0, 1), (2, 0)]),
    ("xi", ("h", 0, 2), _triangles_only),
    ("xii", ("h", 0, 2), lambda p: p[1] == (2, 0) and _triangles_only(p[:1])),
)

#: The (r, q) shapes of Gqr that are radius-2, diameter-3 cacti.
_CLAUSE_SCOPE = frozenset({(5, 1), (5, 2), (4, 1), (4, 2), (3, 3), (3, 2)})


def critical_clause(spec: FamilySpec) -> Optional[str]:
    """The first clause, (i) to (xii), of the critical radius-2 diameter-3
    cactus list that ``spec`` satisfies, by name, or None.  P4 matches
    clause (i)."""
    if spec.kind == "path":
        return "i" if spec.n == 4 else None
    shape, pairs = (spec.kind, spec.r, spec.q), sorted(spec.pairs)
    return next((name for name, at, pred in _CRITICAL_CLAUSES if at == shape and pred(pairs)), None)


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


def _recognize_simple(G: Graph) -> Optional[FamilySpec]:
    """The classic kind of a connected graph, read off its degree multiset
    (and, for a wheel, its rim).  The small graphs that also fit a later
    test (K3 a cycle, P3 a path) are taken by an earlier one."""
    n = G.n
    degs = sorted(G.degree(v) for v in range(n))
    if degs[0] == n - 1:
        return FamilySpec("complete", n=n)
    if degs == [2] * n:
        return FamilySpec("cycle", n=n)
    if degs == [1] * (n - 1) + [n - 1]:
        return FamilySpec("star", n=n - 1)
    if degs == [1, 1] + [2] * (n - 2):
        return FamilySpec("path", n=n)
    if degs[-1] == n - 1 and degs[0] == degs[-2] in (2, 3):
        # one hub over a rim that is 1-regular (friendship) or 2-regular
        # (a wheel once it is one cycle)
        if degs[0] == 2:
            return FamilySpec("friendship", n=(n - 1) // 2)
        hub = next(v for v in range(n) if G.degree(v) == n - 1)
        if is_connected(delete_vertex(G, hub)[0]):
            return FamilySpec("wheel", n=n)
    return None


def _read_decorated(bd: BlockDecomposition, main: Block) -> Optional[FamilySpec]:
    """Read the graph as Gqr around a main cycle, or as H around the K2 of
    its two hubs: every cut vertex lies on ``main``, and every other block is
    a pendant K2 or triangle on one main vertex.  The pairs are read along
    ``main`` in both directions from each rotation that puts the cut
    vertices first, and the least reading is kept."""
    cuts = bd.cut_vertices
    if not cuts or not cuts <= main.vertices:
        return None
    counts = {v: [0, 0] for v in cuts}  # cut vertex -> [pendant K2s, pendant triangles]
    for b in bd.blocks:
        if b is main:
            continue
        shared = b.vertices & main.vertices
        if len(shared) != 1 or not (b.is_k2 or b.order == 3):
            return None
        counts[next(iter(shared))][b.order - 2] += 1
    adj: dict[int, list[int]] = {v: [] for v in main.vertices}
    for a, b in main.edges:
        adj[a].append(b)
        adj[b].append(a)
    r, q = main.order, len(cuts)
    cyc = [min(main.vertices)]
    cyc.append(min(adj[cyc[0]]))
    while len(cyc) < r:
        cyc.append(next(w for w in adj[cyc[-1]] if w != cyc[-2]))
    readings = [
        tuple(tuple(counts[v]) for v in rot[:q])
        for seq in (cyc, cyc[::-1])
        for rot in (seq[i:] + seq[:i] for i in range(r))
        if cuts.issuperset(rot[:q])
    ]
    if not readings:
        return None  # the cut vertices are not one arc of ``main``
    if r == 2:
        return FamilySpec("h", pairs=min(readings))
    return FamilySpec("gqr", r=r, pairs=min(readings))


def recognize(G: Graph) -> Optional[FamilySpec]:
    """Match a connected graph against the named families.

    Overlapping memberships resolve by a fixed priority (complete, cycle,
    star, path, wheel, friendship, Gqr, H), so e.g. a triangle reports as K3
    and P4 as a path.  A cactus is read as Gqr around each of its longest
    cycles, if they have at most 5 vertices, in block order, and then as H
    around the K2 block that equals its cut set; the first reading that
    succeeds is the answer.  Building the returned spec always yields a
    graph isomorphic to the input.
    """
    if G.n == 0 or not is_connected(G):
        raise DisconnectedGraphError("recognition requires a connected, non-empty graph")
    simple = _recognize_simple(G)
    if simple is not None:
        return simple
    bd = block_decomposition(G)
    if not all(b.is_k2 or b.is_cycle for b in bd.blocks):
        return None  # not a cactus
    longest = max(b.order for b in bd.blocks)
    mains = [b for b in bd.blocks if b.is_cycle and b.order == longest <= 5]
    mains += [b for b in bd.blocks if b.is_k2 and b.vertices == bd.cut_vertices]
    for main in mains:
        spec = _read_decorated(bd, main)
        if spec is not None:
            return spec
    return None
