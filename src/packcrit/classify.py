"""Structural criticality classifiers with clause-level verdicts.

Each classifier decides criticality purely from structure (family
recognition, independence-criticality of pieces, degree conditions), never
by computing packing chromatic numbers: the exact solver is the oracle the
verdicts are tested against, so using it here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import CharacterizationError, PreconditionError
from .families import critical_clause, recognize
from .graphs import (
    Graph,
    block_decomposition,
    components,
    delete_vertex,
    eccentricities,
    induced_subgraph,
    is_block_graph,
    is_cactus,
    is_connected,
    radius,
    universal_vertices,
)
from .independence import is_alpha_critical

@dataclass(frozen=True)
class Verdict:
    """Outcome of one characterization check.

    ``clause`` identifies the matched condition whenever a prediction was
    made; ``evidence`` carries the independently checkable facts behind it.
    """

    applicable: bool
    predicted_critical: Optional[bool]
    clause: Optional[str]
    evidence: dict = field(default_factory=dict, compare=False)


def classify_radius1(G: Graph) -> Verdict:
    """Criticality of graphs with a universal vertex.

    Diameter one means a complete graph: critical.  At diameter two, strip a
    universal vertex u: the graph is critical exactly when either the rest
    is connected, independence-critical, and of radius at least three, or
    the rest is disconnected with every component independence-critical and
    containing an edge.  (A single-vertex component is a leaf of the
    original graph, which already rules criticality out.)  The verdict must
    not depend on which universal vertex is stripped; disagreement between
    choices would refute the characterization and raises.
    """
    if G.n == 0 or not is_connected(G) or min(eccs := eccentricities(G)) != 1:
        raise PreconditionError("classifier applies to connected graphs of radius 1")
    if max(eccs) == 1:
        return Verdict(True, True, "thm12-complete", {"n": G.n})

    per_u = []
    for u in sorted(universal_vertices(G)):
        rest, _ = delete_vertex(G, u)
        comps = components(rest)
        if len(comps) == 1:
            alpha_crit = is_alpha_critical(rest).critical
            rad_ok = radius(rest) >= 3
            verdict = alpha_crit and rad_ok
            per_u.append(
                (u, verdict, "thm12-(i)" if verdict else "thm12-nomatch",
                 {"universal_vertex": u, "rest_connected": True,
                  "rest_alpha_critical": alpha_crit, "rest_radius_ge_3": rad_ok})
            )
        else:
            comp_ok = []
            for comp in comps:
                sub, _ = induced_subgraph(rest, comp)
                comp_ok.append(sub.n >= 2 and is_alpha_critical(sub).critical)
            verdict = all(comp_ok)
            per_u.append(
                (u, verdict, "thm12-(ii)" if verdict else "thm12-nomatch",
                 {"universal_vertex": u, "rest_connected": False,
                  "components_alpha_critical": tuple(comp_ok)})
            )
    verdicts = {v for _, v, _, _ in per_u}
    if len(verdicts) != 1:
        raise CharacterizationError(
            f"universal-vertex choice changed the verdict: {per_u!r}"
        )
    u, verdict, clause, evidence = per_u[0]
    evidence["checked_universal_vertices"] = tuple(x for x, _, _, _ in per_u)
    return Verdict(True, verdict, clause, evidence)


def classify_cactus_rad2_diam2(G: Graph) -> Verdict:
    """Criticality of radius-2, diameter-2 cacti.

    Every such cactus is a 4-cycle or a 5-cycle; only the 5-cycle is
    critical.  Anything else in the hypothesis class would refute the
    characterization and raises.
    """
    if not is_cactus(G):
        raise PreconditionError("classifier applies to cactus graphs")
    eccs = eccentricities(G)
    if min(eccs) != 2 or max(eccs) != 2:
        raise PreconditionError("classifier applies at radius 2, diameter 2")
    degs = sorted(G.degree(v) for v in range(G.n))
    if G.n == 5 and degs == [2] * 5 and G.edge_count == 5:
        return Verdict(True, True, "teo3-(c5)", {"isomorphic_to": "C5"})
    if G.n == 4 and degs == [2] * 4 and G.edge_count == 4:
        return Verdict(True, False, "teo3-(c4)", {"isomorphic_to": "C4"})
    raise CharacterizationError(
        "radius-2 diameter-2 cactus is neither C4 nor C5; this refutes the characterization"
    )


def classify_cactus_rad2_diam3(G: Graph) -> Verdict:
    """Criticality of radius-2, diameter-3 cacti via the twelve-clause
    family characterization (``families.critical_clause``); unrecognized
    members are predicted non-critical."""
    if not is_cactus(G):
        raise PreconditionError("classifier applies to cactus graphs")
    eccs = eccentricities(G)
    if min(eccs) != 2 or max(eccs) != 3:
        raise PreconditionError("classifier applies at radius 2, diameter 3")
    spec = recognize(G)
    clause = None if spec is None else critical_clause(spec)
    evidence = {"family": None if spec is None else str(spec)}
    if clause is None:
        return Verdict(True, False, "teo4-nomatch", evidence)
    return Verdict(True, True, f"teo4-({clause})", evidence)


def block_graph_diam3_criterion(G: Graph) -> Verdict:
    """Criticality of diameter-3 block graphs from the central block.

    The central block B is the block induced by the center.  Criticality
    holds exactly when (a) every vertex of B has degree |B|, or (b) every
    vertex of B has degree |B|+1 with exactly |B|-1 of them carrying two
    pendant leaves, or (c) every vertex of B locally qualifies - a side
    block of order >= 4 and no leaf neighbor, or two triangle side blocks
    and no leaf neighbor, or degree |B|+1 with two leaf neighbors - with at
    least one vertex qualifying through the first two options.  Degrees are
    counted in the whole graph.
    """
    if not is_block_graph(G):
        raise PreconditionError("criterion applies to block graphs")
    eccs = eccentricities(G)
    if max(eccs) != 3:
        raise PreconditionError("criterion applies at diameter 3")
    rad = min(eccs)
    ctr = frozenset(v for v, e in enumerate(eccs) if e == rad)
    bd = block_decomposition(G)
    central = None
    for b in bd.blocks:
        if b.vertices == ctr:
            central = b
            break
    if central is None:
        raise CharacterizationError(
            f"center {sorted(ctr)} does not induce a block; "
            "this refutes the central-block structure"
        )
    bsize = central.order
    leaf_nbrs = {
        x: sum(1 for w in G.neighbors(x) if G.degree(w) == 1) for x in central.vertices
    }
    side_blocks = {
        x: [b for b in bd.blocks if b is not central and x in b.vertices]
        for x in central.vertices
    }

    if all(G.degree(x) == bsize for x in central.vertices):
        return Verdict(True, True, "lemma8-(a)", {"central_block_order": bsize})

    if all(G.degree(x) == bsize + 1 for x in central.vertices):
        two_leafers = sum(1 for x in central.vertices if leaf_nbrs[x] == 2)
        if two_leafers == bsize - 1:
            return Verdict(
                True, True, "lemma8-(b)",
                {"central_block_order": bsize, "two_leaf_vertices": two_leafers},
            )

    sub: dict[int, Optional[str]] = {}
    for x in sorted(central.vertices):
        if leaf_nbrs[x] == 0 and any(b.order >= 4 for b in side_blocks[x]):
            sub[x] = "c1"
        elif leaf_nbrs[x] == 0 and sum(1 for b in side_blocks[x] if b.order == 3) >= 2:
            sub[x] = "c2"
        elif G.degree(x) == bsize + 1 and leaf_nbrs[x] == 2:
            sub[x] = "c3"
        else:
            sub[x] = None
    if all(sub.values()) and any(v in ("c1", "c2") for v in sub.values()):
        return Verdict(True, True, "lemma8-(c)", {"subclauses": sub})
    return Verdict(True, False, "lemma8-nomatch", {"subclauses": sub})
