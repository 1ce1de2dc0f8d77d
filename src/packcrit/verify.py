"""Theorem-verification sweeps: predicted values against exact oracles.

Each sweep enumerates every instance of a result's hypothesis class within
a size budget, computes the structural prediction (closed form, classifier
verdict, or claimed property) and the exhaustive-solver oracle, and records
the pair.  Records are line-replayable: every one carries its instance in
graph6.

Every sweep is one row of the table at the bottom of this module: its id, a
description of the configuration, an instance source, an evaluator
``(graph, spec or None) -> (predicted, oracle)`` and its default sizes.  An
instance source is a family-spec generator (``_specs``), a hypothesis class
(``_class``), or one of two custom sources (hub graphs, lem-rad3).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import families
from .classify import (
    block_graph_diam3_criterion,
    classify_cactus_rad2_diam2,
    classify_cactus_rad2_diam3,
    classify_radius1,
)
from .criticality import is_edge_critical
from .enumeration import EnumerationFilter, enumerate_graphs
from .errors import CharacterizationError, PreconditionError
from .families import FamilySpec, build, closed_form_chi_rho, closed_form_critical
from .graphio import emit_graph6, parse_graph6
from .graphs import (
    Graph,
    block_decomposition,
    bridges,
    components,
    delete_edge,
    delete_vertex,
    diameter,
    induced_subgraph,
    is_cactus,
    is_connected,
    is_tree,
    radius,
    universal_vertices,
)
from .independence import (
    alpha,
    check_lemma_rad3,
    haynes_check,
    is_alpha_critical,
    mis_avoiding,
)
from .iso import is_isomorphic
from .packing import chi_rho

DEFAULT_JOBS = 1


@dataclass
class Sweep:
    """One row of the sweep table.  ``describe`` and ``payloads`` take the
    run's configuration: ``defaults`` overridden by the caller's sizes, plus
    ``corpus``."""

    theorem: str
    describe: Callable[[dict], str]
    payloads: Callable[[dict], list[dict]]
    evaluate: Callable[[Graph, Optional[FamilySpec]], tuple[object, object]]
    defaults: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    theorem: str
    description: str
    records: list[dict]
    wall_time_s: float

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def disagreements(self) -> list[dict]:
        return [r for r in self.records if not r["agree"]]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAIL ({len(self.disagreements)} disagreements)"
        return (
            f"{self.theorem}: {status} — {self.total} instances, "
            f"{self.description}, {self.wall_time_s:.2f}s"
        )

    def write_ldjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def evaluate_payload(theorem: str, payload: dict) -> dict:
    """Build one instance and evaluate it; ``micros`` covers both.

    A CharacterizationError or PreconditionError does not abort the sweep:
    the instance is recorded as a disagreement whose ``error`` field holds
    ``"Type: message"``.
    """
    sweep = THEOREMS[theorem]
    G = None
    error = None
    t0 = time.perf_counter()
    try:
        if payload.get("spec") is not None:
            # Looked up on the module at call time, so that a wrapper
            # installed on packcrit.families (bench/spans.py) sees the call.
            spec = families.parse_spec(payload["spec"])
            G = build(spec).graph
        else:
            spec = None
            G = parse_graph6(payload["g6"])
        predicted, oracle = sweep.evaluate(G, spec)
    except (CharacterizationError, PreconditionError) as exc:
        predicted = oracle = None
        error = f"{type(exc).__name__}: {exc}"
    micros = int((time.perf_counter() - t0) * 1e6)
    record = {
        "theorem": theorem,
        "instance_g6": emit_graph6(G) if G is not None else payload.get("g6", ""),
        "spec": payload.get("spec"),
        "predicted": predicted,
        "oracle": oracle,
        "agree": error is None and predicted == oracle,
        "micros": micros,
    }
    if error is not None:
        record["error"] = error
    return record


def _eval_star(args):
    return evaluate_payload(*args)


def run_sweep(
    theorem: str,
    *,
    max_vertices: Optional[int] = None,
    base_max: Optional[int] = None,
    jobs: int = DEFAULT_JOBS,
    corpus: Optional[list[Graph]] = None,
) -> VerificationReport:
    """Run one theorem sweep and return its report.

    ``corpus`` substitutes externally supplied graphs for internal
    enumeration in class-based sweeps; the sweep's hypothesis class and
    extra predicate still filter them.  At most
    ``min(jobs, os.cpu_count(), number of instances)`` worker processes run.
    """
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}; known: {sorted(THEOREMS)}")
    sweep = THEOREMS[theorem]
    cfg = dict(sweep.defaults)
    if max_vertices is not None:
        cfg["max_vertices"] = max_vertices
    if base_max is not None:
        cfg["base_max"] = base_max
    cfg["corpus"] = corpus
    t0 = time.perf_counter()
    payloads = sweep.payloads(cfg)
    workers = min(jobs, os.cpu_count() or 1, len(payloads))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            records = pool.map(_eval_star, [(theorem, p) for p in payloads])
    else:
        records = [evaluate_payload(theorem, p) for p in payloads]
    records.sort(key=lambda r: (r["instance_g6"], r["spec"] or ""))
    wall = time.perf_counter() - t0
    return VerificationReport(theorem, sweep.describe(cfg), records, wall)


# -- instance sources ----------------------------------------------------------


def _specs(generate: Callable[[Optional[int]], Iterable[FamilySpec]]):
    """Spec source: the family specs ``generate(max_vertices)`` yields."""
    return lambda cfg: [{"spec": str(s)} for s in generate(cfg.get("max_vertices"))]


def _class(extra: Optional[Callable[[Graph], bool]] = None, **filter_args):
    """Class source: the graphs of ``EnumerationFilter(max_n=max_vertices,
    **filter_args)`` that pass ``extra``.  A supplied corpus replaces the
    enumeration; a corpus graph is kept when it matches the filter and
    passes ``extra``."""

    def payloads(cfg: dict) -> list[dict]:
        filt = EnumerationFilter(max_n=cfg["max_vertices"], **filter_args)
        if cfg["corpus"] is None:
            graphs = enumerate_graphs(filt)
        else:
            graphs = (g for g in cfg["corpus"] if _matches_filter(g, filt))
        return [{"g6": emit_graph6(g)} for g in graphs if extra is None or extra(g)]

    return payloads


def _matches_filter(g: Graph, filt: EnumerationFilter) -> bool:
    if not (filt.min_n <= g.n <= filt.max_n):
        return False
    if filt.structure == "tree" and not is_tree(g):
        return False
    if filt.structure == "cactus" and not is_cactus(g):
        return False
    if filt.connected is not None and is_connected(g) != filt.connected:
        return False
    if filt.radius is not None and (not is_connected(g) or radius(g) != filt.radius):
        return False
    if filt.diameter is not None and (not is_connected(g) or diameter(g) != filt.diameter):
        return False
    return True


def _hub_plus(base: Graph) -> Graph:
    edges = base.edges() + [(v, base.n) for v in range(base.n)]
    return Graph(base.n + 1, edges)


def _hub_payloads(cfg: dict) -> list[dict]:
    """A hub joined to every graph on at most ``base_max`` vertices; a
    supplied corpus contributes its radius-1 graphs instead."""
    corpus = cfg["corpus"]
    if corpus is not None:
        graphs = [g for g in corpus if g.n >= 2 and is_connected(g) and radius(g) == 1]
    else:
        bases = enumerate_graphs(EnumerationFilter(max_n=cfg["base_max"]))
        graphs = [_hub_plus(b) for b in bases]
    return [{"g6": emit_graph6(g)} for g in graphs]


def _lem_rad3_payloads(cfg: dict) -> list[dict]:
    graphs = [build(FamilySpec("cycle", n=n)).graph for n in range(7, cfg["max_vertices"] + 1, 2)]
    small = enumerate_graphs(
        EnumerationFilter(max_n=min(7, cfg["max_vertices"]), min_n=4, connected=True)
    )
    graphs.extend(g for g in small if radius(g) >= 3 and is_alpha_critical(g).critical)
    return [{"g6": key} for key in dict.fromkeys(emit_graph6(g) for g in graphs)]


def _g15_specs(max_v: int) -> list[FamilySpec]:
    out = []
    for m1 in range((max_v - 5) // 2 + 1):
        for k1 in range(max_v - 5 - 2 * m1 + 1):
            if k1 + m1 >= 1 and 5 + k1 + 2 * m1 <= max_v:
                out.append(FamilySpec("gqr", r=5, pairs=((k1, m1),)))
    return out


def _gq2_specs(r: int, max_v: int) -> list[FamilySpec]:
    out = []
    budget = max_v - r
    for k1 in range(budget + 1):
        for m1 in range((budget - k1) // 2 + 1):
            if k1 + m1 < 1:
                continue
            for k2 in range(budget - k1 - 2 * m1 + 1):
                for m2 in range((budget - k1 - 2 * m1 - k2) // 2 + 1):
                    if k2 + m2 < 1:
                        continue
                    out.append(FamilySpec("gqr", r=r, pairs=((k1, m1), (k2, m2))))
    return out


def _g14_specs(max_v: int) -> list[FamilySpec]:
    out = []
    for m1 in range((max_v - 4) // 2 + 1):
        for k1 in range(max_v - 4 - 2 * m1 + 1):
            if k1 + m1 >= 1:
                out.append(FamilySpec("gqr", r=4, pairs=((k1, m1),)))
    return out


def _h_lemma7_specs(max_v: int) -> list[FamilySpec]:
    out = []
    budget = max_v - 2
    for m1 in range(1, budget // 2 + 1):
        for k1 in range(budget - 2 * m1 + 1):
            for k2 in range(2, budget - 2 * m1 - k1 + 1):
                out.append(FamilySpec("h", pairs=((k1, m1), (k2, 0))))
    return out


def _teo1_instances() -> list[FamilySpec]:
    g = lambda *pairs: FamilySpec("gqr", r=3, pairs=tuple(pairs))
    h = lambda *pairs: FamilySpec("h", pairs=tuple(pairs))
    return [
        g((1, 0), (1, 0), (1, 0)),
        g((2, 0), (2, 0), (0, 1)),
        g((0, 2), (0, 2), (0, 2)), g((0, 3), (0, 2), (0, 2)),
        g((0, 2), (0, 2), (2, 0)), g((0, 3), (0, 2), (2, 0)),
        g((0, 2), (2, 0), (2, 0)), g((0, 3), (2, 0), (2, 0)),
        h((2, 0), (0, 1)),
        h((0, 2), (0, 2)), h((0, 3), (0, 2)),
        h((0, 2), (2, 0)), h((0, 3), (2, 0)),
    ]


def _c3_main_block(g: Graph) -> bool:
    """The longest cycle block of a cactus is a triangle."""
    return max((b.order for b in block_decomposition(g).blocks if b.is_cycle), default=0) == 3


# -- evaluators: (graph, spec or None) -> (predicted, oracle) -------------------


def _formula(G: Graph, spec: FamilySpec):
    return closed_form_chi_rho(spec), chi_rho(G).value


def _closed_critical(G: Graph, spec: FamilySpec):
    return closed_form_critical(spec), is_edge_critical(G).critical


def _never_critical(G: Graph, spec: FamilySpec):
    return False, is_edge_critical(G).critical


def _lemma4(G: Graph, _):
    bound = G.n - alpha(G) + 1
    value = chi_rho(G).value
    return True, value <= bound and (diameter(G) != 2 or value == bound)


def _lemma6(G: Graph, _):
    rep = is_edge_critical(G)
    return True, rep.base_chi_rho == 4 and rep.critical


def _pro14(G: Graph, _):
    if G.n < 3:
        return True, True
    critical = is_edge_critical(G).critical
    return True, not critical or all(G.degree(v) != 1 for v in range(G.n))


def _cor1(G: Graph, _):
    if G.n < 3 or not is_edge_critical(G).critical:
        return True, True
    for u in sorted(universal_vertices(G)):
        rest, _ = delete_vertex(G, u)
        for comp in components(rest):
            sub, _ = induced_subgraph(rest, comp)
            if not is_alpha_critical(sub).critical:
                return True, False
    return True, True


def _obsv1(G: Graph, _):
    d = diameter(G)
    for e in sorted(bridges(G)):
        H = delete_edge(G, e)
        for comp in components(H):
            sub, _ = induced_subgraph(H, comp)
            if sub.n >= 1 and diameter(sub) > d:
                return True, False
    return True, True


def _gq2_leaves_only(v):
    return (
        s for s in _gq2_specs(4, v)
        if s.pairs[0][1] == 0 and s.pairs[1][1] == 0 and s.pairs[0][0] + s.pairs[1][0] >= 3
    )


def _gq2_mixed(v):
    return (
        s for s in _gq2_specs(4, v)
        if s.pairs[0][1] + s.pairs[1][1] >= 1 and s.pairs[0][0] + s.pairs[1][0] >= 1
    )


# -- the sweeps ----------------------------------------------------------------

_MV = "max_vertices"  # the size every sweep but the hub sweeps (base_max) reads

THEOREMS: dict[str, Sweep] = {sweep.theorem: sweep for sweep in (
    Sweep("pro4", lambda c: f"pendant-decorated C5, one cut vertex, |V|<={c[_MV]}: formula vs solver",
          _specs(_g15_specs), _formula, {_MV: 14}),
    Sweep("pro5", lambda c: f"decorated C5 with k1>0, |V|<={c[_MV]}: never critical",
          _specs(lambda v: (s for s in _g15_specs(v) if s.pairs[0][0] > 0)), _never_critical, {_MV: 12}),
    Sweep("pro6", lambda c: "single triangle on C5: not critical",
          _specs(lambda v: [FamilySpec("gqr", r=5, pairs=((0, 1),))]), _never_critical),
    Sweep("pro7", lambda c: f"decorated C5, one cut vertex, |V|<={c[_MV]}: criticality iff k1=0, m1>=2",
          _specs(_g15_specs), _closed_critical, {_MV: 12}),
    Sweep("pro8", lambda c: f"decorated C5, two cut vertices, |V|<={c[_MV]}: formula vs solver",
          _specs(lambda v: _gq2_specs(5, v)), _formula, {_MV: 14}),
    Sweep("pro9", lambda c: f"decorated C5, two cut vertices, |V|<={c[_MV]}: never critical",
          _specs(lambda v: _gq2_specs(5, v)), _never_critical, {_MV: 12}),
    Sweep("pro10", lambda c: f"decorated C4, one cut vertex, |V|<={c[_MV]}: formula vs solver",
          _specs(_g14_specs), _formula, {_MV: 14}),
    Sweep("pro11", lambda c: f"decorated C4, one cut vertex, |V|<={c[_MV]}: never critical",
          _specs(_g14_specs), _never_critical, {_MV: 12}),
    Sweep("pro12", lambda c: f"decorated C4, two cut vertices, |V|<={c[_MV]}: formula vs solver",
          _specs(lambda v: _gq2_specs(4, v)), _formula, {_MV: 14}),
    Sweep("pro13", lambda c: f"decorated C4, two cut vertices, |V|<={c[_MV]}: criticality clauses",
          _specs(lambda v: _gq2_specs(4, v)), _closed_critical, {_MV: 12}),
    Sweep("pro15", lambda c: f"decorated C4, leaves only, k1+k2>=3, |V|<={c[_MV]}: never critical",
          _specs(_gq2_leaves_only), _never_critical, {_MV: 12}),
    Sweep("pro16", lambda c: f"decorated C4, mixed pendants, |V|<={c[_MV]}: never critical",
          _specs(_gq2_mixed), _never_critical, {_MV: 12}),
    Sweep("lemma4", lambda c: f"connected graphs n<={c[_MV]}: chi <= |V|-alpha+1, equality at diameter 2",
          _class(connected=True), _lemma4, {_MV: 7}),
    Sweep("lemma5", lambda c: f"friendship graphs with at most {(c[_MV] - 1) // 2} triangles: chi = n+2",
          _specs(lambda v: (FamilySpec("friendship", n=i) for i in range(1, (v - 1) // 2 + 1))),
          lambda G, spec: (spec.n + 2, chi_rho(G).value), {_MV: 11}),
    Sweep("lemma6", lambda c: "C4 with one leaf on each of two adjacent vertices: 4-critical",
          _specs(lambda v: [FamilySpec("gqr", r=4, pairs=((1, 0), (1, 0)))]), _lemma6),
    Sweep("lemma7", lambda c: f"double-hub H(k1,m1;k2,0), m1>=1, k2>=2, |V|<={c[_MV]}: chi = |V|-alpha+1",
          _specs(_h_lemma7_specs), lambda G, _: (G.n - alpha(G) + 1, chi_rho(G).value), {_MV: 13}),
    Sweep("lemma8", lambda c: (f"diameter-3 block-graph cacti with triangle main block, n<={c[_MV]}: "
                               "central-block criterion vs solver"),
          _class(_c3_main_block, structure="cactus", diameter=3),
          lambda G, _: (block_graph_diam3_criterion(G).predicted_critical, is_edge_critical(G).critical), {_MV: 9}),
    Sweep("teo1", lambda c: "triangle-main-block critical clauses at their two smallest parameter settings",
          _specs(lambda v: _teo1_instances()), _closed_critical),
    Sweep("teo3", lambda c: f"radius-2 diameter-2 cacti n<={c[_MV]}: classifier vs solver",
          _class(structure="cactus", radius=2, diameter=2),
          lambda G, _: (classify_cactus_rad2_diam2(G).predicted_critical, is_edge_critical(G).critical), {_MV: 10}),
    Sweep("teo4", lambda c: f"radius-2 diameter-3 cacti n<={c[_MV]}: classifier vs solver",
          _class(structure="cactus", radius=2, diameter=3),
          lambda G, _: (classify_cactus_rad2_diam3(G).predicted_critical, is_edge_critical(G).critical), {_MV: 10}),
    Sweep("thm12", lambda c: f"hub joined to every graph on <={c['base_max']} vertices: classifier vs solver",
          _hub_payloads, lambda G, _: (classify_radius1(G).predicted_critical, is_edge_critical(G).critical),
          {"base_max": 6}),
    Sweep("pro14", lambda c: f"radius-1 graphs (hub + base<={c['base_max']}): critical implies no leaf",
          _hub_payloads, _pro14, {"base_max": 7}),
    Sweep("cor1", lambda c: (f"critical radius-1 graphs (hub + base<={c['base_max']}): "
                             "stripped graph splits into alpha-critical parts"),
          _hub_payloads, _cor1, {"base_max": 7}),
    Sweep("cor-haynes", lambda c: (f"alpha-critical connected graphs n<={c[_MV]}: "
                                   "some maximum independent set avoids each vertex"),
          _class(lambda g: is_alpha_critical(g).critical, min_n=2, connected=True),
          lambda G, _: (True, all(mis_avoiding(G, (v,)) is not None for v in range(G.n))), {_MV: 7}),
    Sweep("lem-rad3", lambda c: (f"alpha-critical graphs of radius>=3 (odd cycles to C{c[_MV]} plus enumerated): "
                                 "distance-3 pairs avoidable"),
          _lem_rad3_payloads, lambda G, _: (True, check_lemma_rad3(G)), {_MV: 11}),
    Sweep("teo2", lambda c: f"connected graphs n<={c[_MV]}: per-edge criterion equals alpha-criticality",
          _class(connected=True), lambda G, _: (haynes_check(G), is_alpha_critical(G).critical), {_MV: 7}),
    Sweep("obsv1", lambda c: f"connected graphs n<={c[_MV]}: components after a bridge removal never exceed the diameter",
          _class(min_n=2, connected=True), _obsv1, {_MV: 7}),
    Sweep("lemma1", lambda c: f"cycles up to C{c[_MV]}: radius = diameter = floor(n/2)",
          _specs(lambda v: (FamilySpec("cycle", n=n) for n in range(3, v + 1))),
          lambda G, spec: (True, radius(G) == spec.n // 2 and diameter(G) == spec.n // 2), {_MV: 12}),
    Sweep("lem-mainblock", lambda c: f"radius-2 cacti n<={c[_MV]}: every cycle block is C3, C4 or C5",
          _class(structure="cactus", radius=2),
          lambda G, _: (True, all(b.order in (3, 4, 5) for b in block_decomposition(G).blocks if b.is_cycle)),
          {_MV: 10}),
    Sweep("pro2", lambda c: f"radius-2 diameter-2 cacti n<={c[_MV]}: only C4 and C5 exist",
          _class(structure="cactus", radius=2, diameter=2),
          lambda G, _: (True, any(is_isomorphic(G, build(FamilySpec("cycle", n=n)).graph) for n in (4, 5))),
          {_MV: 10}),
    # The only radius-2 diameter-3 tree that is critical is P4.
    Sweep("pro3", lambda c: f"radius-2 diameter-3 trees n<={c[_MV]}: critical iff P4",
          _class(structure="tree", radius=2, diameter=3),
          lambda G, _: (G.n == 4, is_edge_critical(G).critical), {_MV: 10}),
)}
