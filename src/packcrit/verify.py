"""Theorem-verification sweeps: predicted values against exact oracles.

Each sweep enumerates every instance of a result's hypothesis class within
a size budget, computes the structural prediction (closed form, classifier
verdict, or claimed property) and the exhaustive-solver oracle, and records
the pair.  Records are line-replayable: every one carries its instance in
graph6.

Every sweep is one row of the table at the bottom of this module: its id, a
description of the configuration, an instance source, a prediction
``(graph, spec or None) -> predicted``, an oracle ``graph -> oracle`` and its
default sizes.  An instance source is a family-spec generator (``_specs``),
a hypothesis class (``_class``), or one of two custom sources (hub graphs,
lem-rad3), and it yields its payloads grouped into classes, one list per
class.

The oracle reads only the graph, and every oracle is an isomorphism
invariant, so it runs once per class of payloads that build isomorphic
graphs.  A spec source puts each spec in one class with
``FamilySpec.mirror()``: Gqr's pairs reversed, H's swapped.  The mirror
builds an isomorphic graph: the reflection x -> q - 1 - x (mod r) of C_r
maps Gqr's i-th decorated vertex onto its (q + 1 - i)-th, and swapping H's
two hubs is an automorphism of the hub edge.  A graph source yields each
graph as a class of its own.  Every payload still gets its own build,
prediction and record; the oracle runs on the first member whose
prediction succeeds, and the others copy its value or its error.
``micros`` covers a payload's build, its prediction and, on the member
that ran it, the oracle, so a member that copies the value records only
its own build and prediction.

Sources stream their classes.  A graph source builds each graph (a hub
graph from its base) only when the stream reaches it, so a sweep holds
its records but not its graphs.  Reading the source, that build included,
is ``payload_s``; a graph payload's ``micros`` starts after it, and a spec
payload's build is in its ``micros``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from . import families
from .classify import (
    block_graph_diam3_criterion,
    classify_cactus_rad2_diam2,
    classify_cactus_rad2_diam3,
    classify_radius1,
)
from .criticality import is_edge_critical
from .enumeration import EnumerationFilter, canonical_cert, enumerate_graphs
from .errors import CharacterizationError, PreconditionError
from .families import FamilySpec, Pair, build, closed_form_chi_rho, closed_form_critical
from .graphio import emit_graph6
from .graphs import (
    Graph,
    block_decomposition,
    bridges,
    components,
    delete_edge,
    delete_vertex,
    diameter,
    eccentricities,
    has_radius,
    induced_subgraph,
    is_connected,
    radius,
    universal_vertices,
)
from .independence import (
    alpha,
    check_lemma_rad3,
    every_vertex_avoidable,
    haynes_check,
    is_alpha_critical,
)
from .packing import chi_rho

DEFAULT_JOBS = 1


@dataclass
class Sweep:
    """One row of the sweep table.  ``describe`` and ``classes`` take the
    run's configuration: ``defaults`` overridden by the caller's sizes, plus
    ``theorem`` and ``corpus``.  ``classes`` yields the payloads as lists,
    one per class.  ``oracle`` must be an isomorphism invariant of its
    graph: it runs once per class of isomorphic payloads."""

    theorem: str
    describe: Callable[[dict], str]
    classes: Callable[[dict], Iterable[list[dict]]]
    predict: Callable[[Graph, Optional[FamilySpec]], object]
    oracle: Callable[[Graph], object]
    defaults: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    """A sweep's records, its wall time, the part of it spent generating
    payloads, and the number of oracle calls the records took."""

    theorem: str
    description: str
    records: list[dict]
    wall_time_s: float
    payload_s: float
    oracle_runs: int

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


def evaluate_payload(theorem: str, payload: dict, shared: Optional[dict] = None) -> dict:
    """Build one instance, predict it and take its oracle value; ``micros``
    covers all three.  A spec payload is built from its spec; a graph
    payload carries its graph.

    ``shared`` holds the oracle outcome of the payload's class, under
    ``"value"`` or ``"error"``.  The oracle runs only after the prediction
    succeeds, and only when ``shared`` is still empty; its outcome is stored
    there for the class's later members.  Without ``shared`` the oracle runs
    on this payload alone.

    A CharacterizationError or PreconditionError does not abort the sweep:
    the instance is recorded as a disagreement whose ``error`` field holds
    ``"Type: message"``.
    """
    sweep = THEOREMS[theorem]
    if shared is None:
        shared = {}
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
            G = payload["graph"]
        predicted = sweep.predict(G, spec)
        if not shared:
            try:
                shared["value"] = sweep.oracle(G)
            except (CharacterizationError, PreconditionError) as exc:
                shared["error"] = exc
        if "error" in shared:
            raise shared["error"]
        oracle = shared["value"]
    except (CharacterizationError, PreconditionError) as exc:
        predicted = oracle = None
        error = f"{type(exc).__name__}: {exc}"
    micros = int((time.perf_counter() - t0) * 1e6)
    record = {
        "theorem": theorem,
        "instance_g6": emit_graph6(G) if G is not None else "",
        "spec": payload.get("spec"),
        "predicted": predicted,
        "oracle": oracle,
        "agree": error is None and predicted == oracle,
        "micros": micros,
    }
    if error is not None:
        record["error"] = error
    return record


def _evaluate_class(theorem: str, members: list[dict]) -> tuple[list[dict], int]:
    """The records of one class's payloads, in order, and the number of
    oracle calls they took: 1, or 0 when every prediction failed."""
    shared: dict = {}
    records = [evaluate_payload(theorem, p, shared) for p in members]
    return records, len(shared)


def _timed(classes: Iterator[list[dict]], spent: list[float]) -> Iterator[list[dict]]:
    """``classes``, adding the time spent reading each to ``spent[0]``."""
    while True:
        t0 = time.perf_counter()
        members = next(classes, None)
        spent[0] += time.perf_counter() - t0
        if members is None:
            return
        yield members


def _batches(classes: Iterator[list[dict]], workers: int) -> Iterator[list[list[dict]]]:
    """``classes`` in consecutive batches, one per task.  A batch takes one
    class for every ``4 * workers`` read before it, and at least one: the
    chunk rule of ``pool.map``, applied to the stream read so far.  So the
    first ``4 * workers`` tasks hold one class each, and a long stream
    pays for few tasks."""
    read = 0
    while batch := list(itertools.islice(classes, max(1, read // (4 * workers)))):
        read += len(batch)
        yield batch


def _evaluate_batch(theorem: str, batch: list[list[dict]]) -> list[tuple[list[dict], int]]:
    """``_evaluate_class`` over one batch of classes, in a worker."""
    return [_evaluate_class(theorem, members) for members in batch]


def _results(theorem: str, classes: Iterator[list[dict]], workers: int) -> Iterator[tuple[list[dict], int]]:
    """``_evaluate_class`` over ``classes``, in order, in ``workers``
    spawned processes when there are more than one."""
    if workers < 2:
        yield from map(functools.partial(_evaluate_class, theorem), classes)
        return
    import multiprocessing  # only a sweep with workers pays for the import

    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        for results in pool.imap(functools.partial(_evaluate_batch, theorem), _batches(classes, workers)):
            yield from results


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
    extra predicate still filter them.  A size the sweep's defaults do not
    name, or a corpus given to a sweep whose instances are generated (the
    spec sweeps and lem-rad3), raises ValueError rather than being ignored,
    before any instance is built.  One class (see the module docstring) is
    one unit of work, so records and oracle calls are the same for every
    ``jobs``.  With one job each class is evaluated as it arrives.  With
    more, the stream feeds an ordered ``pool.imap`` on at most ``min(jobs,
    os.cpu_count(), number of classes)`` workers, counted by reading that
    many classes ahead, in batches that start at one class (``_batches``),
    so every worker gets work however few the classes are.  Each worker is
    spawned as a fresh interpreter rather than forked, so none inherits
    the caller's threads, locks or caches.
    """
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}; known: {sorted(THEOREMS)}")
    sweep = THEOREMS[theorem]
    cfg = dict(sweep.defaults)
    for key, size in (("max_vertices", max_vertices), ("base_max", base_max)):
        if size is None:
            continue
        if key not in cfg:
            reads = ", ".join(sorted(sweep.defaults)) or "no size"
            raise ValueError(f"{theorem} does not read {key} (it reads {reads})")
        cfg[key] = size
    cfg.update(theorem=theorem, corpus=corpus)
    t0 = time.perf_counter()
    source = iter(sweep.classes(cfg))
    spent = [time.perf_counter() - t0]
    classes = _timed(source, spent)
    cap = min(jobs, os.cpu_count() or 1)
    head = list(itertools.islice(classes, cap)) if cap > 1 else []
    records: list[dict] = []
    oracle_runs = 0
    for recs, runs in _results(theorem, itertools.chain(head, classes), len(head)):
        records += recs
        oracle_runs += runs
    records.sort(key=lambda r: (r["instance_g6"], r["spec"] or ""))
    wall = time.perf_counter() - t0
    return VerificationReport(theorem, sweep.describe(cfg), records, wall, spent[0], oracle_runs)


# -- instance sources ----------------------------------------------------------


def _no_corpus(cfg: dict) -> None:
    """Refuse a corpus for a source that generates its instances."""
    if cfg["corpus"] is not None:
        raise ValueError(f"{cfg['theorem']} does not read a corpus (its instances are generated)")


def _specs(generate: Callable[[Optional[int]], Iterable[FamilySpec]]):
    """Spec source: the family specs ``generate(max_vertices)`` yields,
    grouped by the lesser text of a spec and its mirror.  The classes come
    in order of their first spec, each holding its specs in generated
    order."""

    def classes(cfg: dict) -> Iterable[list[dict]]:
        _no_corpus(cfg)
        by_key: dict[str, list[dict]] = {}
        for s in generate(cfg.get("max_vertices")):
            by_key.setdefault(min(str(s), str(s.mirror())), []).append({"spec": str(s)})
        return by_key.values()

    return classes


def _class(extra: Optional[Callable[[Graph], bool]] = None, **filter_args):
    """Class source: the graphs of ``EnumerationFilter(max_n=max_vertices,
    **filter_args)`` that pass ``extra``.  A supplied corpus replaces the
    enumeration; a corpus graph is kept when it matches the filter and
    passes ``extra``."""

    def classes(cfg: dict) -> Iterator[list[dict]]:
        filt = EnumerationFilter(max_n=cfg["max_vertices"], **filter_args)
        if cfg["corpus"] is None:
            graphs = enumerate_graphs(filt)
        else:
            graphs = (g for g in cfg["corpus"] if filt.matches(g))
        return ([{"graph": g}] for g in graphs if extra is None or extra(g))

    return classes


def _hub_plus(base: Graph) -> Graph:
    """``base`` with a new last vertex joined to all of it, built from its
    rows: each keeps its order with the hub appended."""
    n = base.n
    return Graph._from_rows(tuple(base.neighbors(v) + (n,) for v in range(n)) + (tuple(range(n)),))


def _hub_classes(cfg: dict) -> Iterator[list[dict]]:
    """A hub joined to every graph on at most ``base_max`` vertices, each
    built when the stream reaches its base; a supplied corpus contributes
    its radius-1 graphs instead."""
    corpus = cfg["corpus"]
    if corpus is not None:
        return ([{"graph": g}] for g in corpus if has_radius(g, 1))
    bases = enumerate_graphs(EnumerationFilter(max_n=cfg["base_max"]))
    return ([{"graph": _hub_plus(b)}] for b in bases)


def _lem_rad3_classes(cfg: dict) -> list[list[dict]]:
    _no_corpus(cfg)
    graphs = [build(FamilySpec("cycle", n=n)).graph for n in range(7, cfg["max_vertices"] + 1, 2)]
    small = enumerate_graphs(
        EnumerationFilter(max_n=min(7, cfg["max_vertices"]), min_n=4, connected=True)
    )
    graphs.extend(g for g in small if radius(g) >= 3 and is_alpha_critical(g).critical)
    unique: dict[tuple[int, int], Graph] = {}  # canonical certificate -> the first graph with it
    for g in graphs:
        unique.setdefault(canonical_cert(g), g)
    return [[{"graph": g}] for g in unique.values()]


def _decorations(q: int, budget: int) -> Iterator[tuple[Pair, ...]]:
    """Every q-tuple of (k, m) pairs with k + m >= 1 whose pendant vertices,
    k + 2m per pair, total at most ``budget``, in lexicographic order."""
    if q == 0:
        yield ()
        return
    for k in range(budget + 1):
        for m in range(0 if k else 1, (budget - k) // 2 + 1):
            for rest in _decorations(q - 1, budget - k - 2 * m):
                yield ((k, m),) + rest


def _gqr_specs(q: int, r: int, max_v: int) -> list[FamilySpec]:
    """The C_r specs with q decorated cut vertices, in ``_decorations``
    order, on at most ``max_v`` vertices."""
    return [FamilySpec("gqr", r=r, pairs=pairs) for pairs in _decorations(q, max_v - r)]


def _h_lemma7_specs(max_v: int) -> list[FamilySpec]:
    """H(k1,m1;k2,0) with m1 >= 1 and k2 >= 2."""
    decorations = _decorations(2, max_v - 2)
    return [FamilySpec("h", pairs=(a, b)) for a, b in decorations if a[1] >= 1 and b[1] == 0 and b[0] >= 2]


def _c4_pair_specs(keep: Callable[[int, int], bool]):
    """Spec source: the decorated C4s with two cut vertices whose pendant
    edge and pendant triangle totals, k1 + k2 and m1 + m2, pass ``keep``."""
    return _specs(lambda v: (s for s in _gqr_specs(2, 4, v) if keep(*map(sum, zip(*s.pairs)))))


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


# -- predictions (graph, spec or None) and oracles (graph) ---------------------
#
# Both call the solvers through this module's globals, looked up at call
# time, so that a wrapper installed on packcrit.verify (bench/spans.py) sees
# every call.


def _holds(G: Graph, spec: Optional[FamilySpec]) -> bool:
    """The prediction of a claimed property: it holds."""
    return True


def _never(G: Graph, spec: Optional[FamilySpec]) -> bool:
    """The prediction of a never-critical family."""
    return False


def _formula(G: Graph, spec: FamilySpec):
    return closed_form_chi_rho(spec)


def _closed_critical(G: Graph, spec: FamilySpec):
    return closed_form_critical(spec)


def _value(G: Graph) -> int:
    return chi_rho(G).value


def _critical(G: Graph) -> bool:
    return is_edge_critical(G).critical


def _lemma4(G: Graph) -> bool:
    bound = G.n - alpha(G) + 1
    value = chi_rho(G).value
    return value <= bound and (diameter(G) != 2 or value == bound)


def _lemma6(G: Graph) -> bool:
    rep = is_edge_critical(G)
    return rep.base_chi_rho == 4 and rep.critical


def _pro14(G: Graph) -> bool:
    if G.n < 3:
        return True
    critical = is_edge_critical(G).critical
    return not critical or all(G.degree(v) != 1 for v in range(G.n))


def _cor1(G: Graph) -> bool:
    if G.n < 3 or not is_edge_critical(G).critical:
        return True
    for u in sorted(universal_vertices(G)):
        rest, _ = delete_vertex(G, u)
        for comp in components(rest):
            sub, _ = induced_subgraph(rest, comp)
            if not is_alpha_critical(sub).critical:
                return False
    return True


def _obsv1(G: Graph) -> bool:
    d = diameter(G)
    for e in sorted(bridges(G)):
        H = delete_edge(G, e)
        for comp in components(H):
            sub, _ = induced_subgraph(H, comp)
            if sub.n >= 1 and diameter(sub) > d:
                return False
    return True


# -- the sweeps ----------------------------------------------------------------

_MV = "max_vertices"  # the size every sweep but the hub sweeps (base_max) reads

THEOREMS: dict[str, Sweep] = {sweep.theorem: sweep for sweep in (
    Sweep("pro4", lambda c: f"pendant-decorated C5, one cut vertex, |V|<={c[_MV]}: formula vs solver",
          _specs(lambda v: _gqr_specs(1, 5, v)), _formula, _value, {_MV: 14}),
    Sweep("pro5", lambda c: f"decorated C5 with k1>0, |V|<={c[_MV]}: never critical",
          _specs(lambda v: (s for s in _gqr_specs(1, 5, v) if s.pairs[0][0] > 0)), _never, _critical, {_MV: 16}),
    Sweep("pro6", lambda c: "single triangle on C5: not critical",
          _specs(lambda v: [FamilySpec("gqr", r=5, pairs=((0, 1),))]), _never, _critical),
    Sweep("pro7", lambda c: f"decorated C5, one cut vertex, |V|<={c[_MV]}: criticality iff k1=0, m1>=2",
          _specs(lambda v: _gqr_specs(1, 5, v)), _closed_critical, _critical, {_MV: 16}),
    Sweep("pro8", lambda c: f"decorated C5, two cut vertices, |V|<={c[_MV]}: formula vs solver",
          _specs(lambda v: _gqr_specs(2, 5, v)), _formula, _value, {_MV: 14}),
    Sweep("pro9", lambda c: f"decorated C5, two cut vertices, |V|<={c[_MV]}: never critical",
          _specs(lambda v: _gqr_specs(2, 5, v)), _never, _critical, {_MV: 12}),
    Sweep("pro10", lambda c: f"decorated C4, one cut vertex, |V|<={c[_MV]}: formula vs solver",
          _specs(lambda v: _gqr_specs(1, 4, v)), _formula, _value, {_MV: 14}),
    Sweep("pro11", lambda c: f"decorated C4, one cut vertex, |V|<={c[_MV]}: never critical",
          _specs(lambda v: _gqr_specs(1, 4, v)), _never, _critical, {_MV: 16}),
    Sweep("pro12", lambda c: f"decorated C4, two cut vertices, |V|<={c[_MV]}: formula vs solver",
          _specs(lambda v: _gqr_specs(2, 4, v)), _formula, _value, {_MV: 14}),
    Sweep("pro13", lambda c: f"decorated C4, two cut vertices, |V|<={c[_MV]}: criticality clauses",
          _specs(lambda v: _gqr_specs(2, 4, v)), _closed_critical, _critical, {_MV: 12}),
    Sweep("pro15", lambda c: f"decorated C4, leaves only, k1+k2>=3, |V|<={c[_MV]}: never critical",
          _c4_pair_specs(lambda k, m: m == 0 and k >= 3), _never, _critical, {_MV: 16}),
    Sweep("pro16", lambda c: f"decorated C4, mixed pendants, |V|<={c[_MV]}: never critical",
          _c4_pair_specs(lambda k, m: m >= 1 and k >= 1), _never, _critical, {_MV: 12}),
    Sweep("lemma4", lambda c: f"connected graphs n<={c[_MV]}: chi <= |V|-alpha+1, equality at diameter 2",
          _class(connected=True), _holds, _lemma4, {_MV: 7}),
    Sweep("lemma5", lambda c: f"friendship graphs with at most {(c[_MV] - 1) // 2} triangles: chi = n+2",
          _specs(lambda v: (FamilySpec("friendship", n=i) for i in range(1, (v - 1) // 2 + 1))),
          lambda G, spec: spec.n + 2, _value, {_MV: 11}),
    Sweep("lemma6", lambda c: "C4 with one leaf on each of two adjacent vertices: 4-critical",
          _specs(lambda v: [FamilySpec("gqr", r=4, pairs=((1, 0), (1, 0)))]), _holds, _lemma6),
    Sweep("lemma7", lambda c: f"double-hub H(k1,m1;k2,0), m1>=1, k2>=2, |V|<={c[_MV]}: chi = |V|-alpha+1",
          _specs(_h_lemma7_specs), lambda G, _: G.n - alpha(G) + 1, _value, {_MV: 13}),
    Sweep("lemma8", lambda c: (f"diameter-3 block-graph cacti with triangle main block, n<={c[_MV]}: "
                               "central-block criterion vs solver"),
          _class(_c3_main_block, structure="cactus", diameter=3),
          lambda G, _: block_graph_diam3_criterion(G).predicted_critical, _critical, {_MV: 9}),
    Sweep("teo1", lambda c: "triangle-main-block critical clauses at their two smallest parameter settings",
          _specs(lambda v: _teo1_instances()), _closed_critical, _critical),
    Sweep("teo3", lambda c: f"radius-2 diameter-2 cacti n<={c[_MV]}: classifier vs solver",
          _class(structure="cactus", radius=2, diameter=2),
          lambda G, _: classify_cactus_rad2_diam2(G).predicted_critical, _critical, {_MV: 10}),
    Sweep("teo4", lambda c: f"radius-2 diameter-3 cacti n<={c[_MV]}: classifier vs solver",
          _class(structure="cactus", radius=2, diameter=3),
          lambda G, _: classify_cactus_rad2_diam3(G).predicted_critical, _critical, {_MV: 10}),
    Sweep("thm12", lambda c: f"hub joined to every graph on <={c['base_max']} vertices: classifier vs solver",
          _hub_classes, lambda G, _: classify_radius1(G).predicted_critical, _critical, {"base_max": 6}),
    Sweep("pro14", lambda c: f"radius-1 graphs (hub + base<={c['base_max']}): critical implies no leaf",
          _hub_classes, _holds, _pro14, {"base_max": 7}),
    Sweep("cor1", lambda c: (f"critical radius-1 graphs (hub + base<={c['base_max']}): "
                             "stripped graph splits into alpha-critical parts"),
          _hub_classes, _holds, _cor1, {"base_max": 7}),
    Sweep("cor-haynes", lambda c: (f"alpha-critical connected graphs n<={c[_MV]}: "
                                   "some maximum independent set avoids each vertex"),
          _class(lambda g: is_alpha_critical(g).critical, min_n=2, connected=True),
          _holds, lambda G: every_vertex_avoidable(G), {_MV: 7}),
    Sweep("lem-rad3", lambda c: (f"alpha-critical graphs of radius>=3 (odd cycles to C{c[_MV]} plus enumerated): "
                                 "distance-3 pairs avoidable"),
          _lem_rad3_classes, _holds, lambda G: check_lemma_rad3(G), {_MV: 11}),
    Sweep("teo2", lambda c: f"connected graphs n<={c[_MV]}: per-edge criterion equals alpha-criticality",
          _class(connected=True), lambda G, _: haynes_check(G), lambda G: is_alpha_critical(G).critical, {_MV: 7}),
    Sweep("obsv1", lambda c: f"connected graphs n<={c[_MV]}: components after a bridge removal never exceed the diameter",
          _class(min_n=2, connected=True), _holds, _obsv1, {_MV: 7}),
    Sweep("lemma1", lambda c: f"cycles up to C{c[_MV]}: radius = diameter = floor(n/2)",
          _specs(lambda v: (FamilySpec("cycle", n=n) for n in range(3, v + 1))),
          _holds, lambda G: set(eccentricities(G)) == {G.n // 2}, {_MV: 12}),
    Sweep("lem-mainblock", lambda c: f"radius-2 cacti n<={c[_MV]}: every cycle block is C3, C4 or C5",
          _class(structure="cactus", radius=2),
          _holds, lambda G: all(b.order in (3, 4, 5) for b in block_decomposition(G).blocks if b.is_cycle),
          {_MV: 10}),
    Sweep("pro2", lambda c: f"radius-2 diameter-2 cacti n<={c[_MV]}: only C4 and C5 exist",
          _class(structure="cactus", radius=2, diameter=2),
          # a connected 2-regular graph is a cycle
          _holds, lambda G: G.n in (4, 5) and is_connected(G) and all(G.degree(v) == 2 for v in G.vertices()),
          {_MV: 10}),
    # The only radius-2 diameter-3 tree that is critical is P4.
    Sweep("pro3", lambda c: f"radius-2 diameter-3 trees n<={c[_MV]}: critical iff P4",
          _class(structure="tree", radius=2, diameter=3),
          lambda G, _: G.n == 4, _critical, {_MV: 10}),
)}
