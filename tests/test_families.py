from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packcrit.classify import classify_cactus_rad2_diam3
from packcrit.criticality import is_edge_critical
from packcrit.enumeration import canonical_cert
from packcrit.errors import SpecSyntaxError
from packcrit.families import (
    FamilySpec,
    build,
    closed_form_chi_rho,
    closed_form_critical,
    critical_clause,
    parse_spec,
    recognize,
)
from packcrit.graphio import emit_graph6
from packcrit.graphs import Graph, diameter, is_cactus, leaves, radius
from packcrit.iso import is_isomorphic
from packcrit.packing import chi_rho


def gqr(r, *pairs):
    return FamilySpec("gqr", r=r, pairs=tuple(pairs))


def hspec(p1, p2):
    return FamilySpec("h", pairs=(p1, p2))


def decorations(q, budget):
    """Every q-tuple of (k, m) pairs with k + m >= 1 whose pendant vertices
    (k + 2m per pair) total at most ``budget``."""
    if q == 0:
        yield ()
        return
    for k in range(budget + 1):
        for m in range((budget - k) // 2 + 1):
            if k + m:
                for rest in decorations(q - 1, budget - k - 2 * m):
                    yield ((k, m),) + rest


def decorated_specs(max_v):
    """Every Gqr and H spec on at most ``max_v`` vertices."""
    for r in (3, 4, 5):
        for q in range(1, r + 1):
            yield from (gqr(r, *pairs) for pairs in decorations(q, max_v - r))
    yield from (hspec(*pairs) for pairs in decorations(2, max_v - 2))


@st.composite
def drawn_decorated_spec(draw, max_v: int = 16):
    """A Gqr spec (r in {3, 4, 5}, 1 <= q <= r) or an H spec on at most
    ``max_v`` vertices."""
    r, q = draw(st.sampled_from([(r, q) for r in (3, 4, 5) for q in range(1, r + 1)] + [(0, 2)]))
    budget = max_v - (r or 2)
    pairs = []
    for i in range(q):
        room = budget - (q - 1 - i)  # every later pair keeps one pendant vertex
        m = draw(st.integers(0, room // 2))
        k = draw(st.integers(0 if m else 1, room - 2 * m))
        budget -= k + 2 * m
        pairs.append((k, m))
    return FamilySpec("gqr", r=r, pairs=tuple(pairs)) if r else hspec(*pairs)


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["G1^5(0,2)", "G2^4(1,2;2,1)", "H(0,2;2,0)", "T3", "C5", "P4", "K7", "K1,3", "W6"],
    )
    def test_round_trip(self, text):
        assert str(parse_spec(text)) == text

    def test_positions_in_errors(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec("G2^4(1,2;x,1)")
        assert exc.value.position == 9
        with pytest.raises(SpecSyntaxError):
            parse_spec("Q5")
        with pytest.raises(SpecSyntaxError):
            parse_spec("G1^5(0,2")

    @pytest.mark.parametrize(
        "fields",
        [
            dict(kind="gqr", n=7, r=5, pairs=((0, 2),)),
            dict(kind="path", n=4, r=5),
            dict(kind="cycle", n=5, pairs=((1, 0),)),
            dict(kind="h", r=3, pairs=((1, 0), (1, 0))),
            dict(kind="h", n=1, pairs=((1, 0), (1, 0))),
        ],
    )
    def test_unread_fields_rejected(self, fields):
        # Such a spec would print as the spec without the field, yet compare
        # unequal to it.
        with pytest.raises(ValueError, match="takes no"):
            FamilySpec(**fields)

    def test_invariants_enforced(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("G1^6(1,0)")  # main cycle too long
        with pytest.raises(SpecSyntaxError):
            parse_spec("G2^5(0,0;1,0)")  # k+m >= 1 violated
        with pytest.raises(SpecSyntaxError):
            parse_spec("G3^5(1,0;1,0)")  # q mismatch


class TestBuild:
    def test_fig4_graph(self):
        b = build(parse_spec("G1^5(1,2)"))
        assert b.graph.n == 10
        assert is_cactus(b.graph)
        assert sorted(b.roles[v] for v in range(5)) == ["x1", "x2", "x3", "x4", "x5"]
        assert radius(b.graph) == 2 and diameter(b.graph) == 3

    def test_fig5_graph(self):
        b = build(parse_spec("G2^4(1,2;2,1)"))
        assert b.graph.n == 13
        assert is_cactus(b.graph)

    def test_fig7_graph(self):
        b = build(parse_spec("H(1,1;2,0)"))
        assert b.graph.n == 7
        assert len(leaves(b.graph)) == 3

    def test_friendship(self):
        b = build(parse_spec("T3"))
        assert b.graph.n == 7
        assert b.graph.degree(0) == 6

    def test_vertex_counts(self):
        assert build(gqr(5, (2, 3))).graph.n == 5 + 2 + 6
        assert build(hspec((1, 1), (2, 0))).graph.n == 2 + 3 + 2

    def test_wheel_is_hub_plus_cycle(self):
        g = build(parse_spec("W6")).graph
        assert g.degree(0) == 5 and sorted(g.degree(v) for v in range(1, 6)) == [3] * 5


class TestMirror:
    @settings(max_examples=60, deadline=None)
    @given(drawn_decorated_spec())
    def test_mirror_builds_an_isomorphic_graph(self, spec):
        mirror = spec.mirror()
        assert mirror.kind == spec.kind and mirror.r == spec.r
        assert mirror.pairs == spec.pairs[::-1] and mirror.mirror() == spec
        assert canonical_cert(build(spec).graph) == canonical_cert(build(mirror).graph)

    @pytest.mark.parametrize("text", ["T3", "C5", "P4", "K7", "K1,3", "W6"])
    def test_simple_kinds_are_their_own_mirror(self, text):
        spec = parse_spec(text)
        assert spec.mirror() == spec


class TestClosedForms:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("G1^5(0,2)", 5),
            ("G1^5(3,0)", 4),
            ("G2^5(0,1;0,1)", 4),
            ("G2^5(1,2;2,0)", 5),
            ("G2^5(1,0;2,0)", 4),
            ("G1^4(2,0)", 3),
            ("G1^4(0,3)", 5),
            ("G2^4(1,0;1,0)", 4),
            ("G2^4(0,2;1,1)", 6),
            ("T4", 6),
            ("H(0,2;2,0)", 5),
            ("H(1,1;3,0)", 4),
            ("C5", 4),
            ("C4", 3),
            ("P4", 3),
            ("P5", 3),
            ("K6", 6),
            ("K1,5", 2),
        ],
    )
    def test_formula_matches_solver(self, text, expected):
        spec = parse_spec(text)
        assert closed_form_chi_rho(spec) == expected
        assert chi_rho(build(spec).graph).value == expected

    def test_uncovered_specs_absent(self):
        assert closed_form_chi_rho(parse_spec("G3^3(1,0;1,0;1,0)")) is None
        assert closed_form_chi_rho(parse_spec("C6")) is None
        assert closed_form_chi_rho(parse_spec("H(1,1;1,1)")) is None
        assert closed_form_chi_rho(parse_spec("W6")) is None

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("G1^5(1,2)", False),
            ("G1^5(0,1)", False),
            ("G1^5(0,2)", True),
            ("G2^5(0,1;0,1)", False),
            ("G1^4(0,2)", False),
            ("G2^4(1,0;1,0)", True),
            ("G2^4(0,1;0,2)", True),
            ("G2^4(1,1;0,1)", False),
            ("G3^3(1,0;1,0;1,0)", True),
            ("G3^3(2,0;2,0;0,1)", True),
            ("G3^3(0,2;0,2;0,2)", True),
            ("G3^3(0,2;0,2;2,0)", True),
            ("G3^3(0,2;2,0;2,0)", True),
            ("G3^3(1,0;1,0;2,0)", False),
            ("G2^3(1,0;1,0)", False),
            ("H(2,0;0,1)", True),
            ("H(0,2;0,2)", True),
            ("H(0,2;2,0)", True),
            ("H(1,0;1,0)", True),
            ("H(1,1;2,0)", False),
            ("P4", True),
            ("K5", True),
        ],
    )
    def test_criticality_clauses(self, text, expected):
        assert closed_form_critical(parse_spec(text)) is expected

    def test_uncovered_criticality_absent(self):
        assert closed_form_critical(parse_spec("C6")) is None
        assert closed_form_critical(parse_spec("G1^3(1,1)")) is None

    def test_criticality_matches_oracle_small(self):
        for text in [
            "G1^5(0,2)", "G1^5(1,1)", "G2^4(1,0;1,0)", "G2^4(0,1;0,1)",
            "H(2,0;0,1)", "H(0,2;2,0)", "G3^3(1,0;1,0;1,0)", "G2^3(2,0;0,1)",
        ]:
            spec = parse_spec(text)
            assert closed_form_critical(spec) == is_edge_critical(build(spec).graph).critical

    def test_criticality_scope_is_radius2_diameter3(self):
        # The Gqr/H verdicts come from the clause list of radius-2 diameter-3
        # cacti: present exactly there, and equal to the classifier's.
        specs = list(decorated_specs(11))
        in_scope = 0
        for spec in specs:
            g = build(spec).graph
            verdict = closed_form_critical(spec)
            if radius(g) == 2 and diameter(g) == 3:
                in_scope += 1
                assert verdict is not None, spec
                assert classify_cactus_rad2_diam3(g).predicted_critical is verdict, spec
            else:
                assert verdict is None, spec
        assert (len(specs), in_scope) == (1189, 767)

    @pytest.mark.parametrize(
        "text, clause",
        [("P4", "i"), ("H(1,0;1,0)", "i"), ("G1^5(0,2)", "ii"), ("G3^3(0,2;2,0;2,0)", "ix"),
         ("H(0,3;2,0)", "xii"), ("G1^5(1,2)", None), ("C5", None)],
    )
    def test_critical_clause(self, text, clause):
        assert critical_clause(parse_spec(text)) == clause


class TestRecognize:
    @pytest.mark.parametrize(
        "text",
        [
            "G1^5(1,2)", "G2^4(1,2;2,1)", "G2^5(0,1;2,0)", "G3^3(0,2;2,0;0,3)",
            "G2^3(1,1;2,0)", "H(1,1;2,0)", "H(0,2;0,2)", "P4", "P7", "C5", "C8",
            "K4", "K1,3", "W6", "W5", "T3",
        ],
    )
    def test_round_trip_isomorphic(self, text):
        g = build(parse_spec(text)).graph
        rec = recognize(g)
        assert rec is not None
        assert is_isomorphic(build(rec).graph, g)

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for text in ["G2^4(1,2;2,1)", "H(0,2;2,0)", "G3^3(1,0;0,2;2,0)"]:
            g = build(parse_spec(text)).graph
            base = recognize(g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
                assert recognize(h) == base

    def test_non_family_absent(self):
        petersen = Graph(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        assert recognize(petersen) is None
        # C6 with a pendant edge on every vertex: a main cycle has at most 5
        # vertices
        c6 = [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 6) for i in range(6)]
        assert recognize(Graph(12, c6)) is None
        # C4 sharing one vertex with a 5-cycle: the 5-cycle is the longest
        # cycle, and the C4 off it is no pendant K2 or triangle
        c4_c5 = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 0)]
        assert recognize(Graph(8, c4_c5)) is None

    def test_pendant_triangle_can_serve_as_main_block(self):
        # triangle + pendant triangle + a leaf off the pendant triangle: the
        # decorated pendant triangle is itself a valid main block
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (3, 4), (3, 5)])
        rec = recognize(g)
        assert rec == parse_spec("G2^3(0,1;1,0)")
        assert is_isomorphic(build(rec).graph, g)

    def test_deep_cactus_absent(self):
        # C4 main block with a path of two pendant edges: the outer cut
        # vertex is not on any cycle
        g1 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
        assert recognize(g1) is None
        # three cut vertices not coverable by any single triangle
        g2 = Graph(
            8,
            [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (3, 4),
             (1, 5), (1, 6), (5, 6), (3, 7)],
        )
        assert recognize(g2) is None

    def test_priority_overlaps(self):
        assert recognize(build(parse_spec("K3")).graph) == parse_spec("K3")
        assert recognize(build(parse_spec("C3")).graph) == parse_spec("K3")
        assert recognize(build(parse_spec("W4")).graph) == parse_spec("K4")
        assert recognize(build(parse_spec("P3")).graph) == parse_spec("K1,2")
        assert recognize(build(parse_spec("T1")).graph) == parse_spec("K3")
        assert recognize(build(hspec((1, 0), (1, 0))).graph) == parse_spec("P4")

    def test_hub_plus_two_triangles_not_wheel(self):
        g = build(parse_spec("T2")).graph  # 5 vertices, hub degree 4
        rec = recognize(g)
        assert rec == parse_spec("T2")

    def test_recognition_digest_pinned(self, connected_upto_7, cacti_upto_10):
        # Recorded before Gqr and H shared one reader: every connected graph
        # to order 7, every cactus to order 10, and every Gqr and H spec to
        # order 12, built and in one fixed relabelling.
        rng = random.Random(18)
        graphs = [*connected_upto_7, *cacti_upto_10]
        for spec in decorated_specs(12):
            g = build(spec).graph
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs += [g, Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])]
        lines = [f"{emit_graph6(g)}\t{recognize(g)}" for g in graphs]
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert (len(lines), digest) == (8352, "4dc7b14d479ed99b6610b08dc4ac8b4b26692007755e9d4b3e536793dd34a3bb")

    def test_recognized_cacti_rebuild_isomorphic(self, cacti_upto_10):
        recognized = [(g, recognize(g)) for g in cacti_upto_10 if g.n <= 9]
        recognized = [(g, rec) for g, rec in recognized if rec is not None]
        assert recognized
        for g, rec in recognized:
            assert is_isomorphic(build(rec).graph, g), (emit_graph6(g), str(rec))


class TestMetricSanity:
    def test_all_small_family_members_have_rad2_diam3(self):
        specs = []
        for k1 in range(3):
            for m1 in range(3):
                if k1 + m1 >= 1:
                    specs.append(gqr(5, (k1, m1)))
                    specs.append(gqr(4, (k1, m1)))
                    for k2 in range(2):
                        for m2 in range(2):
                            if k2 + m2 >= 1:
                                specs.append(gqr(5, (k1, m1), (k2, m2)))
                                specs.append(gqr(4, (k1, m1), (k2, m2)))
                                specs.append(hspec((k1, m1), (k2, m2)))
        violations = []
        for spec in specs:
            g = build(spec).graph
            if radius(g) != 2 or diameter(g) != 3:
                violations.append(str(spec))
        assert violations == [], f"members outside radius 2 / diameter 3: {violations}"


# -- one fixed probe set over the whole spec layer ----------------------------

SIMPLE_KINDS = ("path", "cycle", "complete", "star", "wheel", "friendship")

# Texts the grammar must reject, each at its own caret position.
MALFORMED = (
    "", "   ", "Q5", "p4", "G", "G1^5(0,2", "G2^4(1,2;x,1)", "G1^6(1,0)", "G2^5(0,0;1,0)",
    "G3^5(1,0;1,0)", "G0^3()", "G1^3()", "G1^3(1,0;)", "G4^3(1,0;1,0;1,0;1,0)", "G1^5(0,-1)",
    "G1^5 (0,2)", "G1^5(0,2))", "H", "H(1,0)", "H(1,0;2,0;3,0)", "H1,0;1,0)", "H(0,0;1,0)",
    "H(a,b;1,1)", "H()", "K", "K1,", "K1,x", "Kx", "K1,3x", "K-1", "P", "Px", "P-1", "P4 4",
    "C", "C2", "W3", "T0", "W", "T", " G2^4(1,2;x,1) ", "K 3",
)

# (kind, r, pairs) that the decorated kinds' invariants must reject, and an
# unknown kind.
BAD_DECORATED = (
    ("gqr", 6, ((1, 0),)), ("gqr", 0, ((1, 0),)), ("gqr", 3, ()), ("gqr", 3, ((1, 0),) * 4),
    ("gqr", 4, ((-1, 2),)), ("gqr", 4, ((0, 0),)), ("gqr", 5, ((1, 0), (0, -1))),
    ("h", 0, ((1, 0),)), ("h", 0, ((1, 0), (0, 0))), ("h", 0, ((1, -1), (1, 0))),
    ("h", 0, ((1, 0),) * 3), ("nope", 0, ()),
)


def _spec_record(spec):
    built = build(spec)
    return [
        repr(spec), str(spec), spec.vertex_count(), emit_graph6(built.graph),
        sorted(built.roles.items()), closed_form_chi_rho(spec), closed_form_critical(spec),
    ]


def _probe_specs():
    """(probe, spec or error record) for every probe: each simple kind by
    constructor for n from -1 to 8 and by text for n from 0 to 8, every Gqr
    and H spec on at most 9 vertices by constructor and by text, and
    malformed texts."""
    probes = []

    def construct(label, make):
        try:
            probes.append((label, make()))
        except ValueError as exc:
            probes.append((label, [type(exc).__name__, str(exc)]))

    def parse(text):
        try:
            probes.append((text, parse_spec(text)))
        except SpecSyntaxError as exc:
            probes.append((text, ["SpecSyntaxError", str(exc), exc.position, exc.text]))

    for kind in SIMPLE_KINDS:
        for n in range(-1, 9):
            construct(f"{kind}:{n}", lambda: FamilySpec(kind, n=n))
    for kind, r, pairs in BAD_DECORATED:
        construct(f"{kind}:{r}:{pairs}", lambda: FamilySpec(kind, r=r, pairs=pairs))
    for spec in decorated_specs(9):
        probes.append((f"{spec.kind}:{spec.r}:{spec.pairs}", spec))
        parse(str(spec))
    for n in range(0, 9):
        for template in ("P{}", "C{}", "K{}", "K1,{}", "W{}", "T{}", "K0{}"):
            parse(template.format(n))
    for text in MALFORMED:
        parse(text)
    return probes


class TestProbeSet:
    def test_probe_digest_pinned(self):
        # Recorded before the kinds became table rows: parse results, text,
        # order, graph6, roles, both closed forms, error texts and carets.
        records = [
            json.dumps([label, got if isinstance(got, list) else _spec_record(got)])
            for label, got in _probe_specs()
        ]
        digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
        assert (len(records), digest) == (801, "bc3bf277f67fb26e289529c2e12832609323c6ff3dd6ce9b8753c2ebda2e7490")

    def test_vertex_count_is_built_order(self):
        specs = [got for _, got in _probe_specs() if isinstance(got, FamilySpec)]
        assert specs
        for spec in specs:
            assert spec.vertex_count() == build(spec).graph.n, spec
