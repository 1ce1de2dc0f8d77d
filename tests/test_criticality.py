from __future__ import annotations

import pytest

from packcrit import criticality, enumeration, packing, verify
from packcrit.criticality import has_leaf_violation, is_edge_critical, is_vertex_critical
from packcrit.enumeration import representatives
from packcrit.errors import PreconditionError
from packcrit.families import build, parse_spec
from packcrit.graphs import Graph, delete_edge, delete_vertex, diameter, is_connected, is_tree
from packcrit.packing import Diameter2Edges, PackingColoring, chi_rho, fits_within, packs_within, verify_packing_coloring
from oracles import brute_has_packing_coloring, reference_deletion_report


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel6():
    return Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)] + [(0, i) for i in range(1, 6)])


class TestEdgeCritical:
    def test_c5(self):
        rep = is_edge_critical(cycle(5))
        assert rep.critical and rep.base_chi_rho == 4 and rep.witness is None
        assert all(v == 3 for _, v in rep.table)

    def test_w6_witness_is_hub_edge(self):
        rep = is_edge_critical(wheel6())
        assert not rep.critical and rep.base_chi_rho == 5
        assert rep.witness is not None and 0 in rep.witness  # 0 is the hub
        assert dict(rep.table)[rep.witness] == 5
        assert chi_rho(delete_edge(wheel6(), rep.witness)).value == 5

    def test_c4_not_critical(self):
        assert not is_edge_critical(cycle(4)).critical

    def test_complete_critical(self):
        for n in (2, 3, 5):
            assert is_edge_critical(complete(n)).critical

    def test_table_covers_all_edges(self):
        rep = is_edge_critical(cycle(5))
        assert len(rep.table) == 5

    def test_isolated_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            is_edge_critical(Graph(3, [(0, 1)]))
        with pytest.raises(PreconditionError):
            is_edge_critical(Graph(1))


class TestVertexCritical:
    def test_c5(self):
        assert is_vertex_critical(cycle(5)).critical

    def test_p4(self):
        assert is_vertex_critical(path(4)).critical

    def test_c4(self):
        # deleting any vertex of C4 leaves P3 whose value drops from 3 to 2
        rep = is_vertex_critical(cycle(4))
        assert rep.critical
        assert all(v == 2 for _, v in rep.table)

    def test_single_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            is_vertex_critical(Graph(1))

    def test_table_covers_all_vertices(self):
        assert len(is_vertex_critical(cycle(5)).table) == 5


class TestLeafFilter:
    def test_star_has_leaf(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert has_leaf_violation(g) in {1, 2, 3}

    def test_w6_none(self):
        assert has_leaf_violation(wheel6()) is None

    def test_k3_none(self):
        assert has_leaf_violation(complete(3)) is None

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            has_leaf_violation(cycle(5))  # radius 2
        with pytest.raises(PreconditionError):
            has_leaf_violation(Graph(2, [(0, 1)]))  # too small


class TestTreeEquivalence:
    def test_edge_equals_vertex_criticality_on_trees(self):
        for n in range(2, 11):
            for g in representatives("tree", n):
                assert is_tree(g)
                assert is_edge_critical(g).critical == is_vertex_critical(g).critical


class TestDecisionPath:
    """The verdict asks one question per deletion (a packing coloring with
    one color fewer than the graph needs?) and stops at the first no."""

    @staticmethod
    def check_against_table(g, report, deletions):
        base = chi_rho(g).value
        table = [(d, chi_rho(sub).value) for d, sub in deletions]
        expected = next((d for d, val in table if val >= base), None)
        assert (report.base_chi_rho, report.critical, report.witness) == (base, expected is None, expected), g
        for (d, val), (_, sub) in zip(table, deletions):
            cols = packs_within(sub, base - 1)
            assert (cols is None) == (val >= base), (g, d)
            if cols is not None:
                assert max(cols) <= base - 1
                assert verify_packing_coloring(sub, PackingColoring.from_colors(cols)).ok

    def test_matches_full_table(self, all_graphs_upto_6):
        for g in all_graphs_upto_6:
            if all(g.degree(v) for v in range(g.n)):
                edge_dels = [(e, delete_edge(g, e)) for e in g.edges()]
                self.check_against_table(g, is_edge_critical(g), edge_dels)
            if g.n >= 2:
                vertex_dels = [(v, delete_vertex(g, v)[0]) for v in range(g.n)]
                self.check_against_table(g, is_vertex_critical(g), vertex_dels)

    @pytest.mark.parametrize("g, kind, pinned", [
        (Graph(2), "vertex", (1, False, 0, ((0, 1), (1, 1)))),
        (Graph(3, [(0, 1)]), "vertex", (2, False, 2, ((0, 1), (1, 1), (2, 2)))),
        (path(5), "edge", (3, False, (0, 1), (((0, 1), 3), ((1, 2), 2), ((2, 3), 2), ((3, 4), 3)))),
    ], ids=["two-isolated", "K2+K1", "P5-bridges"])
    def test_pinned_edge_cases(self, g, kind, pinned):
        rep = is_vertex_critical(g) if kind == "vertex" else is_edge_critical(g)
        assert (rep.base_chi_rho, rep.critical, rep.witness, rep.table) == pinned

    def test_w6_stops_at_first_witness(self, monkeypatch):
        # W6 has diameter 2, and so has W6 less its first edge, so its value
        # and the one decision are read off W6's MIS memo: nothing is
        # solved and no deletion graph is built.
        calls = {"chi_rho": 0, "decisions": [], "fits_within": [], "delete_edge": 0}
        memo_fits = Diameter2Edges.fits

        def counted_chi_rho(G):
            calls["chi_rho"] += 1
            return chi_rho(G)

        def counted_memo_fits(self, e, k):
            calls["decisions"].append((e, k))
            return memo_fits(self, e, k)

        def counted_fits_within(G, k):
            calls["fits_within"].append((G, k))
            return fits_within(G, k)

        def counted_delete_edge(G, e):
            calls["delete_edge"] += 1
            return delete_edge(G, e)

        monkeypatch.setattr(criticality, "chi_rho", counted_chi_rho)
        monkeypatch.setattr(Diameter2Edges, "fits", counted_memo_fits)
        monkeypatch.setattr(criticality, "fits_within", counted_fits_within)
        monkeypatch.setattr(criticality, "delete_edge", counted_delete_edge)
        rep = is_edge_critical(wheel6())
        assert not rep.critical and rep.witness == (0, 1)
        assert calls == {
            "chi_rho": 0, "decisions": [((0, 1), 4)], "fits_within": [], "delete_edge": 0,
        }

    @pytest.mark.parametrize(("kind", "witness", "scan"), [
        ("edge", (0, 5), 2),
        ("vertex", 5, 4),
    ])
    def test_witness_decided_when_read(self, kind, witness, scan, monkeypatch):
        # G2^5(1,0;1,0) has leaves 5 and 6.  The verdict decides the first
        # leaf's deletion first and stops there; reading the witness then
        # decides the deletions before it in order, which all lower the
        # value, and reuses the verdict's answer for the leaf's.
        g = build(parse_spec("G2^5(1,0;1,0)")).graph
        decisions = []

        def counted(G, k):
            decisions.append(k)
            return fits_within(G, k)

        monkeypatch.setattr(criticality, "fits_within", counted)
        rep = is_vertex_critical(g) if kind == "vertex" else is_edge_critical(g)
        assert not rep.critical and len(decisions) == 1
        assert rep.witness == witness and len(decisions) == 1 + scan
        assert rep.witness == witness and len(decisions) == 1 + scan  # read once
        assert (rep.base_chi_rho, rep.critical, rep.witness) == reference_deletion_report(g, kind)

    def test_table_computed_once_on_read(self, monkeypatch):
        rep = is_edge_critical(wheel6())
        solved = []

        def counted_chi_rho(G):
            solved.append(G)
            return chi_rho(G)

        monkeypatch.setattr(criticality, "chi_rho", counted_chi_rho)
        assert [v for _, v in rep.table] == [5] * 5 + [4] * 5
        assert rep.table is rep.table and len(solved) == 10


def _same_as_reference(g):
    """Both reports equal the all-deletions reference, orbit skips and all."""
    if all(g.degree(v) for v in range(g.n)):
        rep = is_edge_critical(g)
        assert (rep.base_chi_rho, rep.critical, rep.witness) == reference_deletion_report(g, "edge"), g
    if g.n >= 2:
        rep = is_vertex_critical(g)
        assert (rep.base_chi_rho, rep.critical, rep.witness) == reference_deletion_report(g, "vertex"), g


# A triangle 0-2-3 with a pendant vertex 1 on 3.
PAW = Graph(4, [(0, 2), (0, 3), (1, 3), (2, 3)])

# The family sweeps whose instances carry the paper's symmetric cacti.
FAMILY_SWEEPS = ("pro4", "pro8", "pro9", "pro12", "pro13", "pro16", "teo1", "lemma7")


class TestOrbitSkips:
    def test_small_graphs_match_reference(self, connected_upto_7):
        for g in connected_upto_7:
            _same_as_reference(g)

    def test_cacti_match_reference(self):
        for n in (8, 9):
            for g in representatives("cactus", n):
                _same_as_reference(g)

    @pytest.mark.parametrize("theorem", FAMILY_SWEEPS)
    def test_family_sweep_instances_match_reference(self, theorem):
        sweep = verify.THEOREMS[theorem]
        for members in sweep.classes(dict(sweep.defaults, corpus=None)):
            for payload in members:
                _same_as_reference(build(parse_spec(payload["spec"])).graph)

    def test_hub_graphs_match_reference(self):
        # The thm12 instances: a hub joined to every graph on <= 6 vertices.
        sweep = verify.THEOREMS["thm12"]
        for [payload] in sweep.classes(dict(sweep.defaults, corpus=None)):
            _same_as_reference(payload["graph"])

    @pytest.mark.parametrize("g, kind, witness", [
        (wheel6(), "edge", (0, 1)),
        (PAW, "edge", (0, 3)),  # (0, 2) lowers the value
        (PAW, "vertex", 1),     # 0 lowers the value
    ], ids=["W6-edge-first", "paw-edge-second", "paw-vertex-second"])
    def test_early_witness_runs_no_certificate_search(self, g, kind, witness, monkeypatch):
        def refuse(G):
            raise AssertionError("certificate search run for an early witness")

        monkeypatch.setattr(enumeration, "_search", refuse)
        rep = is_vertex_critical(g) if kind == "vertex" else is_edge_critical(g)
        assert (rep.base_chi_rho, rep.critical, rep.witness) == reference_deletion_report(g, kind)
        assert rep.witness == witness


def _same_decisions(g, brute=False):
    """Every edge and vertex deletion of g, at one and two colors below g's
    value, is decided as ``packs_within`` answers it: by ``fits_within``
    and, where g has diameter <= 2, by the memo path, which answers exactly
    the edge deletions that keep diameter <= 2.  With ``brute`` the answer
    is also ``brute_has_packing_coloring``'s.  Returns how many edge
    decisions the memo path made."""
    base = chi_rho(g).value
    diameter2 = Diameter2Edges.of(g) if g.edge_count else None
    if diameter2 is not None:
        assert is_connected(g) and diameter(g) <= 2 and diameter2.value == base, g
    deletions = [(e, delete_edge(g, e)) for e in g.edges()]
    if g.n >= 2:
        deletions += [(v, delete_vertex(g, v)[0]) for v in range(g.n)]
    memo_decisions = 0
    for deletion, sub in deletions:
        keeps_diameter = isinstance(deletion, tuple) and is_connected(sub) and diameter(sub) <= 2
        for k in (base - 1, base - 2):
            if k < 1:
                continue
            packs = packs_within(sub, k) is not None
            assert fits_within(sub, k) == packs, (g, deletion, k)
            if brute:
                assert brute_has_packing_coloring(sub, k) == packs, (g, deletion, k)
            if diameter2 is not None and isinstance(deletion, tuple):
                decided = diameter2.fits(deletion, k)
                assert (decided is not None) == keeps_diameter, (g, deletion)
                assert decided in (None, packs), (g, deletion, k)
                memo_decisions += decided is not None
    return memo_decisions


class TestDecisions:
    """The yes/no questions criticality asks agree with the packing search."""

    def test_connected_graphs_match_search_and_brute(self, connected_upto_7):
        assert sum(_same_decisions(g, brute=True) for g in connected_upto_7) > 0

    def test_hub_graphs_match_search(self):
        hubs = [verify._hub_plus(b) for n in range(1, 8) for b in representatives("all", n)]
        assert len(hubs) == 1_252
        assert sum(_same_decisions(g) for g in hubs) > 0

    def test_cacti_match_search(self):
        for n in range(1, 10):
            for g in representatives("cactus", n):
                _same_decisions(g)

    def test_friendship_graphs_and_wheels_match_search(self):
        for spec in [f"T{n}" for n in range(1, 9)] + [f"W{n}" for n in range(4, 13)]:
            _same_decisions(build(parse_spec(spec)).graph)

    def test_one_low_color_runs_no_search(self, monkeypatch):
        # Diameter 2, or a single color: the caps decide both ways.
        def refuse(classes, k):
            raise AssertionError("search run where the caps decide")

        monkeypatch.setattr(packing, "_search_k", refuse)
        assert fits_within(wheel6(), 5) and not fits_within(wheel6(), 4)
        assert not fits_within(path(5), 1) and fits_within(Graph(3), 1)

    @pytest.mark.parametrize(("theorem", "searches", "deletion_graphs"), [
        ("thm12", 7, 27),
        ("cor1", 16, 48),
    ])
    def test_sweep_search_and_deletion_counts_pinned(self, theorem, searches, deletion_graphs, monkeypatch):
        # Solving each deletion graph's value and then its search one color
        # below made 403 searches and built 382 deletion graphs on thm12, and
        # 2,339 and 2,305 on cor1.  Deciding the deletions in edge order
        # made 26 and 35 on thm12 and 62 and 76 on cor1.  The deletions the
        # MIS memo leaves now run leaf deletions first, and each hub graph
        # with a leaf that gets that far, K2 aside, stops at the first graph
        # built: 19 on thm12 and 32 on cor1.
        verify.run_sweep(theorem)  # the hub bases' enumeration levels
        counts = {"searches": 0, "deletion_graphs": 0}
        search_k = packing._search_k

        def counted_search_k(classes, k):
            counts["searches"] += 1
            return search_k(classes, k)

        def counted_delete_edge(G, e):
            counts["deletion_graphs"] += 1
            return delete_edge(G, e)

        monkeypatch.setattr(packing, "_search_k", counted_search_k)
        monkeypatch.setattr(criticality, "delete_edge", counted_delete_edge)
        assert verify.run_sweep(theorem).ok
        assert counts == {"searches": searches, "deletion_graphs": deletion_graphs}
