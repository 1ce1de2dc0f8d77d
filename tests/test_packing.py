from __future__ import annotations

import sys
from math import ceil

import pytest
from hypothesis import given, settings

from packcrit import criticality, independence, packing, verify
from packcrit.enumeration import representatives
from packcrit.errors import DisconnectedGraphError, PreconditionError
from packcrit.families import build, parse_spec
from packcrit.graphs import Graph, components, delete_edge, delete_vertex, diameter, induced_subgraph, is_connected
from packcrit.independence import alpha
from packcrit.packing import (
    PackingColoring,
    chi_rho,
    chi_rho_lower_bound,
    diam2_formula,
    fits_within,
    max_i_packing,
    packs_within,
    verify_packing_coloring,
)
from oracles import (
    brute_chi_rho,
    brute_has_packing_coloring,
    brute_lower_bound,
    brute_max_i_packing,
    reference_class_caps,
    reference_search_k,
)
from strategies import graphs


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def friendship(n):
    edges = []
    for t in range(n):
        a, b = 1 + 2 * t, 2 + 2 * t
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * n + 1, edges)


def wheel6():
    return Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)] + [(0, i) for i in range(1, 6)])


class TestVerify:
    def test_c5_valid(self):
        res = verify_packing_coloring(cycle(5), PackingColoring.from_colors((1, 2, 1, 3, 4)))
        assert res.ok and res.violation is None

    def test_c4_violation(self):
        res = verify_packing_coloring(cycle(4), PackingColoring.from_colors((1, 2, 1, 2)))
        assert not res.ok
        i, u, v, d = res.violation
        assert i == 2 and {u, v} == {1, 3} and d == 2

    def test_all_distinct_singletons(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        res = verify_packing_coloring(g, PackingColoring.from_colors((1, 2, 3, 4)))
        assert res.ok

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            verify_packing_coloring(cycle(4), PackingColoring.from_colors((1, 2, 1)))

    def test_nonpositive_color(self):
        with pytest.raises(ValueError):
            PackingColoring.from_colors((1, 0, 1))


class TestChiRho:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (cycle(5), 4),
            (cycle(4), 3),
            (path(4), 3),
            (path(5), 3),
            (wheel6(), 5),
            (complete(4), 4),
            (complete(7), 7),
            (friendship(3), 5),
            (Graph(1), 1),
        ],
        ids=["C5", "C4", "P4", "P5", "W6", "K4", "K7", "T3", "K1"],
    )
    def test_spot_values(self, g, expected):
        res = chi_rho(g)
        assert res.value == expected
        assert verify_packing_coloring(g, res.witness).ok
        assert res.witness.k == expected

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            chi_rho(Graph(0))

    def test_disconnected_max_over_components(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 0)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)])
        res = chi_rho(g)  # K3 + C5
        assert res.value == 4
        assert verify_packing_coloring(g, res.witness).ok

    def test_isolated_plus_edge(self):
        g = Graph(3, [(0, 1)])
        assert chi_rho(g).value == 2

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7))
    def test_against_brute_force(self, g):
        if g.n == 0:
            return
        res = chi_rho(g)
        assert res.value == brute_chi_rho(g)
        assert verify_packing_coloring(g, res.witness).ok

    def test_witness_minimal_negative_certificate(self, connected_upto_7):
        for g in connected_upto_7[:150]:
            res = chi_rho(g)
            if res.value > 1:
                assert not brute_has_packing_coloring(g, res.value - 1)


class TestDiam2Formula:
    def test_values(self):
        assert diam2_formula(cycle(5)) == 4
        assert diam2_formula(cycle(4)) == 3
        for n in range(2, 5):
            assert diam2_formula(friendship(n)) == n + 2

    def test_requires_diam2(self):
        with pytest.raises(PreconditionError):
            diam2_formula(path(4))
        with pytest.raises(DisconnectedGraphError):
            diam2_formula(Graph(3, [(0, 1)]))

    def test_agrees_with_solver_on_diam2(self, connected_upto_7):
        for g in connected_upto_7:
            if g.n >= 2 and diameter(g) == 2:
                assert diam2_formula(g) == chi_rho(g).value


class TestMaxIPacking:
    def test_alpha_at_one(self, connected_upto_7):
        for g in connected_upto_7[:80]:
            assert max_i_packing(g, 1) == alpha(g)

    def test_diameter_gives_one(self):
        for g in (cycle(5), path(6), wheel6()):
            assert max_i_packing(g, diameter(g)) == 1

    def test_decorated_c5_two_packing(self):
        # one decorated vertex: at most two vertices pairwise further than 2
        g = Graph(9, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (0, 6), (0, 7), (6, 7), (0, 8)])
        assert max_i_packing(g, 2) == 2

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            max_i_packing(Graph(0), 1)

    def test_matches_brute_oracle(self, all_graphs_upto_6):
        for g in all_graphs_upto_6:
            for i in range(1, g.n + 1):
                assert max_i_packing(g, i) == brute_max_i_packing(g, i), (g, i)


class TestLowerBound:
    def test_k1(self):
        assert chi_rho_lower_bound(Graph(1)) == 1

    def test_complete(self):
        assert chi_rho_lower_bound(complete(5)) == 5

    def test_diam2_matches_formula(self):
        assert chi_rho_lower_bound(cycle(5)) == 4

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            chi_rho_lower_bound(Graph(3, [(0, 1)]))

    def test_never_exceeds_chi(self, connected_upto_7):
        for g in connected_upto_7:
            assert chi_rho_lower_bound(g) <= chi_rho(g).value

    def test_matches_brute_oracle(self, all_graphs_upto_6):
        for g in all_graphs_upto_6:
            if not is_connected(g):
                continue
            assert chi_rho_lower_bound(g) == brute_lower_bound(g), g


class TestReach:
    @pytest.mark.parametrize("n", [40, 80])
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_path_and_cycle_packings(self, n, i):
        assert max_i_packing(path(n), i) == ceil(n / (i + 1))
        assert max_i_packing(cycle(n), i) == n // (i + 1)

    @pytest.mark.parametrize("g", [path(80), cycle(80)], ids=["P80", "C80"])
    def test_chi_rho_80(self, g):
        res = chi_rho(g)
        assert res.value == 3
        assert verify_packing_coloring(g, res.witness).ok

    def test_long_path_two_packing(self):
        # the MIS core used to recurse once per branch and overflow here
        assert max_i_packing(path(2100), 2) == 700

    def test_deep_component_fails_typed(self):
        # the packing search recurses once per vertex
        with pytest.raises(PreconditionError, match="order 1500"):
            chi_rho(path(1500))

    def test_caps_built_only_up_to_the_value(self, monkeypatch):
        calls = []
        original = packing.mis_size_bits
        monkeypatch.setattr(packing, "mis_size_bits", lambda bits, mask: calls.append(mask) or original(bits, mask))
        assert chi_rho(path(40)).value == 3
        assert len(calls) == 3  # colors 1..3, not all 38 below the diameter

    def test_lower_bound_is_counting_formula(self):
        for n in range(12, 41):
            for g in (path(n), cycle(n)):
                d = diameter(g)
                caps = sum(max_i_packing(g, i) for i in range(1, d))
                assert chi_rho_lower_bound(g) == max(1, n - caps + d - 1), g


class TestPacksWithin:
    def test_matches_brute_oracle(self, all_graphs_upto_6):
        for g in all_graphs_upto_6:
            for k in range(g.n + 1):
                cols = packs_within(g, k)
                assert (cols is not None) == brute_has_packing_coloring(g, k), (g, k)
                if cols is not None:
                    assert max(cols) <= k
                    assert verify_packing_coloring(g, PackingColoring.from_colors(cols)).ok

    def test_counting_bound_skips_search(self, monkeypatch):
        # C5 has counting bound 5 - 2 + 1 = 4, so k = 3 is refused unsearched
        monkeypatch.setattr(packing, "_search_k", lambda *args: pytest.fail("searched below the bound"))
        assert packs_within(cycle(5), 3) is None

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            packs_within(Graph(0), 3)


def _same_caps(G, top_k):
    """One _ClassCaps asked for k = 1..top_k in turn, as the solver asks,
    builds what the table-based reference builds for each k."""
    classes = packing._ClassCaps(G)
    for k in range(1, top_k + 1):
        ref = reference_class_caps(G, k)
        assert classes.capacity(k) == ref.capacity, (G, k)
        assert (classes.masks, classes.caps) == (ref.masks, ref.caps), (G, k)
    assert classes.d == ref.d, G


class TestGrownCaps:
    def test_small_graphs_match_reference(self, connected_upto_7):
        for g in connected_upto_7:
            _same_caps(g, chi_rho(g).value)

    def test_cacti_match_reference(self):
        for n in (8, 9):
            for g in representatives("cactus", n):
                _same_caps(g, chi_rho(g).value)

    def test_teo1_deletions_match_reference(self):
        for spec in verify._teo1_instances():
            g = build(spec).graph
            k = chi_rho(g).value - 1
            for e in g.edges():
                sub = delete_edge(g, e)
                for comp in components(sub):
                    _same_caps(induced_subgraph(sub, comp)[0], k)

    def test_k1_has_diameter_zero(self):
        classes = packing._ClassCaps(Graph(1))
        assert classes.d == 0 and classes.capacity(3) == 3


def _same_search(G, k):
    """The pruned search returns exactly the unpruned reference's answer."""
    classes = packing._ClassCaps(G)
    classes.capacity(k)
    found = packing._search_k(classes, k)
    assert found == reference_search_k(G, classes.masks, classes.caps, k), (G, k)
    return found


def _same_searches(G):
    """``_same_search`` on G at every k up to its value, which is the first
    k it succeeds at, and on every component of every single-edge deletion
    one color below it."""
    value = chi_rho(G).value
    for k in range(1, value + 1):
        assert (_same_search(G, k) is not None) == (k == value), (G, k)
    for e in G.edges():
        sub = delete_edge(G, e)
        for comp in components(sub):
            _same_search(induced_subgraph(sub, comp)[0], value - 1)


class TestRoomRefusals:
    def test_small_graphs_match_reference(self, connected_upto_7):
        for g in connected_upto_7:
            value = chi_rho(g).value
            for k in range(1, value + 1):
                assert (_same_search(g, k) is not None) == (k == value)

    def test_cacti_match_reference(self):
        for n in (8, 9):
            for g in representatives("cactus", n):
                for k in range(1, chi_rho(g).value + 1):
                    _same_search(g, k)

    def test_teo1_deletions_match_reference(self):
        # The searches edge criticality makes: every component of every
        # single-edge deletion, one color below the graph's value.
        for spec in verify._teo1_instances():
            g = build(spec).graph
            k = chi_rho(g).value - 1
            for e in g.edges():
                sub = delete_edge(g, e)
                for comp in components(sub):
                    _same_search(induced_subgraph(sub, comp)[0], k)

    def test_hub_graphs_match_reference(self, all_graphs_upto_6):
        # Twin-rich: the hub is a closed twin of every other universal
        # vertex, and the base's twins stay twins.
        for base in all_graphs_upto_6:
            g = verify._hub_plus(base)
            for k in range(1, chi_rho(g).value + 1):
                _same_search(g, k)

    def test_c4_specs_match_reference(self):
        # The pro13 specs to order 10, which hold the pro16 ones: pendant
        # leaves are open twins and pendant triangles closed twins.
        for spec in verify._gqr_specs(2, 4, 10):
            _same_searches(build(spec).graph)

    def test_many_high_colors_match_reference(self):
        # Friendship graphs and wheels have diameter at most 2, so every
        # color from 2 on is high.  In T1 = K3, T2, W4 = K4 and W5 the
        # search reaches vertices whose twin floor is a high color.
        for spec in [f"T{n}" for n in range(1, 11)] + [f"W{n}" for n in range(4, 15)]:
            _same_searches(build(parse_spec(spec)).graph)

    def test_teo1_node_count_pinned(self):
        # Every deletion up to the witness, none skipped: the unpruned search
        # makes 718,650 nodes here, the room bound without twin floors
        # 128,263, and twin floors with a room bound that lacks the
        # min(spare, open) term still make more than this.
        def deletions_to_witness():
            for spec in verify._teo1_instances():
                g = build(spec).graph
                base = chi_rho(g).value
                for e in g.edges():
                    if packs_within(delete_edge(g, e), base - 1) is None:
                        break

        assert _dfs_nodes(deletions_to_witness) == 33_009

    def test_teo1_sweep_node_count_pinned(self, monkeypatch):
        # The sweep skips a deletion in the orbit of one that lowered the
        # value, so its 13 critical graphs search 72 of their 183 edge
        # deletions (59 edge orbits; the first two deletions of a graph are
        # always searched), and the nodes fall by more than half: 64,105
        # without twin floors.  A decision with at most one low color is
        # read off the caps unsearched.  Deletions touching a vertex of
        # least degree are searched first, so in every graph the first two
        # are equal edges of one orbit; in edge order (14,784 nodes, 64
        # decisions) that happened in 5 graphs.  Each graph is critical, so
        # every orbit is still searched, now at a representative whose
        # searches are smaller on the largest graphs.
        calls = []

        def counted(G, k):
            calls.append(k)
            return fits_within(G, k)

        monkeypatch.setattr(criticality, "fits_within", counted)
        report = None

        def sweep():
            nonlocal report
            report = verify.run_sweep("teo1")

        assert (_dfs_nodes(sweep), len(calls)) == (14_168, 72)
        assert report.ok and report.total == 13

    @pytest.mark.parametrize(("theorem", "nodes"), [("lemma7", 2_408), ("pro9", 2_206)])
    def test_spec_sweep_node_count_pinned(self, theorem, nodes):
        # Spec sweeps whose graphs open many high colors, so the nodes
        # count how the search tries them.  pro9 read 15,944 while edge
        # criticality decided its deletions in edge order; now 78 of its
        # 81 graphs stop at the first deletion built, a leaf's, and the
        # sweep decides only one graph of each of its 43 mirror classes.
        # lemma7's classes are single specs.
        reports = []
        assert _dfs_nodes(lambda: reports.append(verify.run_sweep(theorem))) == nodes
        assert reports[0].ok

    def test_pro9_per_member_node_count_pinned(self):
        # With the oracle run on every one of pro9's 81 graphs.
        sweep = verify.THEOREMS["pro9"]
        payloads = sweep.payloads(dict(sweep.defaults, theorem="pro9", corpus=None))
        records = []
        assert _dfs_nodes(lambda: records.extend(verify.evaluate_payload("pro9", p) for p in payloads)) == 4_232
        assert len(records) == 81 and all(r["agree"] for r in records)


def _dfs_nodes(work) -> int:
    """The packing-search nodes ``work()`` visits."""
    nodes = 0
    dfs_file = packing.__file__

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "dfs" and frame.f_code.co_filename == dfs_file:
            nodes += 1

    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(None)
    return nodes


class TestNoDistanceTable:
    @pytest.mark.parametrize("g", [path(12), wheel6()], ids=["P12", "hub+C5"])
    def test_no_table_per_solve(self, g, monkeypatch):
        calls = {"all_pairs_distances": 0, "max_i_packing": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(packing, name, counted(name, getattr(packing, name)))
        chi_rho(g)
        assert calls == {"all_pairs_distances": 0, "max_i_packing": 0}

    def test_c80_four_packing_memo_pinned(self, monkeypatch):
        # Branching on a maximum-degree vertex alone memoises 92,587 masks
        # here; taking simplicial vertices cuts that to 105.
        sizes = []

        def counted(bits, mask):
            memo = {}
            result = independence._mis_size(bits, mask, memo)
            sizes.append(len(memo))
            return result

        monkeypatch.setattr(packing, "mis_size_bits", counted)
        assert max_i_packing(cycle(80), 4) == 16
        assert sizes == [105]


class TestMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=2, max_n=6))
    def test_subgraph_monotone(self, g):
        if g.n == 0:
            return
        base = chi_rho(g).value
        for e in g.edges():
            assert chi_rho(delete_edge(g, e)).value <= base
        if g.n >= 2:
            for v in range(g.n):
                sub, _ = delete_vertex(g, v)
                if sub.n >= 1:
                    assert chi_rho(sub).value <= base
