from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from packcrit import graphs as graphs_module, independence
from packcrit.enumeration import representatives
from packcrit.errors import PreconditionError
from packcrit.graphs import Graph, all_pairs_distances, delete_edge
from packcrit.independence import (
    alpha,
    check_lemma_rad3,
    every_vertex_avoidable,
    haynes_check,
    is_alpha_critical,
    max_independent_set,
    mis_avoiding,
    mis_size_bits,
)
from oracles import brute_all_mis, brute_alpha, reference_ball_masks
from strategies import graphs


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestMis:
    def test_c5(self):
        assert max_independent_set(cycle(5)).alpha == 2

    def test_decorated_c5_alpha(self):
        # one cut vertex with k1 leaves and m1 triangles: alpha = m1 + k1 + 2
        for k1, m1 in [(0, 1), (1, 2), (3, 0), (2, 2)]:
            edges = [(i, (i + 1) % 5) for i in range(5)]
            nxt = 5
            for _ in range(k1):
                edges.append((0, nxt))
                nxt += 1
            for _ in range(m1):
                edges += [(0, nxt), (0, nxt + 1), (nxt, nxt + 1)]
                nxt += 2
            g = Graph(nxt, edges)
            assert alpha(g) == m1 + k1 + 2

    def test_double_hub_alpha(self):
        # hubs with k1=1,m1=1 and k2=2,m2=0: alpha = t + k1 + k2 with t = m1
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4), (1, 5), (1, 6)])
        assert alpha(g) == 1 + 1 + 2

    def test_witness_is_lexmin_mis(self):
        g = cycle(6)
        res = max_independent_set(g)
        assert res.witness == {0, 2, 4}
        mis_family = brute_all_mis(g)
        assert res.witness in mis_family
        assert sorted(res.witness) == min(sorted(sorted(s) for s in mis_family))

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=8))
    def test_against_brute_force(self, g):
        res = max_independent_set(g)
        assert res.alpha == brute_alpha(g)
        assert len(res.witness) == res.alpha
        assert all(not g.has_edge(u, v) for u, v in combinations(sorted(res.witness), 2))


def interleaved_union(g, h):
    """Disjoint union of g and h with g on the even labels first, so that
    neither component is a contiguous bit range."""
    n = g.n + h.n
    order = list(range(0, n, 2)) + list(range(1, n, 2))
    at_g, at_h = order[:g.n], order[g.n:]
    return Graph(n, [(at_g[u], at_g[v]) for u, v in g.edges()] + [(at_h[u], at_h[v]) for u, v in h.edges()])


@pytest.fixture(scope="module")
def interleaved_unions():
    small = [g for n in range(1, 5) for g in representatives("all", n)]
    return [interleaved_union(g, h) for g in small for h in small]


class TestComponentSplitting:
    def test_matches_brute_alpha(self, all_graphs_upto_6):
        for g in all_graphs_upto_6:
            assert mis_size_bits(g.adjacency_bits(), (1 << g.n) - 1) == brute_alpha(g), g

    def test_interleaved_unions(self, interleaved_unions):
        for g in interleaved_unions:
            assert mis_size_bits(g.adjacency_bits(), (1 << g.n) - 1) == brute_alpha(g), g

    def test_interleaved_union_witness_is_lexmin(self, interleaved_unions):
        for g in interleaved_unions:
            lexmin = min(sorted(s) for s in brute_all_mis(g))
            assert sorted(max_independent_set(g).witness) == lexmin, g

    def test_path_memo_stays_small(self):
        # without splitting, P40's distance-1 memo holds 110,809 masks
        p40 = Graph(40, [(i, i + 1) for i in range(39)])
        memo = {}
        assert independence._mis_size(reference_ball_masks(all_pairs_distances(p40), 1), (1 << 40) - 1, memo) == 20
        assert len(memo) < 40**2


def distance_power(g, i):
    """The graph joining every pair of g at distance at most i."""
    masks = reference_ball_masks(all_pairs_distances(g), i)
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if masks[u] >> v & 1])


class TestReductions:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=9), st.integers(min_value=0))
    def test_sub_masks_match_brute_alpha(self, g, seed):
        mask = seed & ((1 << g.n) - 1)
        keep = [v for v in range(g.n) if mask >> v & 1]
        sub = Graph(len(keep), [(keep.index(u), keep.index(v)) for u, v in g.edges() if u in keep and v in keep])
        assert mis_size_bits(g.adjacency_bits(), mask) == brute_alpha(sub)

    def test_connected_order_7_match_brute_alpha(self, connected_upto_7):
        # taking a minimum-degree vertex without the clique test gets every
        # graph to order 6 right, but not all of these
        for g in connected_upto_7:
            assert mis_size_bits(g.adjacency_bits(), (1 << g.n) - 1) == brute_alpha(g), g

    @pytest.mark.parametrize("shape", [path, cycle], ids=["P", "C"])
    def test_distance_powers_match_brute_alpha(self, shape):
        for n in range(3 if shape is cycle else 1, 13):
            g = shape(n)
            for i in range(1, n):
                masks = reference_ball_masks(all_pairs_distances(g), i)
                assert mis_size_bits(masks, (1 << n) - 1) == brute_alpha(distance_power(g, i)), (n, i)

    def test_long_path_needs_no_deep_recursion(self):
        # every branch level used to recurse, so P2500 raised RecursionError
        assert alpha(path(2100)) == 1050

    def test_leaf_chain_scans_once(self):
        # Each leaf taken on P1000 used to rescan the degrees of the whole
        # mask: about 250,000 adjacency reads.  The leaves that the removals
        # leave behind are now followed from the removed vertex.
        class Counted(tuple):
            reads = 0

            def __getitem__(self, v):
                Counted.reads += 1
                return tuple.__getitem__(self, v)

        bits = Counted(path(1000).adjacency_bits())
        assert independence._mis_size(bits, (1 << 1000) - 1, {}) == 500
        assert Counted.reads < 5_000

    def test_trees_match_brute_alpha(self):
        # Trees reduce by leaf chains alone.
        for n in range(1, 12):
            for g in representatives("tree", n):
                assert alpha(g) == brute_alpha(g), g

    def test_path_power_reduces_without_branching(self):
        # each end vertex of a path power is simplicial, so the whole solve
        # is one chain of reductions and memoises only the top mask
        memo = {}
        masks = reference_ball_masks(all_pairs_distances(path(40)), 3)
        assert independence._mis_size(masks, (1 << 40) - 1, memo) == 10
        assert memo == {(1 << 40) - 1: 10}


class TestAlphaCritical:
    def test_c5_critical(self):
        assert is_alpha_critical(cycle(5)).critical

    def test_c4_not_critical_with_witness(self):
        res = is_alpha_critical(cycle(4))
        assert not res.critical
        e = res.witness_edge
        assert alpha(delete_edge(cycle(4), e)) == alpha(cycle(4)) == 2

    def test_k2_critical(self):
        assert is_alpha_critical(Graph(2, [(0, 1)])).critical

    def test_edgeless_vacuous(self):
        assert is_alpha_critical(Graph(3, [])).critical

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=7))
    def test_edge_removal_bounds(self, g):
        a = alpha(g)
        for e in g.edges():
            ae = alpha(delete_edge(g, e))
            assert a <= ae <= a + 1


    def test_alpha_without_edge_matches_deletion(self, all_graphs_upto_6, connected_upto_7):
        # alpha(G - e) off G's one memo equals the deleted graph's alpha,
        # and the first edge that keeps alpha is the witness.
        for g in all_graphs_upto_6 + connected_upto_7:
            alphas = independence.EdgeAlphas(g)
            assert alphas.alpha == alpha(g)
            without = [alphas.without(e) for e in g.edges()]
            assert without == [brute_alpha(delete_edge(g, e)) for e in g.edges()], g
            keeps = next((e for e, a in zip(g.edges(), without) if a == alphas.alpha), None)
            assert is_alpha_critical(g) == (keeps is None, keeps)


class TestHaynes:
    def test_spot_values(self):
        assert haynes_check(cycle(5))
        assert not haynes_check(cycle(4))
        assert haynes_check(complete(3))

    def test_equals_alpha_criticality(self, connected_upto_7):
        for g in connected_upto_7:
            assert haynes_check(g) == is_alpha_critical(g).critical


class TestMisAvoiding:
    def test_c5_every_vertex_avoidable(self):
        for v in range(5):
            assert mis_avoiding(cycle(5), (v,)) is not None

    def test_star_leaves_unavoidable(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert mis_avoiding(g, (1, 2, 3)) is None

    def test_k2_endpoint(self):
        res = mis_avoiding(Graph(2, [(0, 1)]), (0,))
        assert res is not None and res.witness == {1}

    def test_every_vertex_avoidable_is_each_vertex_avoided(self, all_graphs_upto_6):
        for g in all_graphs_upto_6:
            each = all(mis_avoiding(g, (v,)) is not None for v in range(g.n))
            assert every_vertex_avoidable(g) == each, g
        assert every_vertex_avoidable(cycle(5))
        assert not every_vertex_avoidable(Graph(4, [(0, 1), (0, 2), (0, 3)]))


class TestLemmaRad3:
    def test_c7_and_c9(self):
        assert check_lemma_rad3(cycle(7))
        assert check_lemma_rad3(cycle(9))

    def test_c4_precondition(self):
        with pytest.raises(PreconditionError):
            check_lemma_rad3(cycle(4))

    def test_non_alpha_critical_precondition(self):
        with pytest.raises(PreconditionError):
            check_lemma_rad3(Graph(7, [(i, i + 1) for i in range(6)]))  # P7, rad 3

    def test_disconnected_precondition(self):
        with pytest.raises(PreconditionError, match="radius >= 3"):
            check_lemma_rad3(Graph(14, [(i, (i + 1) % 7) for i in range(7)]
                                   + [(7 + i, 7 + (i + 1) % 7) for i in range(7)]))  # 2 C7

    def test_one_distance_table(self, monkeypatch):
        calls = []
        original = graphs_module.all_pairs_distances

        def counted(G):
            calls.append(G)
            return original(G)

        for module in (graphs_module, independence):
            monkeypatch.setattr(module, "all_pairs_distances", counted)
        assert check_lemma_rad3(cycle(7))
        assert len(calls) == 1
