from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

import packcrit
from packcrit.enumeration import representatives
from packcrit.errors import DisconnectedGraphError, GraphInputError
from packcrit.graphs import (
    UNREACHABLE,
    Graph,
    all_pairs_distances,
    block_decomposition,
    bridges,
    build_graph,
    center,
    components,
    cut_vertices,
    delete_edge,
    delete_vertex,
    diameter,
    eccentricities,
    has_radius,
    induced_subgraph,
    is_block_graph,
    is_cactus,
    is_connected,
    is_tree,
    leaves,
    radius,
    twin_classes,
    universal_vertices,
)
from oracles import brute_bridges, brute_cut_vertices, reference_eccentricities
from strategies import graphs

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
W6 = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)] + [(0, i) for i in range(1, 6)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestConstruction:
    def test_c4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g == C4
        assert g.edge_count == 4

    def test_k1(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.edge_count == 0

    def test_duplicates_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphInputError, match=r"\(0, 5\)"):
            build_graph(3, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphInputError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_equality_is_labeled(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])
        assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(1, 0)]))
        assert Graph(0) == Graph(0) and hash(Graph(0)) == hash(Graph(0))
        assert Graph(0) != Graph(1) and Graph(2) != Graph(3)

    def test_has_edge_off_the_graph(self):
        # Out-of-range, negative and loop pairs are never edges.
        for g in (C4, W6, Graph(0), Graph(1)):
            for u, v in [(-1, 0), (0, -1), (-1, -1), (g.n, 0), (0, g.n), (g.n, g.n + 1)]:
                assert not g.has_edge(u, v), (g, u, v)
            for v in g.vertices():
                assert not g.has_edge(v, v)
                assert all(g.has_edge(v, w) and g.has_edge(w, v) for w in g.neighbors(v))


class TestDistances:
    def test_c5_pairs(self):
        dm = all_pairs_distances(C5)
        assert dm[0, 2] == 2
        assert dm[0, 0] == 0

    def test_p4_endpoints(self):
        assert all_pairs_distances(P4)[0, 3] == 3

    def test_unreachable(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dm = all_pairs_distances(g)
        assert dm[0, 2] == UNREACHABLE
        assert not dm.is_reachable(1, 3)

    def test_adjacent_iff_distance_one(self):
        dm = all_pairs_distances(W6)
        for u in range(6):
            for v in range(6):
                assert (dm[u, v] == 1) == W6.has_edge(u, v)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7))
    def test_symmetric_and_triangle_inequality(self, g):
        dm = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dm[u, v] == dm[v, u]
                for w in range(g.n):
                    if dm[u, w] != UNREACHABLE and dm[w, v] != UNREACHABLE:
                        assert dm[u, v] <= dm[u, w] + dm[w, v]


class TestMetrics:
    def test_c5(self):
        assert radius(C5) == 2 and diameter(C5) == 2

    def test_complete(self):
        for n in (2, 3, 5):
            assert radius(complete(n)) == 1 and diameter(complete(n)) == 1

    def test_p4(self):
        assert radius(P4) == 2 and diameter(P4) == 3

    def test_k1_metrics(self):
        g = Graph(1)
        assert radius(g) == 0 and diameter(g) == 0 and eccentricities(g) == (0,)

    def test_disconnected_fails(self):
        g = Graph(4, [(0, 1), (2, 3)])
        for fn in (radius, diameter, center):
            with pytest.raises(DisconnectedGraphError):
                fn(g)
        with pytest.raises(DisconnectedGraphError):
            eccentricities(g)

    def test_center_p4(self):
        assert center(P4) == {1, 2}

    def test_center_star(self):
        assert center(K13) == {0}

    def test_center_c5(self):
        assert center(C5) == {0, 1, 2, 3, 4}

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7, connected_bias=True))
    def test_rad_diam_bounds(self, g):
        if not is_connected(g) or g.n == 0:
            return
        r, d = radius(g), diameter(g)
        assert r <= d <= 2 * r


def _metric_inputs() -> list[Graph]:
    """Every graph to order 7, cacti to 10, trees to 11, block graphs to 9,
    seeded random graphs of order 0-14 (many disconnected), and the empty,
    one-vertex and isolated-vertex cases."""
    levels = [("all", 7), ("cactus", 10), ("tree", 11), ("block-graph", 9)]
    out = [g for structure, top in levels for n in range(1, top + 1) for g in representatives(structure, n)]
    rng = random.Random(2026)
    for _ in range(1500):
        n = rng.randrange(15)
        p = rng.random()
        out.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    out += [Graph(0), Graph(1), Graph(2), Graph(3, [(0, 1)]), Graph(5, [(1, 2), (2, 3), (3, 1)])]
    return out


def _outcome(fn, g):
    try:
        return fn(g)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


class TestBallMetrics:
    """Eccentricities grown from bitmask balls, and connectivity from a
    bitmask flood, against the BFS table and the component search."""

    def test_eccentricities_match_bfs_reference(self):
        inputs = _metric_inputs()
        assert any(len(components(g)) > 1 for g in inputs)
        for g in inputs:
            assert _outcome(eccentricities, g) == _outcome(reference_eccentricities, g), g

    def test_is_connected_matches_components(self):
        for g in _metric_inputs():
            assert is_connected(g) == (len(components(g)) <= 1), g

    # has_radius reads the radius off the bitmask balls.
    def test_radius_bits_matches_radius(self):
        # False at every r exactly where radius raises: disconnected or
        # empty graphs.
        for g in _metric_inputs():
            rad = _outcome(radius, g)
            assert rad is DisconnectedGraphError or isinstance(rad, int), g
            for r in range(6):
                assert has_radius(g, r) == (rad == r), (g, r)

    def test_radius_bits_small_cases(self):
        triangle_plus_isolated = Graph(5, [(1, 2), (2, 3), (3, 1)])
        for g in (Graph(0), Graph(2), triangle_plus_isolated):
            assert not any(has_radius(g, r) for r in range(6)), g
        assert has_radius(Graph(1), 0) and not has_radius(Graph(1), 1)
        assert has_radius(P4, 2) and not has_radius(P4, 1) and not has_radius(P4, 3)
        assert has_radius(K13, 1) and not has_radius(K13, 0) and not has_radius(K13, 2)


def _assert_same_graph(got: Graph, want: Graph) -> None:
    """``got`` equals ``want`` in every read a caller can make."""
    assert got == want and hash(got) == hash(want), (got, want)
    assert got.n == want.n and got.edges() == want.edges() and got.edge_count == want.edge_count, (got, want)
    assert [got.neighbors(v) for v in got.vertices()] == [want.neighbors(v) for v in want.vertices()], (got, want)
    assert got.adjacency_bits() == want.adjacency_bits(), (got, want)


class TestDeletions:
    def test_c4_minus_edge_is_p4(self):
        g = delete_edge(C4, (0, 1))
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]
        assert is_tree(g)

    def test_k2_minus_edge(self):
        g = delete_edge(Graph(2, [(0, 1)]), (0, 1))
        assert g.edge_count == 0 and len(components(g)) == 2

    def test_w6_minus_hub_is_c5(self):
        g, relabel = delete_vertex(W6, 0)
        assert g.n == 5 and g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))
        assert relabel == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}

    def test_edge_deletion_is_rebuilt_graph(self, all_graphs_upto_6):
        # Built from the original graph's rows, the result is the graph a
        # fresh edge list gives, whether or not the original's bitmasks were
        # cached.
        for g in all_graphs_upto_6:
            for e in g.edges():
                want = Graph(g.n, [f for f in g.edges() if f != e])
                for got in (delete_edge(Graph(g.n, g.edges()), e), delete_edge(g, e)):
                    _assert_same_graph(got, want)
                assert delete_edge(g, e[::-1]) == want

    def test_induced_subgraph_is_rebuilt_graph(self, all_graphs_upto_6):
        # Every vertex subset, handed over unsorted: the relabeled rows are
        # the graph the relabeled edge list gives, under the dense map.
        for g in all_graphs_upto_6:
            for mask in range(1 << g.n):
                keep = [v for v in g.vertices() if mask >> v & 1]
                relabel = {u: i for i, u in enumerate(keep)}
                want = Graph(len(keep), [(relabel[u], relabel[w]) for u, w in g.edges() if u in relabel and w in relabel])
                got, got_relabel = induced_subgraph(g, reversed(keep))
                assert got_relabel == relabel, (g, keep)
                _assert_same_graph(got, want)
                if len(keep) == g.n - 1:
                    (v,) = set(g.vertices()) - set(keep)
                    got, got_relabel = delete_vertex(g, v)
                    assert got_relabel == relabel, (g, v)
                    _assert_same_graph(got, want)

    def test_missing_edge_rejected(self):
        with pytest.raises(GraphInputError):
            delete_edge(C4, (0, 2))

    def test_missing_vertex_rejected(self):
        with pytest.raises(GraphInputError):
            delete_vertex(C4, 9)
        for vs in ([0, 4], [-1, 0], [9]):
            with pytest.raises(GraphInputError):
                induced_subgraph(C4, vs)


class TestComponents:
    def test_counts(self):
        assert len(components(delete_edge(C4, (0, 1)))) == 1
        assert len(components(Graph(2, []))) == 2
        assert components(Graph(0)) == []

    def test_singleton_connected(self):
        assert is_connected(Graph(1))


class TestCutsAndBridges:
    def test_p4(self):
        assert cut_vertices(P4) == {1, 2}
        assert bridges(P4) == {(0, 1), (1, 2), (2, 3)}

    def test_c5(self):
        assert cut_vertices(C5) == frozenset()
        assert bridges(C5) == frozenset()

    def test_friendship(self):
        t2 = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        assert cut_vertices(t2) == {0}
        assert bridges(t2) == frozenset()

    def test_disconnected(self):
        # P3 plus a disjoint K2 plus an isolated vertex
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        assert cut_vertices(g) == {1}
        assert bridges(g) == {(0, 1), (1, 2), (3, 4)}

    def test_match_deletion_oracle(self, all_graphs_upto_6):
        # Every class up to order 6, disconnected ones included, as
        # enumerated and under a fixed random relabeling.
        rng = random.Random(6)
        for g in all_graphs_upto_6:
            perm = list(range(g.n))
            rng.shuffle(perm)
            for h in (g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])):
                assert cut_vertices(h) == brute_cut_vertices(h), h
                assert bridges(h) == brute_bridges(h), h


class TestBlocks:
    def test_c5_single_block(self):
        bd = block_decomposition(C5)
        assert len(bd.blocks) == 1 and bd.blocks[0].is_cycle

    def test_p4_three_k2(self):
        bd = block_decomposition(P4)
        assert len(bd.blocks) == 3 and all(b.is_k2 for b in bd.blocks)
        assert bd.cut_vertices == {1, 2}

    def test_decorated_c5(self):
        # C5 with one pendant edge and two pendant triangles on vertex 0
        g = Graph(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5),
             (0, 6), (0, 7), (6, 7), (0, 8), (0, 9), (8, 9)],
        )
        bd = block_decomposition(g)
        kinds = sorted(
            ("cycle5" if b.order == 5 else "triangle" if b.order == 3 else "k2")
            for b in bd.blocks
        )
        assert kinds == ["cycle5", "k2", "triangle", "triangle"]
        assert bd.cut_vertices == {0}

    def test_every_edge_in_exactly_one_block(self, cacti_upto_10):
        for g in cacti_upto_10[:300]:
            bd = block_decomposition(g)
            counted = [e for b in bd.blocks for e in b.edges]
            assert sorted(counted) == g.edges()
            in_two = frozenset(
                v for v in range(g.n) if sum(v in b.vertices for b in bd.blocks) >= 2
            )
            assert in_two == bd.cut_vertices == cut_vertices(g)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            block_decomposition(Graph(2, []))


class TestPredicates:
    def test_cactus_examples(self):
        fig5 = Graph(
            13,
            [(0, 1), (1, 2), (2, 3), (3, 0),  # C4
             (0, 4), (0, 5), (0, 6), (5, 6), (0, 7), (7, 8), (8, 0),  # at x1
             (1, 9), (1, 10), (1, 11), (11, 12), (12, 1)],
        )
        assert is_cactus(fig5)

    def test_k4_not_cactus(self):
        assert not is_cactus(complete(4))

    def test_trees_are_cacti(self):
        assert is_cactus(P4) and is_cactus(K13) and is_cactus(Graph(1))

    def test_block_graph(self):
        assert is_block_graph(complete(4))
        assert is_block_graph(P4)
        assert not is_block_graph(C4)
        assert is_block_graph(C5) is False

    def test_tree(self):
        assert is_tree(P4) and is_tree(Graph(1)) and not is_tree(C4)
        assert not is_tree(Graph(2, []))


class TestVertexRoles:
    def test_universal(self):
        assert universal_vertices(W6) == {0}
        assert universal_vertices(C5) == frozenset()
        assert universal_vertices(complete(3)) == {0, 1, 2}

    def test_leaves(self):
        assert leaves(K13) == {1, 2, 3}
        assert leaves(C5) == frozenset()
        assert leaves(P4) == {0, 3}


class TestTwinClasses:
    def test_pairwise_definition(self, all_graphs_upto_6):
        # u and v share a class exactly when N(u) = N(v) or N[u] = N[v], and
        # each class is named by its first member.
        for g in all_graphs_upto_6:
            classes = twin_classes(g.adjacency_bits())
            opened = [set(g.neighbors(v)) for v in g.vertices()]
            closed = [opened[v] | {v} for v in g.vertices()]
            for v in g.vertices():
                twins = [u for u in g.vertices() if opened[u] == opened[v] or closed[u] == closed[v]]
                assert [u for u in g.vertices() if classes[u] == classes[v]] == twins, (g, v)
                assert classes[v] == twins[0], (g, v)

    def test_pendants(self):
        # Two leaves on one vertex are open twins, the outer vertices of a
        # pendant triangle closed twins.
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4), (0, 5)])
        assert twin_classes(g.adjacency_bits()) == [0, 1, 1, 3, 3, 1]


def _layout_breaches(source: str) -> list[str]:
    """The places in ``source`` that build a ``Graph`` without ``__init__``
    or assign one of its slots: ``Graph.__new__`` or ``object.__new__``
    calls, and assignments (or ``setattr`` calls) to an attribute named
    like a ``Graph`` slot."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            if isinstance(node.value, ast.Name) and node.value.id in ("Graph", "object"):
                found.append(f"line {node.lineno}: {node.value.id}.__new__")
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in Graph.__slots__:
                    found.append(f"line {sub.lineno}: assigns .{sub.attr}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "setattr":
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and name.value in Graph.__slots__:
                found.append(f"line {node.lineno}: setattr .{name.value}")
    return found


class TestStorageLayout:
    """Only ``graphs`` knows how a ``Graph`` is stored: every other module
    builds one through ``Graph(...)`` or ``Graph._from_rows``."""

    def test_no_other_module_fills_graph_slots(self):
        modules = sorted(Path(packcrit.__file__).parent.glob("*.py"))
        assert any(p.name == "enumeration.py" for p in modules)
        breaches = {p.name: _layout_breaches(p.read_text()) for p in modules if p.name != "graphs.py"}
        assert {name: found for name, found in breaches.items() if found} == {}

    def test_scan_catches_slot_writes(self):
        # The scan flags each way of filling the slots by hand.
        assert _layout_breaches("G = Graph.__new__(Graph)")
        assert _layout_breaches("G = object.__new__(Graph)")
        for slot in Graph.__slots__:
            assert _layout_breaches(f"G.{slot} = x")
            assert _layout_breaches(f"G.{slot}: int = x")
        assert _layout_breaches("G._bits, G.n = b, 3")
        assert _layout_breaches("setattr(G, '_adj', rows)")
        assert not _layout_breaches("G = Graph._from_rows(rows, bits)\nn = G.n\nsetattr(o, 'k', 1)")
        assert _layout_breaches(Path(packcrit.__file__).with_name("graphs.py").read_text())
