from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from packcrit.graphs import Graph
from packcrit.iso import find_isomorphism, is_isomorphic
from strategies import graphs, relabel

C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def test_c5_relabelings():
    assert is_isomorphic(C5, relabel(C5, [3, 0, 2, 4, 1]))


def test_different_components():
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_isomorphic(c6, two_triangles)


def test_degree_sequences_differ():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_isomorphic(p4, k13)


def test_witness_is_verified_mapping():
    h = relabel(C5, [2, 4, 1, 3, 0])
    mapping = find_isomorphism(C5, h)
    assert mapping is not None
    for a, b in C5.edges():
        assert h.has_edge(mapping[a], mapping[b])


def test_same_degree_sequence_nonisomorphic():
    # C6 vs two triangles have equal degree sequences but differ structurally
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    tt = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert sorted(c6.degree(v) for v in range(6)) == sorted(tt.degree(v) for v in range(6))
    assert not is_isomorphic(c6, tt)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert is_isomorphic(g, relabel(g, perm))


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6), graphs(max_n=6), st.randoms(use_true_random=False))
def test_equivalence_relation_sample(g, h, rng):
    # reflexivity and symmetry on a random sample
    assert is_isomorphic(g, g)
    assert is_isomorphic(g, h) == is_isomorphic(h, g)


def test_transitivity_on_relabel_chain():
    rng = random.Random(11)
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    p1, p2 = list(range(6)), list(range(6))
    rng.shuffle(p1)
    rng.shuffle(p2)
    h1 = relabel(g, p1)
    h2 = relabel(h1, p2)
    assert is_isomorphic(g, h1) and is_isomorphic(h1, h2) and is_isomorphic(g, h2)
