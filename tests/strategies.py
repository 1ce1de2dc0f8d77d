from __future__ import annotations

from hypothesis import strategies as st

from packcrit.graphs import Graph


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8, connected_bias: bool = False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = Graph(n, picks)
    if connected_bias and n > 1:
        # chain everything together so metric properties are exercised often
        extra = [(i, i + 1) for i in range(n - 1)]
        keep = draw(st.booleans())
        if keep:
            g = Graph(n, picks + extra)
    return g


@st.composite
def permutations_of(draw, n: int):
    perm = draw(st.permutations(list(range(n))))
    return list(perm)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """``g`` with vertex v renamed ``perm[v]``."""
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
