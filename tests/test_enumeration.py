from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from packcrit import enumeration
from packcrit.enumeration import (
    _TABLE,
    STRUCTURES,
    EnumerationFilter,
    _degree_key,
    _earlier_parent,
    _graph,
    _grow,
    _individualize,
    _orbit_firsts,
    _refine,
    _search,
    _search_bits,
    canonical_cert,
    enumerate_graphs,
    representatives,
)
from packcrit.errors import CapExceededError
from packcrit.families import build, parse_spec
from packcrit.graphio import emit_graph6
from packcrit.graphs import (
    Graph,
    delete_vertex,
    is_block_graph,
    is_cactus,
    is_connected,
    is_tree,
    radius,
)
from packcrit.iso import is_isomorphic
from packcrit.verify import THEOREMS
from oracles import (
    brute_automorphisms,
    cacti_by_block_attachment,
    connected_counts_from_all,
    count_unlabeled_graphs,
    reference_refine,
    reference_search_bits,
)

# Connected-class counts for n = 3..7, frozen from the Burnside/Euler oracle
# (recomputed for n <= 6 below; the n=7 value is the frozen regression).
CONNECTED_COUNTS = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# Class membership per structure, stated here independently of the module's table.
MEMBERSHIP = {"all": lambda g: True, "tree": is_tree, "cactus": is_cactus, "block-graph": is_block_graph}


class TestCounts:
    def test_connected_counts_match_oracle(self):
        all_counts = [0] + [count_unlabeled_graphs(n) for n in range(1, 7)]
        connected = connected_counts_from_all(all_counts)
        for n in range(3, 7):
            got = len(list(enumerate_graphs(EnumerationFilter(max_n=n, min_n=n, connected=True))))
            assert got == connected[n] == CONNECTED_COUNTS[n]

    def test_connected_n7_frozen(self):
        got = len(list(enumerate_graphs(EnumerationFilter(max_n=7, min_n=7, connected=True))))
        assert got == CONNECTED_COUNTS[7]

    def test_trees_n5(self):
        got = list(enumerate_graphs(EnumerationFilter(max_n=5, min_n=5, structure="tree")))
        assert len(got) == 3
        assert all(is_tree(g) for g in got)

    def test_cacti_n3(self):
        got = list(enumerate_graphs(EnumerationFilter(max_n=3, min_n=3, structure="cactus")))
        assert len(got) == 2


class TestIsomorphFreeness:
    def test_no_duplicates_and_complete_n5(self):
        reps = representatives("all", 5)
        for a, b in combinations(reps, 2):
            assert not is_isomorphic(a, b)
        # every labeled graph on 5 vertices matches some representative
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        rng = random.Random(3)
        for _ in range(80):
            edges = [p for p in pairs if rng.random() < 0.5]
            g = Graph(5, edges)
            assert any(is_isomorphic(g, rep) for rep in reps)

    def test_exhaustive_labeled_cover_n4(self):
        reps = representatives("all", 4)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for bits in range(1 << len(pairs)):
            g = Graph(4, [p for i, p in enumerate(pairs) if bits >> i & 1])
            assert sum(is_isomorphic(g, rep) for rep in reps) == 1


class TestFilters:
    def test_rad2_diam2_cacti_upto5(self):
        got = list(enumerate_graphs(EnumerationFilter(max_n=5, structure="cactus", radius=2, diameter=2)))
        assert len(got) == 2  # C4 and C5
        assert sorted(g.n for g in got) == [4, 5]

    def test_rad2_diam3_trees_n4(self):
        got = list(
            enumerate_graphs(
                EnumerationFilter(max_n=4, structure="tree", radius=2, diameter=3)
            )
        )
        assert len(got) == 1 and got[0].n == 4  # P4

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_lattice_equals_filtered_general(self, structure):
        member = MEMBERSHIP[structure]
        for n in range(1, 7):
            via_structure = {
                canonical_cert(g)
                for g in enumerate_graphs(EnumerationFilter(max_n=n, min_n=n, structure=structure))
            }
            via_filter = {
                canonical_cert(g)
                for g in representatives("all", n)
                if member(g)
            }
            assert via_structure == via_filter

    @pytest.mark.parametrize("metric", ["radius", "diameter"])
    def test_negative_metric_rejected(self, metric):
        with pytest.raises(ValueError, match=f"{metric} must be non-negative, got -1"):
            EnumerationFilter(max_n=5, structure="cactus", **{metric: -1})
        assert EnumerationFilter(max_n=5, **{metric: 0}).matches(Graph(1))

    def test_connected_flag(self):
        got = list(enumerate_graphs(EnumerationFilter(max_n=4, min_n=4, connected=False)))
        assert all(not is_connected(g) for g in got)
        assert len(got) == 11 - 6


C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

# Order / connectivity / radius / diameter options the filter-equivalence test crosses
# with every structure.
METRIC_OPTIONS = [
    {}, {"connected": True}, {"connected": False}, {"radius": 1}, {"radius": 2},
    {"diameter": 2}, {"diameter": 3}, {"radius": 2, "diameter": 3}, {"min_n": 3, "connected": True},
]


class TestFilterMatches:
    def test_block_graph_rejects_c4(self):
        assert not EnumerationFilter(max_n=5, structure="block-graph").matches(C4)
        assert EnumerationFilter(max_n=5, structure="cactus").matches(C4)

    def test_order_range(self):
        assert not EnumerationFilter(max_n=3).matches(C4)
        assert not EnumerationFilter(max_n=6, min_n=5).matches(C4)

    @pytest.mark.parametrize("structure", STRUCTURES)
    @pytest.mark.parametrize("options", METRIC_OPTIONS, ids=repr)
    def test_selects_what_enumeration_streams(self, all_graphs_upto_6, structure, options):
        filt = EnumerationFilter(max_n=6, structure=structure, **options)
        selected = sorted(canonical_cert(g) for g in all_graphs_upto_6 if filt.matches(g))
        assert selected == sorted(canonical_cert(g) for g in enumerate_graphs(filt))


class TestDeterminism:
    def test_stream_is_sorted_by_cert(self):
        stream = list(enumerate_graphs(EnumerationFilter(max_n=5)))
        again = list(enumerate_graphs(EnumerationFilter(max_n=5)))
        assert [g.edges() for g in stream] == [g.edges() for g in again]
        for n in range(1, 6):
            level = [canonical_cert(g) for g in stream if g.n == n]
            assert level == sorted(level)


class TestCaps:
    def test_general_cap(self, monkeypatch):
        monkeypatch.delenv("PACKCRIT_MAX_N", raising=False)
        with pytest.raises(CapExceededError):
            list(enumerate_graphs(EnumerationFilter(max_n=9)))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PACKCRIT_MAX_N", "4")
        with pytest.raises(CapExceededError):
            list(enumerate_graphs(EnumerationFilter(max_n=5)))

    def test_cap_checked_before_any_level_is_built(self, monkeypatch):
        monkeypatch.delenv("PACKCRIT_MAX_N", raising=False)
        monkeypatch.setattr(enumeration, "representatives", lambda *args: pytest.fail("built a level past the cap"))
        with pytest.raises(CapExceededError, match="order 9 exceeds the all cap 8"):
            next(enumerate_graphs(EnumerationFilter(max_n=9)))


class TestCert:
    def test_iso_iff_equal_certs(self):
        rng = random.Random(17)
        reps = representatives("all", 5)
        for _ in range(60):
            a, b = rng.choice(reps), rng.choice(reps)
            assert (canonical_cert(a) == canonical_cert(b)) == is_isomorphic(a, b)

    def test_relabel_invariance(self):
        rng = random.Random(23)
        for g in representatives("cactus", 7)[:30]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
            assert canonical_cert(h) == canonical_cert(g)


class TestBlockAttachmentGenerator:
    def test_agrees_with_augmentation(self):
        alt = {canonical_cert(g) for g in cacti_by_block_attachment(8)}
        primary = set()
        for n in range(1, 9):
            primary.update(canonical_cert(g) for g in representatives("cactus", n))
        assert alt == primary


class TestCactusExtensions:
    def test_exactly_the_masks_that_grow_a_cactus(self):
        # Every one- or two-vertex mask, in lattice order, kept when the grown
        # graph is a cactus: the row's bridge-path generator must yield these.
        extensions = _TABLE["cactus"].extensions
        for n in range(1, 10):
            masks = [1 << v for v in range(n)] + [(1 << u) | (1 << v) for u, v in combinations(range(n), 2)]
            for parent in representatives("cactus", n):
                expected = [m for m in masks if is_cactus(_graph(_grow(parent, m)))]
                assert list(extensions(parent)) == expected, emit_graph6(parent)


class TestBlockGraphExtensions:
    def test_exactly_the_masks_that_grow_a_block_graph(self):
        # Every mask, in increasing order, kept when the grown graph is a
        # block graph: the row's generator must yield these, singles first.
        extensions = _TABLE["block-graph"].extensions
        for n in range(1, 9):
            for parent in representatives("block-graph", n):
                expected = [m for m in range(1 << n) if is_block_graph(_graph(_grow(parent, m)))]
                singles = [m for m in expected if m.bit_count() == 1]
                assert list(extensions(parent)) == singles + [m for m in expected if m not in singles], emit_graph6(parent)


def _closure(n: int, gens: list[list[int]]) -> set[tuple[int, ...]]:
    """The group the permutations generate, by breadth-first products."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[v]] for v in range(n))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


class TestAutomorphismGenerators:
    @staticmethod
    def _check(g: Graph) -> None:
        edges = set(g.edges())
        gens = _search(g)[1]
        for perm in gens:
            assert {tuple(sorted((perm[a], perm[b]))) for a, b in edges} == edges, (emit_graph6(g), perm)
        assert _closure(g.n, gens) == brute_automorphisms(g), emit_graph6(g)

    def test_generate_the_group_of_every_graph_upto_6(self, all_graphs_upto_6):
        for g in all_graphs_upto_6:
            self._check(g)

    def test_generate_the_group_of_cacti_7_and_8(self):
        for n in (7, 8):
            for g in representatives("cactus", n):
                self._check(g)

    def test_star_needs_the_twin_transpositions(self):
        # Every leaf of K1,3 is a twin of the first, so the search explores
        # one leaf of the tree and the group comes from the twins alone.
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert len(_closure(4, _search(star)[1])) == 6

    def test_orbit_firsts_match_brute_orbits(self, all_graphs_upto_6):
        # The first mask of each orbit of the brute group on vertex sets.
        for g in all_graphs_upto_6:
            group = brute_automorphisms(g)
            seen: set[int] = set()
            expected = []
            for mask in range(1 << g.n):
                if mask not in seen:
                    expected.append(mask)
                    seen.update(sum(1 << p[v] for v in range(g.n) if mask >> v & 1) for p in group)
            assert list(_orbit_firsts(range(1 << g.n), _search(g)[1])) == expected, emit_graph6(g)


# Candidates grown while building each level from scratch: one per orbit of
# the parent's automorphism group on the row's masks.  Trying every mask
# grows 11,290 and 15,823.
CANDIDATE_COUNTS = {("all", 7): 5758, ("cactus", 10): 11022}


@pytest.mark.parametrize("structure,n", sorted(CANDIDATE_COUNTS))
def test_candidate_counts_pinned(monkeypatch, structure, n):
    grown = []

    def counting_grow(parent, mask):
        grown.append(mask)
        return _grow(parent, mask)

    monkeypatch.setattr(enumeration, "_REPS_CACHE", {})
    monkeypatch.setattr(enumeration, "_grow", counting_grow)
    representatives(structure, n)
    assert len(grown) == CANDIDATE_COUNTS[structure, n]


# Certificate searches while building each level from scratch: one per grown
# candidate that ``_earlier_parent`` does not show an earlier parent grew.
# Without that skip every candidate is searched (CANDIDATE_COUNTS).
SEARCH_COUNTS = {("all", 7): 1675, ("cactus", 10): 6231}


def _count_searches(monkeypatch) -> list[tuple[int, ...]]:
    """Empty the level caches and record the input of every certificate
    search enumeration makes from now on."""
    searched: list[tuple[int, ...]] = []

    def counting_search_bits(adj):
        searched.append(adj)
        return _search_bits(adj)

    monkeypatch.setattr(enumeration, "_REPS_CACHE", {})
    monkeypatch.setattr(enumeration, "_METRICS_CACHE", {})
    monkeypatch.setattr(enumeration, "_search_bits", counting_search_bits)
    return searched


@pytest.mark.parametrize("structure,n", sorted(SEARCH_COUNTS))
def test_search_counts_pinned(monkeypatch, structure, n):
    searched = _count_searches(monkeypatch)
    representatives(structure, n)
    assert len(searched) == SEARCH_COUNTS[structure, n]


# Certificate searches a radius filter makes from a clean cache: the full
# levels below its top order, then only the candidates of that radius at the
# top order.  Here that is 1,634 searches for cactus levels 1-9 (SEARCH_COUNTS
# less level 10's 4,597) and 1,499 at level 10.
RADIUS_SEARCH_COUNTS = {("cactus", 10, 2): 3133}


@pytest.mark.parametrize("structure,n,r", sorted(RADIUS_SEARCH_COUNTS))
def test_radius_search_counts_pinned(monkeypatch, structure, n, r):
    searched = _count_searches(monkeypatch)
    assert list(enumerate_graphs(EnumerationFilter(max_n=n, structure=structure, radius=r)))
    assert len(searched) == RADIUS_SEARCH_COUNTS[structure, n, r]


RADII = range(4)


def _of_radius(level, r: int):
    """The representatives of ``level`` of radius r, with their generators."""
    reps, gens = level
    keep = [i for i, g in enumerate(reps) if is_connected(g) and radius(g) == r]
    return tuple(reps[i] for i in keep), tuple(gens[i] for i in keep)


@pytest.mark.parametrize("full_first", [False, True], ids=["clean", "full-cached"])
@pytest.mark.parametrize("structure,n", [("all", 6), ("cactus", 8), ("tree", 9), ("block-graph", 7)])
def test_radius_level_is_the_full_level_of_that_radius(monkeypatch, structure, n, full_first):
    # At every order, each radius level holds the full level's
    # representatives of that radius, with their generators, in order,
    # whether or not the full level of that order was built first.
    monkeypatch.setattr(enumeration, "_REPS_CACHE", {})
    for k in range(1, n + 1):
        if full_first:
            enumeration._level(structure, k)
        narrow = [enumeration._level(structure, k, r) for r in RADII]
        assert ((structure, k, None) in enumeration._REPS_CACHE) == full_first
        full = enumeration._level(structure, k)
        assert narrow == [_of_radius(full, r) for r in RADII], (structure, k)


# One order per ``_TABLE`` row, small enough to build twice.
TABLE_ORDERS = [("all", 6), ("cactus", 9), ("tree", 10), ("block-graph", 8)]


def _histogram(key: int, w: int) -> Counter:
    """The degree multiset a ``_degree_key`` at width w encodes."""
    counts: Counter = Counter()
    degree = 0
    while key:
        if key & ((1 << w) - 1):
            counts[degree] = key & ((1 << w) - 1)
        key >>= w
        degree += 1
    return counts


class _NoRank(dict):
    """A rank table that has no key and records every key looked up, so
    ``_earlier_parent`` skips nothing and reads the key of every deletion."""

    def __init__(self):
        super().__init__()
        self.keys: list[int] = []

    def get(self, key, default=None):
        self.keys.append(key)
        return default


def _deletion_keys(adj: tuple[int, ...]) -> list[int]:
    """The keys ``_earlier_parent`` reads for the candidate ``adj``, one per
    vertex but the new one, at the width of the candidate's order."""
    ranks = _NoRank()
    assert not _earlier_parent(adj, len(adj).bit_length(), ranks, len(adj), False)
    return ranks.keys


class TestEarlierParentSkip:
    @pytest.mark.parametrize("structure,n", TABLE_ORDERS)
    def test_levels_equal_searching_every_candidate(self, monkeypatch, structure, n):
        # The skip drops only candidates whose class is already kept: the
        # representatives and their generator tuples are those of searching
        # every grown candidate, at every order.
        monkeypatch.setattr(enumeration, "_REPS_CACHE", {})
        skipping = [enumeration._level(structure, k) for k in range(1, n + 1)]
        monkeypatch.setattr(enumeration, "_REPS_CACHE", {})
        monkeypatch.setattr(enumeration, "_earlier_parent", lambda *args: False)
        searching = [enumeration._level(structure, k) for k in range(1, n + 1)]
        assert skipping == searching

    @pytest.mark.parametrize("structure", [s for s in STRUCTURES if _TABLE[s].member is not None])
    def test_member_survives_deleting_a_non_cut_vertex(self, structure):
        # The skip reads a connected candidate less one vertex as a member of
        # the row's class.
        member = _TABLE[structure].member
        for n in range(2, 9):
            for g in representatives(structure, n):
                for u in range(n):
                    rest = delete_vertex(g, u)[0]
                    if is_connected(rest):
                        assert member(rest), (emit_graph6(g), u)

    @pytest.mark.parametrize("structure,n", [("all", 6), ("cactus", 8), ("tree", 9), ("block-graph", 7)])
    def test_incremental_key_is_the_key_of_the_deletion(self, monkeypatch, structure, n):
        for adj in _grown(monkeypatch, structure, n):
            w = len(adj).bit_length()
            assert _histogram(_degree_key(adj, w), w) == Counter(a.bit_count() for a in adj), adj
            expected = [
                _degree_key([adj[v] & ~(1 << u) for v in range(len(adj)) if v != u], w) for u in range(len(adj) - 1)
            ]
            assert _deletion_keys(adj) == expected, adj

    def test_key_exact_past_field_width_4(self):
        # At order 16 the width is 5 bits: K1,15 less its center is 15
        # isolated vertices, and the empty graph on 16 vertices counts 16
        # in one field, which a 4-bit field would carry into the next.
        star = _grow(Graph(15, [(0, v) for v in range(1, 15)]), 1)
        w = len(star).bit_length()
        assert w == 5
        assert _histogram(_degree_key(star, w), w) == Counter({1: 15, 15: 1})
        keys = _deletion_keys(star)
        assert _histogram(keys[0], w) == Counter({0: 15})
        assert all(_histogram(k, w) == Counter({1: 14, 14: 1}) for k in keys[1:])
        empty = _grow(Graph(15), 0)
        assert _histogram(_degree_key(empty, w), w) == Counter({0: 16})
        assert _histogram(_degree_key(empty, 4), 4) == Counter({1: 1})  # 4 bits would carry

    def test_width_follows_the_order_not_the_cap(self, monkeypatch):
        # A PACKCRIT_MAX_N override below the order built leaves the width
        # at the bit length of that order, so the key stays exact.
        widths = set()

        def recording(adj, w, last_rank, i, connected):
            widths.add((len(adj), w))
            return _earlier_parent(adj, w, last_rank, i, connected)

        monkeypatch.setenv("PACKCRIT_MAX_N", "3")
        monkeypatch.setattr(enumeration, "_REPS_CACHE", {})
        monkeypatch.setattr(enumeration, "_earlier_parent", recording)
        enumeration._level("tree", 9)
        assert widths == {(n, n.bit_length()) for n in range(2, 10)}


def _count_eccentricities(monkeypatch) -> list[Graph]:
    """Empty the metrics cache and record every graph whose eccentricities
    enumeration reads from now on."""
    calls: list[Graph] = []
    eccentricities = enumeration.eccentricities

    def counting_eccentricities(g):
        calls.append(g)
        return eccentricities(g)

    monkeypatch.setattr(enumeration, "_METRICS_CACHE", {})
    monkeypatch.setattr(enumeration, "eccentricities", counting_eccentricities)
    return calls


def test_filter_metrics_computed_once_per_representative(monkeypatch):
    # The full levels are built first; the radius filter still reads its
    # top order from the radius level, whose metrics are then read once
    # beside the full levels'.
    connected = [g for n in range(1, 9) for g in representatives("cactus", n) if is_connected(g)]
    calls = _count_eccentricities(monkeypatch)
    first = list(enumerate_graphs(EnumerationFilter(max_n=8, structure="cactus", radius=2)))
    second = list(enumerate_graphs(EnumerationFilter(max_n=8, structure="cactus", diameter=3, connected=True)))
    assert len(calls) == len(connected) + len(enumeration._level("cactus", 8, 2)[0])
    assert first and second


def test_radius_level_shared_across_diameters(monkeypatch):
    # From a clean cache two radius-2 filters that differ in diameter read
    # one radius level at their top order, and its metrics once.
    monkeypatch.setattr(enumeration, "_REPS_CACHE", {})
    calls = _count_eccentricities(monkeypatch)
    diam2 = list(enumerate_graphs(EnumerationFilter(max_n=8, structure="cactus", radius=2, diameter=2)))
    diam3 = list(enumerate_graphs(EnumerationFilter(max_n=8, structure="cactus", radius=2, diameter=3)))
    # lower orders are parent levels, read in full
    assert ("cactus", 8, None) not in enumeration._REPS_CACHE and ("cactus", 7, 2) not in enumeration._REPS_CACHE
    lower = [g for n in range(1, 8) for g in representatives("cactus", n) if is_connected(g)]
    assert len(calls) == len(lower) + len(enumeration._level("cactus", 8, 2)[0])
    assert diam2 and diam3


def _partition(colors: list[int]) -> tuple[list, list[int]]:
    """The ordered partition of a dense coloring, as ``_refine`` takes it:
    the cell starting at each position (None inside a cell) and each
    vertex's cell start."""
    n = len(colors)
    cells: list = [None] * n
    color = [0] * n
    s = 0
    for c in range(max(colors) + 1):
        cell = [v for v in range(n) if colors[v] == c]
        cells[s] = cell
        for v in cell:
            color[v] = s
        s += len(cell)
    return cells, color


def _dense(color: list[int]) -> list[int]:
    """The dense coloring of a partition given by cell starts."""
    rank = {s: i for i, s in enumerate(sorted(set(color)))}
    return [rank[s] for s in color]


def _refine_dense(nbrs, colors: list[int]) -> list[int]:
    """``_refine`` on a dense coloring that need not be equitable, so every
    cell is examined in the first round."""
    cells, color = _partition(colors)
    _refine(nbrs, cells, color, set(color))
    return _dense(color)


def _individualized(colors: list[int], v: int) -> list[int]:
    """v split off at the front of its cell in a dense coloring."""
    return [c + (c > colors[v] or (c == colors[v] and u != v)) for u, c in enumerate(colors)]


class TestRefine:
    def test_matches_global_sort_reference(self, all_graphs_upto_6):
        for g in all_graphs_upto_6:
            n = g.n
            nbrs = tuple(g.neighbors(v) for v in range(n))
            stable = reference_refine(nbrs, [0] * n)
            starts = [[0] * n]
            starts += [[int(u != v) for u in range(n)] for v in range(n)]
            # v individualized inside its non-singleton cell of the stable
            # coloring, as the certificate search does
            starts += [_individualized(stable, v) for v in range(n) if stable.count(stable[v]) > 1]
            for colors in starts:
                assert _refine_dense(nbrs, list(colors)) == reference_refine(nbrs, list(colors)), (
                    emit_graph6(g), colors)

    def test_individualized_twice_matches_reference(self, all_graphs_upto_6):
        # Below the first level the first round examines only the cells
        # next to the individualized vertex, and the cells a round examines
        # depend on what the round before split: both differ from the root.
        graphs = list(all_graphs_upto_6) + list(representatives("cactus", 8))
        for g in graphs:
            n = g.n
            nbrs = tuple(g.neighbors(v) for v in range(n))
            stable = reference_refine(nbrs, [0] * n)
            cells, color = _partition(stable)
            for v in range(n):
                if stable.count(stable[v]) == 1:
                    continue
                first = reference_refine(nbrs, _individualized(stable, v))
                child = _individualize(nbrs, cells, color, v)
                assert _dense(child[1]) == first, (emit_graph6(g), v)
                for w in range(n):
                    if first.count(first[w]) == 1:
                        continue
                    second = reference_refine(nbrs, _individualized(first, w))
                    assert _dense(_individualize(nbrs, *child, w)[1]) == second, (emit_graph6(g), v, w)
            assert _dense(color) == stable  # the parent partition is copied, not changed


def _grown(monkeypatch, structure: str, n: int) -> list[tuple[int, ...]]:
    """The adjacency bitmasks of every candidate ``representatives`` grows
    while it builds the levels of ``structure`` up to order n from scratch,
    whether or not its certificate search is skipped."""
    seen = []

    def recording(parent, mask):
        adj = _grow(parent, mask)
        seen.append(adj)
        return adj

    monkeypatch.setattr(enumeration, "_REPS_CACHE", {})
    monkeypatch.setattr(enumeration, "_grow", recording)
    representatives(structure, n)
    return seen


class TestSearchMatchesReference:
    """``_search_bits`` returns the plain search's certificate and
    generators, in the same order, on every input below."""

    @pytest.mark.parametrize("structure,n", TABLE_ORDERS)
    def test_every_certified_candidate(self, monkeypatch, structure, n):
        candidates = _grown(monkeypatch, structure, n)
        assert candidates
        for adj in candidates:
            assert _search_bits(adj) == reference_search_bits(adj), adj

    @pytest.mark.parametrize("theorem", ["teo1", "pro13"])
    def test_family_graphs(self, theorem):
        # criticality searches these graphs
        sweep = THEOREMS[theorem]
        classes = sweep.classes(dict(sweep.defaults, corpus=None))
        for payload in (p for members in classes for p in members):
            adj = build(parse_spec(payload["spec"])).graph.adjacency_bits()
            expected = reference_search_bits(adj)
            assert _search_bits(adj) == expected, payload["spec"]


# (count, SHA-256) over the ordered lines "<graph6> <canonical_cert>" of
# orders 1..n.  The kept representative of each class and every certificate
# depend on the extension order and on the refinement's ordered partition,
# so a change to either must leave these as they are.
STREAM_DIGESTS = {
    ("cactus", 10): (2866, "cce5f695504aef70c44a3af20da264065c2de6c8c2b39bc449b6ea39f6e6af42"),
    ("all", 7): (1252, "b6b45b7d823e410b481a3f4a2b1c8cb2244fd575f45fdca13884405da206ab1b"),
    ("tree", 11): (436, "a30859a08d111d360796071ff3d6f74692c77c14df8663b7760b7f5b558b443c"),
    ("block-graph", 9): (759, "efb68708778b2630e9941538a3bd83e014dec19183424c969f798e8afc877c2e"),
}


@pytest.mark.parametrize("structure,n", sorted(STREAM_DIGESTS))
def test_stream_digest_pinned(structure, n):
    digest = hashlib.sha256()
    count = 0
    for k in range(1, n + 1):
        for g in representatives(structure, k):
            digest.update(f"{emit_graph6(g)} {canonical_cert(g)}\n".encode())
            count += 1
    assert (count, digest.hexdigest()) == STREAM_DIGESTS[structure, n]


@pytest.mark.parametrize("structure,n", sorted(STREAM_DIGESTS))
def test_graph_from_bits_is_the_edge_list_graph(structure, n):
    # ``_graph`` builds through ``Graph._from_rows`` from the bitmasks; the
    # graph an edge list read off the same bitmasks gives, and the one the
    # rows alone give (bitmasks built on first read), must be equal in every
    # respect.
    for k in range(1, n + 1):
        for g in representatives(structure, k):
            adj = g.adjacency_bits()
            want = Graph(k, [(u, w) for u in range(k) for w in range(u + 1, k) if adj[u] >> w & 1])
            rows = Graph._from_rows(tuple(want.neighbors(v) for v in range(k)))
            for h in (_graph(adj), g, rows):
                assert h == want and hash(h) == hash(want), emit_graph6(g)
                assert [h.neighbors(v) for v in range(k)] == [want.neighbors(v) for v in range(k)]
                assert h.adjacency_bits() == want.adjacency_bits() and h.edges() == want.edges()
                assert h.edge_count == want.edge_count and repr(h) == repr(want)
