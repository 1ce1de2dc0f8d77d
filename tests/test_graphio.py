from __future__ import annotations

import pytest
from hypothesis import given, settings

from packcrit.enumeration import representatives
from packcrit.errors import GraphInputError
from packcrit.graphs import Graph
from packcrit.graphio import (
    emit_dot,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
    read_graph6_lines,
)
from packcrit.packing import PackingColoring
from oracles import reference_emit_graph6, reference_parse_graph6
from strategies import graphs

# Frozen expectations were produced by the reference decoder first.
FROZEN = {
    "D??": (5, []),
    "A_": (2, [(0, 1)]),
    "DQc": (5, [(0, 2), (0, 4), (1, 3), (3, 4)]),
    "?": (0, []),
    "@": (1, []),
    "Dhc": (5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
}


class TestGraph6Parse:
    @pytest.mark.parametrize("record,expected", sorted(FROZEN.items()))
    def test_frozen_records(self, record, expected):
        n, edges = expected
        g = parse_graph6(record)
        assert g.n == n
        assert g.edges() == sorted(edges)
        ref_n, ref_edges = reference_parse_graph6(record)
        assert (ref_n, sorted(ref_edges)) == (n, sorted(edges))

    def test_accepts_bytes_and_newline(self):
        assert parse_graph6(b"A_\n") == parse_graph6("A_")

    def test_bad_byte_range_with_offset(self):
        with pytest.raises(GraphInputError, match="offset 1"):
            parse_graph6("D\x1f?")

    def test_truncated_body(self):
        with pytest.raises(GraphInputError, match="truncated"):
            parse_graph6("D?")

    def test_trailing_garbage(self):
        with pytest.raises(GraphInputError, match="trailing"):
            parse_graph6("A_?")

    def test_nonzero_padding(self):
        # K2 body with a stray low bit set in the padding area
        with pytest.raises(GraphInputError, match="padding"):
            parse_graph6("A" + chr(63 + 0b100001))

    def test_empty(self):
        with pytest.raises(GraphInputError):
            parse_graph6("")

    def test_multibyte_size_prefix(self):
        # 126 then 3 size bytes: n=63 needs ceil(63*62/2/6)=326 body bytes
        record = chr(126) + chr(63) + chr(63) + chr(126) + "?" * 326
        g = parse_graph6(record)
        assert g.n == 63 and g.edge_count == 0


class TestGraph6Emit:
    def test_k2(self):
        assert emit_graph6(Graph(2, [(0, 1)])) == "A_"

    def test_empty5(self):
        assert emit_graph6(Graph(5, [])) == "D??"

    def test_oversize_rejected(self):
        with pytest.raises(GraphInputError, match="62"):
            emit_graph6(Graph(63, []))

    @pytest.mark.parametrize("record", sorted(FROZEN))
    def test_emit_parse_identity_on_corpus(self, record):
        assert emit_graph6(parse_graph6(record)) == record

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=9))
    def test_parse_emit_round_trip(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=8))
    def test_reference_decoder_agrees(self, g):
        rec = emit_graph6(g)
        n, edges = reference_parse_graph6(rec)
        assert n == g.n and sorted(edges) == g.edges()

    def test_reference_encoder_agrees_upto_7(self, all_graphs_upto_6):
        for g in all_graphs_upto_6 + list(representatives("all", 7)):
            assert emit_graph6(g) == reference_emit_graph6(g), g

    @settings(max_examples=80, deadline=None)
    @given(graphs(min_n=0, max_n=62))
    def test_reference_encoder_agrees(self, g):
        assert emit_graph6(g) == reference_emit_graph6(g)


class TestGraph6Corpus:
    def test_read_lines_skips_header(self):
        text = ">>graph6<<\nA_\nD??\n\n"
        gs = read_graph6_lines(text)
        assert [g.n for g in gs] == [2, 5]


class TestEdgeList:
    def test_p3(self):
        g = parse_edge_list("n 3\n0 1\n1 2")
        assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a path\nn 3\n\n0 1\n# middle\n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_round_trip_identity(self):
        g = Graph(5, [(0, 1), (2, 4), (1, 3)])
        assert parse_edge_list(emit_edge_list(g)) == g

    def test_emit_parse_idempotent(self):
        text = "n 4\n0 1\n1 2\n2 3\n"
        assert emit_edge_list(parse_edge_list(text)) == text

    def test_missing_header(self):
        with pytest.raises(GraphInputError, match="header"):
            parse_edge_list("0 1\n")

    def test_bad_index_with_line(self):
        with pytest.raises(GraphInputError, match="line 3"):
            parse_edge_list("n 3\n0 1\n0 7\n")

    def test_non_integer(self):
        with pytest.raises(GraphInputError, match="line 2"):
            parse_edge_list("n 3\n0 x\n")

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=8))
    def test_round_trip_random(self, g):
        assert parse_edge_list(emit_edge_list(g)) == g


class TestDot:
    def test_c5_with_coloring(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        coloring = PackingColoring.from_colors((4, 1, 2, 1, 3))
        dot = emit_dot(g, coloring=coloring)
        assert dot.startswith("graph G {")
        node_lines = [ln for ln in dot.splitlines() if "label=" in ln]
        assert len(node_lines) == 5
        assert dot.count(" -- ") == 5
        assert dot.rstrip().endswith("}")

    def test_plain(self):
        dot = emit_dot(Graph(2, [(0, 1)]))
        assert "0 -- 1;" in dot
