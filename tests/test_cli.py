from __future__ import annotations

import json

import pytest

from packcrit.classify import (
    block_graph_diam3_criterion,
    classify_cactus_rad2_diam2,
    classify_cactus_rad2_diam3,
    classify_radius1,
)
from packcrit.cli import _auto_classify, main
from packcrit.enumeration import representatives
from packcrit.errors import CharacterizationError
from packcrit.graphio import emit_graph6, parse_graph6
from packcrit.graphs import Graph, eccentricities, is_block_graph, is_cactus, is_connected
from packcrit.verify import THEOREMS
from test_verify import raising_row


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestChirho:
    def test_c5(self, capsys):
        code, out, _ = run(capsys, "chirho", "C5")
        assert code == 0 and out.splitlines()[0] == "4"

    def test_family_spec(self, capsys):
        code, out, _ = run(capsys, "chirho", "G1^5(0,2)")
        assert code == 0 and out.splitlines()[0] == "5"

    def test_star(self, capsys):
        code, out, _ = run(capsys, "chirho", "K1,7")
        assert code == 0 and out.splitlines()[0] == "2"

    def test_witness_lines(self, capsys):
        code, out, _ = run(capsys, "chirho", "C5", "--witness")
        lines = out.splitlines()
        assert lines[0] == "4" and len(lines) == 6
        assert all(":" in ln for ln in lines[1:])

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "chirho", "C5", "--dot")
        assert "graph G {" in out

    def test_graph6_input(self, capsys):
        code, out, _ = run(capsys, "chirho", "Dhc")
        assert code == 0 and out.splitlines()[0] == "4"

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("n 4\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "chirho", str(p))
        assert code == 0 and out.splitlines()[0] == "3"

    def test_bad_input(self, capsys):
        code, _, err = run(capsys, "chirho", "@@@@not-a-graph")
        assert code == 2 and "error" in err


class TestCritical:
    def test_p4(self, capsys):
        code, out, _ = run(capsys, "critical", "P4")
        assert code == 0 and "critical" in out and "not critical" not in out

    def test_w6_witness(self, capsys):
        code, out, _ = run(capsys, "critical", "W6")
        assert "not critical" in out and "witness" in out

    def test_w6_not_critical_line(self, capsys):
        code, out, _ = run(capsys, "critical", "W6")
        assert code == 0 and out == "chi_rho = 5\nnot critical; witness edge: (0, 1) keeps chi_rho at 5\n"

    @pytest.mark.parametrize(("flags", "witness"), [((), "edge: (0, 5)"), (("--vertex",), "vertex: 5")])
    def test_witness_first_in_order(self, capsys, flags, witness):
        # The verdict decides the leaf's deletion before those that come
        # first in order; the witness printed is still the first in order.
        code, out, _ = run(capsys, "critical", "G2^5(1,0;1,0)", *flags)
        assert code == 0 and out == f"chi_rho = 4\nnot critical; witness {witness} keeps chi_rho at 4\n"

    def test_h_family(self, capsys):
        code, out, _ = run(capsys, "critical", "H(0,2;2,0)")
        assert code == 0 and "not critical" not in out

    def test_vertex_mode(self, capsys):
        code, out, _ = run(capsys, "critical", "C4", "--vertex")
        assert code == 0 and "not critical" not in out

    def test_isolated_rejected(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("n 3\n0 1\n")
        code, _, err = run(capsys, "critical", str(p))
        assert code == 2 and "isolated" in err


class TestClassify:
    def test_g33(self, capsys):
        code, out, _ = run(capsys, "classify", "G3^3(1,0;1,0;1,0)")
        assert code == 0 and "teo4-(v)" in out and "critical" in out

    def test_c5(self, capsys):
        code, out, _ = run(capsys, "classify", "C5")
        assert code == 0 and "teo3" in out

    def test_c6_out_of_scope(self, capsys):
        code, out, _ = run(capsys, "classify", "C6")
        assert code == 1 and "out of characterized scope" in out

    def test_check_agrees(self, capsys):
        code, out, _ = run(capsys, "classify", "W6", "--check")
        assert code == 0 and "agree" in out

    def test_dispatch_matches_reference(self):
        # Every graph to order 7 (the empty one too), cacti of order 8-10
        # and block graphs of order 8-9: the same verdict, evidence or
        # exception type as the reference dispatch.
        corpus = [Graph(0)] + [g for n in range(1, 8) for g in representatives("all", n)]
        corpus += [g for n in range(8, 11) for g in representatives("cactus", n)]
        corpus += [g for n in range(8, 10) for g in representatives("block-graph", n)]
        assert len(corpus) == 4677
        for g in corpus:
            assert _classify_outcome(_auto_classify, g) == _classify_outcome(_reference_classify, g), emit_graph6(g)


def _reference_classify(G):
    """The classifier choice stated outside the classifiers: by radius,
    diameter, and the cactus and block-graph tests."""
    if not is_connected(G) or G.n == 0:
        return None
    eccs = eccentricities(G)
    rad, diam = min(eccs), max(eccs)
    if rad == 1:
        return classify_radius1(G)
    if rad == 2 and diam <= 3 and is_cactus(G):
        return classify_cactus_rad2_diam2(G) if diam == 2 else classify_cactus_rad2_diam3(G)
    if is_block_graph(G) and diam == 3:
        return block_graph_diam3_criterion(G)
    return None


def _classify_outcome(dispatch, G):
    """The verdict with its evidence (which ``Verdict`` equality ignores),
    or the type of the exception raised."""
    try:
        verdict = dispatch(G)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)
    return None if verdict is None else (verdict, verdict.evidence)


class TestVerify:
    def test_pro4_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.ldjson"
        code, out, _ = run(
            capsys, "verify", "pro4", "--max-vertices", "11",
            "--jobs", "1", "--out", str(out_path),
        )
        assert code == 0 and "pro4: OK" in out
        records = [json.loads(ln) for ln in out_path.read_text().splitlines()]
        assert records and all(r["agree"] for r in records)
        for r in records:
            assert set(r) == {"theorem", "instance_g6", "spec", "predicted", "oracle", "agree", "micros"}
            parse_graph6(r["instance_g6"])  # replayable

    def test_unknown_theorem(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nope"])

    def test_corpus_substitution(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Dhc\nC]\n")  # C5 and C4
        code, out, _ = run(
            capsys, "verify", "teo3", "--corpus", str(corpus), "--jobs", "1"
        )
        assert code == 0 and "2 instances" in out

    def test_raising_instance_reported(self, capsys, monkeypatch):
        monkeypatch.setitem(THEOREMS, "lemma1", raising_row(CharacterizationError("no main block")))
        code, out, err = run(capsys, "verify", "lemma1", "--jobs", "1")
        assert code == 1 and "lemma1: FAIL (1 disagreements)" in out
        assert "  DISAGREE C5: predicted=None oracle=None error=CharacterizationError: no main block" in out.splitlines()
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ("thm12", "--max-vertices", "4"),  # hub sweeps read only --base-max
        ("pro6", "--max-vertices", "4"),  # pro6, lemma6 and teo1 read no size
        ("lemma6", "--base-max", "3"),
        ("teo1", "--max-vertices", "4"),
        ("teo4", "--base-max", "5"),
    ])
    def test_size_flag_the_sweep_does_not_read(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("PACKCRIT_MAX_N", raising=False)
        code, out, err = run(capsys, "verify", *argv, "--jobs", "1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {argv[0]} does not read ")

    def test_corpus_for_a_generated_sweep(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Dhc\n")
        code, out, err = run(capsys, "verify", "pro6", "--corpus", str(corpus), "--jobs", "1")
        assert (code, out) == (2, "")
        assert err == "error: pro6 does not read a corpus (its instances are generated)\n"

    def test_parallel_matches_serial(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.ldjson", tmp_path / "b.ldjson"
        run(capsys, "verify", "lemma1", "--jobs", "1", "--out", str(p1))
        run(capsys, "verify", "lemma1", "--jobs", "2", "--out", str(p2))
        a = [dict(json.loads(ln), micros=0) for ln in p1.read_text().splitlines()]
        b = [dict(json.loads(ln), micros=0) for ln in p2.read_text().splitlines()]
        assert a == b


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        ("verify", "teo3", "--corpus", "{missing}", "--jobs", "1"),
        ("chirho", "{dir}"),
        ("verify", "pro6", "--out", "{dir}", "--jobs", "1"),
    ], ids=["missing-corpus", "directory-graph", "directory-out"])
    def test_reported_without_traceback(self, capsys, tmp_path, argv):
        paths = {"missing": tmp_path / "missing.g6", "dir": tmp_path}
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(tmp_path) in err


class TestGen:
    def test_edges_format(self, capsys):
        code, out, _ = run(capsys, "gen", "G2^4(1,2;2,1)", "--format", "edges")
        assert code == 0 and out.startswith("n 13")

    def test_t3(self, capsys):
        code, out, _ = run(capsys, "gen", "T3")
        g = parse_graph6(out.strip())
        assert g.n == 7

    def test_caret_diagnostics(self, capsys):
        code, _, err = run(capsys, "gen", "G2^4(1,2;x,1)")
        assert code == 2
        lines = err.splitlines()
        assert lines[0] == "G2^4(1,2;x,1)"
        assert lines[1].index("^") == 9


class TestEnumerate:
    def test_cacti_rad2_diam3(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--cactus", "--rad", "2", "--diam", "3", "--max-n", "6"
        )
        assert code == 0
        graphs = [parse_graph6(ln) for ln in out.splitlines()]
        assert graphs and all(g.n <= 6 for g in graphs)

    @pytest.mark.parametrize("flag", ["--rad", "--diam"])
    def test_negative_metric_refused(self, capsys, flag):
        code, out, err = run(capsys, "enumerate", "--cactus", flag, "-1", "--max-n", "5")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be non-negative, got -1" in err

    def test_structure_flags_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--cactus", "--tree", "--max-n", "4"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_graph6_lines_parse(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "4", "--connected")
        counts = len(out.splitlines())
        assert counts == 1 + 1 + 2 + 6


# `packcrit enumerate --help` at 80 columns.  The structure flags come from
# the enumeration table, so its row order fixes their order here.
ENUMERATE_HELP = """\
usage: packcrit enumerate [-h] [--max-n MAX_N] [--min-n MIN_N]
                          [--cactus | --tree | --block-graph] [--connected]
                          [--rad RAD] [--diam DIAM]
                          [--format {graph6,edges,dot}]

options:
  -h, --help            show this help message and exit
  --max-n MAX_N
  --min-n MIN_N
  --cactus
  --tree
  --block-graph
  --connected
  --rad RAD
  --diam DIAM
  --format {graph6,edges,dot}
"""


def test_enumerate_help_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == ENUMERATE_HELP


class TestEnvCap:
    def test_malformed_value(self, capsys, monkeypatch):
        monkeypatch.setenv("PACKCRIT_MAX_N", "abc")
        code, out, _ = run(capsys, "chirho", "C5")
        assert code == 0 and out.splitlines()[0] == "4"
        for argv in (["enumerate"], ["verify", "lemma1", "--jobs", "1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.splitlines() == ["error: PACKCRIT_MAX_N must be an integer, got 'abc'"]

    def test_cap_refused_before_any_output(self, capsys, monkeypatch):
        monkeypatch.setenv("PACKCRIT_MAX_N", "5")
        code, out, err = run(capsys, "enumerate", "--tree", "--max-n", "6")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: order 6 exceeds the tree cap 5"]

    def test_value_sets_default_sizes(self, capsys, monkeypatch):
        monkeypatch.setenv("PACKCRIT_MAX_N", "4")
        code, out, _ = run(capsys, "enumerate", "--connected")
        assert code == 0 and len(out.splitlines()) == 1 + 1 + 2 + 6
        code, out, _ = run(capsys, "verify", "lemma1", "--jobs", "1")
        assert code == 0 and "2 instances, cycles up to C4" in out
        code, out, _ = run(capsys, "verify", "thm12", "--jobs", "1")
        assert code == 0 and "<=4 vertices" in out
        code, out, _ = run(capsys, "verify", "pro6", "--jobs", "1")
        assert code == 0 and "pro6: OK" in out
