from __future__ import annotations

import json

import pytest

from packcrit.cli import main
from packcrit.errors import CharacterizationError
from packcrit.graphio import parse_graph6
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

    def test_parallel_matches_serial(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.ldjson", tmp_path / "b.ldjson"
        run(capsys, "verify", "lemma1", "--jobs", "1", "--out", str(p1))
        run(capsys, "verify", "lemma1", "--jobs", "2", "--out", str(p2))
        a = [dict(json.loads(ln), micros=0) for ln in p1.read_text().splitlines()]
        b = [dict(json.loads(ln), micros=0) for ln in p2.read_text().splitlines()]
        assert a == b


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

    def test_graph6_lines_parse(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "4", "--connected")
        counts = len(out.splitlines())
        assert counts == 1 + 1 + 2 + 6


class TestEnvCap:
    def test_malformed_value(self, capsys, monkeypatch):
        monkeypatch.setenv("PACKCRIT_MAX_N", "abc")
        code, out, _ = run(capsys, "chirho", "C5")
        assert code == 0 and out.splitlines()[0] == "4"
        for argv in (["enumerate"], ["verify", "lemma1", "--jobs", "1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.splitlines() == ["error: PACKCRIT_MAX_N must be an integer, got 'abc'"]

    def test_value_sets_default_sizes(self, capsys, monkeypatch):
        monkeypatch.setenv("PACKCRIT_MAX_N", "4")
        code, out, _ = run(capsys, "enumerate", "--connected")
        assert code == 0 and len(out.splitlines()) == 1 + 1 + 2 + 6
        code, out, _ = run(capsys, "verify", "lemma1", "--jobs", "1")
        assert code == 0 and "2 instances, cycles up to C4" in out
