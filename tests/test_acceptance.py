"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) and enforces
the stated tolerances: exact matches, zero mismatches, and wall-clock
budgets where given.
"""

from __future__ import annotations

import random
import time

from packcrit.criticality import is_edge_critical, is_vertex_critical
from packcrit.enumeration import representatives
from packcrit.families import FamilySpec, build, parse_spec
from packcrit.graphio import emit_graph6, parse_graph6
from packcrit.graphs import Graph, delete_edge, delete_vertex
from packcrit.independence import alpha, check_lemma_rad3
from packcrit.packing import chi_rho, verify_packing_coloring
from packcrit.verify import run_sweep, _gqr_specs, _h_lemma7_specs, _teo1_instances
from oracles import brute_has_packing_coloring


def _sweep_ok(theorem: str, **kw) -> tuple[bool, str]:
    rep = run_sweep(theorem, **kw)
    return rep.ok, f"{rep.total} instances in {rep.wall_time_s:.1f}s"


def test_criterion_01_spot_values(acceptance_report):
    t0 = time.perf_counter()
    expect = {"C5": 4, "C4": 3, "P4": 3, "P5": 3, "W6": 5}
    expect.update({f"T{n}": n + 2 for n in range(1, 6)})
    bad = []
    for text, want in expect.items():
        got = chi_rho(build(parse_spec(text)).graph).value
        if got != want:
            bad.append((text, want, got))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    acceptance_report(
        f"criterion 1: {'PASS' if ok else 'FAIL'} — spot values, {elapsed:.2f}s"
        + (f" mismatches={bad}" if bad else "")
    )
    assert not bad
    assert elapsed < 1.0


def test_criterion_02_pro4_sweep(acceptance_report):
    t0 = time.perf_counter()
    ok, info = _sweep_ok("pro4", max_vertices=14)
    elapsed = time.perf_counter() - t0
    acceptance_report(f"criterion 2: {'PASS' if ok and elapsed < 120 else 'FAIL'} — pro4 {info}")
    assert ok
    assert elapsed < 120


def test_criterion_03_pro8_pro10_pro12_sweeps(acceptance_report):
    t0 = time.perf_counter()
    results = {th: _sweep_ok(th, max_vertices=14) for th in ("pro8", "pro10", "pro12")}
    elapsed = time.perf_counter() - t0
    ok = all(r[0] for r in results.values()) and elapsed < 600
    info = "; ".join(f"{th} {r[1]}" for th, r in results.items())
    acceptance_report(f"criterion 3: {'PASS' if ok else 'FAIL'} — {info}")
    assert all(r[0] for r in results.values())
    assert elapsed < 600


def test_criterion_04_lemma7_sweep(acceptance_report):
    ok, info = _sweep_ok("lemma7", max_vertices=13)
    acceptance_report(f"criterion 4: {'PASS' if ok else 'FAIL'} — lemma7 {info}")
    assert ok


def test_criterion_05_criticality_characterizations(acceptance_report):
    results = {
        "pro7": _sweep_ok("pro7", max_vertices=12),
        "pro9": _sweep_ok("pro9", max_vertices=12),
        "pro11": _sweep_ok("pro11", max_vertices=12),
        "pro13": _sweep_ok("pro13", max_vertices=12),
        "teo1": _sweep_ok("teo1"),
    }
    ok = all(r[0] for r in results.values())
    info = "; ".join(f"{th} {r[1]}" for th, r in results.items())
    acceptance_report(f"criterion 5: {'PASS' if ok else 'FAIL'} — {info}")
    assert ok


def test_criterion_06_thm12_sweep(acceptance_report):
    t0 = time.perf_counter()
    ok, info = _sweep_ok("thm12", base_max=6)
    # reproduce the wheel counterexample with a concrete witness edge
    w6 = build(parse_spec("W6")).graph
    rep = is_edge_critical(w6)
    wheel_ok = (
        not rep.critical
        and rep.witness is not None
        and 0 in rep.witness  # hub edge
        and chi_rho(delete_edge(w6, rep.witness)).value == 5 == rep.base_chi_rho
    )
    elapsed = time.perf_counter() - t0
    good = ok and wheel_ok and elapsed < 900
    acceptance_report(
        f"criterion 6: {'PASS' if good else 'FAIL'} — thm12 {info}; "
        f"W6 witness edge {rep.witness} keeps value 5: {wheel_ok}"
    )
    assert ok and wheel_ok
    assert elapsed < 900


def test_criterion_07_teo3_teo4_sweeps(acceptance_report):
    t0 = time.perf_counter()
    results = {
        "teo3": _sweep_ok("teo3", max_vertices=10),
        "teo4": _sweep_ok("teo4", max_vertices=10),
        "pro2": _sweep_ok("pro2", max_vertices=10),
        "pro3": _sweep_ok("pro3", max_vertices=10),
    }
    elapsed = time.perf_counter() - t0
    ok = all(r[0] for r in results.values()) and elapsed < 1800
    info = "; ".join(f"{th} {r[1]}" for th, r in results.items())
    acceptance_report(f"criterion 7: {'PASS' if ok else 'FAIL'} — {info}")
    assert all(r[0] for r in results.values())
    assert elapsed < 1800


def test_criterion_08_property_suites(connected_upto_7, acceptance_report):
    failures = []

    for th in ("lemma4", "teo2", "cor-haynes", "obsv1"):
        rep = run_sweep(th, max_vertices=7)
        if not rep.ok:
            failures.append(th)

    # alpha never drops and rises by at most one under edge deletion
    for g in connected_upto_7:
        a = alpha(g)
        for e in g.edges():
            ae = alpha(delete_edge(g, e))
            if not a <= ae <= a + 1:
                failures.append(("alpha-bounds", emit_graph6(g), e))

    # distance-3 avoidance on the odd cycles C7..C11
    for n in (7, 9, 11):
        cyc = build(FamilySpec("cycle", n=n)).graph
        if not check_lemma_rad3(cyc):
            failures.append(("lem-rad3", f"C{n}"))

    # subgraph monotonicity of the packing chromatic number
    for g in connected_upto_7:
        base = chi_rho(g).value
        for e in g.edges():
            if chi_rho(delete_edge(g, e)).value > base:
                failures.append(("edge-monotone", emit_graph6(g), e))
        if g.n >= 2:
            for v in range(g.n):
                sub, _ = delete_vertex(g, v)
                if chi_rho(sub).value > base:
                    failures.append(("vertex-monotone", emit_graph6(g), v))

    # tree edge-criticality equals vertex-criticality up to 10 vertices
    for n in range(2, 11):
        for g in representatives("tree", n):
            if is_edge_critical(g).critical != is_vertex_critical(g).critical:
                failures.append(("tree-equivalence", emit_graph6(g)))

    ok = not failures
    acceptance_report(
        f"criterion 8: {'PASS' if ok else 'FAIL'} — property suites"
        + (f" violations={failures[:5]}" if failures else " (0 violations)")
    )
    assert not failures


def _criteria_2_to_5_family_members(max_n: int) -> list[Graph]:
    specs: list[FamilySpec] = []
    specs += _gqr_specs(1, 5, max_n)
    specs += _gqr_specs(2, 5, max_n)
    specs += _gqr_specs(1, 4, max_n)
    specs += _gqr_specs(2, 4, max_n)
    specs += [s for s in _h_lemma7_specs(max_n)]
    specs += [s for s in _teo1_instances() if s.vertex_count() <= max_n]
    out = []
    seen = set()
    for s in specs:
        g = build(s).graph
        if g.n <= max_n:
            key = emit_graph6(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def test_criterion_09_witnesses_and_minimality(acceptance_report):
    rng = random.Random(20260810)
    sample: list[Graph] = []
    while len(sample) < 200:
        n = rng.randint(3, 10)
        p = rng.choice((0.15, 0.25, 0.4)) if n >= 9 else rng.choice((0.2, 0.35, 0.5))
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        sample.append(Graph(n, edges))
    members = _criteria_2_to_5_family_members(10)
    bad = []
    for g in sample + members:
        res = chi_rho(g)
        if not verify_packing_coloring(g, res.witness).ok:
            bad.append(("witness", emit_graph6(g)))
            continue
        if res.value > 1 and brute_has_packing_coloring(g, res.value - 1):
            bad.append(("minimality", emit_graph6(g), res.value))
    ok = not bad
    acceptance_report(
        f"criterion 9: {'PASS' if ok else 'FAIL'} — witnesses verified and "
        f"minimality brute-confirmed on {len(sample)} random + {len(members)} family graphs"
    )
    assert not bad


def test_criterion_10_graph6_round_trip(acceptance_report):
    checked = 0
    for n in range(1, 9):
        for g in representatives("all", n):
            line = emit_graph6(g)
            assert parse_graph6(line) == g
            assert emit_graph6(parse_graph6(line)) == line
            checked += 1
    ok = checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044 + 12346
    acceptance_report(
        f"criterion 10: {'PASS' if ok else 'FAIL'} — graph6 round-trips on {checked} graphs (n<=8)"
    )
    assert ok
