"""Command-line interface: compute, check, classify, generate, enumerate,
and run verification sweeps.

Graph inputs accept a family-spec string (``C5``, ``G1^5(0,2)``,
``H(0,2;2,0)``, ``K1,7`` ...), a file path (graph6 or edge-list, detected by
content), or a raw graph6 record.  Human summaries go to stdout; structured
line-delimited JSON goes only to ``--out``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .classify import (
    Verdict,
    block_graph_diam3_criterion,
    classify_cactus_rad2_diam2,
    classify_cactus_rad2_diam3,
    classify_radius1,
)
from .criticality import is_edge_critical, is_vertex_critical
from .enumeration import EnumerationFilter, enumerate_graphs, env_cap
from .errors import GraphInputError, SpecSyntaxError
from .families import build, parse_spec
from .graphio import emit_dot, emit_edge_list, emit_graph6, parse_edge_list, parse_graph6, read_graph6_lines
from .graphs import Graph, diameter, is_block_graph, is_cactus, is_connected, radius
from .packing import chi_rho
from .verify import THEOREMS, run_sweep


def _caret_message(exc: SpecSyntaxError) -> str:
    return f"{exc.text}\n{' ' * exc.position}^\nerror: {exc}"


def load_graph(source: str) -> Graph:
    """Resolve a graph argument: family spec, then file, then graph6."""
    spec_err: Optional[SpecSyntaxError] = None
    if source[:1] in "GHTCPKW":
        try:
            return build(parse_spec(source)).graph
        except SpecSyntaxError as exc:
            spec_err = exc
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("n ") or stripped.startswith("#"):
            return parse_edge_list(text)
        graphs = read_graph6_lines(text)
        if len(graphs) != 1:
            raise GraphInputError(
                f"{source}: expected exactly one graph, found {len(graphs)}"
            )
        return graphs[0]
    try:
        return parse_graph6(source)
    except GraphInputError:
        if spec_err is not None:
            raise spec_err
        raise


def _print_graph(G: Graph, fmt: str, coloring=None, labels=None) -> None:
    if fmt == "graph6":
        print(emit_graph6(G))
    elif fmt == "edges":
        sys.stdout.write(emit_edge_list(G))
    else:
        sys.stdout.write(emit_dot(G, labels=labels, coloring=coloring))


def cmd_chirho(args) -> int:
    G = load_graph(args.graph)
    result = chi_rho(G)
    print(result.value)
    if args.witness:
        for v, c in enumerate(result.witness.colors):
            print(f"{v}:{c}")
    if args.dot:
        sys.stdout.write(emit_dot(G, coloring=result.witness))
    return 0


def cmd_critical(args) -> int:
    G = load_graph(args.graph)
    report = is_vertex_critical(G) if args.vertex else is_edge_critical(G)
    kind = "vertex" if args.vertex else "edge"
    print(f"chi_rho = {report.base_chi_rho}")
    if report.critical:
        print(f"critical ({kind} deletions all lower the value)")
    else:
        print(f"not critical; witness {kind}: {report.witness} "
              f"keeps chi_rho at {dict(report.table)[report.witness]}")
    if args.table:
        for deletion, value in report.table:
            print(f"  -{deletion}: {value}")
    return 0


def _auto_classify(G: Graph) -> Optional[Verdict]:
    if not is_connected(G) or G.n == 0:
        return None
    rad = radius(G)
    diam = diameter(G)
    if rad == 1:
        return classify_radius1(G)
    if is_cactus(G) and rad == 2 and diam == 2:
        return classify_cactus_rad2_diam2(G)
    if is_cactus(G) and rad == 2 and diam == 3:
        return classify_cactus_rad2_diam3(G)
    if is_block_graph(G) and diam == 3:
        return block_graph_diam3_criterion(G)
    return None


def cmd_classify(args) -> int:
    G = load_graph(args.graph)
    verdict = _auto_classify(G)
    if verdict is None:
        print("out of characterized scope")
        return 1
    status = "critical" if verdict.predicted_critical else "not critical"
    print(f"{verdict.clause}: {status}")
    for key, value in sorted(verdict.evidence.items()):
        print(f"  {key} = {value}")
    if args.check:
        oracle = is_edge_critical(G).critical
        agree = oracle == verdict.predicted_critical
        print(f"oracle: {'critical' if oracle else 'not critical'} "
              f"({'agree' if agree else 'DISAGREE'})")
        return 0 if agree else 1
    return 0


def _size(flag: Optional[int], fallback: Optional[int] = None) -> Optional[int]:
    """A size flag, else the PACKCRIT_MAX_N override, else ``fallback``."""
    if flag is not None:
        return flag
    cap = env_cap()
    return fallback if cap is None else cap


def cmd_verify(args) -> int:
    corpus = None
    if args.corpus:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            corpus = read_graph6_lines(fh.read())
    report = run_sweep(
        args.theorem,
        max_vertices=_size(args.max_vertices),
        base_max=args.base_max,
        jobs=args.jobs,
        corpus=corpus,
    )
    if args.out:
        report.write_ldjson(args.out)
    print(report.summary())
    for rec in report.disagreements:
        error = f" error={rec['error']}" if "error" in rec else ""
        print(f"  DISAGREE {rec['spec'] or rec['instance_g6']}: "
              f"predicted={rec['predicted']} oracle={rec['oracle']}{error}")
    return 0 if report.ok else 1


def cmd_gen(args) -> int:
    try:
        spec = parse_spec(args.spec)
    except SpecSyntaxError as exc:
        print(_caret_message(exc), file=sys.stderr)
        return 2
    built = build(spec)
    labels = built.roles if args.format == "dot" else None
    _print_graph(built.graph, args.format, labels=labels)
    return 0


def cmd_enumerate(args) -> int:
    structure = "all"
    if args.cactus:
        structure = "cactus"
    elif args.tree:
        structure = "tree"
    elif args.block_graph:
        structure = "block-graph"
    filt = EnumerationFilter(
        max_n=_size(args.max_n, fallback=8),
        min_n=args.min_n,
        structure=structure,
        connected=True if args.connected else None,
        radius=args.rad,
        diameter=args.diam,
    )
    for G in enumerate_graphs(filt):
        if args.format == "graph6":
            print(emit_graph6(G))
        elif args.format == "edges":
            sys.stdout.write(emit_edge_list(G) + "\n")
        else:
            sys.stdout.write(emit_dot(G))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packcrit",
        description="Exact packing chromatic numbers, criticality, and verification sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chirho", help="packing chromatic number with witness")
    p.add_argument("graph", help="family spec, file path, or graph6 string")
    p.add_argument("--witness", action="store_true", help="print vertex:color lines")
    p.add_argument("--dot", action="store_true", help="emit colored DOT")
    p.set_defaults(func=cmd_chirho)

    p = sub.add_parser("critical", help="edge (or vertex) criticality with certificate")
    p.add_argument("graph")
    p.add_argument("--vertex", action="store_true", help="vertex-criticality instead of edge")
    p.add_argument("--table", action="store_true", help="print the full per-deletion table")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("classify", help="structural criticality verdict")
    p.add_argument("graph")
    p.add_argument("--check", action="store_true", help="also run the exact oracle")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a theorem-verification sweep")
    p.add_argument("theorem", choices=sorted(THEOREMS))
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--base-max", type=int, default=None,
                   help="order cap for the stripped base graphs (radius-1 sweeps)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", help="write line-delimited JSON records here")
    p.add_argument("--corpus", help="graph6 file replacing internal enumeration")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="build a family member")
    p.add_argument("spec")
    p.add_argument("--format", choices=("graph6", "edges", "dot"), default="graph6")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enumerate", help="stream isomorph-free graphs")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--min-n", type=int, default=1)
    p.add_argument("--cactus", action="store_true")
    p.add_argument("--tree", action="store_true")
    p.add_argument("--block-graph", action="store_true")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--rad", type=int, default=None)
    p.add_argument("--diam", type=int, default=None)
    p.add_argument("--format", choices=("graph6", "edges", "dot"), default="graph6")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecSyntaxError as exc:
        print(_caret_message(exc), file=sys.stderr)
        return 2
    except (GraphInputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
