"""Bit-exact graph file formats: graph6, plain edge lists, and DOT export.

graph6 records are parsed from the published byte-level definition: a size
prefix N(n) followed by the upper triangle of the adjacency matrix, column
by column, packed 6 bits per byte (most significant bit first) into bytes
offset by 63.  Padding bits must be zero and trailing bytes are rejected.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import GraphInputError
from .graphs import Edge, Graph

_LO, _HI = 63, 126


def _pair_order(n: int) -> Iterable[Edge]:
    for j in range(1, n):
        for i in range(j):
            yield (i, j)


def parse_graph6(line: str | bytes) -> Graph:
    """Decode one graph6 record (no trailing data beyond one newline)."""
    if isinstance(line, str):
        try:
            data = line.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphInputError("graph6 record is not ASCII", offset=exc.start) from None
    else:
        data = bytes(line)
    data = data.rstrip(b"\r\n")
    if not data:
        raise GraphInputError("empty graph6 record", offset=0)

    # Size prefix: single byte for n <= 62, 126-prefixed extensions beyond.
    pos = 0
    b0 = data[0]
    if b0 != 126:
        if not (_LO <= b0 <= _HI):
            raise GraphInputError(f"size byte {b0} outside [63, 126]", offset=0)
        n = b0 - 63
        pos = 1
    else:
        if len(data) >= 2 and data[1] == 126:
            width, pos0 = 6, 2
        else:
            width, pos0 = 3, 1
        if len(data) < pos0 + width:
            raise GraphInputError("truncated size prefix", offset=len(data))
        n = 0
        for k in range(width):
            b = data[pos0 + k]
            if not (_LO <= b <= _HI):
                raise GraphInputError(f"size byte {b} outside [63, 126]", offset=pos0 + k)
            n = (n << 6) | (b - 63)
        pos = pos0 + width

    nbody = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos < nbody:
        raise GraphInputError(
            f"truncated body: expected {nbody} bytes, got {len(data) - pos}",
            offset=len(data),
        )
    if len(data) - pos > nbody:
        raise GraphInputError("trailing garbage after graph6 body", offset=pos + nbody)

    edges = []
    pairs = _pair_order(n)
    bits_left = n * (n - 1) // 2
    for k in range(nbody):
        b = data[pos + k]
        if not (_LO <= b <= _HI):
            raise GraphInputError(f"body byte {b} outside [63, 126]", offset=pos + k)
        val = b - 63
        for shift in range(5, -1, -1):
            bit = (val >> shift) & 1
            if bits_left > 0:
                if bit:
                    edges.append(next(pairs))
                else:
                    next(pairs)
                bits_left -= 1
            elif bit:
                raise GraphInputError("nonzero padding bit", offset=pos + k)
    return Graph(n, edges)


def emit_graph6(G: Graph) -> str:
    """Encode a graph with at most 62 vertices as a graph6 record."""
    n = G.n
    if n > 62:
        raise GraphInputError(f"graph6 emission limited to 62 vertices, got {n}")
    # Column j holds the bits of vertices 0..j-1 in j's neighbor mask, lowest
    # vertex first: that mask's low j bits, written in reverse.
    body = "".join([format(a & ((1 << j) - 1), f"0{j}b")[::-1] for j, a in enumerate(G.adjacency_bits())][1:])
    pad = -len(body) % 6
    bits = int(body, 2) << pad if body else 0
    groups = (len(body) + pad) // 6
    return bytes([n + 63] + [(bits >> 6 * k & 63) + 63 for k in range(groups - 1, -1, -1)]).decode("ascii")


def read_graph6_lines(text: str) -> list[Graph]:
    """Decode a multi-line graph6 corpus; the optional nauty header and
    blank lines are skipped."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == ">>graph6<<":
            continue
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<"):]
        out.append(parse_graph6(line))
    return out


# -- edge-list format --------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    The first meaningful line is a header ``n <count>``; every other line is
    ``u v``.  Lines starting with ``#`` are comments.
    """
    n: Optional[int] = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise GraphInputError(f"expected header 'n <count>', got {line!r}", line=lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphInputError(f"bad vertex count {parts[1]!r}", line=lineno) from None
            if n < 0:
                raise GraphInputError(f"negative vertex count {n}", line=lineno)
            continue
        if len(parts) != 2:
            raise GraphInputError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphInputError(f"non-integer endpoint in {line!r}", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"endpoint out of range in {line!r} (n={n})", line=lineno)
        if u == v:
            raise GraphInputError(f"self-loop {line!r}", line=lineno)
        edges.append((u, v))
    if n is None:
        raise GraphInputError("missing 'n <count>' header", line=1)
    return Graph(n, edges)


def emit_edge_list(G: Graph) -> str:
    lines = [f"n {G.n}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


# -- DOT export --------------------------------------------------------------

_DOT_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
    "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff", "#9a6324",
)


def emit_dot(G: Graph, labels: Optional[dict[int, str]] = None, coloring=None) -> str:
    """Valid undirected DOT text, optionally annotated with a packing coloring.

    ``coloring`` takes a PackingColoring-like object with a per-vertex
    ``colors`` tuple; the color index is rendered into the node label and a
    fill color.
    """
    lines = ["graph G {", "  node [shape=circle, style=filled, fillcolor=white];"]
    for v in range(G.n):
        attrs = []
        name = labels.get(v, str(v)) if labels else str(v)
        if coloring is not None:
            c = coloring.colors[v]
            attrs.append(f'label="{name}:{c}"')
            attrs.append(f'fillcolor="{_DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]}"')
        elif labels:
            attrs.append(f'label="{name}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {v}{suffix};")
    for u, v in G.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
