"""DIMACS edge-format input and output (1-indexed, each edge once)."""

from __future__ import annotations

from .coloring import AdjacencyGraph


def emit_dimacs(g: AdjacencyGraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"p edge {g.n} {g.size}\n")
        for i, j in g.edges():
            fh.write(f"e {i + 1} {j + 1}\n")


def _int(field: str, line_no: int) -> int:
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"line {line_no}: {field!r} is not an integer") from None


def parse_dimacs(path: str) -> AdjacencyGraph:
    n = None
    edges = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "edge":
                    raise ValueError(f"line {line_no}: malformed problem line")
                if n is not None:
                    raise ValueError(f"line {line_no}: repeated p record")
                n, m = _int(parts[2], line_no), _int(parts[3], line_no)
                if m < 0:
                    raise ValueError(f"line {line_no}: negative edge count {m}")
            elif parts[0] == "e":
                if len(parts) != 3:
                    raise ValueError(f"line {line_no}: malformed edge line")
                if n is None:
                    raise ValueError(f"line {line_no}: edge before problem line")
                edges.append((_int(parts[1], line_no) - 1, _int(parts[2], line_no) - 1))
            else:
                raise ValueError(f"line {line_no}: unknown record {parts[0]!r}")
    if n is None:
        raise ValueError("missing problem line")
    if len(edges) != m:
        raise ValueError(f"edge count mismatch: problem line says {m}, found {len(edges)}")
    return AdjacencyGraph(n, edges)
