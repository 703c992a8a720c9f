"""Line-oriented text bundles for certified graphs.

The format is versioned, diffable, and round-trips bit-exactly: rationals
are serialized as num/den strings, vertices carry their provenance, and
reading re-certifies every edge in exact arithmetic unless told not to.

Coefficients are read into integer (num, den) pairs and written from the
reduced integer numerators and denominators of each element; neither
read_bundle nor write_bundle builds a Fraction.  Fractions appear only
where the API returns them (FieldElement.coeffs, ModulePoint.octuple,
root_bounds, fe_to_interval, interval_sqrt and the bounds of
NumericPoint).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from .field import MIN_POLY
from .geometry import (
    D_NUMERIC,
    Graph,
    GraphIntegrityError,
    ModulePoint,
    VertexOrigin,
    is_unit_edge,
)

FORMAT_TAG = "hypchrom-bundle"
FORMAT_VERSION = 1

DISTANCE_TAG = "arccosh((2c-1)/(1-c)+1)"


class BundleFormatError(Exception):
    """Malformed bundle text; the message carries a line number."""


def _fail(line_no: int, message: str):
    raise BundleFormatError(f"line {line_no}: {message}")


def write_bundle(g: Graph, path: str) -> None:
    """Atomic write (temp file then rename) of a graph bundle."""
    lines = [
        f"{FORMAT_TAG}/{FORMAT_VERSION}",
        "minpoly " + " ".join(str(c) for c in reversed(MIN_POLY)),
        f"distance {DISTANCE_TAG} {D_NUMERIC!r}",
        f"vertices {g.order}",
        f"edges {g.size}",
    ]
    for idx, v in enumerate(g.vertices):
        parts = [f"v {idx + 1}"]
        parts.extend(v.as_strings())
        origin = g.origins[idx]
        if origin is None:
            parts.append("seed")
        else:
            i, j = origin.source_pair
            parts.append(f"from {i + 1} {j + 1} {origin.branch} phase {origin.phase}")
        lines.append(" ".join(parts))
    for i, j in g.edges:
        lines.append(f"e {i + 1} {j + 1}")
    data = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bundle-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_bundle(path: str, verify: bool = True) -> Graph:
    """Parse a bundle; with verify, every edge is re-certified exactly and
    any failure is reported with the offending pair."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise BundleFormatError("empty file")
    header = lines[0].strip()
    if header != f"{FORMAT_TAG}/{FORMAT_VERSION}":
        _fail(1, f"unrecognized header {header!r}")

    n_vertices: Optional[int] = None
    n_edges: Optional[int] = None
    vertices: dict[int, ModulePoint] = {}
    origins: dict[int, Optional[VertexOrigin]] = {}
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    # (line, vertex, source, source, phase) of each provenance, 1-based
    provenance: list[tuple[int, int, int, int, int]] = []
    header_seen: set[str] = set()  # the kinds of record a bundle holds once

    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind in ("minpoly", "distance", "vertices", "edges"):
            if kind in header_seen:
                _fail(line_no, f"repeated {kind} record")
            header_seen.add(kind)
        if kind == "minpoly":
            expected = [str(c) for c in reversed(MIN_POLY)]
            if parts[1:] != expected:
                _fail(line_no, "minimal polynomial does not match this build")
        elif kind == "distance":
            # compared as a number: acosh is not correctly rounded on every libm
            try:
                ok = parts[1] == DISTANCE_TAG and abs(float(parts[2]) - D_NUMERIC) <= 1e-12
            except (IndexError, ValueError):
                ok = False
            if not ok or len(parts) != 3:
                _fail(line_no, "distance does not match this build")
        elif kind in ("vertices", "edges"):
            try:
                count = int(parts[1])
            except (IndexError, ValueError):
                _fail(line_no, f"{kind} count missing or not an integer")
            if kind == "vertices":
                n_vertices = count
            else:
                n_edges = count
        elif kind == "v":
            if len(parts) < 11:
                _fail(line_no, "vertex record too short")
            try:
                idx = int(parts[1])
            except ValueError:
                _fail(line_no, f"bad vertex index {parts[1]!r}")
            if idx in vertices:
                _fail(line_no, f"duplicate vertex index {idx}")
            try:
                point = ModulePoint.from_strings(parts[2:10])
            except (ValueError, ZeroDivisionError) as exc:
                _fail(line_no, f"malformed rational in octuple: {exc}")
            tail = parts[10:]
            if tail == ["seed"]:
                origin = None
            elif len(tail) == 6 and tail[0] == "from" and tail[4] == "phase":
                try:
                    i, j = int(tail[1]) - 1, int(tail[2]) - 1
                    phase = int(tail[5])
                except ValueError:
                    _fail(line_no, "malformed provenance")
                if tail[3] not in ("-", "+"):
                    _fail(line_no, f"bad branch {tail[3]!r}")
                origin = VertexOrigin((i, j), tail[3], phase)
                provenance.append((line_no, idx, i + 1, j + 1, phase))
            else:
                _fail(line_no, "malformed provenance")
            vertices[idx] = point
            origins[idx] = origin
        elif kind == "e":
            if len(parts) != 3:
                _fail(line_no, "edge record must be 'e i j'")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                _fail(line_no, "malformed edge indices")
            if i == j:
                _fail(line_no, f"self-loop at {i}")
            key = (min(i, j), max(i, j))
            if key in edge_seen:
                _fail(line_no, f"duplicate edge {{{i},{j}}}")
            edge_seen.add(key)
            edges.append(key)
        else:
            _fail(line_no, f"unknown record {kind!r}")

    if "minpoly" not in header_seen:
        raise BundleFormatError("missing minimal polynomial")
    if "distance" not in header_seen:
        raise BundleFormatError("missing distance record")
    if n_vertices is None or n_edges is None:
        raise BundleFormatError("missing vertices/edges counts")
    if len(vertices) != n_vertices:
        raise BundleFormatError(
            f"vertex count mismatch: header says {n_vertices}, found {len(vertices)}"
        )
    if sorted(vertices) != list(range(1, n_vertices + 1)):
        raise BundleFormatError("vertex indices are not contiguous from 1")
    for line_no, idx, i, j, phase in provenance:
        for source in (i, j):
            if not 1 <= source <= n_vertices:
                _fail(line_no, f"source index {source} outside 1..{n_vertices}")
        if i == j:
            _fail(line_no, f"source pair names vertex {i} twice")
        if max(i, j) >= idx:
            _fail(line_no, f"source {max(i, j)} is not earlier than vertex {idx}")
        if phase < 1:
            _fail(line_no, f"phase {phase} below 1")
    if len(edges) != n_edges:
        raise BundleFormatError(
            f"edge count mismatch: header says {n_edges}, found {len(edges)}"
        )
    for i, j in edges:
        if not (1 <= i <= n_vertices and 1 <= j <= n_vertices):
            raise BundleFormatError(f"edge ({i},{j}) references a missing vertex")

    ordered = [vertices[i] for i in range(1, n_vertices + 1)]
    ordered_origins = [origins[i] for i in range(1, n_vertices + 1)]
    g = Graph(ordered, [(i - 1, j - 1) for i, j in edges], ordered_origins)
    if verify:
        for i, j in g.edges:
            if not is_unit_edge(g.vertices[i], g.vertices[j]):
                raise GraphIntegrityError(
                    f"edge ({i + 1},{j + 1}) failed exact re-certification"
                )
    return g
