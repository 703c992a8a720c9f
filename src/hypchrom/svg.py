"""SVG rendering of disk embeddings: dashed unit-circle boundary, vertex
glyphs (seed vertices highlighted), and edges drawn as geodesic arcs or as
straight chords."""

from __future__ import annotations

import math

from .geometry import Graph, GraphIntegrityError, ModulePoint

SEED_FILL = "#f5d327"   # seed vertices
NODE_FILL = "#d94040"   # generated vertices
EDGE_STROKE = "#3a5fa0"
# width and height of the image, in pixels
SIZE = 800


def point_coords_numeric(v: ModulePoint) -> tuple[float, float]:
    """The float disk position of v, v.to_floats().  The name exists only
    because perfbench's tracer wraps it (svg.point_coords_numeric_s); it
    goes when the tracer stops reading it (ROADMAP.md, item 7)."""
    return v.to_floats()


def _geodesic_path(p, q, scale: float, offset: float) -> str:
    """SVG path for the hyperbolic geodesic between two disk points: the
    arc of the circle orthogonal to the unit circle, or a chord when the
    points are collinear with the origin."""
    x1, y1 = p
    x2, y2 = q
    cross = x1 * y2 - x2 * y1
    if abs(cross) < 1e-12:
        return _chord_path(p, q, scale, offset)
    # orthogonality to the unit circle: |center|^2 = r^2 + 1, which is the
    # linear system 2*center.p = |p|^2 + 1 for both endpoints
    b1 = (x1 * x1 + y1 * y1 + 1.0) / 2.0
    b2 = (x2 * x2 + y2 * y2 + 1.0) / 2.0
    det = cross
    cx = (b1 * y2 - b2 * y1) / det
    cy = (x1 * b2 - x2 * b1) / det
    r = math.hypot(x1 - cx, y1 - cy)
    sweep = 1 if cross > 0 else 0
    ax1, ay1 = offset + scale * x1, offset - scale * y1
    ax2, ay2 = offset + scale * x2, offset - scale * y2
    rr = r * scale
    return (
        f'<path d="M {ax1:.3f} {ay1:.3f} A {rr:.3f} {rr:.3f} 0 0 {sweep} '
        f'{ax2:.3f} {ay2:.3f}" fill="none" stroke="{EDGE_STROKE}" stroke-width="1"/>'
    )


def _chord_path(p, q, scale: float, offset: float) -> str:
    x1, y1 = offset + scale * p[0], offset - scale * p[1]
    x2, y2 = offset + scale * q[0], offset - scale * q[1]
    return (
        f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
        f'stroke="{EDGE_STROKE}" stroke-width="1"/>'
    )


def emit_svg(
    g: Graph,
    path: str,
    vertices_only: bool = False,
    geodesic: bool = True,
) -> None:
    """Render the embedding.  Every vertex position is its float
    coordinates, read once through point_coords_numeric; a vertex whose
    float position is not inside the unit disk raises GraphIntegrityError,
    and nothing is written."""
    margin = 0.04 * SIZE
    scale = SIZE / 2 - margin
    offset = SIZE / 2
    vertex_radius = max(1.5, 9.0 / max(1, g.order) ** 0.3)

    coords = []
    for idx, v in enumerate(g.vertices):
        x, y = point_coords_numeric(v)
        if x * x + y * y >= 1.0:
            raise GraphIntegrityError(f"vertex {idx + 1} is not inside the unit disk")
        coords.append((x, y))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<circle cx="{offset}" cy="{offset}" r="{scale:.3f}" fill="none" '
        f'stroke="black" stroke-width="1.5" stroke-dasharray="6 5"/>',
    ]
    if not vertices_only:
        for i, j in g.edges:
            if geodesic:
                out.append(_geodesic_path(coords[i], coords[j], scale, offset))
            else:
                out.append(_chord_path(coords[i], coords[j], scale, offset))
    for idx, (x, y) in enumerate(coords):
        fill = SEED_FILL if g.origins[idx] is None else NODE_FILL
        out.append(
            f'<circle cx="{offset + scale * x:.3f}" cy="{offset - scale * y:.3f}" '
            f'r="{vertex_radius:.2f}" fill="{fill}" stroke="black" stroke-width="0.5"/>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
