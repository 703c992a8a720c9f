"""Growth of the distance graph by intersecting equal-radius circles.

The locus of points at the target hyperbolic distance from a disk point is a
Euclidean circle, so new vertices arise as circle-circle intersections.  In
the scaled coordinates X = x/R, Y = y/(R*s) every circle has an equation

    X^2 + (1-c^2) Y^2 - 2A X - 2(1-c^2) B Y + E = 0

with A, B, E in Q(c); the radical line of a pair is linear over Q(c) and the
substituted quadratic has a discriminant in Q(c).  When the discriminant is
a square in the field the intersection points are module points, produced
exactly; otherwise no candidate is returned, since only module points can
become vertices.

A phase enumerates all vertex pairs, filters candidates with a vectorized
floating pass (which only decides what to look at), then certifies every
kept vertex and every recorded edge in exact arithmetic.  Before any exact
edge test, each kept candidate is screened against all current vertices,
and the accepted vertices against each other, by the modular screen of
geometry.py: the image of the edge residual under c -> r mod p is a ring
homomorphism as long as p does not divide 16 and p does not divide a
point's common denominator `_d` (points where it does are always passed
on).  A nonzero image proves that a pair is not an edge, so only pairs with
a zero image reach is_unit_edge, which alone decides every edge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .field import (
    EDGE_INVARIANT,
    GEN,
    ONE,
    RADIUS_SQ,
    SIN_SQ,
    ZERO,
    FieldElement,
    fe_sign,
    fe_sqrt,
)
from .geometry import (
    F_NUMERIC,
    Graph,
    GraphIntegrityError,
    ModulePoint,
    VertexOrigin,
    is_unit_edge,
    lex_less,
    maybe_unit_edge,
    screen_operands,
    screen_residues,
    screened_pairs,
)


class IdenticalCirclesError(Exception):
    """Both circles coincide; the intersection is the whole circle."""


_ONE_MINUS_CSQ = SIN_SQ
_TWO = FieldElement(2)


@dataclass(frozen=True)
class EuclideanCircleRec:
    """Euclidean circle underlying a distance-d circle, in scaled module
    coordinates: center (A, B), squared Euclidean radius, and the constant
    term E of the scaled equation."""

    center: ModulePoint
    radius_sq: FieldElement
    e_elem: FieldElement


def circle_of(c: ModulePoint) -> EuclideanCircleRec:
    """The circle of points at the target distance from a module point."""
    k = c.k_elem()
    den = _TWO + EDGE_INVARIANT * k
    inv_den = ONE / den
    a = 2 * c.x_elem * inv_den
    b = 2 * c.y_elem * inv_den
    s_c = c.x_elem * c.x_elem + _ONE_MINUS_CSQ * c.y_elem * c.y_elem
    e = (2 * s_c - k / (ONE - GEN)) * inv_den
    center = ModulePoint(a, b)
    radius_sq = RADIUS_SQ * (a * a + _ONE_MINUS_CSQ * b * b - e)
    return EuclideanCircleRec(center=center, radius_sq=radius_sq, e_elem=e)


def point_on_circle(p: ModulePoint, circ: EuclideanCircleRec) -> bool:
    """Exact incidence test against the scaled circle equation."""
    a, b, e = circ.center.x_elem, circ.center.y_elem, circ.e_elem
    val = (
        p.x_elem * p.x_elem
        + _ONE_MINUS_CSQ * p.y_elem * p.y_elem
        - 2 * a * p.x_elem
        - 2 * _ONE_MINUS_CSQ * b * p.y_elem
        + e
    )
    return val.is_zero()


@dataclass
class CandidatePoint:
    """An exact intersection point and its branch label."""

    point: ModulePoint
    branch: str


# ---------------------------------------------------------------------------
# exact intersection
# ---------------------------------------------------------------------------

def intersect_circles(
    c1: EuclideanCircleRec, c2: EuclideanCircleRec
) -> list[CandidatePoint]:
    """Module-point intersections of two distance circles: zero to two
    candidates.

    The points are returned exactly when the substituted quadratic's
    discriminant is a square in Q(c); when it is not, the circles meet
    outside the module and the result is empty, as it is when they do not
    meet.  Branch '-' is the point that is lexicographically smaller in
    (x, y).
    """
    a1, b1, e1 = c1.center.x_elem, c1.center.y_elem, c1.e_elem
    a2, b2, e2 = c2.center.x_elem, c2.center.y_elem, c2.e_elem
    lp = 2 * (a1 - a2)
    lq = 2 * _ONE_MINUS_CSQ * (b1 - b2)
    lt = e1 - e2
    lp_zero = lp.is_zero()
    lq_zero = lq.is_zero()
    if lp_zero and lq_zero:
        if lt.is_zero():
            raise IdenticalCirclesError("circles coincide")
        return []

    # substitute the radical line  lp*X + lq*Y = lt  into circle 1
    if not lq_zero:
        solve_for_x = True
        alpha = lq * lq + _ONE_MINUS_CSQ * lp * lp
        beta = (
            -2 * _ONE_MINUS_CSQ * lt * lp
            - 2 * a1 * lq * lq
            + 2 * _ONE_MINUS_CSQ * b1 * lq * lp
        )
        gamma = (
            _ONE_MINUS_CSQ * lt * lt
            - 2 * _ONE_MINUS_CSQ * b1 * lq * lt
            + e1 * lq * lq
        )
    else:
        solve_for_x = False
        alpha = _ONE_MINUS_CSQ * lp * lp
        beta = -2 * _ONE_MINUS_CSQ * b1 * lp * lp
        x_fixed_num = lt  # X = lt / lp
        gamma = lt * lt - 2 * a1 * lt * lp + e1 * lp * lp

    disc = beta * beta - 4 * alpha * gamma
    sgn = fe_sign(disc)
    if sgn < 0:
        return []

    root = fe_sqrt(disc) if sgn > 0 else ZERO
    if root is None:
        return []

    inv_two_alpha = ONE / (2 * alpha)
    sols = []
    for t in ((-beta - root), (-beta + root)):
        v = t * inv_two_alpha
        if solve_for_x:
            x_s = v
            y_s = (lt - lp * x_s) / lq
        else:
            y_s = v
            x_s = x_fixed_num / lp
        sols.append(ModulePoint(x_s, y_s))
    if sgn == 0:
        return [CandidatePoint(point=sols[0], branch="-")]
    if lex_less(sols[1], sols[0]):
        sols.reverse()
    return [
        CandidatePoint(point=sols[0], branch="-"),
        CandidatePoint(point=sols[1], branch="+"),
    ]


# ---------------------------------------------------------------------------
# the growth phase
# ---------------------------------------------------------------------------

# the neighbour prefilter keeps a vertex when the float cosh d = 1 + f lies
# in [1 + f_e (1 - tol), 1 + f_e (1 + tol)], f_e the edge value of f, a
# window of relative width tol on f.  It is wide enough to survive the
# coordinate error of near-tangent circle intersections; every survivor is
# re-verified exactly.  The tolerance has no proof yet: it rests on a
# measured gap.  Over all raw candidates and vertices of the default
# schedule, the true edges deviate from the edge value by a relative 5e-12
# at most, but non-edges come within 1.5e-4 from phase 3 on and within
# 4.5e-6 in phase 7, which has 18 pairs inside the tolerance, told apart
# from edges only by exact arithmetic, and 6,518 between 3e-5 and 1e-3.  The
# 3-term product that forms cosh d rounds with an error that grows like
# 1/(k_c k_v), k = 1 - |p|^2; on the default schedule min k_c is about
# 0.0093 and min k_v about 0.019, and the error near the window measured
# 4.5e-12 of f_e, far inside it, but no bound on it is proven either
NEIGHBOR_REL_TOL = 3e-5
DEDUP_RADIUS = 2e-9
# candidates per block of the neighbour prefilter; each block makes one
# float64 buffer of CHUNK_SIZE x (vertices) entries for cosh d, about 8 MB
# against the 501 vertices of the last default phase; larger blocks make
# this buffer the peak memory of growth
CHUNK_SIZE = 2048


@dataclass
class AugmentConfig:
    denom_bound: int = 10_000
    # Points dropped whenever the growth produces them, reproducing the
    # published vertex selection (which omits a handful of otherwise valid
    # candidates).  Exclusion is persistent: a suppressed point stays out
    # even when later phases regenerate it.  Every drop is counted and
    # reported, never silent.  Empty set = the unfiltered rule.
    excluded_points: frozenset = frozenset()

    @classmethod
    def reference(cls, **kw) -> "AugmentConfig":
        from .reference_data import reference_excluded_points

        return cls(excluded_points=reference_excluded_points(), **kw)


# the layers of phase_augment that PhaseReport.timings reports, in order:
# float circles and intersections, the float neighbour prefilter, dedup,
# exact intersection (circle_of, intersect_circles), exact neighbour
# certification (the modular screen and is_unit_edge), accidental edges
PHASE_LAYERS = (
    "float_intersections",
    "prefilter",
    "dedup",
    "exact_intersection",
    "exact_neighbors",
    "accidental_edges",
)


@dataclass
class PhaseReport:
    phase: int
    min_neighbors: int
    pairs_total: int = 0
    raw_candidates: int = 0
    prefiltered: int = 0
    distinct: int = 0
    dropped_existing: int = 0
    rejected_nonmodule: int = 0
    rejected_denominator: int = 0
    rejected_neighbor_mismatch: int = 0
    excluded_by_selection: int = 0
    accepted: int = 0
    new_old_edges: int = 0
    accidental_edges: list = dc_field(default_factory=list)
    rejected_detail: list = dc_field(default_factory=list)
    elapsed: float = 0.0
    # pairs put through the modular screen, and those of them left for the
    # exact edge test
    screened_pairs: int = 0
    exact_edge_tests: int = 0
    # seconds per layer of the phase, keyed as in PHASE_LAYERS
    timings: dict = dc_field(default_factory=dict)

    def summary(self) -> str:
        acc = ",".join(f"{{{i + 1},{j + 1}}}" for i, j in self.accidental_edges)
        return (
            f"phase {self.phase}: pairs={self.pairs_total} raw={self.raw_candidates} "
            f"prefiltered={self.prefiltered} distinct={self.distinct} "
            f"existing={self.dropped_existing} nonmodule={self.rejected_nonmodule} "
            f"denom={self.rejected_denominator} mismatch={self.rejected_neighbor_mismatch} "
            f"excluded={self.excluded_by_selection} "
            f"accepted={self.accepted} new-old-edges={self.new_old_edges} "
            f"accidental=[{acc}] screened={self.screened_pairs} "
            f"exact-tests={self.exact_edge_tests} elapsed={self.elapsed:.2f}s"
        )


def _euclidean_circles(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sq = coords[:, 0] ** 2 + coords[:, 1] ** 2
    k = 1.0 - sq
    den = 2.0 + F_NUMERIC * k
    centers = 2.0 * coords / den[:, None]
    e = (2.0 * sq - F_NUMERIC * k) / den
    rad2 = centers[:, 0] ** 2 + centers[:, 1] ** 2 - e
    return centers, rad2


def _pair_intersections(centers: np.ndarray, rad2: np.ndarray):
    """All pairwise circle intersection points, vectorized.

    Returns (pair_i, pair_j, branch, x, y) arrays; branch 0 is the point
    that is lexicographically smaller in (x, y)."""
    n = centers.shape[0]
    iu, ju = np.triu_indices(n, 1)
    ci = centers[iu]
    cj = centers[ju]
    dvec = cj - ci
    d2 = dvec[:, 0] ** 2 + dvec[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (d2 + rad2[iu] - rad2[ju]) / (2.0 * d2)
        h2 = rad2[iu] - a * a * d2
    mask = (d2 > 0) & (h2 >= 0)
    iu, ju, a, h2, d2, ci, dvec = (
        iu[mask], ju[mask], a[mask], h2[mask], d2[mask], ci[mask], dvec[mask],
    )
    base = ci + a[:, None] * dvec
    scale = np.sqrt(h2 / d2)
    perp = np.stack([-dvec[:, 1], dvec[:, 0]], axis=1) * scale[:, None]
    p_plus = base + perp
    p_minus = base - perp
    # orient so branch 0 is lexicographically smaller
    swap = (p_plus[:, 0] < p_minus[:, 0]) | (
        (p_plus[:, 0] == p_minus[:, 0]) & (p_plus[:, 1] < p_minus[:, 1])
    )
    lo = np.where(swap[:, None], p_plus, p_minus)
    hi = np.where(swap[:, None], p_minus, p_plus)
    pair_i = np.concatenate([iu, iu])
    pair_j = np.concatenate([ju, ju])
    branch = np.concatenate([np.zeros(len(iu), dtype=np.int8), np.ones(len(iu), dtype=np.int8)])
    xs = np.concatenate([lo[:, 0], hi[:, 0]])
    ys = np.concatenate([lo[:, 1], hi[:, 1]])
    return pair_i, pair_j, branch, xs, ys


def _hyperboloid(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Disk points lifted to the hyperboloid, one row (t, X, Y) per point,
    with t = (2 - k)/k, X = 2x/k, Y = 2y/k and k = 1 - x^2 - y^2, so that
    cosh d = t t' - X X' - Y Y'.  A point outside the disk (k < 0) lands on
    the lower sheet, where the form against any disk point is <= -1."""
    k = 1.0 - xs * xs - ys * ys
    return np.stack([(2.0 - k) / k, 2.0 * xs / k, 2.0 * ys / k], axis=1)


def _numeric_neighbor_counts(
    xs: np.ndarray, ys: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """For each candidate (xs[i], ys[i]), the number of vertices (rows of
    coords) whose float cosh d lies in the window of NEIGHBOR_REL_TOL."""
    cand = _hyperboloid(xs, ys)
    # the vertex side signed (+, -, -), so one product gives cosh d
    vt = (_hyperboloid(coords[:, 0], coords[:, 1]) * [1, -1, -1]).T
    lo = 1.0 + F_NUMERIC * (1.0 - NEIGHBOR_REL_TOL)
    hi = 1.0 + F_NUMERIC * (1.0 + NEIGHBOR_REL_TOL)
    counts = np.zeros(len(xs), dtype=np.int32)
    buf = np.empty((min(CHUNK_SIZE, len(xs)), vt.shape[1]))
    for start in range(0, len(xs), CHUNK_SIZE):
        block = cand[start : start + CHUNK_SIZE]
        cosh_d = np.matmul(block, vt, out=buf[: len(block)])
        counts[start : start + len(block)] = np.count_nonzero(
            (cosh_d >= lo) & (cosh_d <= hi), axis=1
        )
    return counts


def _match_exact_candidate(
    cands: Sequence[CandidatePoint], x: float, y: float
) -> Optional[CandidatePoint]:
    best = None
    best_d = float("inf")
    for cand in cands:
        px, py = cand.point.to_floats()
        d = math.hypot(px - x, py - y)
        if d < best_d:
            best, best_d = cand, d
    if best is not None and best_d < 1e-5:
        return best
    return None


def _max_denominator(point: ModulePoint) -> int:
    """The largest denominator of the point's octuple in lowest terms."""
    return max(
        e._d // math.gcd(n, e._d) for e in (point.x_elem, point.y_elem) for n in e._n
    )


def phase_augment(
    g: Graph,
    min_neighbors: int,
    cfg: Optional[AugmentConfig] = None,
    phase_index: Optional[int] = None,
) -> Graph:
    """One growth phase: intersect all circle pairs, keep intersection
    points in module form at the target distance from at least
    min_neighbors current vertices, and return the enlarged graph with all
    new edges (including accidental new-new edges) certified exactly.

    New vertices are appended sorted by source pair, then branch, so the
    construction order is deterministic.  Candidates in cfg.excluded_points
    are dropped but counted and reported, never silently discarded.
    """
    if min_neighbors < 2:
        raise ValueError("min_neighbors must be at least 2")
    if cfg is None:
        cfg = AugmentConfig()
    started = time.perf_counter()
    if phase_index is None:
        phase_index = max((o.phase for o in g.origins if o is not None), default=0) + 1
    timings = dict.fromkeys(PHASE_LAYERS, 0.0)
    report = PhaseReport(phase=phase_index, min_neighbors=min_neighbors, timings=timings)
    n = g.order
    if n < 2:
        report.elapsed = time.perf_counter() - started
        return Graph(g.vertices, g.edges, g.origins, phase_report=report)

    clock = time.perf_counter

    mark = clock()
    coords = np.array(g.float_coords(), dtype=np.float64)
    centers, rad2 = _euclidean_circles(coords)
    report.pairs_total = n * (n - 1) // 2
    pair_i, pair_j, branch, xs, ys = _pair_intersections(centers, rad2)
    report.raw_candidates = len(xs)
    timings["float_intersections"] = clock() - mark

    mark = clock()
    counts = _numeric_neighbor_counts(xs, ys, coords)
    keep = counts >= min_neighbors
    pair_i, pair_j, branch, xs, ys = (
        pair_i[keep], pair_j[keep], branch[keep], xs[keep], ys[keep],
    )
    report.prefiltered = len(xs)
    timings["prefilter"] = clock() - mark

    mark = clock()
    # deterministic processing order: source pair, then branch
    order = np.lexsort((branch, pair_j, pair_i))

    # spatial dedup: first occurrence in processing order wins
    cell = 1.0 / DEDUP_RADIUS
    existing_cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for x, y in coords:
        existing_cells.setdefault((round(x * cell), round(y * cell)), []).append((x, y))

    def near(cells, x, y, radius):
        cx, cy = round(x * cell), round(y * cell)
        for dx_ in (-1, 0, 1):
            for dy_ in (-1, 0, 1):
                for px, py in cells.get((cx + dx_, cy + dy_), ()):
                    if math.hypot(px - x, py - y) <= radius:
                        return True
        return False

    seen_cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
    survivors: list[tuple[int, int, int, float, float]] = []
    for idx in order:
        x = float(xs[idx])
        y = float(ys[idx])
        if near(existing_cells, x, y, DEDUP_RADIUS):
            report.dropped_existing += 1
            continue
        if near(seen_cells, x, y, DEDUP_RADIUS):
            continue
        seen_cells.setdefault((round(x * cell), round(y * cell)), []).append((x, y))
        survivors.append((int(pair_i[idx]), int(pair_j[idx]), int(branch[idx]), x, y))
    report.distinct = len(survivors)
    timings["dedup"] = clock() - mark

    # exact confirmation of every surviving candidate
    existing_points = {v: i for i, v in enumerate(g.vertices)}
    circles: dict[int, EuclideanCircleRec] = {}

    def circle(idx: int) -> EuclideanCircleRec:
        if idx not in circles:
            circles[idx] = circle_of(g.vertices[idx])
        return circles[idx]

    mark = clock()
    old_operands = screen_operands(screen_residues(g.vertices))
    timings["exact_neighbors"] = clock() - mark
    accepted: list[ModulePoint] = []
    accepted_keys: dict[ModulePoint, int] = {}
    accepted_origins: list[VertexOrigin] = []
    new_old_edges: list[tuple[int, int]] = []

    for i, j, _br, x, y in survivors:
        mark = clock()
        cands = intersect_circles(circle(i), circle(j))
        timings["exact_intersection"] += clock() - mark
        exact = _match_exact_candidate(cands, x, y)
        if exact is None:
            report.rejected_nonmodule += 1
            report.rejected_detail.append(("nonmodule", i, j, x, y))
            continue
        point = exact.point
        if _max_denominator(point) > cfg.denom_bound:
            report.rejected_denominator += 1
            report.rejected_detail.append(("denominator", i, j, x, y))
            continue
        if point in cfg.excluded_points:
            report.excluded_by_selection += 1
            report.rejected_detail.append(("excluded-by-selection", i, j, x, y))
            continue
        if point in existing_points:
            report.dropped_existing += 1
            continue
        if point in accepted_keys:
            continue
        mark = clock()
        operands = screen_operands(screen_residues([point])[0])
        maybe = np.flatnonzero(maybe_unit_edge(operands, old_operands)).tolist()
        report.screened_pairs += n
        report.exact_edge_tests += len(maybe)
        neighbors = [t for t in maybe if is_unit_edge(point, g.vertices[t])]
        timings["exact_neighbors"] += clock() - mark
        if len(neighbors) < min_neighbors:
            report.rejected_neighbor_mismatch += 1
            report.rejected_detail.append(("neighbor-count", i, j, x, y))
            continue
        if (i not in neighbors) or (j not in neighbors):
            raise GraphIntegrityError(
                f"candidate from pair ({i + 1}, {j + 1}) not adjacent to its sources"
            )
        if not point.is_inside_disk():
            raise GraphIntegrityError("accepted candidate outside the unit disk")
        new_index = n + len(accepted)
        accepted_keys[point] = new_index
        accepted.append(point)
        accepted_origins.append(VertexOrigin((i, j), exact.branch, phase_index))
        new_old_edges.extend((t, new_index) for t in neighbors)

    report.accepted = len(accepted)
    report.new_old_edges = len(new_old_edges)

    # accidental edges among the new vertices, certified exactly
    mark = clock()
    maybe = screened_pairs(screen_residues(accepted))
    report.screened_pairs += len(accepted) * (len(accepted) - 1) // 2
    report.exact_edge_tests += len(maybe)
    accidental = [
        (n + a, n + b) for a, b in maybe if is_unit_edge(accepted[a], accepted[b])
    ]
    report.accidental_edges = accidental
    timings["accidental_edges"] = clock() - mark
    report.elapsed = time.perf_counter() - started

    vertices = list(g.vertices) + accepted
    origins = list(g.origins) + accepted_origins
    edges = list(g.edges) + new_old_edges + accidental
    return Graph(vertices, edges, origins, phase_report=report)


DEFAULT_SCHEDULE = (2, 3, 3, 3, 3, 3, 3)


def grow_pipeline(
    g0: Graph,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
    cfg: Optional[AugmentConfig] = None,
) -> list[Graph]:
    """Fold phase_augment over the schedule, returning each phase output.

    An empty schedule returns [g0] unchanged.
    """
    if not schedule:
        return [g0]
    if cfg is None:
        cfg = AugmentConfig.reference()
    out: list[Graph] = []
    g = g0
    for phase_no, min_nb in enumerate(schedule, start=1):
        g = phase_augment(g, min_nb, cfg=cfg, phase_index=phase_no)
        out.append(g)
    return out
