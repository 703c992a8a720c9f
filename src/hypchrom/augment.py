"""Growth of the distance graph by intersecting equal-radius circles.

The locus of points at the target hyperbolic distance from a disk point is a
Euclidean circle, so new vertices arise as circle-circle intersections.  In
the scaled coordinates X = x/R, Y = y/(R*s) every circle has an equation

    X^2 + (1-c^2) Y^2 - 2A X - 2(1-c^2) B Y + E = 0

with A, B, E in Q(c), or Q(P - C) = rho with Q(u) = u_x^2 + (1-c^2) u_y^2,
center C = (A, B) and rho = Q(C) - E.  Two circles meet, as in the float
layer, at the foot of the radical line plus or minus a perpendicular
offset: with D = C2 - C1, delta = Q(D) and m = (delta + rho1 - rho2)/2 the
points are C1 + (m/delta) D +- t (-(1-c^2) D_y, D_x), where
t = sqrt(disc) / ((1-c^2) delta) and disc = (1-c^2)(rho1 delta - m^2).
When disc is a square in the field the intersection points are module
points, produced exactly; otherwise no candidate is returned, since only
module points can become vertices.  The foot of the radical line is the
midpoint of the two points, so when one of them, w, is known, the other is
2 (C1 + (m/delta) D) - w, with no disc and no square root: growth knows w
for every pair with one common neighbour in the graph, the vertex on both
circles, and takes the square root only for the other pairs.  Each vertex's
circle is built once, on first use, and cached on the point until
grow_pipeline ends.

A phase is six layers, one function each, named in PHASE_LAYERS: float
circle intersections of all vertex pairs, a float neighbour prefilter
(which only decides what to look at), a dedup that drops the points already
in the graph by the common neighbours of their pair and repeats by a float
grid, exact intersection, exact neighbour certification, and accidental
edges among the new vertices.  The last two find their pairs with one
blocked scan of the modular screen, geometry.screened_pairs: every exact
candidate against all current vertices, then the accepted vertices against
each other.  The image of the edge residual under c -> r mod p is a ring
homomorphism as long as p does not divide 16 or the common denominator of
a point's operand row (points where it does are always passed on).  A nonzero
image proves that a pair is not an edge, so only pairs with a zero image
reach is_unit_edge, which alone decides every edge.
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
    screened_pairs,
)


class IdenticalCirclesError(Exception):
    """Both circles coincide; the intersection is the whole circle."""


_INV_ONE_MINUS_CSQ = ONE / SIN_SQ
_INV_ONE_MINUS_C = ONE / (ONE - GEN)
_TWO = FieldElement(2)


def _q(x: FieldElement, y: FieldElement) -> FieldElement:
    """The scaled squared norm Q(x, y) = x^2 + (1-c^2) y^2."""
    return x * x + SIN_SQ * y * y


@dataclass(frozen=True)
class EuclideanCircleRec:
    """Euclidean circle underlying a distance-d circle, in scaled module
    coordinates: center (A, B) and rho, the circle being Q(P - C) = rho."""

    center: ModulePoint
    rho: FieldElement


def circle_of(c: ModulePoint) -> EuclideanCircleRec:
    """The circle of points at the target distance from a module point."""
    k = c.k_elem()
    inv_den = ONE / (_TWO + EDGE_INVARIANT * k)
    a = 2 * c.x_elem * inv_den
    b = 2 * c.y_elem * inv_den
    e = (2 * _q(c.x_elem, c.y_elem) - k * _INV_ONE_MINUS_C) * inv_den
    return EuclideanCircleRec(center=ModulePoint(a, b), rho=_q(a, b) - e)


def _circle(p: ModulePoint) -> EuclideanCircleRec:
    """p's circle, built by circle_of on first use and cached on p."""
    if p._circle is None:
        p._circle = circle_of(p)
    return p._circle


def point_on_circle(p: ModulePoint, circ: EuclideanCircleRec) -> bool:
    """Exact incidence test: Q(P - C) == rho."""
    c = circ.center
    return _q(p.x_elem - c.x_elem, p.y_elem - c.y_elem) == circ.rho


# ---------------------------------------------------------------------------
# exact intersection
# ---------------------------------------------------------------------------

def intersect_circles(
    c1: EuclideanCircleRec, c2: EuclideanCircleRec, known: Optional[ModulePoint] = None
) -> list[ModulePoint]:
    """Module-point intersections of two distance circles: zero to two
    points, the exact twin of _pair_intersections.

    The points are returned exactly when disc is a square in Q(c); when it
    is not, the circles meet outside the module and the result is empty, as
    it is when they do not meet.  Two points come in exact lexicographic
    order in (x, y); a point's position is its branch, 0 for '-' and 1 for
    '+'.

    known, if given, must lie on both circles.  The other point is then its
    mirror in the foot of the radical line, found without disc or a square
    root, and known alone is returned when the two coincide, where the
    circles touch.  A known point off either circle gives a point off them
    too.
    """
    ax, ay = c1.center.x_elem, c1.center.y_elem
    dx, dy = c2.center.x_elem - ax, c2.center.y_elem - ay
    delta = _q(dx, dy)
    if delta.is_zero():
        if c1.rho == c2.rho:
            raise IdenticalCirclesError("circles coincide")
        return []
    m = (delta + c1.rho - c2.rho) / 2
    if known is None:
        disc = SIN_SQ * (c1.rho * delta - m * m)
        sgn = fe_sign(disc)
        if sgn < 0:
            return []
        root = fe_sqrt(disc) if sgn > 0 else ZERO
        if root is None:
            return []

    inv_delta = ONE / delta
    s = m * inv_delta
    base_x, base_y = ax + s * dx, ay + s * dy
    if known is not None:
        # the foot is the midpoint of known and the other point
        p = known
        q = ModulePoint(base_x + base_x - known.x_elem, base_y + base_y - known.y_elem)
        if p == q:
            return [known]
    elif sgn == 0:
        return [ModulePoint(base_x, base_y)]
    else:
        # the offset t (-(1-c^2) D_y, D_x) is w (-D_y, D_x / (1-c^2)), w = root / delta
        w = root * inv_delta
        off_x, off_y = w * dy, w * dx * _INV_ONE_MINUS_CSQ
        p = ModulePoint(base_x - off_x, base_y + off_y)
        q = ModulePoint(base_x + off_x, base_y - off_y)
    return [p, q] if lex_less(p, q) else [q, p]


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
# candidates per block of the neighbour prefilter, whose buffers are reused
# for every block: cosh d as CHUNK_SIZE x (vertices) float64 and two bool
# masks of the same shape, 10 bytes per entry.  Against the 501 vertices of
# the last default phase that is 1.03 MB of cosh d and 0.26 MB of masks, so
# a block and its masks stay in a 2 MB per-core L2 cache.  In phase 7 (best
# of 9, three runs on a 2-core Xeon) the prefilter took 0.046-0.063 s with
# 128 to 256 rows, 0.084-0.107 s with 512 and 0.075-0.094 s with 2,048,
# whose block of 10 MB does not fit
CHUNK_SIZE = 256


@dataclass
class AugmentConfig:
    denom_bound: int = 10_000
    # Points dropped whenever the growth produces them, reproducing the
    # published vertex selection (which omits a handful of otherwise valid
    # candidates).  Exclusion is persistent: a suppressed point stays out
    # even when later phases regenerate it.  Every drop is counted in the
    # phase report, never silent.  Empty set = the unfiltered rule.
    excluded_points: frozenset = frozenset()

    @classmethod
    def reference(cls, **kw) -> "AugmentConfig":
        from .reference_data import reference_excluded_points

        return cls(excluded_points=reference_excluded_points(), **kw)


# the layers of phase_augment, in order, each the function of that name
# with a leading underscore and timed as a whole in PhaseReport.timings:
# float circles and intersections, the float neighbour prefilter, dedup
# (g's neighbour sets, each pair's common neighbours looked up once,
# existing points by them, repeats by a float grid), exact intersection
# (circle_of once per vertex, intersect_circles, from the pair's one common
# neighbour that dedup hands it, else by the square root), exact neighbour
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

    Returns (pair_i, pair_j, x, y) arrays in processing order: the pairs
    i < j lexicographically, rows 2m and 2m + 1 holding the two points of
    pair m, the one lexicographically smaller in (x, y) first."""
    n = centers.shape[0]
    iu, ju = np.triu_indices(n, 1)
    cx, cy = centers[:, 0], centers[:, 1]
    dx = cx[ju] - cx[iu]
    dy = cy[ju] - cy[iu]
    d2 = dx**2 + dy**2
    rad2_i = rad2[iu]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (d2 + rad2_i - rad2[ju]) / (2.0 * d2)
        h2 = rad2_i - a * a * d2
    kept = np.flatnonzero((d2 > 0) & (h2 >= 0))
    iu, ju, a, h2, d2, dx, dy = (v[kept] for v in (iu, ju, a, h2, d2, dx, dy))
    base_x = cx[iu] + a * dx
    base_y = cy[iu] + a * dy
    scale = np.sqrt(h2 / d2)
    perp_x = -dy * scale
    perp_y = dx * scale
    plus_x, plus_y = base_x + perp_x, base_y + perp_y
    minus_x, minus_y = base_x - perp_x, base_y - perp_y
    # orient so the lexicographically smaller point comes first
    swap = (plus_x < minus_x) | ((plus_x == minus_x) & (plus_y < minus_y))
    xs = np.empty(2 * len(kept))
    ys = np.empty(2 * len(kept))
    xs[0::2] = np.where(swap, plus_x, minus_x)
    xs[1::2] = np.where(swap, minus_x, plus_x)
    ys[0::2] = np.where(swap, plus_y, minus_y)
    ys[1::2] = np.where(swap, minus_y, plus_y)
    return np.repeat(iu, 2), np.repeat(ju, 2), xs, ys


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
    coords) whose float cosh d lies in the window of NEIGHBOR_REL_TOL.

    The candidates go in blocks of CHUNK_SIZE rows.  One buffer for a
    block's cosh d and two masks are allocated once and refilled in place
    for every block, and each row's count is a byte-wise sum of its mask."""
    cand = _hyperboloid(xs, ys)
    # the vertex side signed (+, -, -), so one product gives cosh d; a
    # C-ordered vt takes a faster matrix product than the transposed view
    vt = np.ascontiguousarray((_hyperboloid(coords[:, 0], coords[:, 1]) * [1, -1, -1]).T)
    lo = 1.0 + F_NUMERIC * (1.0 - NEIGHBOR_REL_TOL)
    hi = 1.0 + F_NUMERIC * (1.0 + NEIGHBOR_REL_TOL)
    counts = np.empty(len(xs), dtype=np.int32)
    shape = (min(CHUNK_SIZE, len(xs)), vt.shape[1])
    cosh_d, inside, below = np.empty(shape), np.empty(shape, bool), np.empty(shape, bool)
    for start in range(0, len(xs), CHUNK_SIZE):
        block = cand[start : start + CHUNK_SIZE]
        rows = len(block)
        np.matmul(block, vt, out=cosh_d[:rows])
        np.greater_equal(cosh_d[:rows], lo, out=inside[:rows])
        np.less_equal(cosh_d[:rows], hi, out=below[:rows])
        np.logical_and(inside[:rows], below[:rows], out=inside[:rows])
        np.add.reduce(
            inside[:rows].view(np.uint8), axis=1, dtype=np.int32,
            out=counts[start : start + rows],
        )
    return counts


def _match_exact_candidate(
    points: Sequence[ModulePoint], x: float, y: float
) -> Optional[int]:
    """The index of the first point nearest to (x, y), or None if there is none."""
    dist = [math.dist(p.to_floats(), (x, y)) for p in points]
    return dist.index(min(dist)) if dist else None


def _max_denominator(point: ModulePoint) -> int:
    """The largest denominator of the point's octuple in lowest terms."""
    return max(
        e._d // math.gcd(n, e._d) for e in (point.x_elem, point.y_elem) for n in e._n
    )


def _float_intersections(report: PhaseReport, g: Graph):
    """g's float coordinates, and _pair_intersections of all its circles."""
    coords = np.array(g.float_coords(), dtype=np.float64)
    report.pairs_total = g.order * (g.order - 1) // 2
    cands = _pair_intersections(*_euclidean_circles(coords))
    report.raw_candidates = len(cands[2])
    return coords, cands


def _prefilter(report: PhaseReport, cands, coords: np.ndarray, min_neighbors: int):
    """The candidates whose float neighbour count reaches min_neighbors."""
    keep = _numeric_neighbor_counts(cands[2], cands[3], coords) >= min_neighbors
    cands = tuple(a[keep] for a in cands)
    report.prefiltered = len(cands[2])
    return cands


# the grid cell of a point and its eight neighbours, as offsets
_NEAR_CELLS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _dedup(report: PhaseReport, g: Graph, cands, coords: np.ndarray) -> list[tuple]:
    """The survivors (i, j, w, x, y), in the candidates' processing order,
    where w is the one common neighbour of i and j in g, or None.

    g must record every unit pair among its vertices, as the seed, every
    growth output, induced subgraphs and any bundle certify passes do.  The
    common neighbours of i and j are then the vertices on both circles of
    pair (i, j): at most two, as two distinct circles meet in at most two
    points.  A candidate is existing when the pair has two, or when it lies
    within DEDUP_RADIUS of the one.  A candidate within DEDUP_RADIUS of an
    earlier survivor is dropped silently.  _exact_intersection still drops
    any vertex the rule misses."""
    nbrs: list[set[int]] = [set() for _ in range(g.order)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    pts = coords.tolist()
    cell = 1.0 / DEDUP_RADIUS
    seen: dict[tuple[int, int], list[tuple[float, float]]] = {}
    survivors, pair = [], None
    for i, j, x, y in zip(*(a.tolist() for a in cands)):
        if (i, j) != pair:
            # a pair's rows are adjacent: its common neighbours once per pair
            pair, common = (i, j), nbrs[i] & nbrs[j]
            w = min(common) if len(common) == 1 else None
        if len(common) > 1 or (
            w is not None and math.dist(pts[w], (x, y)) <= DEDUP_RADIUS
        ):
            report.dropped_existing += 1
            continue
        cx, cy = round(x * cell), round(y * cell)
        for dx, dy in _NEAR_CELLS:
            near = seen.get((cx + dx, cy + dy))
            if near and any(math.dist(p, (x, y)) <= DEDUP_RADIUS for p in near):
                break
        else:
            seen.setdefault((cx, cy), []).append((x, y))
            survivors.append((i, j, w, x, y))
    report.distinct = len(survivors)
    return survivors


def _exact_intersection(
    report: PhaseReport, g: Graph, survivors, cfg: AugmentConfig, phase_index: int
) -> dict[ModulePoint, VertexOrigin]:
    """The distinct exact candidates in processing order, each with its
    origin.  Each pair is intersected once, and each of its survivors takes
    the exact point nearer its float (x, y).  A pair whose survivors carry
    its one common neighbour w, looked up by _dedup, is intersected from
    g.vertices[w], one of its two points, the others by the square root.  A
    survivor of a pair with no module point, or whose point has a
    denominator above cfg.denom_bound or is in cfg.excluded_points, is
    rejected and counted; one on a vertex of g is dropped as existing; the
    first occurrence wins.

    A false edge of g can give a pair a common neighbour off its circles,
    and so a wrong point, but never a wrong vertex: _exact_neighbors accepts
    only points exactly adjacent to both sources, which are on both circles."""
    old, found, pair = set(g.vertices), {}, None
    for i, j, w, x, y in survivors:
        if (i, j) != pair:
            pair, c1, c2 = (i, j), _circle(g.vertices[i]), _circle(g.vertices[j])
            points = intersect_circles(c1, c2, None if w is None else g.vertices[w])
        branch = _match_exact_candidate(points, x, y)
        if branch is None:
            report.rejected_nonmodule += 1
            continue
        exact = points[branch]
        if _max_denominator(exact) > cfg.denom_bound:
            report.rejected_denominator += 1
        elif exact in cfg.excluded_points:
            report.excluded_by_selection += 1
        elif exact in old:
            report.dropped_existing += 1
        elif exact not in found:
            found[exact] = VertexOrigin((i, j), "-+"[branch], phase_index)
    return found


def _exact_neighbors(report: PhaseReport, g: Graph, found: dict, min_neighbors: int):
    """Every candidate screened against g's vertices in one scan, and the
    pairs the screen leaves decided by is_unit_edge.  A candidate with fewer
    than min_neighbors exact neighbours is rejected and counted; the others
    are accepted in order, numbered from g.order.  Returns the accepted
    points, their origins and their edges to g's vertices."""
    points, old = list(found), g.vertices
    maybe = screened_pairs(points, old)
    report.screened_pairs += len(points) * g.order
    report.exact_edge_tests += len(maybe)
    neighbors: list[list[int]] = [[] for _ in points]
    for a, t in maybe:
        if is_unit_edge(points[a], old[t]):
            neighbors[a].append(t)
    accepted, origins, edges = [], [], []
    for point, origin, nbrs in zip(points, found.values(), neighbors):
        if len(nbrs) < min_neighbors:
            report.rejected_neighbor_mismatch += 1
            continue
        i, j = origin.source_pair
        if (i not in nbrs) or (j not in nbrs):
            raise GraphIntegrityError(
                f"candidate from pair ({i + 1}, {j + 1}) not adjacent to its sources"
            )
        if not point.is_inside_disk():
            raise GraphIntegrityError("accepted candidate outside the unit disk")
        edges.extend((t, g.order + len(accepted)) for t in nbrs)
        accepted.append(point)
        origins.append(origin)
    report.accepted = len(accepted)
    report.new_old_edges = len(edges)
    return accepted, origins, edges


def _accidental_edges(report: PhaseReport, n: int, accepted: list[ModulePoint]):
    """The edges among the accepted vertices, numbered from n, certified exactly."""
    maybe = screened_pairs(accepted)
    report.screened_pairs += len(accepted) * (len(accepted) - 1) // 2
    report.exact_edge_tests += len(maybe)
    report.accidental_edges = [
        (n + a, n + b) for a, b in maybe if is_unit_edge(accepted[a], accepted[b])
    ]
    return report.accidental_edges


def _timed(report: PhaseReport, layer, *args):
    """layer(report, *args), timed under its PHASE_LAYERS name."""
    mark = time.perf_counter()
    out = layer(report, *args)
    report.timings[layer.__name__[1:]] = time.perf_counter() - mark
    return out


def phase_augment(
    g: Graph,
    min_neighbors: int,
    cfg: Optional[AugmentConfig] = None,
    *,
    phase_index: int,
) -> Graph:
    """One growth phase: intersect all circle pairs, keep intersection
    points in module form at the target distance from at least
    min_neighbors current vertices, and return the enlarged graph with all
    new edges (including accidental new-new edges) certified exactly.

    New vertices are appended sorted by source pair, then branch, so the
    construction order is deterministic.  Candidates in cfg.excluded_points
    are dropped but counted in the phase report, never silently discarded;
    cfg defaults to the reference selection.  phase_index
    numbers the phase in its report and in the new vertices' origins.
    """
    if min_neighbors < 2:
        raise ValueError("min_neighbors must be at least 2")
    if cfg is None:
        cfg = AugmentConfig.reference()
    started = time.perf_counter()
    timings = dict.fromkeys(PHASE_LAYERS, 0.0)
    report = PhaseReport(phase=phase_index, min_neighbors=min_neighbors, timings=timings)
    accepted, origins, edges = [], [], []
    if g.order >= 2:
        coords, cands = _timed(report, _float_intersections, g)
        cands = _timed(report, _prefilter, cands, coords, min_neighbors)
        survivors = _timed(report, _dedup, g, cands, coords)
        found = _timed(report, _exact_intersection, g, survivors, cfg, phase_index)
        accepted, origins, edges = _timed(report, _exact_neighbors, g, found, min_neighbors)
        edges += _timed(report, _accidental_edges, g.order, accepted)
    report.elapsed = time.perf_counter() - started
    vertices, origins = list(g.vertices) + accepted, list(g.origins) + origins
    return Graph(vertices, list(g.edges) + edges, origins, phase_report=report)


DEFAULT_SCHEDULE = (2, 3, 3, 3, 3, 3, 3)


def grow_pipeline(
    g0: Graph,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
    cfg: Optional[AugmentConfig] = None,
) -> list[Graph]:
    """Fold phase_augment with cfg over the schedule, returning each phase output.

    An empty schedule returns [g0] unchanged.  The vertices' cached circles
    are cleared at the end, also when a phase raises.
    """
    if not schedule:
        return [g0]
    out: list[Graph] = []
    g = g0
    try:
        for phase_no, min_nb in enumerate(schedule, start=1):
            g = phase_augment(g, min_nb, cfg=cfg, phase_index=phase_no)
            out.append(g)
    finally:
        # the circles cached for the later phases are dropped: kept alive,
        # they slow every cyclic garbage collection after growth.  Only
        # vertices of g, the last graph built, can hold one: every earlier
        # graph's vertices are among them, and a phase builds circles only
        # for the vertices of its input
        for v in g.vertices:
            v._circle = None
    return out
