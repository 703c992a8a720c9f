"""Points of the Poincare disk in module form and exact edge certification.

A module point encodes disk coordinates as x = R*X(c), y = R*s*Y(c) where
X, Y are elements of Q(c), R^2 = 2c - 1 and s^2 = 1 - c^2.  The octuple
[m, n, p, q, u, v, w, z] lists the coefficients of X = m c^3 + n c^2 + p c + q
and Y = u c^3 + v c^2 + w c + z.

Two points are at the target hyperbolic distance exactly when the quantity

    f(P, Q) = 2 * ((x1-x2)^2 + (y1-y2)^2) / ((1 - x1^2 - y1^2)(1 - x2^2 - y2^2))

equals (2c-1)/(1-c); for module points f(P, Q) lies in Q(c) and the test is
a comparison of canonical field elements, with no rounding anywhere.

Most pairs are not edges, and a modular screen proves that cheaply.  Fix a
prime p and a root r of the minimal polynomial mod p.  Sending c to r and
reducing mod p is a ring homomorphism from the elements of Q(c) whose
coefficient denominators are prime to p, provided p does not divide 16
(the leading coefficient, so reduction by the minimal polynomial keeps
such elements p-integral).  An element is p-integral exactly when p does
not divide its common denominator `_d`.  The edge test asks whether the
residual 2(1-c)*Delta(P, Q) - K_P*K_Q is zero; if both points are
p-integral, its image mod p is computed from the residues of X, Y and K,
and a nonzero image proves the residual nonzero, so the pair is not an
edge.  screened_pairs takes the points themselves: it reduces each point
once, in Python ints, to a uint64 row of the operands the expanded
residual needs, and scans blocks of rows against all columns.  A zero
image proves nothing, and such pairs, with every pair involving a point
that is not p-integral, go to is_unit_edge, the only test that accepts an
edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .field import (
    EDGE_INVARIANT,
    ONE,
    RADIUS_SQ,
    SIN_SQ,
    FieldElement,
    fe_sign,
    fe_to_interval,
    interval_sqrt,
    _interval_raw,
    _normalize,
    _raw_add,
    _raw_is_zero,
    _raw_mul,
    _raw_sub,
)


class GraphIntegrityError(Exception):
    """An exact certification check failed on data that must be certified."""


# raw constants for the hot edge test
_RAW_ONE_MINUS_CSQ = ((1, 0, -1, 0), 1)
_RAW_TWO_ONE_MINUS_C = ((2, -2, 0, 0), 1)
_RAW_TWOC_MINUS_ONE = ((-1, 2, 0, 0), 1)
_RAW_ONE = ((1, 0, 0, 0), 1)


class ModulePoint:
    """A disk point with both scaled coordinates in Q(c)."""

    __slots__ = ("x_elem", "y_elem", "_k")

    def __init__(self, x_elem: FieldElement, y_elem: FieldElement):
        self.x_elem = x_elem
        self.y_elem = y_elem
        self._k = None

    @classmethod
    def from_octuple(cls, octuple: Sequence) -> "ModulePoint":
        vals = [Fraction(v) for v in octuple]
        if len(vals) != 8:
            raise ValueError("octuple must have eight entries")
        m, n, p, q, u, v, w, z = vals
        return cls(FieldElement(q, p, n, m), FieldElement(z, w, v, u))

    @property
    def octuple(self) -> tuple[Fraction, ...]:
        x, y = self.x_elem.coeffs, self.y_elem.coeffs
        return (x[3], x[2], x[1], x[0], y[3], y[2], y[1], y[0])

    def _k_raw(self):
        # K = 1 - x^2 - y^2 = 1 - (2c-1) * (X^2 + (1-c^2) Y^2)
        if self._k is None:
            xn, xd = self.x_elem._n, self.x_elem._d
            yn, yd = self.y_elem._n, self.y_elem._d
            s = _raw_mul(xn, xd, xn, xd)
            t = _raw_mul(yn, yd, yn, yd)
            t = _raw_mul(*t, *_RAW_ONE_MINUS_CSQ)
            s = _raw_add(*s, *t)
            s = _raw_mul(*s, *_RAW_TWOC_MINUS_ONE)
            self._k = _normalize(*_raw_sub(*_RAW_ONE, *s))
        return self._k

    def k_elem(self) -> FieldElement:
        """1 - x^2 - y^2 as a field element (positive inside the disk)."""
        return FieldElement._from_raw(*self._k_raw())

    def is_inside_disk(self) -> bool:
        return fe_sign(self.k_elem()) > 0

    def to_floats(self) -> tuple[float, float]:
        return (
            _R_FLOAT * self.x_elem.to_float(),
            _RS_FLOAT * self.y_elem.to_float(),
        )

    def as_strings(self) -> tuple[str, ...]:
        """The octuple as format_rational writes it."""
        x, y = self.x_elem.as_strings(), self.y_elem.as_strings()
        return x[::-1] + y[::-1]

    @classmethod
    def from_strings(cls, parts: Sequence[str]) -> "ModulePoint":
        """The point of eight "num/den" strings, in octuple order."""
        if len(parts) != 8:
            raise ValueError("octuple must have eight entries")
        return cls(
            FieldElement.from_strings(parts[3::-1]),
            FieldElement.from_strings(parts[:3:-1]),
        )

    def __eq__(self, other):
        if not isinstance(other, ModulePoint):
            return NotImplemented
        return self.x_elem == other.x_elem and self.y_elem == other.y_elem

    def __hash__(self):
        return hash((self.x_elem, self.y_elem))

    def __repr__(self):
        return f"ModulePoint{self.octuple}"


def lex_less(p: ModulePoint, q: ModulePoint) -> bool:
    """Exact lexicographic order on (x, y); used as the branch tiebreak."""
    s = fe_sign(p.x_elem - q.x_elem)
    if s != 0:
        return s < 0
    return fe_sign(p.y_elem - q.y_elem) < 0


# the target hyperbolic distance arccosh(1 + (2c-1)/(1-c)) as a float
D_NUMERIC = math.acosh(
    float(sum(fe_to_interval(ONE + EDGE_INVARIANT, Fraction(1, 10**14))) / 2)
)

_R_FLOAT = math.sqrt(RADIUS_SQ.to_float())
_S_FLOAT = math.sqrt(SIN_SQ.to_float())
_RS_FLOAT = _R_FLOAT * _S_FLOAT


# ---------------------------------------------------------------------------
# the distance quantity and the exact edge test
# ---------------------------------------------------------------------------

def _delta_raw(p: ModulePoint, q: ModulePoint):
    # (X1-X2)^2 + (1-c^2)(Y1-Y2)^2, scaled squared Euclidean separation / (2c-1)
    dx = _raw_sub(p.x_elem._n, p.x_elem._d, q.x_elem._n, q.x_elem._d)
    dy = _raw_sub(p.y_elem._n, p.y_elem._d, q.y_elem._n, q.y_elem._d)
    dx2 = _raw_mul(*dx, *dx)
    dy2 = _raw_mul(*dy, *dy)
    dy2 = _raw_mul(*dy2, *_RAW_ONE_MINUS_CSQ)
    return _raw_add(*dx2, *dy2)


def f_of(p: ModulePoint, q: ModulePoint) -> FieldElement:
    """The distance quantity f(P, Q) as an exact field element."""
    delta = _raw_mul(*_delta_raw(p, q), *_RAW_TWOC_MINUS_ONE)
    num = FieldElement._from_raw(*_raw_add(*delta, *delta))
    den = FieldElement._from_raw(*_raw_mul(*p._k_raw(), *q._k_raw()))
    return num / den


def is_unit_edge(p: ModulePoint, q: ModulePoint) -> bool:
    """True iff f(P, Q) equals the edge value exactly."""
    lhs = _raw_mul(*_delta_raw(p, q), *_RAW_TWO_ONE_MINUS_C)
    rhs = _raw_mul(*p._k_raw(), *q._k_raw())
    n, _ = _raw_sub(*lhs, *rhs)
    return _raw_is_zero(n)


# ---------------------------------------------------------------------------
# the modular edge screen
# ---------------------------------------------------------------------------

# the minimal polynomial splits completely mod this prime (which does not
# divide 16); SCREEN_ROOT is one of its four roots
SCREEN_PRIME = 2147483549
SCREEN_ROOT = 39333461

_RES_ONE_MINUS_CSQ = (1 - SCREEN_ROOT * SCREEN_ROOT) % SCREEN_PRIME
_RES_TWO_ONE_MINUS_C = 2 * (1 - SCREEN_ROOT) % SCREEN_PRIME
_RES_TWOC_MINUS_ONE = (2 * SCREEN_ROOT - 1) % SCREEN_PRIME
_RES_U = 2 * _RES_TWO_ONE_MINUS_C % SCREEN_PRIME
_RES_V = _RES_U * _RES_ONE_MINUS_CSQ % SCREEN_PRIME

_SCAN_BLOCK = 64  # rows compared at once with every column in screened_pairs


def _residue(a: FieldElement) -> int:
    p, r = SCREEN_PRIME, SCREEN_ROOT
    n = a._n
    return (n[0] + r * (n[1] + r * (n[2] + r * n[3]))) * pow(a._d, -1, p) % p


def _screen_row(x: int, y: int, k: int) -> tuple[int, ...]:
    """The operand row of a point whose X, Y and K have the residues x, y
    and k mod p: X, Y, K, then A = 2(1-c)(X^2 + (1-c^2)Y^2), U*X and V*Y
    mod p (U = 4(1-c), V = 4(1-c)(1-c^2)), and last the no-image flag 0."""
    p = SCREEN_PRIME
    a = _RES_TWO_ONE_MINUS_C * (x * x + _RES_ONE_MINUS_CSQ * y * y) % p
    return (x, y, k, a, _RES_U * x % p, _RES_V * y % p, 0)


def _screen_rows(points: Sequence[ModulePoint]) -> np.ndarray:
    """One uint64 operand row per point.  A point with a coordinate
    denominator divisible by the prime has no image; its row is zero but
    for the flag 1, and the screen never rules it out."""
    p = SCREEN_PRIME
    rows = []
    for pt in points:
        if pt.x_elem._d % p == 0 or pt.y_elem._d % p == 0:
            rows.append((0, 0, 0, 0, 0, 0, 1))
            continue
        x = _residue(pt.x_elem)
        y = _residue(pt.y_elem)
        # K = 1 - (2c-1) * (X^2 + (1-c^2) Y^2)
        k = (1 - _RES_TWOC_MINUS_ONE * (x * x + _RES_ONE_MINUS_CSQ * y * y)) % p
        rows.append(_screen_row(x, y, k))
    return np.array(rows, dtype=np.uint64).reshape(len(rows), 7)


def _may_be_edge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """False where a pair is proven not to be an edge, True ("maybe")
    elsewhere.  a and b are operand rows, broadcast against each other.
    Expanded, the residual 2(1-c)*Delta - K_P*K_Q is
    A_P + A_Q - U*X_P*X_Q - V*Y_P*Y_Q - K_P*K_Q; it is zero mod p exactly
    when (U*X_P)*X_Q + (V*Y_P)*Y_Q + K_P*K_Q + (p - A_P) = A_Q mod p.  That
    sum is below 3p^2 + p < 2^64, so it takes one uint64 reduction per pair
    and never overflows."""
    p = SCREEN_PRIME
    total = (
        a[..., 4] * b[..., 0]
        + a[..., 5] * b[..., 1]
        + a[..., 2] * b[..., 2]
        + (p - a[..., 3])
    )
    return (total % p == b[..., 3]) | (a[..., 6] > 0) | (b[..., 6] > 0)


def screened_pairs(
    points: Sequence[ModulePoint], other: Optional[Sequence[ModulePoint]] = None
) -> list[tuple[int, int]]:
    """Every pair (i, j) that the modular screen cannot rule out, in
    lexicographic order: i < j within points, or, given other, points[i]
    against other[j].  Every other pair is proven not to be an edge."""
    ops = _screen_rows(points)
    cols = ops if other is None else _screen_rows(other)
    pairs: list[tuple[int, int]] = []
    for start in range(0, len(ops), _SCAN_BLOCK):
        rows = ops[start : start + _SCAN_BLOCK]
        first = start if other is None else 0
        maybe = _may_be_edge(rows[:, None, :], cols[None, first:, :])
        if other is None:
            # keep only the columns right of the diagonal
            maybe &= np.arange(len(cols) - start)[None, :] > np.arange(len(rows))[:, None]
        i, j = np.nonzero(maybe)
        pairs.extend(zip((i + start).tolist(), (j + first).tolist()))
    return pairs


def f_numeric(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Floating-point distance quantity for plain coordinate pairs."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    kp = 1.0 - p[0] * p[0] - p[1] * p[1]
    kq = 1.0 - q[0] * q[0] - q[1] * q[1]
    return 2.0 * (dx * dx + dy * dy) / (kp * kq)


F_NUMERIC = EDGE_INVARIANT.to_float()


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexOrigin:
    """Provenance of a generated vertex: which circle pair, which branch,
    which growth phase.  Seed vertices carry no origin."""

    source_pair: tuple[int, int]
    branch: str
    phase: int


class Graph:
    """Ordered vertex list plus certified edge set; order is construction
    order.  Edges are stored as 0-based (i, j) pairs with i < j; a
    self-loop or a repeated pair is rejected."""

    __slots__ = ("vertices", "edges", "origins", "phase_report")

    def __init__(
        self,
        vertices: Sequence[ModulePoint],
        edges: Iterable[tuple[int, int]],
        origins: Optional[Sequence[Optional[VertexOrigin]]] = None,
        phase_report=None,
    ):
        self.vertices = list(vertices)
        self.edges = sorted(tuple(sorted(e)) for e in edges)
        if origins is None:
            origins = [None] * len(self.vertices)
        self.origins = list(origins)
        self.phase_report = phase_report
        n = len(self.vertices)
        if len(self.origins) != n:
            raise ValueError("origins must match vertex count")
        for k, (i, j) in enumerate(self.edges):
            if not (0 <= i < j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if k and self.edges[k - 1] == (i, j):
                raise ValueError(f"duplicate edge ({i}, {j})")

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        return len(self.edges)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges)

    def float_coords(self) -> list[tuple[float, float]]:
        return [v.to_floats() for v in self.vertices]


@dataclass
class CertificationReport:
    ok: bool
    edges_checked: int
    nonedges_checked: int
    failures: list


def certify_graph(g: Graph, seed: int = 0) -> CertificationReport:
    """Exact certification of every pair: the recorded edges are exactly
    the pairs with f = f_edge.

    Every pair goes through the modular screen, which proves most of them
    non-edges, and the pairs it cannot rule out through is_unit_edge.
    Failures are ("edge", i, j) for a recorded pair that is not an edge and
    ("nonedge", i, j) for an unrecorded pair that is one, sorted by pair.
    seed is accepted for callers that still pass it and has no effect."""
    v = g.vertices
    maybe = screened_pairs(v)
    # every exact test before any new object: building tuples or a set between
    # them fragmented the heap and slowed a later coloring search by about 25%
    hits = [is_unit_edge(v[i], v[j]) for i, j in maybe]
    found = {pair for pair, hit in zip(maybe, hits) if hit}
    recorded = g.edge_set()
    failures = sorted(
        [("edge", i, j) for i, j in recorded - found]
        + [("nonedge", i, j) for i, j in found - recorded],
        key=lambda f: f[1:],
    )
    pairs = g.order * (g.order - 1) // 2
    return CertificationReport(not failures, g.size, pairs - g.size, failures)


# ---------------------------------------------------------------------------
# the order-9 seed graph
# ---------------------------------------------------------------------------

_SEED_OCTUPLES = (
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 1),
    (-8, -4, 6, Fraction(3, 2), -8, -4, 6, 1),
    (-4, 4, 2, -1, 16, -4, -4, 0),
    (4, -4, 0, 1, -16, 12, 4, -2),
    (0, 0, 0, 1, 16, 8, -8, -2),
    (0, -2, 2, 1, 0, 8, -2, -2),
    (-8, -2, 4, Fraction(3, 2), 8, -4, 0, 1),
)

# 17 edges, 0-based: spindle on the first seven vertices plus the two
# circumcenter vertices joined to their defining triangles
SEED_EDGES = (
    (0, 1), (0, 2), (0, 4), (0, 5),
    (1, 2), (1, 3), (1, 7),
    (2, 3), (2, 8),
    (3, 6), (3, 7),
    (4, 5), (4, 6), (4, 7),
    (5, 6), (5, 8),
    (6, 8),
)

_CIRCUMCENTER_CHECKS = ((1, 7), (3, 7), (4, 7), (2, 8), (5, 8), (6, 8))


def build_g9() -> Graph:
    """The certified order-9, size-17 seed graph.

    Every listed edge is verified exactly and every non-edge pair is
    verified to fail; any discrepancy raises GraphIntegrityError.
    """
    g = Graph([ModulePoint.from_octuple(o) for o in _SEED_OCTUPLES], SEED_EDGES)
    report = certify_graph(g)
    if not report.ok:
        _, i, j = min(report.failures, key=lambda f: f[1:])
        raise GraphIntegrityError(
            f"seed graph self-check failed on pair ({i + 1}, {j + 1})"
        )
    for v in g.vertices:
        if not v.is_inside_disk():
            raise GraphIntegrityError("seed vertex outside the unit disk")
    return g


def verify_condition1(g: Graph) -> bool:
    """True iff the two circumcenter vertices are at the exact target
    distance from each vertex of their defining triangles (six edge
    checks)."""
    if g.order < 9:
        raise ValueError("graph does not contain the nine seed vertices")
    return all(is_unit_edge(g.vertices[i], g.vertices[j]) for i, j in _CIRCUMCENTER_CHECKS)


# ---------------------------------------------------------------------------
# numeric spindle for arbitrary distance
# ---------------------------------------------------------------------------

SPINDLE_EDGES = (
    (0, 1), (0, 2), (1, 2),
    (1, 3), (2, 3),
    (0, 4), (0, 5), (4, 5),
    (4, 6), (5, 6),
    (3, 6),
)


def spindle_numeric(d: float) -> tuple[list[tuple[float, float]], tuple[tuple[int, int], ...]]:
    """Seven-point double-rhombus embedding at hyperbolic distance d > 0.

    Returns the vertex coordinates (floats, Poincare disk) and the eleven
    edges.  Works for any positive d, not just the exact construction value.
    """
    if d <= 0:
        raise ValueError("distance must be positive")
    big_r = math.tanh(d / 2)
    cos_a = (1 + big_r * big_r) / 2
    alpha = math.acos(cos_a)
    cos_b = 1 - (1 - cos_a) / (8 * cos_a * cos_a * (1 + cos_a))
    beta = math.acos(cos_b)

    def apex(theta1: float, theta2: float) -> tuple[float, float]:
        # fourth rhombus vertex over the base pair at angles theta1, theta2
        return (
            big_r * (math.cos(theta1) + math.cos(theta2)) / (2 * cos_a),
            big_r * (math.sin(theta1) + math.sin(theta2)) / (2 * cos_a),
        )

    pts = [
        (0.0, 0.0),
        (big_r, 0.0),
        (big_r * math.cos(alpha), big_r * math.sin(alpha)),
        apex(0.0, alpha),
        (big_r * math.cos(beta), big_r * math.sin(beta)),
        (big_r * math.cos(alpha + beta), big_r * math.sin(alpha + beta)),
        apex(beta, alpha + beta),
    ]
    return pts, SPINDLE_EDGES


# ---------------------------------------------------------------------------
# rigorous numeric coordinates
# ---------------------------------------------------------------------------

class NumericPoint:
    """Coordinates with explicit rational bounds (hence an error radius).

    Each coordinate is held as integers (lo, hi, den), den > 0, meaning the
    interval [lo/den, hi/den]; x_lo ... y_hi give the bounds as Fractions."""

    __slots__ = ("_x", "_y")

    def __init__(self, x: tuple[int, int, int], y: tuple[int, int, int]):
        if x[0] > x[1] or y[0] > y[1]:
            raise ValueError("bounds out of order")
        if x[2] <= 0 or y[2] <= 0:
            raise ValueError("denominators must be positive")
        self._x = x
        self._y = y

    @property
    def x_lo(self) -> Fraction:
        return Fraction(self._x[0], self._x[2])

    @property
    def x_hi(self) -> Fraction:
        return Fraction(self._x[1], self._x[2])

    @property
    def y_lo(self) -> Fraction:
        return Fraction(self._y[0], self._y[2])

    @property
    def y_hi(self) -> Fraction:
        return Fraction(self._y[1], self._y[2])

    # int / int is correctly rounded, so these are the nearest doubles to
    # the midpoints, as float(Fraction) gives them

    @property
    def x(self) -> float:
        lo, hi, den = self._x
        return (lo + hi) / (2 * den)

    @property
    def y(self) -> float:
        lo, hi, den = self._y
        return (lo + hi) / (2 * den)

    def err_radius(self) -> float:
        return float(max(Fraction(hi - lo, 2 * den) for lo, hi, den in (self._x, self._y)))

    def __repr__(self):
        return f"NumericPoint(x~{self.x:.12g}, y~{self.y:.12g}, err={self.err_radius():.3g})"


def _imul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product of the intervals [lo/den, hi/den] given as (lo, hi, den)."""
    alo, ahi, ad = a
    blo, bhi, bd = b
    ps = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(ps), max(ps), ad * bd


def _as_interval(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    den = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


@functools.lru_cache(maxsize=16)
def _scale_enclosures(wn: int, wd: int):
    """Enclosures of R and R*s at width wn/wd; they depend on nothing else."""
    width = Fraction(wn, wd)
    r_int = _as_interval(*interval_sqrt(*fe_to_interval(RADIUS_SQ, width), width))
    s_int = _as_interval(*interval_sqrt(*fe_to_interval(SIN_SQ, width), width))
    return r_int, _imul(r_int, s_int)


def point_coords_numeric(p: ModulePoint, err_radius: float = 1e-12) -> NumericPoint:
    """Rigorous enclosure of the disk coordinates of a module point, each
    coordinate at most 2 * err_radius wide (err_radius is a float, an int,
    a Fraction or a Decimal)."""
    tn, td = err_radius.as_integer_ratio()  # td > 0
    if tn <= 0:
        raise ValueError("err_radius must be positive")
    # the enclosures are taken at width tn/wd, a quarter of the target and
    # 16 times narrower per round
    wd = 4 * td
    while True:
        r_int, rs_int = _scale_enclosures(tn, wd)
        x = _imul(r_int, _interval_raw(p.x_elem, tn, wd))
        y = _imul(rs_int, _interval_raw(p.y_elem, tn, wd))
        # both widths at most 2 * err_radius = 2 tn / td
        if (x[1] - x[0]) * td <= 2 * tn * x[2] and (y[1] - y[0]) * td <= 2 * tn * y[2]:
            return NumericPoint(x, y)
        wd *= 16
