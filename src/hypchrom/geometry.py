"""Points of the Poincare disk in module form and exact edge certification.

A module point encodes disk coordinates as x = R*X(c), y = R*s*Y(c) where
X, Y are elements of Q(c), R^2 = 2c - 1 and s^2 = 1 - c^2.  The octuple
[m, n, p, q, u, v, w, z] lists the coefficients of X = m c^3 + n c^2 + p c + q
and Y = u c^3 + v c^2 + w c + z.

Two points are at the target hyperbolic distance exactly when the quantity

    f(P, Q) = 2 * ((x1-x2)^2 + (y1-y2)^2) / ((1 - x1^2 - y1^2)(1 - x2^2 - y2^2))

equals (2c-1)/(1-c), that is when the residual 2(1-c)*Delta(P, Q) - K_P*K_Q
is zero, with Delta = (X1-X2)^2 + (1-c^2)(Y1-Y2)^2 and K = 1 - x^2 - y^2.
Expanded, the residual is

    A_P + A_Q - U*X_P*X_Q - V*Y_P*Y_Q - K_P*K_Q,

with A = 2(1-c)(X^2 + (1-c^2)Y^2), U = 4(1-c) and V = U(1-c^2): terms of
one point, and three cross products.  Each point builds, once and in
integers, its operand row: X, Y, K, A, U*X and V*Y over one common
denominator, kept as 64-bit ints (or Python ints when an entry is wider).
One formula, _residual_is_zero, sums the three products of two rows as one
unreduced polynomial, reduces it once by the minimal polynomial and
compares it with A_P + A_Q coefficient by coefficient, with no rounding
anywhere.  It alone accepts an edge: is_unit_edge evaluates it on two rows
of Python ints, and unit_edges on a block of pairs at once, in int64 when a
proven magnitude bound keeps it exact.  K is read from the same row, for
the disk test and the circles of augment.

Most pairs are not edges, and a modular screen proves that cheaply.  Fix a
prime p and a root r of the minimal polynomial mod p.  Sending c to r and
reducing mod p is a ring homomorphism from the elements of Q(c) whose
coefficient denominators are prime to p, provided p does not divide 16
(the leading coefficient, so reduction by the minimal polynomial keeps
such elements p-integral).  A point's row is p-integral when p does not
divide its common denominator; its image mod p then gives the residues of
the same six operands, and the screen evaluates the same expanded residual
on them.  A nonzero image proves the residual nonzero, so the pair is not
an edge.  screened_pairs takes the points themselves: it maps each point's
row once to a uint64 row of residues, and scans blocks of rows against all
columns.  A zero image proves nothing, and such pairs, with every pair
involving a point whose row is not p-integral, go to is_unit_edge.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
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
)


class GraphIntegrityError(Exception):
    """An exact certification check failed on data that must be certified."""


class ModulePoint:
    """A disk point with both scaled coordinates in Q(c)."""

    # _row is the operand row and _circle the distance circle of
    # augment.circle_of, each built on first use and cached
    __slots__ = ("x_elem", "y_elem", "_row", "_circle")

    def __init__(self, x_elem: FieldElement, y_elem: FieldElement):
        self.x_elem = x_elem
        self.y_elem = y_elem
        self._row = None
        self._circle = None

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

    def _operands(self):
        """The operand row, built on first use and cached (see _operand_row)."""
        if self._row is None:
            self._row = _operand_row(self.x_elem, self.y_elem)
        return self._row

    def k_elem(self) -> FieldElement:
        """1 - x^2 - y^2 as a field element (positive inside the disk)."""
        row = self._operands()
        return FieldElement._from_raw(tuple(row[_K : _K + 4]), row[_D])

    def is_inside_disk(self) -> bool:
        return fe_sign(self.k_elem()) > 0

    def to_floats(self) -> tuple[float, float]:
        return (
            _R_FLOAT * self.x_elem.to_float(),
            _RS_FLOAT * self.y_elem.to_float(),
        )

    def as_strings(self) -> tuple[str, ...]:
        """The octuple as write_bundle writes it."""
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

# An operand row holds, over one common denominator D > 0, the numerators
# of X, Y, K = 1 - (2c-1) S, A = 2(1-c) S, U*X and V*Y, where
# S = X^2 + (1-c^2) Y^2, U = 4(1-c) and V = U (1-c^2) = 4(1 - c - c^2 + c^3):
# 24 integers, four per element by ascending degree, then D.  These are the
# starting offsets of the six elements and of D.
_X, _Y, _K, _A, _UX, _VY, _D = range(0, 25, 4)


def _operand_row(x_elem: FieldElement, y_elem: FieldElement):
    """The operand row of the point (X, Y), in integers, with the common
    gcd of its 25 entries divided out.  It is an array of signed 64-bit
    ints, or a tuple when an entry does not fit one."""
    xn, xd = x_elem._n, x_elem._d
    yn, yd = y_elem._n, y_elem._d
    el = math.lcm(xd, yd)
    # X = x / L and Y = y / L
    mx, my = el // xd, el // yd
    x0, x1, x2, x3 = xn[0] * mx, xn[1] * mx, xn[2] * mx, xn[3] * mx
    y0, y1, y2, y3 = yn[0] * my, yn[1] * my, yn[2] * my, yn[3] * my
    # S L^2 = x^2 + (1 - c^2) y^2 = q0 + q1 c + ... + q8 c^8, with y^2 = e
    e0, e1, e2 = y0 * y0, 2 * y0 * y1, 2 * y0 * y2 + y1 * y1
    e3, e4 = 2 * (y0 * y3 + y1 * y2), 2 * y1 * y3 + y2 * y2
    e5, e6 = 2 * y2 * y3, y3 * y3
    q0 = x0 * x0 + e0
    q1 = 2 * x0 * x1 + e1
    q2 = 2 * x0 * x2 + x1 * x1 + e2 - e0
    q3 = 2 * (x0 * x3 + x1 * x2) + e3 - e1
    q4 = 2 * x1 * x3 + x2 * x2 + e4 - e2
    q5 = 2 * x2 * x3 + e5 - e3
    q6 = x3 * x3 + e6 - e4
    # s = 64 S L^2, by 64 c^4 .. 64 c^8 = (-4, 8, 48, -32), (2, -8, -16, 64),
    # (-4, 10, 40, -48), (3, -10, -26, 64), (-4, 11, 38, -58); q7 = -e5 and
    # q8 = -e6
    s0 = 64 * q0 - 4 * q4 + 2 * q5 - 4 * q6 - 3 * e5 + 4 * e6
    s1 = 64 * q1 + 8 * q4 - 8 * q5 + 10 * q6 + 10 * e5 - 11 * e6
    s2 = 64 * q2 + 48 * q4 - 16 * q5 + 40 * q6 + 26 * e5 - 38 * e6
    s3 = 64 * q3 - 32 * q4 + 64 * q5 - 48 * q6 - 64 * e5 + 58 * e6
    # 16 c s, by 16 c^4 = (-1, 2, 12, -8); then with D = 1024 L^2 and
    # t = 16 s - 2 (16 c s), A = (t + 16 s) / D and K = (D + t) / D
    c0, c1, c2, c3 = -s3, 16 * s0 + 2 * s3, 16 * s1 + 12 * s3, 16 * s2 - 8 * s3
    t0, t1, t2, t3 = 16 * s0 - 2 * c0, 16 * s1 - 2 * c1, 16 * s2 - 2 * c2, 16 * s3 - 2 * c3
    d = 1024 * el * el
    # 4 L U X = 16 (1 - c) x, reduced as above
    u0, u1 = 16 * x0 + x3, 16 * (x1 - x0) - 2 * x3
    u2, u3 = 16 * (x2 - x1) - 12 * x3, 16 * (x3 - x2) + 8 * x3
    # 8 L V Y = 32 w, w = (1 - c - c^2 + c^3) y reduced by 32 c^4 .. 32 c^6 =
    # (-2, 4, 24, -16), (1, -4, -8, 32), (-2, 5, 20, -24)
    w4, w5 = y1 - y2 - y3, y2 - y3
    v0 = 32 * y0 - 2 * w4 + w5 - 2 * y3
    v1 = 32 * (y1 - y0) + 4 * w4 - 4 * w5 + 5 * y3
    v2 = 32 * (y2 - y1 - y0) + 24 * w4 - 8 * w5 + 20 * y3
    v3 = 32 * (y3 - y2 - y1 + y0) - 16 * w4 + 32 * w5 - 24 * y3
    sx, su, sv = 1024 * el, 256 * el, 128 * el
    row = (
        x0 * sx, x1 * sx, x2 * sx, x3 * sx,
        y0 * sx, y1 * sx, y2 * sx, y3 * sx,
        d + t0, t1, t2, t3,
        t0 + 16 * s0, t1 + 16 * s1, t2 + 16 * s2, t3 + 16 * s3,
        u0 * su, u1 * su, u2 * su, u3 * su,
        v0 * sv, v1 * sv, v2 * sv, v3 * sv,
        d,
    )
    g = math.gcd(*row)
    if g > 1:
        row = tuple(v // g for v in row)
    try:
        return array("q", row)
    except OverflowError:
        return row


def f_of(p: ModulePoint, q: ModulePoint) -> FieldElement:
    """The distance quantity f(P, Q) as an exact field element:
    (2c-1)/(1-c) * (A_P + A_Q - U X_P X_Q - V Y_P Y_Q) / (K_P K_Q)."""

    def elems(point):
        row = point._operands()
        d = row[_D]
        return [FieldElement._from_raw(tuple(row[i : i + 4]), d) for i in range(0, 24, 4)]

    xp, yp, kp, ap, uxp, vyp = elems(p)
    xq, yq, kq, aq, _, _ = elems(q)
    return EDGE_INVARIANT * (ap + aq - uxp * xq - vyp * yq) / (kp * kq)


# An operand row entry below this in magnitude keeps every partial sum of
# _residual_is_zero inside int64 (see unit_edges).
_INT64_ENTRY_BOUND = 2**26


def _residual_is_zero(p, q):
    """Whether the residual of the operand rows p and q is zero, coefficient
    by coefficient: a bool for two rows of ints, a bool array for two blocks
    of 25 rows (one column per pair), as unpacking a 2-D array yields its
    rows.

    With P's and Q's denominators D_P and D_Q, the residual is zero iff
    (U X_P) X_Q + (V Y_P) Y_Q + K_P K_Q, one degree-6 sum of integer
    products over D_P D_Q, reduced once by 32 c^4, 32 c^5 and 32 c^6,
    equals 32 (D_Q A_P + D_P A_Q) coefficient by coefficient."""
    (_, _, _, _, _, _, _, _, k0, k1, k2, k3, a0, a1, a2, a3,
     u0, u1, u2, u3, v0, v1, v2, v3, d) = p
    (x0, x1, x2, x3, y0, y1, y2, y3, l0, l1, l2, l3, b0, b1, b2, b3,
     _, _, _, _, _, _, _, _, e) = q
    s4 = u1 * x3 + u2 * x2 + u3 * x1 + v1 * y3 + v2 * y2 + v3 * y1 + k1 * l3 + k2 * l2 + k3 * l1
    s5 = u2 * x3 + u3 * x2 + v2 * y3 + v3 * y2 + k2 * l3 + k3 * l2
    s6 = u3 * x3 + v3 * y3 + k3 * l3
    # 32 (s_i - D_Q A_P - D_P A_Q) + the c^4 .. c^6 terms of the reduction
    return (
        (32 * (u0 * x0 + v0 * y0 + k0 * l0 - e * a0 - d * b0) - 2 * s4 + s5 - 2 * s6 == 0)
        & (32 * (u0 * x1 + u1 * x0 + v0 * y1 + v1 * y0 + k0 * l1 + k1 * l0 - e * a1 - d * b1)
           + 4 * s4 - 4 * s5 + 5 * s6 == 0)
        & (32 * (u0 * x2 + u1 * x1 + u2 * x0 + v0 * y2 + v1 * y1 + v2 * y0
                 + k0 * l2 + k1 * l1 + k2 * l0 - e * a2 - d * b2)
           + 24 * s4 - 8 * s5 + 20 * s6 == 0)
        & (32 * (u0 * x3 + u1 * x2 + u2 * x1 + u3 * x0 + v0 * y3 + v1 * y2 + v2 * y1 + v3 * y0
                 + k0 * l3 + k1 * l2 + k2 * l1 + k3 * l0 - e * a3 - d * b3)
           - 16 * s4 + 32 * s5 - 24 * s6 == 0)
    )


def is_unit_edge(p: ModulePoint, q: ModulePoint) -> bool:
    """True iff f(P, Q) equals the edge value exactly, that is iff the
    residual A_P + A_Q - U X_P X_Q - V Y_P Y_Q - K_P K_Q is zero: the one
    residual formula, _residual_is_zero, on the two operand rows in Python
    integers.  Growth tests its pairs one at a time here; unit_edges tests
    a list of pairs at once with the same formula."""
    return _residual_is_zero(p._row or p._operands(), q._row or q._operands())


def unit_edges(points: Sequence[ModulePoint], pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """is_unit_edge(points[i], points[j]) for each pair (i, j), as one bool
    array in the order of pairs, from one evaluation of _residual_is_zero
    on the pairs' rows as columns.

    The rows are stacked into one int64 matrix when every row is an int64
    array whose entries are below 2^26 in magnitude, and into Python ints
    (dtype object) otherwise.  Under that bound the int64 result is exact.
    Each coefficient is a signed sum of products of two entries, each below
    2^52, weighted by constants; the total weight is 190, 331, 676 and 856
    for the coefficients of 1, c, c^2 and c^3 (for c^3: 32 * 14 products,
    16 * 9 in s4, 32 * 6 in s5 and 24 * 3 in s6).  Every partial sum is one
    of these sums with terms left out, so its magnitude stays below
    856 * 2^52 < 2^62 and nothing wraps."""
    rows = [pt._row or pt._operands() for pt in points]
    narrow = all(type(row) is array for row in rows)
    if narrow:
        block = np.frombuffer(b"".join(rows), dtype=np.int64).reshape(len(rows), 25)
        narrow = ((block < _INT64_ENTRY_BOUND) & (block > -_INT64_ENTRY_BOUND)).all()
    if not narrow:
        # Python ints, which never wrap
        block = np.array([tuple(row) for row in rows], dtype=object).reshape(len(rows), 25)
    cols = np.ascontiguousarray(block.T)
    at = np.fromiter(chain.from_iterable(pairs), dtype=np.intp, count=2 * len(pairs))
    return _residual_is_zero(cols[:, at[0::2]], cols[:, at[1::2]])


# ---------------------------------------------------------------------------
# the modular edge screen
# ---------------------------------------------------------------------------

# the minimal polynomial splits completely mod this prime (which does not
# divide 16); SCREEN_ROOT is one of its four roots
SCREEN_PRIME = 2147483549
SCREEN_ROOT = 39333461

_SCAN_BLOCK = 64  # rows compared at once with every column in screened_pairs


def _screen_rows(points: Sequence[ModulePoint]) -> np.ndarray:
    """One uint64 operand row per point, the image mod p of its exact
    operand row: the residues of X, Y, K, A, U*X and V*Y, each
    n0 + n1 r + n2 r^2 + n3 r^3 over the row's one denominator D, then the
    no-image flag 0.  A point whose D is divisible by the prime has no
    image; its row is zero but for the flag 1, and the screen never rules
    it out."""
    p, r = SCREEN_PRIME, SCREEN_ROOT
    rows = []
    for pt in points:
        row = pt._operands()
        d = row[_D]
        if d % p == 0:
            rows.append((0, 0, 0, 0, 0, 0, 1))
            continue
        inv = pow(d, -1, p)
        # the 24 numerators four at a time; zip stops before D
        fours = iter(row)
        rows.append(tuple(
            (n0 + r * (n1 + r * (n2 + r * n3))) * inv % p
            for n0, n1, n2, n3 in zip(fours, fours, fours, fours)
        ) + (0,))
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
    """Exact certification of a graph: every vertex lies strictly inside
    the unit disk, and the recorded edges are exactly the pairs with
    f = f_edge.

    Every pair goes through the modular screen, which proves most of them
    non-edges, and the pairs it cannot rule out through one unit_edges
    call, the batch form of is_unit_edge.  Failures are ("disk", i) for a
    vertex on or outside the unit circle, ("edge", i, j) for a recorded
    pair that is not an edge and ("nonedge", i, j) for an unrecorded pair
    that is one, sorted by their indices.  seed is accepted for callers
    that still pass it and has no effect."""
    v = g.vertices
    maybe = screened_pairs(v)
    # every exact test before any new object, as one batch: building tuples
    # or a set between per-pair tests fragmented the heap and slowed a later
    # coloring search by about 25%
    found = set(compress(maybe, unit_edges(v, maybe).tolist()))
    recorded = g.edge_set()
    failures = sorted(
        [("disk", i) for i, point in enumerate(v) if not point.is_inside_disk()]
        + [("edge", i, j) for i, j in recorded - found]
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

# the Moser spindle's eleven edges, 0-based
SPINDLE_EDGES = (
    (0, 1), (0, 2), (1, 2),
    (1, 3), (2, 3),
    (0, 4), (0, 5), (4, 5),
    (4, 6), (5, 6),
    (3, 6),
)

# the two circumcenter vertices joined to their defining triangles
_CIRCUMCENTER_CHECKS = ((1, 7), (3, 7), (4, 7), (2, 8), (5, 8), (6, 8))

# 17 edges: the spindle on the first seven vertices plus the circumcenter checks
SEED_EDGES = SPINDLE_EDGES + _CIRCUMCENTER_CHECKS


def build_g9() -> Graph:
    """The certified order-9, size-17 seed graph.

    Every vertex is verified to lie inside the disk, every listed edge is
    verified exactly and every non-edge pair is verified to fail; any
    discrepancy raises GraphIntegrityError.
    """
    g = Graph([ModulePoint.from_octuple(o) for o in _SEED_OCTUPLES], SEED_EDGES)
    report = certify_graph(g)
    if not report.ok:
        kind, *at = report.failures[0]
        where = ", ".join(str(i + 1) for i in at)
        raise GraphIntegrityError(
            f"seed graph self-check failed on {'vertex' if kind == 'disk' else 'pair'} ({where})"
        )
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
