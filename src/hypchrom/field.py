"""Exact arithmetic in the quartic number field Q(c).

The generator c is the real root near 0.6778 of

    16c^4 + 8c^3 - 12c^2 - 2c + 1 = 0.

Elements are polynomials of degree <= 3 in c with rational coefficients,
stored canonically (four integer numerators over one positive common
denominator, with overall gcd 1), so equality and hashing are structural.
Multiplication and inversion work on the integer numerators only.

Sign and interval queries evaluate the element on an isolating interval of
the root and bisect until the answer is unambiguous; they are exact, never
floating point.  Square roots are decided exactly through the tower
Q < Q(sqrt5) < Q(c): the quartic factors over Q(sqrt5), so a field square
root reduces to square roots in Q(sqrt5) and ultimately to integer square
roots.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Optional

Rational = Fraction

# 16c^4 + 8c^3 - 12c^2 - 2c + 1, coefficients by ascending degree
MIN_POLY = (1, -2, -12, 8, 16)


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    """Serialize a Fraction as "num/den" with the denominator always explicit."""
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# raw kernel: elements as (n0, n1, n2, n3, den), not necessarily reduced
# ---------------------------------------------------------------------------

def _reduced_powers():
    # c^4 from the minimal polynomial, then c^5 = c*c^4, c^6 = c*c^5,
    # re-reducing the degree-4 term each time.
    a0, a1, a2, a3, a4 = MIN_POLY
    c4 = [Fraction(-a0, a4), Fraction(-a1, a4), Fraction(-a2, a4), Fraction(-a3, a4)]
    powers = [c4]
    for _ in range(2):
        prev = powers[-1]
        shifted = [Fraction(0), prev[0], prev[1], prev[2]]
        top = prev[3]
        powers.append([shifted[i] + top * c4[i] for i in range(4)])
    out = []
    for p in powers:
        den = math.lcm(*(f.denominator for f in p))
        out.append(tuple(int(f * den) for f in p) + (den,))
    return out


_C4, _C5, _C6 = _reduced_powers()
_RED_DEN = math.lcm(_C4[4], _C5[4], _C6[4])
_T4 = tuple(n * (_RED_DEN // _C4[4]) for n in _C4[:4])
_T5 = tuple(n * (_RED_DEN // _C5[4]) for n in _C5[:4])
_T6 = tuple(n * (_RED_DEN // _C6[4]) for n in _C6[:4])
_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _raw_mul(an, ad, bn, bd):
    a0, a1, a2, a3 = an
    b0, b1, b2, b3 = bn
    p4 = a1 * b3 + a2 * b2 + a3 * b1
    p5 = a2 * b3 + a3 * b2
    p6 = a3 * b3
    t40, t41, t42, t43 = _T4
    t50, t51, t52, t53 = _T5
    t60, t61, t62, t63 = _T6
    r = _RED_DEN
    return (
        (
            r * (a0 * b0) + p4 * t40 + p5 * t50 + p6 * t60,
            r * (a0 * b1 + a1 * b0) + p4 * t41 + p5 * t51 + p6 * t61,
            r * (a0 * b2 + a1 * b1 + a2 * b0) + p4 * t42 + p5 * t52 + p6 * t62,
            r * (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0) + p4 * t43 + p5 * t53 + p6 * t63,
        ),
        r * ad * bd,
    )


def _raw_add(an, ad, bn, bd):
    if ad == bd:
        return (an[0] + bn[0], an[1] + bn[1], an[2] + bn[2], an[3] + bn[3]), ad
    return (
        (
            an[0] * bd + bn[0] * ad,
            an[1] * bd + bn[1] * ad,
            an[2] * bd + bn[2] * ad,
            an[3] * bd + bn[3] * ad,
        ),
        ad * bd,
    )


def _raw_sub(an, ad, bn, bd):
    if ad == bd:
        return (an[0] - bn[0], an[1] - bn[1], an[2] - bn[2], an[3] - bn[3]), ad
    return (
        (
            an[0] * bd - bn[0] * ad,
            an[1] * bd - bn[1] * ad,
            an[2] * bd - bn[2] * ad,
            an[3] * bd - bn[3] * ad,
        ),
        ad * bd,
    )


def _raw_is_zero(an) -> bool:
    return an[0] == 0 and an[1] == 0 and an[2] == 0 and an[3] == 0


def _normalize(an, ad):
    if ad < 0:
        an = (-an[0], -an[1], -an[2], -an[3])
        ad = -ad
    g = math.gcd(math.gcd(an[0], an[1]), math.gcd(an[2], an[3]))
    g = math.gcd(g, ad)
    if g > 1:
        an = (an[0] // g, an[1] // g, an[2] // g, an[3] // g)
        ad //= g
    return an, ad


class FieldElement:
    """An element a0 + a1*c + a2*c^2 + a3*c^3 of Q(c), in canonical form."""

    __slots__ = ("_n", "_d")

    def __init__(self, a0=0, a1=0, a2=0, a3=0):
        f0, f1, f2, f3 = Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3)
        den = math.lcm(f0.denominator, f1.denominator, f2.denominator, f3.denominator)
        n = (
            int(f0 * den),
            int(f1 * den),
            int(f2 * den),
            int(f3 * den),
        )
        self._n, self._d = _normalize(n, den)

    @classmethod
    def _from_raw(cls, an, ad) -> "FieldElement":
        self = object.__new__(cls)
        self._n, self._d = _normalize(an, ad)
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    def is_zero(self) -> bool:
        return _raw_is_zero(self._n)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_add(self._n, self._d, o._n, o._d))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_sub(self._n, self._d, o._n, o._d))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_sub(o._n, o._d, self._n, self._d))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_mul(self._n, self._d, o._n, o._d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        n = self._n
        return FieldElement._from_raw((-n[0], -n[1], -n[2], -n[3]), self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by the adjugate of the multiplication
        matrix, in integers only.

        Column j of M is self*c^j, so M v = e0 solves self*v = 1; with
        the integer matrix B = RED_DEN * M from _raw_mul, v_i is
        RED_DEN * C_0i / det(B), where C_0i are the cofactors of the first
        row.  det(B) is RED_DEN^4 times the norm of self's numerator, which
        is nonzero since the minimal polynomial is irreducible."""
        if self.is_zero():
            raise ZeroDivisionError("division by the zero element of Q(c)")
        cols = [_raw_mul(self._n, 1, e, 1)[0] for e in _BASIS]
        # rows 1-3 of B, and the 2x2 minors of rows 2-3 on column pairs
        (b10, b20, b30), (b11, b21, b31), (b12, b22, b32), (b13, b23, b33) = (
            col[1:] for col in cols
        )
        m01 = b20 * b31 - b21 * b30
        m02 = b20 * b32 - b22 * b30
        m03 = b20 * b33 - b23 * b30
        m12 = b21 * b32 - b22 * b31
        m13 = b21 * b33 - b23 * b31
        m23 = b22 * b33 - b23 * b32
        cof = (
            b11 * m23 - b12 * m13 + b13 * m12,
            -(b10 * m23 - b12 * m03 + b13 * m02),
            b10 * m13 - b11 * m03 + b13 * m01,
            -(b10 * m12 - b11 * m02 + b12 * m01),
        )
        det = sum(col[0] * k for col, k in zip(cols, cof))
        scale = _RED_DEN * self._d
        return FieldElement._from_raw(tuple(scale * k for k in cof), det)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self):
        return "FieldElement({}, {}, {}, {})".format(*self.coeffs)

    def __str__(self):
        return " ".join(format_rational(q) for q in self.coeffs)

    # -- evaluation ----------------------------------------------------------

    def to_float(self) -> float:
        x = generator_float()
        n = self._n
        return (n[0] + x * (n[1] + x * (n[2] + x * n[3]))) / self._d

    # -- serialization --------------------------------------------------------

    def as_strings(self) -> tuple[str, str, str, str]:
        return tuple(format_rational(q) for q in self.coeffs)

    @classmethod
    def from_strings(cls, parts) -> "FieldElement":
        if len(parts) != 4:
            raise ValueError("expected four coefficient strings")
        return cls(*(parse_rational(p) for p in parts))


ZERO = FieldElement(0)
ONE = FieldElement(1)
GEN = FieldElement(0, 1)  # the generator c itself


# ---------------------------------------------------------------------------
# root isolation and interval evaluation
# ---------------------------------------------------------------------------

def _minpoly_at(x: Fraction) -> Fraction:
    out = Fraction(0)
    for coef in reversed(MIN_POLY):
        out = out * x + coef
    return out


class _RootCache:
    """The bisection chain of the designated root: level k is the interval
    of width 1/(40 * 2^k) reached by k deterministic halvings of the seed
    interval [27/40, 7/10], which brackets the root and no other.  A level
    depends only on k, never on which widths were asked for before."""

    def __init__(self):
        self._lock = threading.Lock()
        lo, hi = Fraction(27, 40), Fraction(7, 10)
        if not _minpoly_at(lo) * _minpoly_at(hi) < 0:
            raise AssertionError("seed interval does not bracket the root")
        self._chain = [(lo, hi)]

    @staticmethod
    def level(max_width: Fraction) -> int:
        """The coarsest level at most max_width wide."""
        # smallest k with 1/(40 * 2^k) <= a/b, i.e. 2^k >= ceil(b / (40a))
        need = -(-max_width.denominator // (40 * max_width.numerator))
        return (need - 1).bit_length()

    def at(self, level: int) -> tuple[Fraction, Fraction]:
        with self._lock:
            chain = self._chain
            while len(chain) <= level:
                lo, hi = chain[-1]
                mid = (lo + hi) / 2
                chain.append((lo, mid) if _minpoly_at(lo) * _minpoly_at(mid) <= 0 else (mid, hi))
            return chain[level]

    def bounds(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """The coarsest level at most max_width wide."""
        return self.at(self.level(max_width))

    def finest(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """The deepest level computed so far, at most max_width wide."""
        return self.at(max(self.level(max_width), len(self._chain) - 1))


_ROOT = _RootCache()


def root_bounds(max_width=Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
    """Rational bounds on the generator value, at most max_width wide; the
    same bounds for the same width in every call history."""
    return _ROOT.bounds(Fraction(max_width))


# root enclosures at least this narrow carry the root to full double
# precision; generator_float and fe_to_interval never use wider ones
_FLOAT_ROOT_WIDTH = Fraction(1, 10**18)


def generator_float() -> float:
    global _GEN_FLOAT
    if _GEN_FLOAT is None:
        lo, hi = _ROOT.bounds(_FLOAT_ROOT_WIDTH)
        _GEN_FLOAT = float((lo + hi) / 2)
    return _GEN_FLOAT


_GEN_FLOAT: Optional[float] = None


def _interval_eval(coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    # Horner with interval arithmetic; 0 < lo < hi always holds here but the
    # intermediate intervals can span zero, so multiply conservatively.
    acc_lo = acc_hi = Fraction(0)
    for coef in reversed(coeffs):
        ps = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(ps) + coef, max(ps) + coef
    return acc_lo, acc_hi


def fe_sign(a: FieldElement) -> int:
    """Sign of a at the designated root: 0 exactly when a is the zero
    element, otherwise decided by interval refinement."""
    if a.is_zero():
        return 0
    coeffs = a.coeffs
    width = Fraction(1, 1 << 8)
    while True:
        # any enclosure of the root decides the sign, so reuse the deepest
        lo, hi = _ROOT.finest(width)
        vlo, vhi = _interval_eval(coeffs, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        width /= 1 << 8
        if width < Fraction(1, 1 << 20000):
            raise ArithmeticError("sign refinement failed to terminate")


def fe_to_interval(a: FieldElement, target_width) -> tuple[Fraction, Fraction]:
    """Rational bounds on the value of a at the root, at most target_width
    wide.  Bounds shrink monotonically as target_width decreases, and
    depend only on a and target_width: they are evaluated on the coarsest
    level of the root's bisection chain that gives a narrow enough value,
    and never on one coarser than generator_float's, so their midpoint is
    as accurate as a double can hold."""
    target = Fraction(target_width)
    if target <= 0:
        raise ValueError("target_width must be positive")
    if a.is_zero():
        return Fraction(0), Fraction(0)
    coeffs = a.coeffs
    level = _ROOT.level(min(target, _FLOAT_ROOT_WIDTH))
    while True:
        vlo, vhi = _interval_eval(coeffs, *_ROOT.at(level))
        if vhi - vlo <= target:
            return vlo, vhi
        level += 1


def interval_sqrt(lo: Fraction, hi: Fraction, target_width) -> tuple[Fraction, Fraction]:
    """Outward-rounded square root of a nonnegative rational interval."""
    if lo < 0:
        raise ValueError("interval must be nonnegative")
    target = Fraction(target_width)
    # scale so that integer square roots give the precision we need
    scale = 1
    while Fraction(2, scale) > target:
        scale <<= 1
    lo_s = math.isqrt((lo.numerator * scale * scale) // lo.denominator)
    hi_num = hi.numerator * scale * scale
    hi_s = math.isqrt(-(-hi_num // hi.denominator))
    return Fraction(lo_s, scale), Fraction(hi_s + 1, scale)


# ---------------------------------------------------------------------------
# square roots via the tower Q < Q(sqrt5) < Q(c)
# ---------------------------------------------------------------------------
#
# sqrt5 = 16c^3 + 8c^2 - 8c - 1 lies in Q(c), and the generator satisfies
# c^2 = u*c + 1/4 over Q(sqrt5) with u = (-1 + sqrt5)/4.  Elements of
# Q(sqrt5) are handled as (r, s) meaning r + s*sqrt5.

SQRT5 = FieldElement(-1, -8, 8, 16)

_Q5_U = (Fraction(-1, 4), Fraction(1, 4))  # u


def _q5_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _q5_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _q5_mul(a, b):
    return (a[0] * b[0] + 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _q5_scale(a, q):
    return (a[0] * q, a[1] * q)


def _q5_div(a, b):
    nrm = b[0] * b[0] - 5 * b[1] * b[1]
    if nrm == 0:
        raise ZeroDivisionError("zero element of Q(sqrt5)")
    return ((a[0] * b[0] - 5 * a[1] * b[1]) / nrm, (a[1] * b[0] - a[0] * b[1]) / nrm)


def _rat_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _q5_sqrt(g) -> Optional[tuple[Fraction, Fraction]]:
    g0, g1 = g
    if g1 == 0:
        r = _rat_sqrt(g0)
        if r is not None:
            return (r, Fraction(0))
        r = _rat_sqrt(g0 / 5)
        if r is not None:
            return (Fraction(0), r)
        return None
    n = _rat_sqrt(g0 * g0 - 5 * g1 * g1)
    if n is None:
        return None
    for nn in (n, -n):
        t0 = _rat_sqrt((g0 + nn) / 2)
        if t0 is None or t0 == 0:
            continue
        t1 = g1 / (2 * t0)
        if t0 * t0 + 5 * t1 * t1 == g0:
            return (t0, t1)
    return None


def _to_quad_basis(a: FieldElement):
    # rewrite a0 + a1 c + a2 c^2 + a3 c^3 as d0 + d1 c with d0, d1 in Q(sqrt5),
    # using c^2 = u c + 1/4 and c^3 = ((5 - sqrt5)/8) c + (-1 + sqrt5)/16
    a0, a1, a2, a3 = a.coeffs
    d0 = (
        a0 + a2 * Fraction(1, 4) + a3 * Fraction(-1, 16),
        a3 * Fraction(1, 16),
    )
    d1 = (
        a1 + a2 * _Q5_U[0] + a3 * Fraction(5, 8),
        a2 * _Q5_U[1] + a3 * Fraction(-1, 8),
    )
    return d0, d1


def _from_quad_basis(t0, t1) -> FieldElement:
    out = FieldElement(t0[0]) + SQRT5 * FieldElement(t0[1])
    out = out + GEN * (FieldElement(t1[0]) + SQRT5 * FieldElement(t1[1]))
    return out


def fe_sqrt(d: FieldElement) -> Optional[FieldElement]:
    """Exact square root of d in Q(c), nonnegative branch, or None when d
    is not a square in the field.  Raises ValueError on negative input."""
    s = fe_sign(d)
    if s < 0:
        raise ValueError("square root of a negative element")
    if s == 0:
        return ZERO
    d0, d1 = _to_quad_basis(d)
    u = _Q5_U
    qa = _q5_add(_q5_mul(u, u), (Fraction(1), Fraction(0)))  # u^2 + 1
    qb = _q5_add(_q5_scale(_q5_mul(u, d1), 2), _q5_scale(d0, 4))
    qc = _q5_mul(d1, d1)
    disc = _q5_sub(_q5_mul(qb, qb), _q5_scale(_q5_mul(qa, qc), 4))
    sq = _q5_sqrt(disc)
    if sq is None:
        return None
    for w in (
        _q5_div(_q5_add(qb, sq), _q5_scale(qa, 2)),
        _q5_div(_q5_sub(qb, sq), _q5_scale(qa, 2)),
    ):
        t1 = _q5_sqrt(w)
        if t1 is None:
            continue
        if t1 == (0, 0):
            t0 = _q5_sqrt(d0)
            if t0 is None:
                continue
        else:
            t0 = _q5_scale(_q5_sub(_q5_div(d1, t1), _q5_mul(u, t1)), Fraction(1, 2))
        t = _from_quad_basis(t0, t1)
        if t * t == d:
            return t if fe_sign(t) >= 0 else -t
    return None


# ---------------------------------------------------------------------------
# derived constants of the construction
# ---------------------------------------------------------------------------

SIN_SQ = ONE - GEN * GEN          # 1 - c^2
RADIUS_SQ = 2 * GEN - ONE         # 2c - 1, squared Euclidean radius of the base circle
EDGE_INVARIANT = RADIUS_SQ / (ONE - GEN)   # (2c-1)/(1-c), the value taken on edges
